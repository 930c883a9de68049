"""The package's records: what `import fuschar` and the command line load,
and the containers each record gets on construction."""

import pathlib
import subprocess
import sys

import fuschar
from fuschar.fusion import FusionData
from fuschar.groups import cyclic_group
from fuschar.reftables import MatchReport
from fuschar.verify import VerificationReport


def test_import_loads_every_module_and_no_dataclasses():
    """`import fuschar, fuschar.cli` (what the command line loads) loads every
    module of the package, and none of them imports `dataclasses`."""
    pkg = pathlib.Path(fuschar.__file__).parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fuschar, fuschar.cli; "
            "print(' '.join(sys.modules))")
    # -S: no site hooks, so only what the package itself imports is loaded
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code, str(pkg.parent)],
                                capture_output=True, text=True, check=True).stdout.split())
    assert not {"dataclasses", "inspect", "ast"} & loaded
    submodules = {f"fuschar.{p.stem}" for p in pkg.glob("*.py") if p.stem != "__init__"}
    assert {"fuschar.groups", "fuschar.reftables", "fuschar.cli"} <= submodules
    assert submodules <= loaded  # after fuschar.cli, nothing is left to load lazily


CORE = {"fuschar", "fuschar.cyclotomic", "fuschar.intlinalg", "fuschar.groups",
        "fuschar.chartable", "fuschar.fusion", "fuschar.stable", "fuschar.verify",
        "fuschar.specio"}

# after `import fuschar`: one fusion spec with a merge through the steps of
# `fuschar verify-fusion`, then a few corpus entries; prints the fuschar
# modules loaded after each stage, one line each
_VERIFY_PATHS = """
import sys
sys.path.insert(0, sys.argv[1])
import fuschar

def loaded():
    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "fuschar")))

loaded()
from fuschar.chartable import dixon_character_table
from fuschar.specio import fusion_from_spec
from fuschar.verify import run_group_corpus, verify_conjecture
fusion = fusion_from_spec({"group": {"kind": "permutation", "degree": 8,
                                     "generators": [[1, 2, 3, 4, 5, 6, 7, 0]]},
                           "p": 2, "merges": [["g0^2", "g0^6"]], "mode": "group"})
report = verify_conjecture(fusion, dixon_character_table(fusion.S), "C8 merged")
assert report.verdict in ("verified", "counterexample"), report.checks
loaded()
summary = run_group_corpus([("S3", 3), ("C5", 5), ("D8", 2)])
assert [r.verdict for r in summary["reports"]] == ["verified"] * 3
loaded()
"""


def test_import_loads_the_verifier_core_and_the_verify_paths_load_no_more():
    """`import fuschar` loads the verifier core and `specio`, not the paper
    layer or the command line, and the verify-fusion and corpus paths load
    no further module: a benchmark worker that stamps its set-up after
    `import fuschar` then counts every module those paths run."""
    src = pathlib.Path(fuschar.__file__).parent.parent
    # -S: no site hooks, so only what the package itself imports is loaded
    out = subprocess.run([sys.executable, "-S", "-c", _VERIFY_PATHS, str(src)],
                         capture_output=True, text=True, check=True).stdout
    after_import, after_spec, after_corpus = (set(line.split()) for line in out.splitlines())
    assert after_import == after_spec == after_corpus == CORE


def test_records_get_their_own_containers():
    a = VerificationReport("a", 2, 1, [], 1, 1, 1, "verified", True)
    b = VerificationReport("b", 2, 1, [], 1, 1, 1, "verified", True)
    a.checks["error"] = "x"
    assert b.checks == {}
    r1, r2 = MatchReport("r1"), MatchReport("r2")
    r1.matches.append("m")
    r1.discrepancies.append("d")
    r1.notes["n"] = 1
    assert (r2.matches, r2.discrepancies, r2.notes) == ([], [], {})
    c2 = cyclic_group(2)
    f1, f2 = FusionData(c2, 2, [], True), FusionData(c2, 2, [], True)
    f1._class_of_s_class[0] = 0
    assert f2._class_of_s_class == {}

