"""The package's records: what `import fuschar` loads, and the containers
each record gets on construction."""

import pathlib
import subprocess
import sys

import fuschar
from fuschar.fusion import FusionData
from fuschar.groups import cyclic_group
from fuschar.reftables import MatchReport
from fuschar.verify import VerificationReport


def test_import_loads_every_module_and_no_dataclasses():
    pkg = pathlib.Path(fuschar.__file__).parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fuschar, fuschar.cli; "
            "print(' '.join(sys.modules))")
    # -S: no site hooks, so only what the package itself imports is loaded
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code, str(pkg.parent)],
                                capture_output=True, text=True, check=True).stdout.split())
    assert not {"dataclasses", "inspect", "ast"} & loaded
    submodules = {f"fuschar.{p.stem}" for p in pkg.glob("*.py") if p.stem != "__init__"}
    assert {"fuschar.groups", "fuschar.reftables", "fuschar.cli"} <= submodules
    assert submodules <= loaded  # nothing is left to load lazily


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
    f1, f2 = FusionData(c2, 2, [], "f1", True), FusionData(c2, 2, [], "f2", True)
    f1._class_of_s_class[0] = 0
    assert f2._class_of_s_class == {}

