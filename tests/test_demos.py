"""Each script in demos/ runs in a fresh interpreter, exits 0 and prints its
key result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KEY_LINES = {
    "01_counterexample.py": "|X conj(X)^T|        = 4194304 = 2^22",
    "02_group_fusion.py": "|C| = det(D^T D) = 3  (odd, as the theory demands)",
    "03_orbits_and_counts.py": "  p = 7: 42, 84, 0, 84, 36, 48, 0, 48, 64",
    "04_exotic_systems.py": "det relation: 387420489 = 3^2 * 43046721: True",
    "05_table_mode.py": "lhs determinant = 847288609443 (= 3^25)",
}


def test_every_demo_has_a_key_line():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[name] in proc.stdout.splitlines()
