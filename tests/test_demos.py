"""The demos run to completion, the families tour verifies every case, and the
pretty-good demo prints its three cone verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "04_families_tour":
        cases = [line.split() for line in proc.stdout.splitlines()
                 if line.lstrip().startswith("CASE ")]
        assert len(cases) == 22
        assert all([f for f in fields if f.startswith("status=")] == ["status=PASS"]
                   for fields in cases), proc.stdout
    if demo.stem == "05_pretty_good":
        verdicts = [line for line in proc.stdout.splitlines() if "support factors" in line]
        assert verdicts == [
            "C4 (k=2): support factors [0 1, -1/2 0 1] -> excluded (geodetic angle)",
            "triangular prism (k=3): support factors [0 1, -2/5 0 1] -> pretty good",
            "K_{3,3,3} (k=6): support factors [-1/2 1, 0 1, 1/2 1] -> "
            "excluded (geodetic angle)",
        ]
