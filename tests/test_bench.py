"""The benchmark's traced run against the package it traces."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_exact_ladder_self_check():
    """bench/tracing.py wraps package functions it looks up by name: a traced
    pass of exact-ladder must still run, agree with the untraced verdicts
    and fail no instance."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-ladder",
                           "--seed", "3", "--seconds", "0.05", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "trace self-check verdicts=match" in proc.stdout
    assert '"failed": 0' in proc.stdout


def test_traced_numeric_large_self_check():
    """The same for numeric-large, whose traced pass runs the tracer's
    walk_apply wrapper (the t = 0 set-up probe, then the timed steps)."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "numeric-large",
                           "--seed", "3", "--seconds", "0.05", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "trace self-check verdicts=match" in proc.stdout
    assert '"failed": 0' in proc.stdout
