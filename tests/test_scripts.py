"""Smoke tests: each script in scripts/ runs to exit 0 on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name, argv, needle", [
    # the contraction norm at side 1501 is an eigensolve above size 1500
    ("schur_divergence.py", ["--r", "5", "55", "--window", "1501"],
     "observable truncation at side 1501: norm 1.000000000000"),
    ("noise_diagonal_convergence.py", ["--sizes", "64", "128"], "tail bound always covers"),
])
def test_script_runs(name, argv, needle):
    result = run_script(name, *argv)
    assert result.returncode == 0, result.stderr
    assert needle in result.stdout
