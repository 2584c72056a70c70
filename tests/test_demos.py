import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_worked_example.py", "02_sharp_bounds.py", "03_minkowski_duality.py"]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_worked_example_poset_counts():
    lines = run_demo("01_worked_example.py").stdout.splitlines()
    assert "regions via poset formula:   8" in lines
    assert "1-faces via poset formula:    12" in lines
