"""The demo scripts run to completion against the package in ``src``.

``convergence_study.py`` is left out: its fine-step reference takes several
seconds, and tests/test_convergence.py covers that path.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["energy_decay.py", "oracle_check.py",
                                  "perturbation_stability.py"])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
