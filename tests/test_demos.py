"""The demo scripts and the README's library quickstart run to completion
against the package in ``src``.

``convergence_study.py`` is left out: its fine-step reference takes several
seconds, and tests/test_convergence.py covers that path.  The quickstart's
nonlinear sweep, which runs on a fine-step reference too, stays in because
it is the README's example of the public API.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_quickstart() -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    return text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", ["energy_decay.py", "oracle_check.py",
                                  "perturbation_stability.py", "README.md"])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    args = (["-c", readme_quickstart()] if demo == "README.md"
            else [os.path.join(ROOT, "demos", demo)])
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
