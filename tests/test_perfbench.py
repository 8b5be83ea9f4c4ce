"""The benchmark harness under perfbench/ runs against the current source.

Both checks run in a subprocess from the root of the checkout, as the
benchmark does: the output checks' self-test, and a traced 16-step run, the
path behind ``perfbench/run.py --trace 1``.  A refactor that renames what
the tracer wraps or breaks the checks fails here.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

TRACED_RUN = """
import json, os, sys
from tracing import JOB, Tracer
from workloads import WORKLOADS

tracer = Tracer()
tracer.install()
from thermowave import cli

config = WORKLOADS["run-p2-n64"][1](0)
config.update(n_interior=16, T=16 * config["h"])
path = os.path.join(sys.argv[1], "config.json")
with open(path, "w") as f:
    json.dump(config, f)
tracer.job = JOB
code = cli.main(["run", "--config", path, "--out", os.path.join(sys.argv[1], "out")])
print(json.dumps({"exit": code, **tracer.layer_metrics()}))
"""


def _python(*args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH])}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=300)


def test_perfbench_selftest_passes():
    # the self-test works under .perfbench/ and removes only its own subdirectory
    work = os.path.join(ROOT, ".perfbench")
    existed = os.path.isdir(work)
    try:
        proc = _python(os.path.join(PERFBENCH, "selftest.py"))
    finally:
        if not existed and os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_run_reports_layer_metrics(tmp_path):
    proc = _python("-c", TRACED_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["exit"] == 0
    assert metrics["stepper.us_per_step"] > 0
    assert metrics["stepper.newton_iters_per_step"] > 0
