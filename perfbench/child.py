"""One repeat of a workload, run by run.py in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

The spec names the source tree, the CLI command, its config and output
directory, the coverage operations and whether to trace.  The child times
set-up (``import thermowave``, ``validate_config``, ``build_problem``) and
the CLI job (``cli.main(argv)``, output files included), reads its peak
resident set right after the job, then runs the untimed coverage
operations.  It prints one JSON line; run.py checks the outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

CAL_ITERS = 600_000


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the speed of the machine now.

    The host's speed drifts by up to 2x over seconds to minutes; run.py
    scales each timing by the calibrations taken just before and after it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def _call_cli(cli, argv):
    """Exit code of one CLI call; an escaping exception is reported by name."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash is an outcome to count, not to hide
        return f"{type(exc).__name__}: {exc}"


def main(spec_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])

    cal = [calibrate()]
    t0 = time.perf_counter()
    import thermowave
    from thermowave import cli
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(thermowave.__file__)) != os.path.join(spec["src"], "thermowave"):
        raise SystemExit(f"imported thermowave from {thermowave.__file__}, not {spec['src']}")

    tracer = None
    if spec["trace"]:
        from tracing import COVERAGE, JOB, Tracer  # imported late: not set-up
        tracer = Tracer()
        tracer.install()

    command = spec["command"]
    t0 = time.perf_counter()
    with open(spec["config"]) as f:
        raw = json.load(f)
    resolved = cli.validate_config(raw, need_h_list=(command == "sweep"))
    cli.build_problem(resolved)
    setup_s += time.perf_counter() - t0
    cal.append(calibrate())

    if tracer:
        tracer.job = JOB
    argv = [command, "--config", spec["config"], "--out", spec["out"]]
    t0 = time.perf_counter()
    code = _call_cli(cli, argv)
    job_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal.append(calibrate())

    layers = None
    if tracer:
        layers = tracer.layer_metrics()
        tracer.job = COVERAGE
    coverage = [_call_cli(cli, ["energy-audit", "--config", cfg, "--out", out])
                for cfg, out in spec["coverage"]]
    if tracer:
        tracer.write(spec["spans"])

    import numpy
    import scipy
    print(json.dumps({
        "setup_s": setup_s, "job_s": job_s, "peak_rss_mb": peak_rss_mb, "cal_s": cal,
        "exit": code, "coverage_exits": coverage, "layers": layers,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main(sys.argv[1])
