"""Benchmark of thermowave through its public CLI entry ``thermowave.cli.main``.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: repeats run one after another, each
in a fresh child process (perfbench/child.py) with BLAS/OpenMP threads
pinned to 1.  An untimed import of the package comes first.  Repeats continue
until ``--seconds`` have passed (at least MIN_REPEATS of each kind).

--trace 0 reports the end-to-end metrics, medians over the repeats:
  setup_s      import thermowave + validate_config + build_problem
  job_s        cli.main(argv) after set-up, output files included
  peak_rss_mb  peak resident set of the child that ran the job
  ok_ratio     passed / attempted operations; the operations are the
               timed jobs and, on audit-p4-n1024, the untimed coverage runs
--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics of perfbench/tracing.py (medians over traced repeats), the bytes
the job wrote, the tracing overhead against the untraced repeats, and
failed_ratio = 1 - ok_ratio.

The top-level ``attempted``/``failed`` of the result count the timed jobs;
coverage runs count only in ok_ratio / failed_ratio (see workloads.py for
the known P3/P5 defect they expose).  Per-repeat samples, the output
problems found and the environment go to .perfbench/<run>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import COVERAGE_WORKLOAD, WORKLOADS, check, coverage_configs

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_REPEATS = 3
DEADLINE_S = 150.0  # no repeat starts after this
LIMIT_S = 170.0     # every child is killed by then; the run must end within 180 s
# Nominal time of child.calibrate(): timings are reported as seconds on a
# machine that runs the calibration loop in this time.
CAL_REF_S = 0.09
HERE = os.path.dirname(os.path.abspath(__file__))

def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, name))
               for d, _, files in os.walk(path) for name in files)


class Workload:
    """Generated inputs of one (workload, seed) and the repeats run on them."""

    def __init__(self, name, seed, src, work):
        self.command, build, _ = WORKLOADS[name]
        self.src, self.work = src, work
        self.config = build(seed)
        self.config_path = os.path.join(work, "config.json")
        _write_json(self.config_path, self.config)
        self.coverage = coverage_configs(seed) if name == COVERAGE_WORKLOAD else {}
        for key, cfg in self.coverage.items():
            _write_json(os.path.join(work, f"coverage-{key}.json"), cfg)
        self.env = dict(os.environ, **THREAD_PINS)
        self.runs = []  # one record per counted repeat
        self.jobs_failed = 0
        self.ops = 0
        self.ops_failed = 0

    def repeat(self, traced, timeout):
        """Run one repeat in a fresh child; returns its record."""
        rep = os.path.join(self.work, "rep")
        shutil.rmtree(rep, ignore_errors=True)
        os.makedirs(rep)
        job_out = os.path.join(rep, "job")
        cov = [(os.path.join(self.work, f"coverage-{key}.json"), os.path.join(rep, key))
               for key in self.coverage]
        spec = {"src": self.src, "command": self.command, "config": self.config_path,
                "out": job_out, "coverage": cov, "trace": traced,
                "spans": os.path.join(self.work, "spans.tsv")}
        spec_path = os.path.join(self.work, "spec.json")
        _write_json(spec_path, spec)
        record = {"traced": traced}
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                  env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            record["problems"] = [f"child timed out after {timeout:.0f} s"]
            return record
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-8:]
        try:
            record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            record["problems"] = [f"child exited {proc.returncode}"]
            return record
        before, between, after = record["cal_s"]
        record["setup_scaled_s"] = record["setup_s"] * CAL_REF_S / ((before + between) / 2)
        record["job_scaled_s"] = record["job_s"] * CAL_REF_S / ((between + after) / 2)
        record["problems"] = check(self.command, record["exit"], job_out, self.config)
        record["bytes_written"] = _dir_bytes(job_out)
        record["coverage_problems"] = {
            key: check("energy-audit", code, out, self.coverage[key])
            for key, code, (_, out) in zip(self.coverage, record["coverage_exits"], cov)}
        return record

    def count(self, record):
        self.runs.append(record)
        job_failed = bool(record["problems"])
        cov = record.get("coverage_problems", {})
        self.jobs_failed += job_failed
        self.ops += 1 + len(cov)
        self.ops_failed += job_failed + sum(bool(p) for p in cov.values())

    def samples(self, key, traced=False):
        return [r[key] for r in self.runs if r["traced"] == traced and key in r]


def environment(versions):
    """Versions as a child imported them, plus the machine and the pins."""
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "platform": platform.platform(), "child_env": THREAD_PINS}


def measure(wl, seconds, trace):
    """Closed loop: repeats back to back until the measured time is up."""
    start = time.perf_counter()
    # warm-up: compile the package's bytecode and fill the file cache
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {wl.src!r}); "
                    "import thermowave"], env=wl.env, check=True, timeout=LIMIT_S)
    measured = time.perf_counter()
    longest = 0.0
    kinds = [False, True] if trace else [False]
    i = 0
    while True:
        now = time.perf_counter()
        done = now - measured >= seconds and all(
            sum(r["traced"] == k for r in wl.runs) >= MIN_REPEATS for k in kinds)
        if done or now - start + 1.5 * longest > DEADLINE_S:
            break
        t0 = time.perf_counter()
        wl.count(wl.repeat(kinds[i % len(kinds)], LIMIT_S - (t0 - start)))
        longest = max(longest, time.perf_counter() - t0)
        i += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "thermowave", "__init__.py")):
        print(f"error: no thermowave sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    wl = Workload(args.workload, args.seed, src, work)
    measure(wl, args.seconds, args.trace)
    untraced_jobs = wl.samples("job_scaled_s")
    if not untraced_jobs or (args.trace and not wl.samples("layers", traced=True)):
        print("error: no repeat completed; problems: "
              + json.dumps([r["problems"] for r in wl.runs])[:2000], file=sys.stderr)
        return 1

    med = statistics.median
    ok_ratio = (wl.ops - wl.ops_failed) / wl.ops
    if args.trace:
        traced = [r["layers"] for r in wl.runs if r.get("layers")]
        values = {key: med(t[key] for t in traced) for key in traced[0]}
        values["cli.bytes_written"] = med(wl.samples("bytes_written", traced=True))
        values["trace.overhead_pct"] = 100.0 * (
            med(wl.samples("job_scaled_s", traced=True)) / med(untraced_jobs) - 1.0)
        values["failed_ratio"] = 1.0 - ok_ratio
    else:
        values = {"setup_s": med(wl.samples("setup_scaled_s")), "job_s": med(untraced_jobs),
                  "peak_rss_mb": med(wl.samples("peak_rss_mb")), "ok_ratio": ok_ratio}
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment(next(r["versions"] for r in wl.runs if "versions" in r))
    _write_json(os.path.join(work, "result.json"), {
        "workload": args.workload, "why": WORKLOADS[args.workload][2], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "repeats": wl.runs, "operations": wl.ops, "operations_failed": wl.ops_failed,
        "metrics": metrics})
    shutil.rmtree(os.path.join(work, "rep"), ignore_errors=True)

    n_traced = sum(r["traced"] for r in wl.runs)
    print(f"# {args.workload} seed {args.seed}: {len(wl.runs) - n_traced} untraced repeats, "
          f"{n_traced} traced; {wl.ops_failed} of {wl.ops} operations failed")
    print("# environment: " + json.dumps(env, sort_keys=True))
    problems = [p for r in wl.runs for p in r["problems"]]
    problems += [f"coverage {k}: {p}" for r in wl.runs
                 for k, ps in r.get("coverage_problems", {}).items() for p in ps]
    for problem in sorted(set(problems)):
        print(f"# check failed ({problems.count(problem)}x): {problem}")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']!r} {m['unit']}")
    for key in ("setup", "job"):
        scaled, wall = wl.samples(f"{key}_scaled_s"), wl.samples(f"{key}_s")
        q1, _, q3 = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else scaled * 3
        print(f"# {key}_s: median of {len(scaled)} untraced repeats, quartiles {q1:.4f} .. "
              f"{q3:.4f} s; unscaled wall median {med(wall):.4f} s")
    if args.trace:
        print(f"# stepper.step_tail_us is the p{values['stepper.step_tail_pct']:g} step time")
    print(json.dumps({"correct": wl.jobs_failed == 0, "attempted": len(wl.runs),
                      "failed": wl.jobs_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
