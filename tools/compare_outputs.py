"""Compare the output files of two thermowave source trees, job by job.

Usage (from anywhere):

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--n N] [--seed S] [--work DIR]
                                     [--only NAME[,NAME...]]

PARENT_SRC and CHANGE_SRC are checkouts or their ``src`` directories.  Each
tree runs the same jobs through ``thermowave.cli.main`` in a fresh process
with one BLAS thread: the three benchmark configs and the ten P1-P5 x bc
coverage configs of ``perfbench/workloads.py``, a yosida-path ``run``, a
scaled-sine ``energy-audit``, an ``energy-audit`` of P3 Neumann with
sigma = 0.5 and c = 2 (the one P1-P3 job whose coupling, c^2 times the
Laplacian, is not its diffusion), a P1 ``oracle-check``, one on a
2049-point grid (where the last 64-row block of the modal basis holds 65
rows, and a dense product with the basis has bits that depend on the BLAS
thread count), a linear P1 ``sweep`` whose first member has two steps, a
linear P1 Neumann ``sweep`` at m = 0 (its constant mode's generator is
upper triangular, so its exponential batches mix triangular and generic
slices), a cubic P2 ``sweep``, one to T = 1 whose finest member spans
three blocks of ``convergence.error_norms`` against the fine reference,
an ``energy-audit`` of P5 on a 1024-point grid at h = 0.025 (0.4 x 1/16,
well below h_threshold), where Newton's residual stalls at the rounding
of h damping(phi), and a ``run`` (snapshot stride 7), an ``energy-audit`` and an
``oracle-check`` of a linear-pi P2 config whose h is above h_threshold,
so that they diverge (exit 2 at step 73 on a 64-point grid, where |phi+|
overflows) and leave partial outputs.  A ``sweep`` of that config on a
256-point grid, h_list 1/16, 1/32, 1/64 to T = 2, loses its finest member
(exit 2 at step 86 or 87) and keeps the two coarser ones; every member
spans several blocks of ``convergence.error_norms``.  ``--n`` puts every
job on an N-point grid (a quick check); ``--only`` runs the named jobs
alone, in the set's order (an unknown name exits 2 and lists the known
ones), so a change to one command can be checked in seconds.

For every job it prints both exit codes and any ``error:`` line that
differs, and for every output file whether the two trees wrote the same
bytes; when they did not, the largest relative difference of each CSV
column, CSV header field (``header coupling_bound: ...``) or JSON field
that moved.  The last line reads ``identical`` when
every exit code, error line and file agree; the exit status is then 0,
otherwise 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def jobs(seed: int, n: int | None) -> dict:
    """name -> (CLI command, config) of the comparison set."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, coverage_configs

    cubic = {"preset": "P2", "bc": "dirichlet", "n_interior": 64, "T": 0.25, "h": 1.0 / 256,
             "beta": {"kind": "cubic", "scale": 1.0},
             "initial": {"profile": "random_smooth", "seed": seed}}
    out = {name: (command, build(seed)) for name, (command, build, _) in WORKLOADS.items()}
    out.update({f"coverage-{key}": ("energy-audit", cfg)
                for key, cfg in coverage_configs(seed).items()})
    out["yosida-run"] = ("run", {**cubic, "solver": {"path": "yosida"}})
    out["scaled-sine-audit"] = ("energy-audit",
                                {**cubic, "pi": {"kind": "scaled_sine", "amplitude": 0.5}})
    out["p3-neumann-audit"] = ("energy-audit", {**cubic, "preset": "P3", "bc": "neumann",
                                                "sigma": 0.5, "c": 2.0, "T": 0.125})
    linear = {"preset": "P1", "bc": "dirichlet", "n_interior": 64, "T": 0.25, "m": 1.0,
              "initial": {"profile": "random_smooth", "seed": seed}}
    out["p1-oracle-check"] = ("oracle-check", {**linear, "h": 1.0 / 128})
    out["p1-oracle-check-n2049"] = ("oracle-check", {**linear, "n_interior": 2049,
                                                     "T": 1.0 / 32, "h": 1.0 / 256})
    out["p1-short-sweep"] = ("sweep", {**linear, "h_list": [0.125, 0.0625, 0.03125]})
    out["p1-neumann-m0-sweep"] = ("sweep", {**linear, "bc": "neumann", "m": 0.0,
                                            "h_list": [0.125, 0.0625, 0.03125]})
    sweep = {k: v for k, v in cubic.items() if k != "h"}
    out["p2-cubic-sweep"] = ("sweep", {**sweep, "h_list": [1.0 / 16, 1.0 / 32, 1.0 / 64]})
    out["p2-cubic-sweep-blocks"] = ("sweep", {**sweep, "T": 1.0,
                                              "h_list": [1.0 / 64, 1.0 / 128, 1.0 / 256]})
    out["p5-fine-viscous-audit"] = ("energy-audit", {
        "preset": "P5", "bc": "dirichlet", "n_interior": 1024, "T": 0.5, "h": 0.025,
        "beta": {"kind": "cubic", "scale": 1.0},
        "initial": {"profile": "single_mode", "mode": 1, "v_amp": 0.5}})
    diverging = {"preset": "P2", "bc": "dirichlet", "n_interior": 64, "T": 8.0, "h": 1.0 / 64,
                 "pi": {"kind": "linear", "slope": -1e4},
                 "initial": {"profile": "random_smooth", "seed": seed}}
    out["diverging-run"] = ("run", {**diverging, "snapshot_stride": 7})
    out["diverging-audit"] = ("energy-audit", diverging)
    out["diverging-oracle-check"] = ("oracle-check", diverging)
    out["diverging-sweep"] = ("sweep", {**{k: v for k, v in diverging.items() if k != "h"},
                                        "n_interior": 256, "T": 2.0,
                                        "h_list": [1.0 / 16, 1.0 / 32, 1.0 / 64]})
    if n is not None:
        out = {name: (command, {**cfg, "n_interior": n}) for name, (command, cfg) in out.items()}
    return out


def worker(src: str, jobs_path: str, out_root: str) -> None:
    """Run every job of ``jobs_path`` on the package under ``src``; write
    each job's exit code and stderr lines to ``out_root/results.json``."""
    sys.path.insert(0, src)
    from thermowave import cli

    with open(jobs_path) as f:
        todo = json.load(f)
    results = {}
    for name, (command, cfg) in todo.items():
        config = os.path.join(out_root, f"{name}.json")
        with open(config, "w") as f:
            json.dump(cfg, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([command, "--config", config, "--out",
                                 os.path.join(out_root, name)])
            except Exception as exc:  # a crash is an outcome to compare, by name
                code = f"{type(exc).__name__}: {exc}"
        results[name] = {"exit": code, "stderr": err.getvalue().splitlines()}
    with open(os.path.join(out_root, "results.json"), "w") as f:
        json.dump(results, f)


def _source(path: str) -> str:
    for cand in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(cand, "thermowave", "__init__.py")):
            return os.path.abspath(cand)
    raise SystemExit(f"error: no thermowave package under {path}")


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if not math.isfinite(scale) else abs(a - b) / scale


def _num(value):
    """A CSV cell or JSON value as a float, or None when it is not a number."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _csv_diffs(path_a: str, path_b: str) -> list:
    """Lines describing how two thermowave CSV files differ."""
    tables = []
    for path in (path_a, path_b):
        with open(path) as f:
            lines = f.read().splitlines()
        header = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        tables.append((header, list(csv.reader(body))))
    (head_a, rows_a), (head_b, rows_b) = tables
    out = _field_diffs(_header_fields(head_a), _header_fields(head_b), "header ")
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return out + [f"columns or row counts differ ({len(rows_a)} against {len(rows_b)} lines)"]
    for j, column in enumerate(rows_a[0]):
        worst, text = 0.0, False
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            a, b = _num(ra[j]), _num(rb[j])
            if a is None or b is None:
                text = text or ra[j] != rb[j]
            else:
                worst = max(worst, _rel(a, b))
        if text:
            out.append(f"column {column}: text differs")
        elif worst:
            out.append(f"column {column}: largest relative difference {worst:.3g}")
    return out or ["bytes differ, values equal"]


def _flat(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flat(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flat(v, f"{key}[{i}]")
    else:
        yield key, value


def _header_fields(lines: list) -> dict:
    """The ``# key: value`` lines of a CSV header block, flattened as a JSON
    summary is; a value that is not JSON (a float's repr such as ``inf``)
    is kept as its text."""
    out = {}
    for line in lines:
        key, _, text = line.lstrip("# ").partition(": ")
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        out.update(_flat(value, key))
    return out


def _field_diffs(a: dict, b: dict, prefix: str = "") -> list:
    """One line per flattened field that differs: its largest relative
    difference when both values are numbers, else both values."""
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        na, nb = _num(va), _num(vb)
        if na is not None and nb is not None:
            out.append(f"{prefix}{key}: relative difference {_rel(na, nb):.3g}")
        else:
            out.append(f"{prefix}{key}: {va!r} against {vb!r}")
    return out


def _json_diffs(path_a: str, path_b: str) -> list:
    """Lines describing how two JSON summaries differ, field by field."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = dict(_flat(json.load(fa))), dict(_flat(json.load(fb)))
    return _field_diffs(a, b) or ["bytes differ, values equal"]


def compare(work: str, todo: dict) -> bool:
    """Print the comparison of the two trees' outputs; True when identical."""
    results = []
    for tree in ("parent", "change"):
        with open(os.path.join(work, tree, "results.json")) as f:
            results.append(json.load(f))
    same, n_files = True, 0
    for name, (command, _) in todo.items():
        ra, rb = results[0][name], results[1][name]
        print(f"{name} ({command}): exit {ra['exit']} / {rb['exit']}")
        errors = [[line for line in r["stderr"] if "error:" in line] for r in (ra, rb)]
        if ra["exit"] != rb["exit"] or errors[0] != errors[1]:
            same = False
            for tree, lines in zip(("parent", "change"), errors):
                print(f"  {tree} stderr: {lines}")
        dirs = [os.path.join(work, tree, name) for tree in ("parent", "change")]
        files = [sorted(os.listdir(d)) if os.path.isdir(d) else [] for d in dirs]
        for fname in sorted(set(files[0]) | set(files[1])):
            n_files += 1
            if fname not in files[0] or fname not in files[1]:
                same = False
                only = "change" if fname in files[1] else "parent"
                print(f"  {fname}: written by the {only} only")
                continue
            pa, pb = (os.path.join(d, fname) for d in dirs)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() == fb.read():
                    print(f"  {fname}: identical")
                    continue
            same = False
            diffs = _csv_diffs(pa, pb) if fname.endswith(".csv") else _json_diffs(pa, pb)
            print(f"  {fname}: differs")
            for line in diffs:
                print(f"    {line}")
    print(f"{len(todo)} jobs, {n_files} files: {'identical' if same else 'different'}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--n", type=int, help="grid size of every job (default: each config's)")
    parser.add_argument("--seed", type=int, default=7, help="seed of the random_smooth data")
    parser.add_argument("--work", help="directory of the configs and outputs "
                                         "(default: a temporary one)")
    parser.add_argument("--only", metavar="NAME[,NAME...]",
                        help="run only these jobs of the set (default: all)")
    args = parser.parse_args(argv)
    todo = jobs(args.seed, args.n)
    if args.only is not None:
        names = args.only.split(",")
        unknown = [name for name in names if name not in todo]
        if unknown:
            parser.error(f"unknown job(s) {', '.join(unknown)}; "
                         f"the jobs are: {', '.join(todo)}")
        todo = {name: job for name, job in todo.items() if name in names}
    with contextlib.ExitStack() as stack:
        work = args.work or stack.enter_context(tempfile.TemporaryDirectory())
        jobs_path = os.path.join(work, "jobs.json")
        os.makedirs(work, exist_ok=True)
        with open(jobs_path, "w") as f:
            json.dump(todo, f)
        for tree, path in (("parent", args.parent), ("change", args.change)):
            out_root = os.path.join(work, tree)
            shutil.rmtree(out_root, ignore_errors=True)  # no file of an earlier run
            os.makedirs(out_root)
            subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                            _source(path), jobs_path, out_root],
                           env={**os.environ, **PINS}, check=True)
        return 0 if compare(work, todo) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
    else:
        sys.exit(main())
