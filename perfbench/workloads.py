"""Workload configs and output checks of the thermowave benchmark.

Every workload is one CLI command on one generated config file.  The
benchmark seed enters only through ``random_smooth(seed)`` initial data, so
the program sees nothing but the config.  The checks read the files the
command wrote and apply the acceptance tolerances (energy identity at
1e-10 * (1 + E), fitted order >= 0.45, zero decay violations); they never
compare digests, so an optimisation that changes rounding still passes.
"""

from __future__ import annotations

import csv
import json
import math
import os

IDENTITY_TOL = 1e-10
MIN_ORDER = 0.45


def _initial(seed: int) -> dict:
    return {"profile": "random_smooth", "seed": int(seed)}


def _cubic(preset: str, bc: str, n: int, h: float, T: float, seed: int) -> dict:
    return {"preset": preset, "bc": bc, "n_interior": n, "h": h, "T": T,
            "beta": {"kind": "cubic", "scale": 1.0}, "pi": {"kind": "zero"},
            "initial": _initial(seed)}


def _p1(bc: str, n: int, T: float, seed: int, **steps) -> dict:
    return {"preset": "P1", "bc": bc, "n_interior": n, "T": T, "m": 1.0,
            "initial": _initial(seed), **steps}


# name -> (CLI subcommand, config builder, why)
#
# sweep-p1-n256 runs at newton_tol = 1e-11.  At the default 1e-12 the
# step's scheme-residual audit, whose floor ignores the rounding of the
# n = 256 Laplacians, rejects step 0 of the h = 1/32 member on about a
# quarter of the seeds (15 of 60 tried); it is the same audit defect the
# P3/P5 coverage runs below expose, and the timed job must be valid on
# every seed.  The linear P1 Newton solve lands at its floor either way.
WORKLOADS = {
    "run-p2-n64": (
        "run", lambda seed: _cubic("P2", "dirichlet", 64, 1.0 / 1024, 2.0, seed),
        "n = 64, 2048 steps: per-step call overhead of stepper and the "
        "energy.csv diagnostics dominate; oracle and convergence unused"),
    "sweep-p1-n256": (
        "sweep", lambda seed: _p1("dirichlet", 256, 0.5, seed,
                                  h_list=[1.0 / 2 ** k for k in range(5, 10)],
                                  solver={"newton_tol": 1e-11}),
        "5 members, 496 steps against the modal reference: oracle sampling "
        "and error_norms take most of the job, stepping about a third"),
    "audit-p4-n1024": (
        "energy-audit", lambda seed: _cubic("P4", "neumann", 1024, 1.0 / 256, 2.0, seed),
        "n = 1024, 512 steps: vector work and Newton iterations per step, "
        "largest set-up, Neumann boundaries and identity coupling"),
}

# Untimed preset-coverage pass of audit-p4-n1024: every preset under both
# boundary conditions for 8 steps.  At the seed commit P3 and P5 fail the
# step audit at step 0 on every seed (wave residual about 5e-8 against an
# allowed 1.3e-9 at n = 1024, h = 1/256, far below h_threshold), so 4 of
# these 10 runs fail.  The defect is counted, not excluded.
COVERAGE_WORKLOAD = "audit-p4-n1024"


def coverage_configs(seed: int) -> dict:
    h = 1.0 / 256
    out = {}
    for bc in ("dirichlet", "neumann"):
        out[f"P1-{bc}"] = _p1(bc, 1024, 8 * h, seed, h=h)
        for preset in ("P2", "P3", "P4", "P5"):
            out[f"{preset}-{bc}"] = _cubic(preset, bc, 1024, h, 8 * h, seed)
    return out


# ----------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _read_table(path):
    """Rows of a thermowave CSV (header block of '#' lines skipped)."""
    with open(path) as f:
        lines = [line for line in f if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _expected_steps(config: dict) -> int:
    return round(config["T"] / config["h"])


def check_run(out_dir: str, config: dict) -> list:
    problems = []
    meta = _read_json(os.path.join(out_dir, "run.json"))
    n_steps = _expected_steps(config)
    if meta.get("complete") is not True or meta.get("steps_taken") != n_steps:
        problems.append(f"run.json: incomplete ({meta.get('steps_taken')} of {n_steps} steps)")
    cols, rows = _read_table(os.path.join(out_dir, "energy.csv"))
    if len(rows) != n_steps + 1:
        problems.append(f"energy.csv: {len(rows)} rows, expected {n_steps + 1}")
    k, e, t, r = (cols.index(c) for c in ("kinetic", "elastic", "thermal", "identity_residual"))
    for prev, row in zip(rows, rows[1:]):
        energy_prev = prev[k] + prev[e] + prev[t]
        if not row[r] <= IDENTITY_TOL * (1.0 + energy_prev):
            problems.append(f"energy.csv: identity residual {row[r]!r} at n = {row[0]:g}")
            break
    _, steps = _read_table(os.path.join(out_dir, "steps.csv"))
    if len(steps) != n_steps:
        problems.append(f"steps.csv: {len(steps)} rows, expected {n_steps}")
    if not all(math.isfinite(x) for row in steps for x in row):
        problems.append("steps.csv: non-finite value")
    return problems


def check_sweep(out_dir: str, config: dict) -> list:
    problems = []
    meta = _read_json(os.path.join(out_dir, "sweep.json"))
    if meta.get("complete") is not True:
        problems.append("sweep.json: incomplete")
    if meta.get("reference") != "modal":
        problems.append(f"sweep.json: reference {meta.get('reference')!r}, expected 'modal'")
    order = meta.get("fitted_order")
    if not (isinstance(order, (int, float)) and order >= MIN_ORDER):
        problems.append(f"sweep.json: fitted_order {order!r} < {MIN_ORDER}")
    totals = meta.get("totals", {})
    if len(totals) != len(config["h_list"]) or not all(
            math.isfinite(v) for v in totals.values()):
        problems.append("sweep.json: totals missing or non-finite")
    return problems


def check_audit(out_dir: str, config: dict) -> list:
    """The audit CSV carries energy + potential per step; with the convex
    potentials used here that bounds the energy E of the acceptance
    tolerance from above.  The first step is held to the first row's value,
    which decay keeps at or below the initial one."""
    problems = []
    meta = _read_json(os.path.join(out_dir, "audit.json"))
    if meta.get("complete") is not True:
        problems.append("audit.json: incomplete")
    if meta.get("lyapunov_violations"):
        problems.append(f"audit.json: {len(meta['lyapunov_violations'])} Lyapunov violations")
    cols, rows = _read_table(os.path.join(out_dir, "audit.csv"))
    n_steps = _expected_steps(config)
    if len(rows) != n_steps:
        problems.append(f"audit.csv: {len(rows)} rows, expected {n_steps}")
    r, lv = cols.index("identity_residual"), cols.index("lyapunov_value")
    worst = meta.get("max_identity_residual")
    if not (isinstance(worst, (int, float)) and rows
            and worst == max(row[r] for row in rows)):
        problems.append(f"audit.json: max_identity_residual {worst!r} does not match audit.csv")
    for prev, row in zip(rows[:1] + rows, rows):
        if not row[r] <= IDENTITY_TOL * (1.0 + prev[lv]):
            problems.append(f"audit.csv: identity residual {row[r]!r} at n = {row[0]:g}")
            break
    return problems


CHECKS = {"run": check_run, "sweep": check_sweep, "energy-audit": check_audit}


def check(command: str, exit_code, out_dir: str, config: dict) -> list:
    """All problems of one CLI operation: exit code, then its outputs."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return CHECKS[command](out_dir, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
