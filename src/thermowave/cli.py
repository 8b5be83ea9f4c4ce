"""Batch front door: config-driven runs, sweeps, and audits.

Subcommands
-----------
run           integrate one trajectory; writes energy.csv, steps.csv,
              optional snapshots.csv, and run.json
sweep         step-refinement study; writes sweep.csv and sweep.json
energy-audit  per-step energy-balance residuals and decay violations;
              writes audit.csv and audit.json
oracle-check  linear configurations only; compares the trajectory against
              the exact modal solution; writes oracle.csv and oracle.json

Every output embeds the fully resolved config plus the computed coupling
bound and step-size threshold in a header block, and is byte-deterministic
for a fixed config.  Exit codes: 0 success, 1 config validation failure,
2 solver divergence (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import convergence, diagnostics
from .nonlinearity import Nonlinearity
from .operators import BC_NAMES, PRESET_NAMES, Grid1D, ProblemPreset, build_bundle
from .oracle import LinearReference, ReferenceDivergedError
from .profiles import make_initial
from .stepper import StepConfig, run


class ConfigError(ValueError):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = errors


def _num(value, field, errors):
    """Numeric config fields may be JSON numbers or decimal strings; either
    way the value must be finite."""
    if isinstance(value, bool):
        errors.append(f"{field}: expected a number, got a boolean")
        return None
    if not isinstance(value, (int, float, str)):
        errors.append(f"{field}: expected a number, got {type(value).__name__}")
        return None
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    except ValueError:
        errors.append(f"{field}: cannot parse {value!r} as a number")
        return None
    if not math.isfinite(out):
        errors.append(f"{field}: must be finite, got {value!r}")
        return None
    return out


def validate_config(raw: dict, need_h_list: bool = False) -> dict:
    """Validate and resolve a raw config dict; raises ConfigError."""
    errors = []
    resolved = {}

    preset = raw.get("preset")
    if preset not in PRESET_NAMES:
        errors.append(f"preset: must be one of {PRESET_NAMES}, got {preset!r}")
        raise ConfigError(errors)
    resolved["preset"] = preset

    bc = raw.get("bc", "dirichlet")
    if bc not in BC_NAMES:
        errors.append(f"bc: must be one of {BC_NAMES}, got {bc!r}")
        bc = "dirichlet"
    resolved["bc"] = bc

    defaults = {"sigma": 1.0, "c": 1.0, "gamma": 2.0, "m": 0.0, "epsilon": 1.0}
    for key, default in defaults.items():
        val = raw.get(key)
        resolved[key] = default if val is None else _num(val, key, errors)
    if preset in ("P4", "P5"):
        for key in ("sigma", "c", "gamma", "m", "epsilon"):
            if raw.get(key) is not None:
                errors.append(f"{key}: preset {preset} fixes all coefficients to 1")
    if preset in ("P2", "P3") and raw.get("m") is not None:
        errors.append(f"m: preset {preset} has no linear reaction coefficient")
    if preset == "P1" and raw.get("epsilon") is not None:
        errors.append("epsilon: preset P1 has no damping")
    if resolved.get("gamma") is not None and resolved["gamma"] <= 1.0:
        errors.append(f"gamma: must exceed 1, got {resolved['gamma']}")
    if resolved.get("sigma") is not None and resolved["sigma"] <= 0:
        errors.append("sigma: must be positive")
    if resolved.get("c") is not None and resolved["c"] <= 0:
        errors.append("c: must be positive")
    if resolved.get("epsilon") is not None and resolved["epsilon"] < 0:
        errors.append("epsilon: must be nonnegative")

    n = raw.get("n_interior")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        errors.append(f"n_interior: must be an integer >= 2, got {n!r}")
    else:
        resolved["n_interior"] = n

    T = _num(raw.get("T", 0.0), "T", errors)
    if T is not None and T <= 0:
        errors.append(f"T: must be positive, got {T}")
    resolved["T"] = T

    has_h = "h" in raw
    has_list = "h_list" in raw
    resolved["h"] = None
    if need_h_list:
        if not has_list:
            errors.append("h_list: required for sweep configs")
    elif not has_h:
        errors.append("h: required (h_list drives sweep configs only)")
    if has_h:
        h = _num(raw["h"], "h", errors)
        if h is not None and h <= 0:
            errors.append(f"h: must be positive, got {h}")
        resolved["h"] = h
    if has_list:
        hs = raw["h_list"]
        if not isinstance(hs, list) or not hs:
            errors.append("h_list: must be a nonempty list")
        else:
            hs = [_num(v, "h_list", errors) for v in hs]
            if None not in hs:
                if any(v <= 0 for v in hs):
                    errors.append("h_list: entries must be positive")
                if any(b >= a for a, b in zip(hs, hs[1:])):
                    errors.append("h_list: entries must strictly decrease")
                resolved["h_list"] = hs
    if T is not None:
        for h in ([resolved.get("h")] if resolved.get("h") else resolved.get("h_list", [])):
            if h and abs(round(T / h) * h - T) > 1e-9 * T:
                errors.append(f"h: T/h = {T / h} is not an integer")

    beta = raw.get("beta", {"kind": "zero"})
    pi = raw.get("pi", {"kind": "zero"})
    if preset == "P1":
        if raw.get("beta") is not None or raw.get("pi") is not None:
            errors.append("beta/pi: preset P1 fixes beta = 0 and derives pi from m")
        beta = {"kind": "zero"}
        m = resolved.get("m") or 0.0
        pi = {"kind": "linear", "slope": -m * m} if m != 0.0 else {"kind": "zero"}
    resolved["beta"] = beta
    resolved["pi"] = pi
    try:
        resolved["_nonlin"] = _build_nonlinearity(beta, pi)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"beta/pi: {exc}")

    initial = raw.get("initial", {"profile": "zero"})
    if not isinstance(initial, dict) or "profile" not in initial:
        errors.append("initial: must be an object with a 'profile' key")
    elif initial["profile"] not in ("zero", "single_mode", "random_smooth"):
        errors.append(f"initial.profile: unknown profile {initial['profile']!r}")
    resolved["initial"] = initial

    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        errors.append("solver: must be an object")
        solver = {}
    newton_tol = _num(solver.get("newton_tol", 1e-12), "solver.newton_tol", errors)
    max_iter = solver.get("newton_max_iter", 25)
    if not isinstance(max_iter, int) or max_iter < 1:
        errors.append("solver.newton_max_iter: must be a positive integer")
        max_iter = 25
    path = solver.get("path", "direct")
    if path not in ("direct", "yosida"):
        errors.append(f"solver.path: must be 'direct' or 'yosida', got {path!r}")
        path = "direct"
    lambdas = solver.get("yosida_lambdas", list(StepConfig.yosida_lambdas))
    resolved["solver"] = {"newton_tol": newton_tol, "newton_max_iter": max_iter,
                          "path": path, "yosida_lambdas": lambdas}

    stride = raw.get("snapshot_stride", 0)
    if not isinstance(stride, int) or stride < 0:
        errors.append("snapshot_stride: must be a nonnegative integer")
        stride = 0
    resolved["snapshot_stride"] = stride

    if errors:
        raise ConfigError(errors)
    return resolved


def _build_nonlinearity(beta: dict, pi: dict) -> Nonlinearity:
    kind = beta.get("kind", "zero")
    if kind == "zero":
        bk, bc_ = "zero", ()
    elif kind == "cubic":
        bk, bc_ = "cubic", (float(beta["scale"]),)
    elif kind == "odd_poly":
        bk, bc_ = "odd_poly", tuple(float(c) for c in beta["coeffs"])
    else:
        raise ValueError(f"unknown beta kind {kind!r}")
    pk = pi.get("kind", "zero")
    if pk == "zero":
        pkind, pparam = "zero", 0.0
    elif pk == "linear":
        pkind, pparam = "linear", float(pi["slope"])
    elif pk == "scaled_sine":
        pkind, pparam = "scaled_sine", float(pi["amplitude"])
    else:
        raise ValueError(f"unknown pi kind {pk!r}")
    return Nonlinearity(beta_kind=bk, beta_coeffs=bc_, pi_kind=pkind, pi_param=pparam)


def build_problem(resolved: dict):
    """Grid, bundle, nonlinearity, initial data and step config from a
    resolved config."""
    grid = Grid1D(resolved["n_interior"], resolved["bc"])
    preset = ProblemPreset(resolved["preset"], sigma=resolved["sigma"], c=resolved["c"],
                           m=resolved["m"], epsilon=resolved["epsilon"],
                           gamma=resolved["gamma"], bc=resolved["bc"])
    bundle = build_bundle(preset, grid)
    nonlin = resolved["_nonlin"]
    initial = make_initial(grid, resolved["initial"])
    cfg = None
    if resolved.get("h"):
        s = resolved["solver"]
        cfg = StepConfig(h=resolved["h"], newton_tol=s["newton_tol"],
                         newton_max_iter=s["newton_max_iter"], solve_path=s["path"],
                         yosida_lambdas=tuple(s["yosida_lambdas"]))
    return grid, bundle, nonlin, initial, cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _header_lines(resolved: dict, bundle, nonlin) -> list:
    cfg = {k: v for k, v in resolved.items() if not k.startswith("_")}
    return [
        "config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":")),
        f"coupling_bound: {bundle.coupling_bound!r}",
        f"h_threshold: {bundle.h_threshold(nonlin.lipschitz_const)!r}",
    ]


def _write_csv(path, header_lines, columns, rows):
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path, payload):
    """Strict JSON: a non-finite number is a solver failure (exit 2), and
    the file is not written."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"{os.path.basename(path)} not written: {exc}") from exc
    with open(path, "w") as f:
        f.write(text + "\n")


def _json_meta(resolved, bundle, nonlin):
    return {
        "config": {k: v for k, v in resolved.items() if not k.startswith("_")},
        "coupling_bound": bundle.coupling_bound,
        "h_threshold": bundle.h_threshold(nonlin.lipschitz_const),
    }


def cmd_run(resolved: dict, out_dir: str) -> int:
    grid, bundle, nonlin, initial, cfg = build_problem(resolved)
    result = run(initial, bundle, nonlin, resolved["T"], cfg)
    header = _header_lines(resolved, bundle, nonlin)

    diagnostics.write_energy_csv(os.path.join(out_dir, "energy.csv"),
                                 result.states, bundle, nonlin, header)

    rows = [(i + 1, (i + 1) * cfg.h, r.newton_iters, r.final_residual,
             r.theta_residual, r.heat_residual, r.wave_residual, r.rhs_norm)
            for i, r in enumerate(result.reports)]
    _write_csv(os.path.join(out_dir, "steps.csv"), header,
               ["n", "t", "newton_iters", "final_residual", "theta_residual",
                "heat_residual", "wave_residual", "rhs_norm"], rows)

    stride = resolved["snapshot_stride"]
    if stride > 0:
        rows = []
        for s in result.states:
            if s.t_index % stride == 0 or s.t_index == len(result.states) - 1:
                for field in ("theta", "phi", "v", "z"):
                    rows.append([s.t_index, s.t_index * cfg.h, field]
                                + [float(x) for x in getattr(s, field)])
        _write_csv(os.path.join(out_dir, "snapshots.csv"), header,
                   ["n", "t", "field"] + [f"x{i}" for i in range(grid.n_interior)], rows)

    payload = _json_meta(resolved, bundle, nonlin)
    payload.update({"complete": result.complete, "failure_index": result.failure_index,
                    "steps_taken": len(result.reports)})
    _write_json(os.path.join(out_dir, "run.json"), payload)
    return 0 if result.complete else 2


def cmd_sweep(resolved: dict, out_dir: str) -> int:
    grid, bundle, nonlin, initial, _ = build_problem(resolved)
    s = resolved["solver"]
    header = _header_lines(resolved, bundle, nonlin)
    payload = _json_meta(resolved, bundle, nonlin)
    error = None
    try:
        result = convergence.sweep(initial, bundle, nonlin, resolved["T"],
                                   resolved["h_list"], newton_tol=s["newton_tol"])
    except ReferenceDivergedError as exc:
        error, reports = exc, []
        payload.update({"complete": False, "reference": "fine_step",
                        "diverged_h": exc.h_ref, "failure_index": exc.failure_index})
    except convergence.SweepDivergedError as exc:
        error, reports = exc, exc.partial
        payload.update({"complete": False, "diverged_h": exc.h,
                        "failure_index": exc.failure_index})
    else:
        reports = result.reports
        payload.update({"complete": True, "fitted_order": result.fitted_order,
                        "fitted_M": result.fitted_M, "reference": result.reference_kind,
                        "totals": {repr(r.h): r.total for r in reports}})
    rows = [[r.h] + list(r.as_tuple()) + [r.total] for r in reports]
    _write_csv(os.path.join(out_dir, "sweep.csv"), header,
               ["h", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "total"], rows)
    _write_json(os.path.join(out_dir, "sweep.json"), payload)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_energy_audit(resolved: dict, out_dir: str) -> int:
    grid, bundle, nonlin, initial, cfg = build_problem(resolved)
    result = run(initial, bundle, nonlin, resolved["T"], cfg)
    header = _header_lines(resolved, bundle, nonlin)

    ledger = diagnostics.energy_ledger(result.states, bundle, nonlin)
    pi_zero = nonlin.pi_kind == "zero"
    violations = diagnostics.decay_violations(ledger) if pi_zero else []

    rows = []
    for i in range(1, len(result.states)):
        s1, entry = result.states[i], ledger[i]
        source = cfg.h * grid.dx * float(np.dot(nonlin.pi(s1.phi), s1.v))
        rows.append([i, i * cfg.h, entry.identity_residual, entry.record.lyapunov, source])
    max_resid = max(entry.identity_residual for entry in ledger)
    _write_csv(os.path.join(out_dir, "audit.csv"), header,
               ["n", "t", "identity_residual", "lyapunov_value", "pi_source_term"], rows)

    payload = _json_meta(resolved, bundle, nonlin)
    payload.update({"complete": result.complete, "failure_index": result.failure_index,
                    "pi_zero": pi_zero, "max_identity_residual": max_resid,
                    "lyapunov_violations": [[int(i), float(v)] for i, v in violations],
                    "lyapunov_mode": "checked" if pi_zero else "monitor_only"})
    _write_json(os.path.join(out_dir, "audit.json"), payload)
    return 0 if result.complete else 2


def cmd_oracle_check(resolved: dict, out_dir: str) -> int:
    grid, bundle, nonlin, initial, cfg = build_problem(resolved)
    if not nonlin.is_linear:
        print("config error: oracle-check: requires a linear configuration "
              "(beta zero, pi zero or linear)", file=sys.stderr)
        return 1
    result = run(initial, bundle, nonlin, resolved["T"], cfg)
    header = _header_lines(resolved, bundle, nonlin)

    reference = LinearReference(initial, bundle, nonlin)
    times = np.array([s.t_index * cfg.h for s in result.states])
    ref = reference.sample(times)
    rows = []
    max_dev = 0.0
    for i, s in enumerate(result.states):
        devs = [float(np.max(np.abs(getattr(s, name) - ref[name][i])))
                for name in ("theta", "phi", "v")]
        max_dev = max(max_dev, *devs)
        rows.append([float(times[i])] + devs)
    _write_csv(os.path.join(out_dir, "oracle.csv"), header,
               ["t", "theta_dev", "phi_dev", "v_dev"], rows)

    payload = _json_meta(resolved, bundle, nonlin)
    payload.update({"complete": result.complete, "failure_index": result.failure_index,
                    "max_deviation": max_dev})
    _write_json(os.path.join(out_dir, "oracle.json"), payload)
    return 0 if result.complete else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thermowave",
                                     description="Implicit integration of coupled heat/wave systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "energy-audit", "oracle-check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--snapshot-stride", type=int, default=None,
                       help="write every k-th state (run only)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        resolved = validate_config(raw, need_h_list=(args.command == "sweep"))
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1

    if args.snapshot_stride is not None:
        if args.snapshot_stride < 0:
            print("config error: snapshot-stride: must be nonnegative", file=sys.stderr)
            return 1
        resolved["snapshot_stride"] = args.snapshot_stride

    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "run":
            return cmd_run(resolved, args.out)
        if args.command == "sweep":
            return cmd_sweep(resolved, args.out)
        if args.command == "energy-audit":
            return cmd_energy_audit(resolved, args.out)
        return cmd_oracle_check(resolved, args.out)
    except RuntimeError as exc:
        # solver-raised failures (divergence, residual audits) and
        # non-finite output values leave partial outputs in place and exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry():
    sys.exit(main())
