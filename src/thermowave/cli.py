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
for a fixed config.  run and energy-audit write each state's rows as the
stepper yields it, oracle-check each block's, and sweep reads each member
in blocks, so their memory does not grow with the number of steps.
Exit codes: 0 success, 1 bad input (a usage error, an invalid config, or an
--out that cannot be created; nothing is written), 2 solver divergence
(partial outputs are still written: every row before the failed step, then
the JSON summary, and one ``error:`` line on stderr names the cause).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from operator import attrgetter

import numpy as np

from . import diagnostics
from .nonlinearity import Nonlinearity
from .operators import PRESET_NAMES, Grid1D, PicklableError, ProblemPreset, build_bundle
from .oracle import LinearReference, ReferenceDivergedError, max_deviation
from .profiles import make_initial
from .stepper import StepConfig, iter_run, step_count


# The most steps one job may take: a run's, or a sweep's members and its
# fine reference at h_min / convergence.FINE_STEP_RATIO together.
MAX_STEPS = 10_000_000
# The most unknowns per field, checked before anything is allocated.  At
# this size no command holds an n x n array, and what grows fastest with n
# is a linear reference's cache of exponentials: up to
# LinearReference.EXPM_CACHE_SIZE = 64 batches of (n, 3, 3) float64, 4,608 n
# bytes, each costing 5 to 6 us per mode to compute (one BLAS thread, 2-vCPU
# x86_64 VM).  At 2^14 a full cache holds 75 MB and each new time takes 0.08
# to 0.1 s; the limit keeps the cache below 100 MB, which 2^15 (151 MB)
# would not.
MAX_UNKNOWNS = 2 ** 14


class ConfigError(PicklableError, ValueError):
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


def _int(value, field, errors):
    """Integer config fields: whole numbers as for ``_num``, never booleans."""
    out = _num(value, field, errors)
    if out is not None and not out.is_integer():
        errors.append(f"{field}: expected an integer, got {value!r}")
        return None
    return None if out is None else int(value if isinstance(value, int) else out)


def _obj(value, field, errors):
    """A JSON object, or {} with the error recorded; so is each key that is
    not one of the object's ``_KEYS``."""
    if not isinstance(value, dict):
        errors.append(f"{field}: expected an object, got {type(value).__name__}")
        return {}
    errors += [f"{field}.{key}: unknown key" for key in value if key not in _KEYS[field]]
    return value


def _nums(value, field, errors):
    """A JSON list of numbers as floats, or None."""
    if not isinstance(value, list):
        errors.append(f"{field}: expected a list of numbers, got {type(value).__name__}")
        return None
    out = [_num(v, field, errors) for v in value]
    return None if None in out else out


# The config field of a library parameter, keyed by the parameter name that
# opens the library's ValueError messages.
_FIELD_OF = {"beta_kind": "beta.kind", "beta_coeffs": "beta", "pi_kind": "pi.kind",
             "pi_param": "pi", "solve_path": "solver.path", "T": "T",
             **{k: "solver." + k for k in ("newton_tol", "newton_max_iter")},
             **{k: "initial." + k for k in ("profile", "mode", "seed", "decay")},
             **{k: k for k in ("bc", "sigma", "c", "m", "gamma", "epsilon")}}
_INITIAL_TYPES = {"mode": _int, "seed": _int, **dict.fromkeys(
    ("theta_amp", "phi_amp", "v_amp", "decay", "amplitude"), _num)}
# the keys of the config and of its objects; any other key is an error
_KEYS = {"config": ("preset", "bc", "sigma", "c", "m", "epsilon", "gamma", "n_interior", "T",
                    "h", "h_list", "beta", "pi", "initial", "solver", "snapshot_stride"),
         "beta": ("kind", "scale", "coeffs"), "pi": ("kind", "slope", "amplitude"),
         "initial": ("profile", *_INITIAL_TYPES),
         "solver": ("newton_tol", "newton_max_iter", "path")}


def _build(errors, label, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or None with its ValueError filed under
    the config field its message names (else under ``label``)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{_FIELD_OF.get(str(exc).split(' ', 1)[0], label)}: {exc}")
        return None


def validate_config(raw: dict, need_h_list: bool = False, need_linear: bool = False) -> dict:
    """Validate and resolve a raw config dict; raises ConfigError.

    The CLI holds the JSON shape, the preset-specific fields and the
    defaults.  The value rules are the library's: the grid, preset,
    nonlinearity, initial data and step configs are built here, one at a
    time so that errors in separate objects are reported together, and
    kept under ``_``-prefixed keys for ``build_problem``.  ``need_h_list``
    asks for a sweep's h_list (one step config per member) instead of h;
    ``need_linear`` rejects a nonlinear beta/pi (oracle-check).
    """
    if not isinstance(raw, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(raw).__name__}"])
    preset = raw.get("preset")
    if preset not in PRESET_NAMES:
        raise ConfigError([f"preset: must be one of {PRESET_NAMES}, got {preset!r}"])
    errors = [f"{key}: unknown key" for key in raw if key not in _KEYS["config"]]
    bc = raw.get("bc", "dirichlet")
    resolved = {"preset": preset, "bc": bc}

    names = ("sigma", "c", "m", "epsilon", "gamma")
    fixed = {"P1": ("epsilon",), "P2": ("m",), "P3": ("m",)}.get(preset, names)
    for key in names:
        val = raw.get(key)
        if val is not None and key in fixed:  # reported once, and the preset takes its default
            errors.append(f"{key}: preset {preset} fixes this coefficient")
            val = None
        resolved[key] = getattr(ProblemPreset, key) if val is None else _num(val, key, errors)
    coeffs = [resolved[k] for k in names]
    if None not in coeffs:
        resolved["_preset"] = _build(errors, "preset", ProblemPreset, preset, *coeffs, bc)

    n = resolved["n_interior"] = _int(raw.get("n_interior"), "n_interior", errors)
    if n is not None and n > MAX_UNKNOWNS:
        errors.append(f"n_interior: {n:.3g} unknowns, more than the limit of {MAX_UNKNOWNS}")
        n = None
    grid = resolved["_grid"] = None if n is None else _build(errors, "n_interior", Grid1D, n, bc)

    T = resolved["T"] = _num(raw.get("T"), "T", errors)
    resolved["h"] = _num(raw["h"], "h", errors) if "h" in raw else None
    if "h_list" in raw:
        resolved["h_list"] = _nums(raw["h_list"], "h_list", errors)
    steps = "h_list" if need_h_list else "h"
    if steps not in raw:
        errors.append(f"{steps}: required; sweeps take h_list, the other commands h")

    beta = raw.get("beta", {"kind": "zero"})
    pi = raw.get("pi", {"kind": "zero"})
    if preset == "P1":
        if raw.get("beta") is not None or raw.get("pi") is not None:
            errors.append("beta/pi: preset P1 fixes beta = 0 and derives pi from m")
        beta = {"kind": "zero"}
        m = resolved["m"] if resolved.get("_preset") else 0.0  # an invalid m is m's error only
        pi = {"kind": "linear", "slope": -m * m} if m != 0.0 else {"kind": "zero"}
    resolved["beta"], resolved["pi"] = beta, pi
    # beta is {kind, scale (cubic) | coeffs (odd_poly)}, pi {kind, slope | amplitude}
    start = len(errors)
    beta, pi = _obj(beta, "beta", errors), _obj(pi, "pi", errors)
    beta_kind, beta_coeffs = beta.get("kind", "zero"), ()
    if beta_kind == "cubic":
        beta_coeffs = (_num(beta.get("scale"), "beta.scale", errors),)
    elif beta_kind == "odd_poly":
        beta_coeffs = tuple(_nums(beta.get("coeffs"), "beta.coeffs", errors) or ())
    pi_kind, pi_param = pi.get("kind", "zero"), 0.0
    if pi_kind in ("linear", "scaled_sine"):
        key = "slope" if pi_kind == "linear" else "amplitude"
        pi_param = _num(pi.get(key), "pi." + key, errors)
    if len(errors) == start:
        nonlin = resolved["_nonlin"] = _build(errors, "beta/pi", Nonlinearity, beta_kind,
                                              beta_coeffs, pi_kind, pi_param)
        if need_linear and nonlin is not None and not nonlin.is_linear:
            errors.append(f"beta/pi: oracle-check needs a linear configuration (beta zero, "
                          f"pi zero or linear), got beta {beta_kind}, pi {pi_kind}")

    initial = resolved["initial"] = raw.get("initial", {"profile": "zero"})
    start = len(errors)
    desc = {k: _INITIAL_TYPES[k](v, "initial." + k, errors) if k in _INITIAL_TYPES else v
            for k, v in _obj(initial, "initial", errors).items()}
    if grid is not None and len(errors) == start:
        resolved["_initial"] = _build(errors, "initial", make_initial, grid, desc)

    solver = _obj(raw.get("solver", {}), "solver", errors)
    s = resolved["solver"] = {
        "newton_tol": _num(solver.get("newton_tol", StepConfig.newton_tol),
                           "solver.newton_tol", errors),
        "newton_max_iter": _int(solver.get("newton_max_iter", StepConfig.newton_max_iter),
                                "solver.newton_max_iter", errors),
        "path": solver.get("path", StepConfig.solve_path)}

    # one step config per step size: the run's h or each sweep member's
    hs = resolved.get("h_list") if need_h_list else [resolved["h"]]
    if hs is not None and None not in hs + [s["newton_tol"], s["newton_max_iter"]]:
        start = len(errors)
        cfgs = [_build(errors, steps, StepConfig, h, s["newton_tol"], s["newton_max_iter"],
                       s["path"]) for h in hs]
        if len(errors) == start and T is not None:
            if need_h_list:
                from . import convergence  # loaded by sweeps only
                resolved["_cfgs"] = cfgs
                _build(errors, steps, convergence.check_h_list, T, hs)
            else:
                resolved["_cfg"] = cfgs[0]
                _build(errors, steps, step_count, T, hs[0])
        if len(errors) == start and T is not None:  # a sweep adds its fine reference
            fine = [min(hs) / convergence.FINE_STEP_RATIO] if need_h_list else []
            total = sum(step_count(T, h) for h in hs + fine)
            if total > MAX_STEPS:
                errors.append(f"{steps}: {total:.3g} steps, more than the limit of {MAX_STEPS:.0e}")

    stride = resolved["snapshot_stride"] = _int(raw.get("snapshot_stride", 0),
                                                "snapshot_stride", errors)
    if stride is not None and stride < 0:
        errors.append(f"snapshot_stride: must be nonnegative, got {stride}")
    if errors:
        raise ConfigError(list(dict.fromkeys(errors)))  # sweep members repeat solver errors
    return resolved


def build_problem(resolved: dict):
    """Grid, bundle, nonlinearity, initial data and step config of a
    validated config; only the bundle is built here.  ConfigError when a
    derived constant of the header is not finite: coupling_bound grows with
    c^2 / dx^2, and h_threshold squares (gamma - 1) * coupling_bound; or
    when the square of h * |damping| is not, at the largest h: a step's
    residual norms square its damping term."""
    grid, nonlin = resolved["_grid"], resolved["_nonlin"]
    with np.errstate(all="ignore"):  # a c^2 / dx^2 beyond the float range
        bundle = build_bundle(resolved["_preset"], grid)
    if not math.isfinite(bundle.coupling_bound):
        raise ConfigError(["c: the coupling bound is not finite; c is too large for this grid"])
    if not math.isfinite(bundle.h_threshold(nonlin.lipschitz_const)):
        # the larger factor of (gamma - 1) * coupling_bound names the cause
        raise ConfigError([f"{'gamma' if bundle.eta > bundle.coupling_bound else 'c'}: "
                           f"h_threshold is not finite; (gamma - 1) * coupling_bound = "
                           f"{bundle.eta * bundle.coupling_bound:.3g} is too large"])
    cfgs = resolved.get("_cfgs") or [resolved["_cfg"]]  # a sweep's largest h comes first
    h, damping = cfgs[0].h, bundle.damping.norm_bound()
    if not math.isfinite(h * damping * h * damping):  # the larger factor names the cause
        field = "epsilon" if damping > h else "h_list" if len(cfgs) > 1 else "h"
        raise ConfigError([f"{field}: h * |damping| = {h * damping:.3g} is too large; "
                           "its square must be finite"])
    return grid, bundle, nonlin, resolved["_initial"], resolved.get("_cfg")


def _header(meta: dict) -> str:
    """The JSON summary's meta block, as the header block of every CSV."""
    config = json.dumps(meta["config"], sort_keys=True, separators=(",", ":"))
    lines = [f"config: {config}"] + [f"{key}: {value!r}" for key, value in meta.items()
                                     if key != "config"]
    return "".join(f"# {line}\n" for line in lines)


def _write_json(path, payload, failure):
    """Strict JSON: a non-finite number is a solver failure (exit 2), and
    the file is not written; the error then names the run's ``failure``
    first, if it had one."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        cause = f"{failure}; " if failure else ""
        raise RuntimeError(f"{cause}{os.path.basename(path)} not written: {exc}") from exc
    with open(path, "w") as f:
        f.write(text + "\n")


def _json_meta(resolved, bundle, nonlin):
    return {
        "config": {k: v for k, v in resolved.items() if not k.startswith("_")},
        "coupling_bound": bundle.coupling_bound,
        "h_threshold": bundle.h_threshold(nonlin.lipschitz_const),
    }


# A command computes from the validated config and its built problem.  It
# opens each CSV table with ``table(name, columns, rows=())``, which writes
# the header, the column line and ``rows`` and returns the function that
# writes one more row; the tables stay open until the command returns, so
# it may write to several as its rows come.  A command reads each state from
# its ``iter_run`` trajectory as it is computed, then how the run ended.  It
# returns its JSON summary entries and the failure that stopped it, or None;
# main writes both.

def _ending(trajectory):
    """How a run ended, as summary entries."""
    return {"complete": trajectory.failure is None, "failure_index": trajectory.failure_index}


def cmd_run(resolved: dict, problem, table):
    grid, bundle, nonlin, initial, cfg = problem
    fields = ("kinetic", "elastic", "thermal", "potential", "dissipation_b1", "dissipation_cross")
    energy = table("energy.csv", ["n", "t", *fields, "identity_residual"])
    steps = table("steps.csv", ["n", "t", "newton_iters", "final_residual", "theta_residual",
                                "heat_residual", "wave_residual", "rhs_norm"])
    stride = resolved["snapshot_stride"]
    if stride > 0:
        snapshots = table("snapshots.csv",
                          ["n", "t", "field"] + [f"x{i}" for i in range(grid.n_interior)])

    def snapshot(s):
        for field in ("theta", "phi", "v", "z"):
            snapshots([s.t_index, s.t_index * cfg.h, field, *getattr(s, field).tolist()])

    trajectory = iter_run(initial, bundle, nonlin, resolved["T"], cfg)

    def states():  # each written to steps.csv and, on the stride, snapshots.csv
        for state, r in trajectory:
            if r is not None:
                steps((state.t_index, state.t_index * cfg.h, r.newton_iters, r.final_residual,
                       r.theta_residual, r.heat_residual, r.wave_residual, r.rhs_norm))
            if stride > 0 and state.t_index % stride == 0:
                snapshot(state)
            yield state

    split = attrgetter(*fields)
    for n, entry in enumerate(diagnostics.iter_ledger(states(), bundle, nonlin)):
        energy((n, n * cfg.h, *split(entry.record), entry.identity_residual))
    last = trajectory.last
    if stride > 0 and last.t_index % stride != 0:
        snapshot(last)  # the last state, off the stride
    return {**_ending(trajectory), "steps_taken": last.t_index}, trajectory.failure


def cmd_sweep(resolved: dict, problem, table):
    _, bundle, nonlin, initial, _ = problem
    from . import convergence
    try:
        result = convergence.sweep(initial, bundle, nonlin, resolved["T"],
                                   resolved["h_list"], configs=resolved["_cfgs"])
    except ReferenceDivergedError as exc:
        failure, reports = exc, []
        entries = {"complete": False, "reference": "fine_step",
                   "diverged_h": exc.h_ref, "failure_index": exc.failure_index}
    except convergence.SweepDivergedError as exc:
        failure, reports = exc, exc.partial
        entries = {"complete": False, "diverged_h": exc.h, "failure_index": exc.failure_index}
    else:
        failure, reports = None, result.reports
        entries = {"complete": True, "fitted_order": result.fitted_order,
                   "fitted_M": result.fitted_M, "reference": result.reference_kind,
                   "totals": {repr(r.h): r.total for r in reports}}
    rows = [[r.h] + list(r.as_tuple()) + [r.total] for r in reports]
    table("sweep.csv", ["h", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "total"], rows)
    return entries, failure


def cmd_energy_audit(resolved: dict, problem, table):
    _, bundle, nonlin, initial, cfg = problem
    audit = table("audit.csv", ["n", "t", "identity_residual", "lyapunov_value", "pi_source_term"])
    pi_zero = nonlin.pi_kind == "zero"
    trajectory = iter_run(initial, bundle, nonlin, resolved["T"], cfg)
    max_resid = 0.0  # the initial entry's

    def written(ledger):
        """The ledger's entries, each written to audit.csv as it passes."""
        nonlocal max_resid
        for n, entry in enumerate(ledger):
            if n:
                audit((n, n * cfg.h, entry.identity_residual, entry.record.lyapunov,
                       entry.pi_source))
                max_resid = max(max_resid, entry.identity_residual)
            yield entry

    ledger = written(diagnostics.iter_ledger((s for s, _ in trajectory), bundle, nonlin))
    # monitor mode (pi nonzero) reads every row too; its infinite slack
    # lets no rise count as a violation
    violations = diagnostics.decay_violations(ledger, 1e-10 if pi_zero else math.inf)
    return {**_ending(trajectory), "pi_zero": pi_zero, "max_identity_residual": max_resid,
            "lyapunov_violations": [[int(i), float(v)] for i, v in violations],
            "lyapunov_mode": "checked" if pi_zero else "monitor_only"}, trajectory.failure


def cmd_oracle_check(resolved: dict, problem, table):
    _, bundle, nonlin, initial, cfg = problem
    reference = LinearReference(initial, bundle, nonlin)
    trajectory = iter_run(initial, bundle, nonlin, resolved["T"], cfg)
    write = table("oracle.csv", ["t", "theta_dev", "phi_dev", "v_dev"])
    max_dev = max_deviation((s for s, _ in trajectory), reference, write)
    return {**_ending(trajectory), "max_deviation": max_dev}, trajectory.failure


# name: (command, its JSON summary file)
COMMANDS = {"run": (cmd_run, "run.json"), "sweep": (cmd_sweep, "sweep.json"),
            "energy-audit": (cmd_energy_audit, "audit.json"),
            "oracle-check": (cmd_oracle_check, "oracle.json")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thermowave",
                                     description="Implicit integration of coupled heat/wave systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        if name == "run":
            p.add_argument("--snapshot-stride", type=int, help="write every k-th state")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; argparse's usage errors are bad input
        return 1 if exc.code else 0

    try:
        with open(args.config) as f:
            raw = json.load(f)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    stride = getattr(args, "snapshot_stride", None)  # run only
    if stride is not None and isinstance(raw, dict):
        raw["snapshot_stride"] = stride
    try:
        resolved = validate_config(raw, need_h_list=(args.command == "sweep"),
                                   need_linear=(args.command == "oracle-check"))
        problem = build_problem(resolved)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 1

    command, summary = COMMANDS[args.command]
    try:
        meta = _json_meta(resolved, problem[1], problem[2])
        header = _header(meta)

        with ExitStack() as files:
            def table(name, columns, rows=()):
                f = files.enter_context(open(os.path.join(args.out, name), "w"))
                f.write(header + ",".join(columns) + "\n")

                def write(row):  # str of a float is its shortest round-trip repr
                    f.write(",".join(map(str, row)) + "\n")

                for row in rows:
                    write(row)
                return write

            entries, failure = command(resolved, problem, table)
        _write_json(os.path.join(args.out, summary), {**meta, **entries}, failure)
        if failure is not None:
            raise failure
    except RuntimeError as exc:
        # solver failures (divergence, residual audits), raised once the
        # partial outputs are written, and non-finite output values exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
