"""Step-refinement error studies.

``error_norms`` measures the distance between one trajectory's time
reconstructions and a reference solution in the seven quantities the
scheme's error analysis controls; ``sweep`` runs a halving sequence of step
sizes against a shared reference and fits the observed convergence order.
The total over all seven terms decays at least like sqrt(h) (first order
is what backward differencing typically delivers), and total / sqrt(h)
stays bounded across the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import build_interpolants
from .nonlinearity import Nonlinearity
from .operators import OperatorBundle, h_inner, v_norm_sq
from .oracle import LinearReference, fine_reference
from .stepper import StepConfig, run, step_count


@dataclass(frozen=True)
class ErrorReport:
    """Seven error figures of one (h, reference) comparison.

    e1  sup-t of the mass form norm of the velocity reconstruction error
    e2  L2-in-time damping form norm of the piecewise-constant velocity error
    e3  sup-t V-norm of the potential reconstruction error
    e4  sup-t H-norm of the temperature reconstruction error
    e5  L2-in-time V-norm of the piecewise-constant temperature error
    e6  sup-t coupling form norm of the temperature reconstruction error
    e7  time integral of the coupling/diffusion cross form of the
        piecewise-constant temperature error (kept raw, not square-rooted)
    """

    h: float
    e1: float
    e2: float
    e3: float
    e4: float
    e5: float
    e6: float
    e7: float

    @property
    def total(self) -> float:
        return self.e1 + self.e2 + self.e3 + self.e4 + self.e5 + self.e6 + self.e7

    def as_tuple(self):
        return (self.e1, self.e2, self.e3, self.e4, self.e5, self.e6, self.e7)


@dataclass(frozen=True)
class SweepResult:
    reports: list
    fitted_order: float
    fitted_M: float
    reference_kind: str


class SweepDivergedError(RuntimeError):
    """A sweep member diverged; completed members ride along as `partial`,
    and the member run's exception is the ``__cause__``."""

    def __init__(self, h: float, failure_index: int, partial: list, cause: RuntimeError):
        super().__init__(f"sweep member h = {h} diverged: {cause}")
        self.h = h
        self.failure_index = failure_index
        self.partial = partial
        self.__cause__ = cause


def _simpson_pair(q_a, q_m, q_b, length):
    """Exact integral of a quadratic sampled at the ends and midpoint."""
    return length / 6.0 * (q_a + 4.0 * q_m + q_b)


def error_norms(states, reference, bundle: OperatorBundle) -> ErrorReport:
    """Error figures of one trajectory against a reference.

    Sup norms are taken over time nodes and interval midpoints; time
    integrals treat the reference as piecewise linear between its samples,
    making every integrand piecewise quadratic and the interval integrals
    exact.  The trajectory's rows come from ``build_interpolants``.
    """
    grid = bundle.grid
    n = grid.n_interior
    N = len(states) - 1
    traj = build_interpolants(states)
    h = traj.h
    t_nodes = traj.times
    t_mids = t_nodes[:-1] + 0.5 * h

    ref_n = reference.sample(t_nodes)
    ref_m = reference.sample(t_mids)
    for name in ("theta", "phi", "v"):
        if ref_n[name].shape[1] != n:
            raise ValueError("reference grid does not match trajectory grid")

    def sup_of(err_nodes, err_mids, q_rows):
        return math.sqrt(max(np.max(q_rows(err_nodes)), np.max(q_rows(err_mids)), 0.0))

    def hat_errors(name):
        field = getattr(traj, name)
        return field.nodes - ref_n[name], field.midpoints() - ref_m[name]

    ev_n, ev_m = hat_errors("v")
    e1 = sup_of(ev_n, ev_m, lambda r: h_inner(grid, bundle.mass.apply(r), r))
    ep_n, ep_m = hat_errors("phi")
    e3 = sup_of(ep_n, ep_m, lambda r: v_norm_sq(grid, r))
    et_n, et_m = hat_errors("theta")
    e4 = sup_of(et_n, et_m, lambda r: h_inner(grid, r, r))
    e6 = sup_of(et_n, et_m, lambda r: h_inner(grid, bundle.coupling.apply(r), r))

    # Piecewise-constant errors compare against the reference's own
    # piecewise-constant view when it has one (a fine-step reference), with
    # interval endpoints sampled from inside the open interval; against the
    # pointwise values otherwise.  The reference is resolved at quarter
    # points so its piecewise-linear stand-in tracks curvature well below
    # the discretization error being measured.  Pointwise values at interval
    # ends and midpoints are the node and midpoint samples above, except for
    # N <= 2 steps, where a LinearReference samples each time on its own and
    # exp(2h) y0 differs in the last bits from exp(h) exp(h) y0.
    offsets = (0.0, 0.25, 0.5, 0.75, 1.0)
    if hasattr(reference, "sample_bar"):
        ref_q = [reference.sample_bar(t_nodes[:-1] + w * h, side=(+1 if w == 0.0 else -1))
                 for w in offsets]
    elif N > 2:
        ref_q = [{name: rows[:-1] for name, rows in ref_n.items()},
                 reference.sample(t_nodes[:-1] + 0.25 * h), ref_m,
                 reference.sample(t_nodes[:-1] + 0.75 * h),
                 {name: rows[1:] for name, rows in ref_n.items()}]
    else:
        ref_q = [reference.sample(t_nodes[:-1] + w * h) for w in offsets]

    def l2_bar(name, q_rows):
        bar = getattr(traj, name).nodes[1:]
        d = [bar - rq[name] for rq in ref_q]
        total = 0.0
        for left, right in zip(d[:-1], d[1:]):
            mid = 0.5 * (left + right)
            total += np.sum(_simpson_pair(q_rows(left), q_rows(mid), q_rows(right), h / 4.0))
        return float(total)

    e2 = math.sqrt(max(l2_bar("v", lambda r: h_inner(grid, bundle.damping.apply(r), r)), 0.0))
    e5 = math.sqrt(max(l2_bar("theta", lambda r: v_norm_sq(grid, r)), 0.0))
    e7 = l2_bar("theta",
                lambda r: h_inner(grid, bundle.coupling.apply(r), bundle.diffusion.apply(r)))

    return ErrorReport(h=h, e1=e1, e2=e2, e3=e3, e4=e4, e5=e5, e6=e6, e7=e7)


def pick_reference(initial, bundle: OperatorBundle, nonlin: Nonlinearity,
                   T: float, h_min: float):
    """Exact modal reference when the problem is linear, otherwise a nested
    fine-step run at h_min / 32."""
    if nonlin.is_linear:
        return LinearReference(initial, bundle, nonlin), "modal"
    return fine_reference(initial, bundle, nonlin, T, h_min / 32), "fine_step"


def check_h_list(T: float, h_list) -> list:
    """A sweep's step sizes as floats: at least two, each half the one
    before, each a whole number of steps from 0 to T."""
    h_list = [float(h) for h in h_list]
    if len(h_list) < 2:
        raise ValueError(f"h_list must hold at least two step sizes, got {len(h_list)}")
    if any(abs(a - 2.0 * b) > 1e-9 * abs(b) for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must halve from entry to entry")
    for h in h_list:
        step_count(T, h)
    return h_list


def sweep(initial, bundle: OperatorBundle, nonlin: Nonlinearity, T: float,
          h_list, reference=None, configs=None) -> SweepResult:
    """Refinement study over a halving list of step sizes.

    Runs every member against one shared reference (``pick_reference``'s
    unless one is supplied), fits the slope of log(total) against log(h),
    and records the empirical constant max(total / sqrt(h)).  ``configs``
    gives each member its own StepConfig, in ``h_list`` order; by default
    member h runs ``StepConfig(h)``.
    """
    h_list = check_h_list(T, h_list)
    if configs is None:
        configs = [StepConfig(h=h) for h in h_list]
    elif [cfg.h for cfg in configs] != h_list:
        raise ValueError("configs must hold one StepConfig per h_list entry, with that h")
    reference_kind = "supplied"
    if reference is None:
        reference, reference_kind = pick_reference(initial, bundle, nonlin, T, min(h_list))

    reports, failures = [], []
    for cfg in configs:
        result = run(initial, bundle, nonlin, T, cfg)
        if result.complete:
            reports.append(error_norms(result.states, reference, bundle))
        else:
            failures.append((cfg.h, result.failure_index, result.failure))
        del result  # free this member's trajectory before the next run starts
    if failures:
        h_bad, idx, cause = failures[0]
        raise SweepDivergedError(h_bad, idx, reports, cause)

    logs_h = np.log([r.h for r in reports])
    logs_e = np.log([max(r.total, 1e-300) for r in reports])
    order = float(np.polyfit(logs_h, logs_e, 1)[0])
    m_const = max(r.total / math.sqrt(r.h) for r in reports)
    return SweepResult(reports=reports, fitted_order=order, fitted_M=m_const,
                       reference_kind=reference_kind)
