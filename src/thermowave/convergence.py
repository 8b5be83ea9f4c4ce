"""Step-refinement error studies.

``error_norms`` measures the distance between one trajectory's time
reconstructions and a reference solution in the seven quantities the
scheme's error analysis controls, reading the trajectory in blocks;
``sweep`` runs a halving sequence of step sizes against a shared reference
and fits the observed convergence order.
The total over all seven terms decays at least like sqrt(h) (first order
is what backward differencing typically delivers), and total / sqrt(h)
stays bounded across the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import iter_blocks
from .nonlinearity import Nonlinearity
from .operators import OperatorBundle, h_inner, v_norm_sq
from .oracle import LinearReference, fine_reference
from .stepper import StepConfig, iter_run, step_count


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


_FIELDS = ("theta", "phi", "v")
_QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _interval_rows(reference, sample, lefts, h, ends):
    """Reference rows of a block's intervals, which start at ``lefts``:
    at their midpoints, and at the five quarter points of each interval.

    Piecewise-constant errors compare against the reference's own
    piecewise-constant view when it has one (a fine-step reference), with
    interval endpoints sampled from inside the open interval; against the
    pointwise values otherwise.  The reference is resolved at quarter
    points so its piecewise-linear stand-in tracks curvature well below the
    discretization error being measured.  Pointwise values at interval ends
    and midpoints are the node rows ``ends`` (the intervals' left and right
    ends) and the midpoint rows.
    """
    mids = sample(lefts + 0.5 * h, 0.5)
    if hasattr(reference, "sample_bar"):
        return mids, [reference.sample_bar(lefts + w * h, side=(+1 if w == 0.0 else -1))
                      for w in _QUARTERS]
    return mids, [{name: r[:-1] for name, r in ends.items()},
                  sample(lefts + 0.25 * h, 0.25), mids,
                  sample(lefts + 0.75 * h, 0.75), {name: r[1:] for name, r in ends.items()}]


def error_norms(states, reference, bundle: OperatorBundle) -> ErrorReport:
    """Error figures of one trajectory against a reference.

    Sup norms are taken over time nodes and interval midpoints; time
    integrals treat the reference as piecewise linear between its samples,
    making every integrand piecewise quadratic and the interval integrals
    exact.  ``states`` is a list or any iterable of consecutive states,
    read once, each at time ``t_index * h``.  When the reference has
    ``chain``, they come in the blocks of ``diagnostics.iter_blocks`` and
    sample it block by block: ``sample(times, chain)`` with one chain per
    time grid, and a ``sample_bar`` that depends on each time alone.  Each
    block is stacked with the node before it, its sups fold into running
    maxima, and its intervals' Simpson values are kept, one scalar per
    interval and quarter, to be summed once at the end.  Every figure has
    the bits of the whole trajectory's, and memory does not grow with the
    trajectory, apart from those scalars.  A reference with only ``sample``
    (and ``sample_bar``) is sampled over the whole grid, one block.  The
    figures are computed without floating-point warnings (an overflow reads
    inf), so the figures of a run that diverges add none to the run's own.
    """
    grid = bundle.grid
    # figure: (field, rowwise form); sups at nodes and midpoints, and time
    # integrals of the piecewise-constant error
    sups = {"e1": ("v", lambda r: h_inner(grid, bundle.mass.apply(r), r)),
            "e3": ("phi", lambda r: v_norm_sq(grid, r)),
            "e4": ("theta", lambda r: h_inner(grid, r, r)),
            "e6": ("theta", lambda r: h_inner(grid, bundle.coupling.apply(r), r))}
    integrals = {"e2": ("v", lambda r: h_inner(grid, bundle.damping.apply(r), r)),
                 "e5": ("theta", lambda r: v_norm_sq(grid, r)),
                 "e7": ("theta", lambda r: h_inner(grid, bundle.coupling.apply(r),
                                                   bundle.diffusion.apply(r)))}
    peaks = {key: ([], []) for key in sups}  # block maxima at nodes, at midpoints
    pieces = {key: ([], [], [], []) for key in integrals}  # per quarter of the intervals

    chains = ({w: reference.chain() for w in (None, 0.25, 0.5, 0.75)}
              if hasattr(reference, "chain") else None)
    blocks = [list(states)] if chains is None else iter_blocks(states, grid.n_interior)

    def sample(times, w=None):
        return reference.sample(times) if chains is None else reference.sample(times, chains[w])

    prev = h = None  # the node before the block: its state and reference rows

    def add(block):
        nonlocal prev, h
        stack = block if prev is None else [prev[0], *block]
        k = len(stack) - len(block)  # the block's first row in the stack
        rows = {name: np.stack([getattr(s, name) for s in stack]) for name in _FIELDS}
        times = np.array([s.t_index * s.h for s in stack])
        ref_n = sample(times[k:])
        for name in _FIELDS:
            if ref_n[name].shape[1] != grid.n_interior:
                raise ValueError("reference grid does not match trajectory grid")
        for key, (name, q_rows) in sups.items():
            peaks[key][0].append(np.max(q_rows(rows[name][k:] - ref_n[name])))
        if len(stack) > 1:
            h = float(times[1] - times[0]) if h is None else h
            ends = ref_n if k == 0 else {name: np.concatenate([prev[1][name][None], r])
                                         for name, r in ref_n.items()}
            ref_m, ref_q = _interval_rows(reference, sample, times[:-1], h, ends)
            for key, (name, q_rows) in sups.items():
                mids = 0.5 * (rows[name][:-1] + rows[name][1:])
                peaks[key][1].append(np.max(q_rows(mids - ref_m[name])))
            for key, (name, q_rows) in integrals.items():
                d = [rows[name][1:] - rq[name] for rq in ref_q]
                for quarter, left, right in zip(pieces[key], d[:-1], d[1:]):
                    mid = 0.5 * (left + right)
                    quarter.append(_simpson_pair(q_rows(left), q_rows(mid), q_rows(right),
                                                 h / 4.0))
        prev = block[-1], {name: r[-1] for name, r in ref_n.items()}

    for block in blocks:  # the states are read outside the errstate
        with np.errstate(over="ignore", invalid="ignore"):
            add(block)
        del block  # before the next block is read
    if prev is None:
        raise ValueError("error_norms needs at least one state")

    def sup(key):
        at_nodes, at_mids = peaks[key]
        return math.sqrt(max(np.max(at_nodes), np.max(at_mids, initial=-math.inf), 0.0))

    def integral(key):
        total = 0.0
        for quarter in pieces[key]:
            total += np.sum(np.concatenate(quarter)) if quarter else 0.0
        return float(total)

    return ErrorReport(h=prev[0].h if h is None else h,
                       e1=sup("e1"), e2=math.sqrt(max(integral("e2"), 0.0)), e3=sup("e3"),
                       e4=sup("e4"), e5=math.sqrt(max(integral("e5"), 0.0)), e6=sup("e6"),
                       e7=integral("e7"))


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
    member h runs ``StepConfig(h)``.  Each member's ``iter_run`` trajectory
    goes straight into ``error_norms``, so no member's states are
    collected.  A member that diverges still runs through ``error_norms``
    up to its failed step, and its figures are dropped; the members after
    it still run, and ``SweepDivergedError`` names the first failure, with
    the reports of the members that completed.
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
        trajectory = iter_run(initial, bundle, nonlin, T, cfg)
        report = error_norms((s for s, _ in trajectory), reference, bundle)
        if trajectory.failure is None:
            reports.append(report)
        else:  # the figures of the states before the failed step are dropped
            failures.append((cfg.h, trajectory.last.t_index, trajectory.failure))
    if failures:
        h_bad, idx, cause = failures[0]
        raise SweepDivergedError(h_bad, idx, reports, cause)

    logs_h = np.log([r.h for r in reports])
    logs_e = np.log([max(r.total, 1e-300) for r in reports])
    order = float(np.polyfit(logs_h, logs_e, 1)[0])
    m_const = max(r.total / math.sqrt(r.h) for r in reports)
    return SweepResult(reports=reports, fitted_order=order, fitted_M=m_const,
                       reference_kind=reference_kind)
