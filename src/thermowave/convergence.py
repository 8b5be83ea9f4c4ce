"""Step-refinement error studies.

``error_norms`` measures the distance between one trajectory's time
reconstructions and a reference solution in the seven quantities the
scheme's error analysis controls, reading the trajectory in blocks;
``sweep`` runs a halving sequence of step sizes against a shared reference,
its finest member in this process and the others in one forked worker when
two CPUs are usable, and fits the observed convergence order.
The total over all seven terms decays at least like sqrt(h) (first order
is what backward differencing typically delivers), and total / sqrt(h)
stays bounded across the sweep.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .diagnostics import _Figures, iter_blocks
from .nonlinearity import Nonlinearity
from .operators import OperatorBundle, PicklableError, h_inner, v_norm_sq
from .oracle import LinearReference, fine_reference
from .stepper import StepConfig, iter_run, step_count

FINE_STEP_RATIO = 32  # a nonlinear sweep's fine reference steps at h_min / FINE_STEP_RATIO


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


class SweepDivergedError(PicklableError, RuntimeError):
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
    ends) and the midpoint rows; at the 1/4 and 3/4 points only the fields
    of ``ends``, those the integral figures read, are sampled.
    """
    mids = sample(lefts + 0.5 * h, 0.5)
    if hasattr(reference, "sample_bar"):
        return mids, [reference.sample_bar(lefts + w * h, side=(+1 if w == 0.0 else -1))
                      for w in _QUARTERS]
    return mids, [{name: r[:-1] for name, r in ends.items()},
                  sample(lefts + 0.25 * h, 0.25, fields=tuple(ends)), mids,
                  sample(lefts + 0.75 * h, 0.75, fields=tuple(ends)),
                  {name: r[1:] for name, r in ends.items()}]


class ErrorFigures(_Figures):
    """The push form of ``error_norms``: ``add`` blocks of consecutive
    states in turn, then ``report``.  A reference with ``chain`` takes
    blocks of any size, one chain per time grid; one with only ``sample``
    (and ``sample_bar``) takes the whole trajectory as one block."""

    def __init__(self, reference, bundle: OperatorBundle):
        super().__init__(_FIELDS)
        grid = self.grid = bundle.grid
        self.reference, self._ref_last = reference, None  # the last state's reference rows
        chains = ({w: reference.chain() for w in (None, 0.25, 0.5, 0.75)}
                  if hasattr(reference, "chain") else None)
        self._sample = ((lambda times, w=None, **kw: reference.sample(times, **kw))
                        if chains is None else
                        (lambda times, w=None, **kw: reference.sample(times, chains[w], **kw)))
        coupling, diffusion = bundle.coupling, bundle.diffusion
        one_product = coupling.applies_as(diffusion)

        def cross(r):  # one product serves both sides where coupling applies as diffusion
            c = coupling.apply(r)
            return h_inner(grid, c, c if one_product else diffusion.apply(r))

        # field: ({figure: rowwise form} of the sups at nodes and midpoints,
        # {figure: rowwise form} of the time integrals of the
        # piecewise-constant error)
        self._forms = {
            "theta": ({"e4": lambda r: h_inner(grid, r, r),
                       "e6": lambda r: h_inner(grid, coupling.apply(r), r)},
                      {"e5": lambda r: v_norm_sq(grid, r), "e7": cross}),
            "phi": ({"e3": lambda r: v_norm_sq(grid, r)}, {}),
            "v": ({"e1": lambda r: h_inner(grid, bundle.mass.apply(r), r)},
                  {"e2": lambda r: h_inner(grid, bundle.damping.apply(r), r)})}
        self._quarter_fields = tuple(name for name, (_, integrals) in self._forms.items()
                                     if integrals)

    def _fold(self, rows, times, k):
        """Fold one block one field at a time, holding one field's
        differences: its node and midpoint differences, each formed once for
        all of the field's sups, then its piecewise-constant differences at
        the five quarter points in turn.  Each inner quarter point is the
        right end of one Simpson pair and the left end of the next, so each
        integral form is evaluated once per row set: on five quarter-point
        row sets and four pair midpoints a block."""
        ref_n = self._sample(times[k:])
        if any(r.shape[1] != self.grid.n_interior for r in ref_n.values()):
            raise ValueError("reference grid does not match trajectory grid")
        if len(times) > 1:
            ends = {name: ref_n[name] if k == 0 else
                    np.concatenate([self._ref_last[name][None], ref_n[name]])
                    for name in self._quarter_fields}
            ref_m, ref_q = _interval_rows(self.reference, self._sample, times[:-1], self.h, ends)
        for name, (sups, integrals) in self._forms.items():
            u = rows[name]
            self._sups(sups, u[k:] - ref_n[name])
            if len(times) < 2:
                continue
            self._sups(sups, 0.5 * (u[:-1] + u[1:]) - ref_m[name], "mid")
            left = None  # the row set at the last quarter point, and its form values
            for quarter, ref in enumerate(ref_q if integrals else ()):
                d = u[1:] - ref[name]
                q = {key: form(d) for key, form in integrals.items()}
                if left is not None:
                    mid = 0.5 * (left[0] + d)
                    for key, form in integrals.items():
                        self._integral((key, quarter - 1), _simpson_pair(
                            left[1][key], form(mid), q[key], self.h / 4.0))
                left = d, q
        self._ref_last = {name: r[-1] for name, r in ref_n.items()}

    def _sups(self, forms, d, where=None):
        for key, form in forms.items():
            self._sup(key if where is None else (key, where), form(d))

    def report(self) -> ErrorReport:
        if self.last is None:
            raise ValueError("error_norms needs at least one state")

        def sup(key):
            return math.sqrt(max(self._peak(key), self._peak((key, "mid")), 0.0))

        def integral(key):
            total = 0.0
            for quarter in range(4):
                total += self._total((key, quarter))
            return float(total)

        return ErrorReport(h=self.last.h if self.h is None else self.h,
                           e1=sup("e1"), e2=math.sqrt(max(integral("e2"), 0.0)), e3=sup("e3"),
                           e4=sup("e4"), e5=math.sqrt(max(integral("e5"), 0.0)), e6=sup("e6"),
                           e7=integral("e7"))


def error_norms(states, reference, bundle: OperatorBundle) -> ErrorReport:
    """Error figures of one trajectory against a reference.

    Sup norms are taken over time nodes and interval midpoints; time
    integrals treat the reference as piecewise linear between its samples,
    making every integrand piecewise quadratic and the interval integrals
    exact.  ``states`` is a list or any iterable of consecutive states,
    read once, each at time ``t_index * h``, and pushed through
    ``ErrorFigures``.  When the reference has ``chain``, they come in the
    blocks of ``diagnostics.iter_blocks`` and sample it block by block:
    ``sample(times, chain)`` with one chain per time grid, and a
    ``sample_bar`` that depends on each time alone.  A reference without
    ``sample_bar`` must take ``fields`` in ``sample``: at the 1/4 and 3/4
    points it is asked only for the fields that the integral figures read,
    theta and v (``sample(times, chain, fields=("theta", "v"))``, or
    ``sample(times, fields=...)`` without ``chain``).  Every figure has the
    bits of the whole trajectory's, and memory does not grow with the
    trajectory, apart from one scalar per interval, quarter and integral.
    A reference with only ``sample`` (and ``sample_bar``) is sampled over
    the whole grid, one block.  The figures are computed without
    floating-point warnings (an overflow reads inf), so the figures of a
    run that diverges add none to the run's own.
    """
    figures = ErrorFigures(reference, bundle)
    blocks = (iter_blocks(states, bundle.grid.n_interior) if hasattr(reference, "chain")
              else [list(states)])
    for block in blocks:  # the states are read outside add's errstate
        figures.add(block)
        del block  # before the next block is read
    return figures.report()


def pick_reference(initial, bundle: OperatorBundle, nonlin: Nonlinearity,
                   T: float, h_min: float):
    """Exact modal reference when the problem is linear, otherwise a nested
    fine-step run at h_min / FINE_STEP_RATIO."""
    if nonlin.is_linear:
        return LinearReference(initial, bundle, nonlin), "modal"
    return fine_reference(initial, bundle, nonlin, T, h_min / FINE_STEP_RATIO), "fine_step"


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


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say,
    or where the process runs more than one thread.  A forked worker holds
    only the forking thread, and a BLAS thread pool (OpenBLAS starts one
    unless it is told to use one thread) would leave two pools busy-waiting
    on each other's CPUs: a split sweep then ran slower than one process."""
    try:
        cpus, threads = len(os.sched_getaffinity(0)), len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return cpus if threads == 1 else 1


def _fork(share, measure):
    """A worker process that sends one pickle ``(i, measure(i))`` per member
    ``i`` of ``share``, in order, or ``(i, exception)`` for a member that
    raised, and then stops; it leaves by ``os._exit`` on every path, with
    code 0 once every pickle is sent.  Returns its pid and the pipe's read
    end, as a file."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    code = 1
    try:
        os.close(read)
        with os.fdopen(write, "wb") as out:
            for i in share:
                try:
                    result = measure(i)
                except Exception as exc:  # the parent raises it again
                    result = exc
                out.write(pickle.dumps((i, result)))
                out.flush()
                if isinstance(result, Exception):
                    break
        code = 0
    finally:
        os._exit(code)


def _measure_all(measure, h_list):
    """``measure(i)`` of every member of ``h_list``, in its order.  With
    two or more usable CPUs a forked worker measures every member but the
    finest, the last, which has more steps than all the others together,
    and this process measures the finest; with fewer, this process
    measures them all.  A member's exception is raised here, as is a
    ``RuntimeError`` for a worker that ends before sending all its results.
    The worker is reaped before this returns or raises, and killed first
    if it still runs when anything raises here."""
    last = len(h_list) - 1
    results, worker = [None] * len(h_list), None  # worker: (pid, pipe) until reaped
    try:
        if usable_cpus() > 1:
            worker = _fork(range(last), measure)
        for i in range(last if worker else 0, last + 1):
            results[i] = measure(i)
        if worker:
            pid, pipe = worker
            with pipe:
                while True:
                    try:
                        i, result = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the pipe's end
                        break
                    if isinstance(result, Exception):
                        raise result
                    results[i] = result
            status, worker = os.waitpid(pid, 0)[1], None
            lost = [h for h, result in zip(h_list, results) if result is None]
            if lost:
                raise RuntimeError(f"a sweep worker ended with wait status {status} before "
                                   f"sending the results of members h = {lost}")
    finally:
        if worker:
            pid, pipe = worker
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _fitted_slope(reports) -> float:
    """Least-squares slope of log(total) against log(h) over the reports,
    in closed form: with x = log h - mean, x . (log total - mean) / x . x.
    It calls no LAPACK (the first ``np.polyfit`` of a process grew its
    resident set by about 1 MB) and, as ``np.polyfit`` does, reads NaN when
    a total is infinite."""
    logs_h = np.log([r.h for r in reports])
    logs_e = np.log([max(r.total, 1e-300) for r in reports])
    x = logs_h - logs_h.mean()
    with np.errstate(invalid="ignore"):  # inf - inf
        return float(x @ (logs_e - logs_e.mean()) / (x @ x))


def sweep(initial, bundle: OperatorBundle, nonlin: Nonlinearity, T: float,
          h_list, reference=None, configs=None) -> SweepResult:
    """Refinement study over a halving list of step sizes.

    Runs every member against one shared reference (``pick_reference``'s
    unless one is supplied), fits the slope of log(total) against log(h),
    and records the empirical constant max(total / sqrt(h)).  ``configs``
    gives each member its own StepConfig, in ``h_list`` order; by default
    member h runs ``StepConfig(h)``.  Each member's ``iter_run`` trajectory
    goes straight into ``error_norms``, so no member's states are
    collected.  The trajectories are all made here first, in ``h_list``
    order.  With two or more usable CPUs one forked worker, which inherits
    the reference, then runs every member but the finest, and this process
    runs the finest, which has more steps than the others together; with
    one, nothing is forked.  A member that diverges still runs
    through ``error_norms`` up to its failed step, and its figures are
    dropped; the members after it still run, and ``SweepDivergedError``
    names the first failure in ``h_list`` order, with the reports of the
    members that completed.  The results are those of running the members
    one after another in this process.
    """
    h_list = check_h_list(T, h_list)
    if configs is None:
        configs = [StepConfig(h=h) for h in h_list]
    elif [cfg.h for cfg in configs] != h_list:
        raise ValueError("configs must hold one StepConfig per h_list entry, with that h")
    reference_kind = "supplied"
    if reference is None:
        reference, reference_kind = pick_reference(initial, bundle, nonlin, T, min(h_list))

    trajectories = [iter_run(initial, bundle, nonlin, T, cfg) for cfg in configs]

    def measure(i):
        trajectory = trajectories[i]
        report = error_norms((s for s, _ in trajectory), reference, bundle)
        return report, trajectory.failure_index, trajectory.failure

    reports, failures = [], []
    for h, (report, index, failure) in zip(h_list, _measure_all(measure, h_list)):
        if failure is None:
            reports.append(report)
        else:  # the figures of the states before the failed step are dropped
            failures.append((h, index, failure))
    if failures:
        h_bad, idx, cause = failures[0]
        raise SweepDivergedError(h_bad, idx, reports, cause)

    m_const = max(r.total / math.sqrt(r.h) for r in reports)
    return SweepResult(reports=reports, fitted_order=_fitted_slope(reports), fitted_M=m_const,
                       reference_kind=reference_kind)
