"""Energy bookkeeping and trajectory diagnostics.

The implicit scheme satisfies an exact per-step energy balance: testing the
wave equation with the step increment and eliminating the temperature
forcing through the heat equation telescopes the discrete energy

    E = 1/2 (mass v, v) + 1/2 (stiffness phi, phi) + 1/(2 eta) (coupling theta, theta)

against a sum of nonnegative dissipation terms.  ``step_identity_residual``
measures how far a computed step is from that algebraic identity (zero in
exact arithmetic, solver tolerance in practice).  ``energy_ledger`` gives
each state of a trajectory its energy and the identity residual and pi
source of the step into it, in one rowwise pass over blocks of states;
``energy`` and ``step_identity_residual`` are its one- and two-state cases, and
``iter_ledger`` streams it for a trajectory read once, in the blocks of
``iter_blocks`` (about ``BLOCK_VALUES`` values per field) that
``convergence.error_norms``, ``apriori_monitor`` and
``oracle.max_deviation`` read too.  ``_Figures`` is the push form of a
per-trajectory figure, ``add(block)`` then ``report()``, which
``AprioriMonitor`` (the uniform-boundedness monitors of the refinement
studies) and ``convergence.ErrorFigures`` share.  The module also carries
the piecewise-constant / piecewise-linear time reconstructions of a
trajectory with their exact norm identities, on a time grid that
``is_uniform``, the spacing test that ``oracle.LinearReference.sample``
chains by too.  ``build_interpolants`` stacks a whole trajectory into
them; ``oracle.fine_reference`` returns it as the fine-step reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .nonlinearity import Nonlinearity, potential_total
from .operators import Grid1D, OperatorBundle, h_inner, v_norm_sq


@dataclass(frozen=True)
class EnergyRecord:
    """Energy split of one state plus the dissipation spent entering it.

    kinetic           1/2 (mass v, v)
    elastic           1/2 (stiffness phi, phi)
    thermal           1/(2 eta) (coupling theta, theta)
    potential         quadrature of the beta potential at phi
    dissipation_b1    h (damping v, v)
    dissipation_cross (h/eta) (coupling theta, diffusion theta)
    """

    kinetic: float
    elastic: float
    thermal: float
    potential: float
    dissipation_b1: float
    dissipation_cross: float

    @property
    def total(self) -> float:
        """The telescoping energy (kinetic + elastic + thermal)."""
        return self.kinetic + self.elastic + self.thermal

    @property
    def lyapunov(self) -> float:
        return self.total + self.potential


@dataclass(frozen=True)
class LedgerEntry:
    """One state's energy record and, for the step that produced it (0.0
    at the initial state), the balance residual and h (pi(phi+), v+)."""

    record: EnergyRecord
    identity_residual: float
    pi_source: float


def _ledger_rows(states, bundle: OperatorBundle, nonlin: Nonlinearity, prev=None) -> list:
    """Ledger entries of consecutive ``states``, each form one rowwise sum
    over (m, n) stacks of their fields.  ``prev`` is the preceding state
    and its entry, whose vectors are restacked only for the differences,
    or None when ``states[0]`` starts the trajectory (it then stands in for
    its own predecessor, and its step terms are 0).  A row's sums do not
    depend on the other rows, so any split of a trajectory into blocks
    gives the same bits.
    """
    grid, eta, dx = bundle.grid, bundle.eta, bundle.grid.dx
    stack = [states[0] if prev is None else prev[0], *states]
    theta, phi, v = (np.stack([getattr(s, name) for s in stack]) for name in ("theta", "phi", "v"))
    dtheta, dphi, dv = np.diff(theta, axis=0), np.diff(phi, axis=0), np.diff(v, axis=0)
    theta, phi, v = theta[1:], phi[1:], v[1:]
    h = np.array([s.h for s in states])

    kinetic = 0.5 * h_inner(grid, bundle.mass.apply(v), v)
    elastic = 0.5 * h_inner(grid, bundle.stiffness.apply(phi), phi)
    coupling_theta = bundle.coupling.apply(theta)
    diffusion_theta = (coupling_theta if bundle.coupling.applies_as(bundle.diffusion)
                       else bundle.diffusion.apply(theta))
    thermal = 0.5 / eta * h_inner(grid, coupling_theta, theta)
    cross = h / eta * h_inner(grid, coupling_theta, diffusion_theta)
    del coupling_theta, diffusion_theta  # block-sized arrays, not held through the rest
    potential = potential_total(nonlin, grid, phi)
    b1 = h * h_inner(grid, bundle.damping.apply(v), v)
    total = kinetic + elastic + thermal
    # (h * dx) * sum, not h * h_inner's dx * sum: kept for byte-stable outputs
    pi_source = h * dx * np.sum(nonlin.pi(phi) * v, axis=1)
    prev_total = np.append(total[0] if prev is None else prev[1].record.total, total[:-1])
    residual = np.abs(total - prev_total
                      + 0.5 * h_inner(grid, bundle.mass.apply(dv), dv)
                      + 0.5 * h_inner(grid, bundle.stiffness.apply(dphi), dphi)
                      + 0.5 / eta * h_inner(grid, bundle.coupling.apply(dtheta), dtheta)
                      + b1 + cross + h_inner(grid, nonlin.beta(phi), dphi) + pi_source)
    if prev is None:
        residual[0] = pi_source[0] = 0.0
    rows = zip(*(a.tolist() for a in (kinetic, elastic, thermal, potential, b1, cross,
                                      residual, pi_source)))
    return [LedgerEntry(EnergyRecord(*row[:6]), *row[6:]) for row in rows]


def energy(state, bundle: OperatorBundle, nonlin: Nonlinearity) -> EnergyRecord:
    """Energy record of a state; square-root norms are evaluated as bilinear
    forms (op u, u), never through explicit operator square roots."""
    return _ledger_rows([state], bundle, nonlin)[0].record


def step_identity_residual(state_n, state_np1, bundle: OperatorBundle,
                           nonlin: Nonlinearity) -> float:
    """Absolute residual of the exact per-step energy balance.

    With E the telescoping energy and D the forward differences between the
    two states, the computed trajectory satisfies

        [E(n+1) - E(n)] + 1/2 (mass Dv, Dv) + 1/2 (stiffness Dphi, Dphi)
        + 1/(2 eta) (coupling Dtheta, Dtheta) + h (damping v+, v+)
        + (h/eta) (coupling theta+, diffusion theta+)
        + (beta(phi+), Dphi) + h (pi(phi+), v+)  =  0

    exactly in real arithmetic; numerically the residual reflects solver
    tolerance only.
    """
    return _ledger_rows([state_n, state_np1], bundle, nonlin)[1].identity_residual


# Values per field in one block of a streamed trajectory: the ledger, the
# error figures and the oracle deviations all hold one block of states.
BLOCK_VALUES = 8192


def iter_blocks(states, n: int):
    """Lists of consecutive states of any iterable, read once, each of
    ``max(1, BLOCK_VALUES // n)`` states but the last; a block comes as
    soon as it is full, the last when the states run out.  A block is let
    go before the next is read, so a consumer that drops it too holds one
    block at a time."""
    states, size = iter(states), max(1, BLOCK_VALUES // n)
    while block := list(islice(states, size)):
        yield block
        del block


class _Figures:
    """Figures of a trajectory pushed in blocks of consecutive states:
    ``add`` each block in turn, then ``report``.  ``add`` stacks a block's
    ``fields`` after the last state added and hands the rows, their times
    and the block's first row k to ``_fold``, which runs without
    floating-point warnings (an overflow reads inf).  A sup keeps each
    block's largest row value and an integral every row value, summed
    once, so every figure has the bits of the whole trajectory's."""

    def __init__(self, fields):
        self.fields, self.last, self.h, self._folds = fields, None, None, {}

    def add(self, block):
        if not block:
            return
        stack = block if self.last is None else [self.last, *block]
        rows = {name: np.stack([getattr(s, name) for s in stack]) for name in self.fields}
        times = np.array([s.t_index * s.h for s in stack])
        if self.h is None and len(stack) > 1:
            self.h = float(times[1] - times[0])
        with np.errstate(over="ignore", invalid="ignore"):
            self._fold(rows, times, len(stack) - len(block))
        self.last = block[-1]

    def _sup(self, key, values):
        self._folds.setdefault(key, []).append(np.max(values))

    def _integral(self, key, values):
        self._folds.setdefault(key, []).append(values)

    def _peak(self, key):
        return np.max(self._folds.get(key, ()), initial=-np.inf)

    def _total(self, key):
        parts = self._folds.get(key)
        return np.sum(np.concatenate(parts)) if parts else 0.0


def iter_ledger(states, bundle: OperatorBundle, nonlin: Nonlinearity):
    """Energy bookkeeping of a trajectory, one ``LedgerEntry`` per state.

    ``states`` is any iterable of consecutive states, read once.  They go
    through ``_ledger_rows`` in ``iter_blocks``, and only one block is
    held, so memory does not grow with the trajectory.  Every entry has
    the bits of ``energy`` and ``step_identity_residual`` of its states.
    """
    prev = None
    for block in iter_blocks(states, bundle.grid.n_interior):
        rows = _ledger_rows(block, bundle, nonlin, prev)
        prev = block[-1], rows[-1]
        del block  # before the next block is read
        yield from rows


def energy_ledger(states, bundle: OperatorBundle, nonlin: Nonlinearity) -> list:
    """``iter_ledger`` of the states, as a list."""
    return list(iter_ledger(states, bundle, nonlin))


def decay_violations(ledger, slack: float = 1e-10):
    """(index, overshoot) pairs where energy + potential rose by more than
    ``slack * (1 + E(n))`` from one ledger entry to the next; ``ledger`` is
    any iterable of entries, read once."""
    out, prev = [], None
    for n, entry in enumerate(ledger):
        cur = entry.record
        if prev is not None and cur.lyapunov > prev.lyapunov + slack * (1.0 + prev.total):
            out.append((n, cur.lyapunov - prev.lyapunov))
        prev = cur
    return out


def lyapunov_check(states, bundle: OperatorBundle, nonlin: Nonlinearity,
                   slack: float = 1e-10):
    """Violations of the energy + potential decay along a trajectory.

    Only valid when pi vanishes (with a perturbation the balance carries
    data-dependent source terms and this check would be meaningless).
    Returns a list of (index, overshoot) pairs; empty means monotone decay
    within ``slack * (1 + E(n))`` at every step.
    """
    if nonlin.pi_kind != "zero":
        raise ValueError("lyapunov_check requires pi == 0; run the audit in monitor mode instead")
    return decay_violations(iter_ledger(states, bundle, nonlin), slack)


# ----------------------------------------------------------------------
# Time reconstructions


def is_uniform(times) -> bool:
    """Whether two or more finite times are evenly spaced: every step
    equals the first to a relative 1e-12, or to four roundings of the
    largest time, which bound the drift of ``k * h`` and ``k * h + h / 4``
    on a long grid."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or not np.isfinite(times).all():
        return False
    dt = np.diff(times)
    atol = 4.0 * np.finfo(float).eps * np.max(np.abs(times))
    return bool((np.abs(dt - dt[0]) <= atol + 1e-12 * abs(dt[0])).all())


@dataclass(frozen=True)
class Interpolant:
    """Node values of one field on a uniform time grid with its two time
    reconstructions.

    ``hat`` is continuous piecewise linear through the nodes; ``bar`` is
    piecewise constant, equal on each interval to the right node value.
    Both take one time (one row back) or an array of times (one row per
    time) and hold the end values beyond the grid.
    """

    times: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        # read-only views: the caller's arrays keep their own flags
        t = np.ascontiguousarray(self.times, dtype=float).view()
        y = np.ascontiguousarray(self.nodes, dtype=float).view()
        if y.shape[0] != t.size:
            raise ValueError("node array does not match time grid")
        if t.size > 1 and not is_uniform(t):
            raise ValueError("time grid must be uniform")
        t.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "nodes", y)

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    def hat(self, t) -> np.ndarray:
        pos = (np.asarray(t, dtype=float) - self.times[0]) / self.h
        last = self.times.size - 1
        j = np.clip(np.floor(pos).astype(int), 0, last)
        w = np.clip(pos - j, 0.0, 1.0)[..., None]
        return (1.0 - w) * self.nodes[j] + w * self.nodes[np.minimum(j + 1, last)]

    def bar(self, t, side: int = -1) -> np.ndarray:
        """``side`` resolves a time exactly on a node: -1 takes the left
        limit (the interval ending there), +1 the right limit.  Error
        integrals over open intervals sample their endpoints from inside."""
        pos = (np.asarray(t, dtype=float) - self.times[0]) / self.h + side * 1e-6
        return self.nodes[np.clip(np.floor(pos).astype(int) + 1, 1, self.times.size - 1)]

    def deltas(self) -> np.ndarray:
        return self.nodes[1:] - self.nodes[:-1]

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


@dataclass(frozen=True)
class TrajectoryInterpolants:
    """A trajectory's fields stacked once, one ``Interpolant`` each.

    ``sample`` and ``sample_bar`` give the theta/phi/v reconstructions at
    an array of times, so a fine-step run serves as a reference solution
    wherever ``convergence.error_norms`` takes one.  Only
    ``interpolation_identities_check`` reads z, so its rows are stacked on
    first access.
    """

    theta: Interpolant
    phi: Interpolant
    v: Interpolant
    z_rows: tuple = field(repr=False, compare=False)

    @cached_property
    def z(self) -> Interpolant:
        return Interpolant(self.times, np.stack(self.z_rows))

    @property
    def h(self) -> float:
        return self.theta.h

    @property
    def times(self) -> np.ndarray:
        return self.theta.times

    def chain(self):
        """None: every row of ``sample`` and ``sample_bar`` depends on its
        own time alone, so ``convergence.error_norms``, which samples every
        reference block by block, carries no state between the blocks."""
        return None

    def sample(self, times, chain=None) -> dict:
        return {name: getattr(self, name).hat(times) for name in ("theta", "phi", "v")}

    def sample_bar(self, times, side: int = -1) -> dict:
        return {name: getattr(self, name).bar(times, side) for name in ("theta", "phi", "v")}


def build_interpolants(states) -> TrajectoryInterpolants:
    """The stacked view of consecutive states, any iterable of them, read
    once.  Only their field rows are held until each field is stacked, and
    each field's rows are let go as soon as its stack is built."""
    rows = {name: [] for name in ("theta", "phi", "v", "z")}
    t_index = []
    for s in states:
        for name, field_rows in rows.items():
            field_rows.append(getattr(s, name))
        t_index.append(s.t_index)
        if len(t_index) <= 2:  # the step of the second state, if any
            h = s.h
    times = np.array([i * h for i in t_index])
    fields = {name: Interpolant(times, np.stack(rows.pop(name)))
              for name in ("theta", "phi", "v")}
    return TrajectoryInterpolants(**fields, z_rows=tuple(rows.pop("z")))


def _rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def interpolation_identities_check(interp: TrajectoryInterpolants, grid: Grid1D) -> float:
    """Worst relative deviation over the exact reconstruction identities.

    For any trajectory respecting the difference-quotient relations between
    phi, v and z the following hold exactly:

      sup-V of hat(phi)          = max(V-norm of phi_0, sup-V of bar(phi))
      sup-V of hat(v)            = max(V-norm of v_0, sup-V of bar(v))
      sup-V of hat(theta)        = max(V-norm of theta_0, sup-V of bar(theta))
      sup-V of bar(phi)-hat(phi) = h * sup-V of d/dt hat(phi) = h * sup-V of bar(v)
      sup-H of bar(v)-hat(v)     = h * sup-H of d/dt hat(v)   = h * sup-H of bar(z)
      L2-V of bar(theta)-hat(theta) squared
                                 = h^2/3 * L2-V of d/dt hat(theta) squared

    Sup norms of the piecewise-linear reconstructions are attained at the
    nodes; we still sample interval midpoints to exercise the evaluators.
    """
    h = interp.h
    devs = []

    for field in (interp.phi, interp.v, interp.theta):
        node_norms = np.sqrt(v_norm_sq(grid, field.nodes))
        mid_norms = np.sqrt(v_norm_sq(grid, field.midpoints()))
        lhs = max(node_norms.max(), mid_norms.max())
        rhs = max(node_norms[0], node_norms[1:].max())
        devs.append(_rel_dev(lhs, rhs))

    # bar - hat gap of phi against the velocity reconstruction, V-norm
    dphi = interp.phi.deltas()
    lhs = np.sqrt(v_norm_sq(grid, dphi)).max()
    mid = h * np.sqrt(v_norm_sq(grid, dphi / h)).max()
    rhs = h * np.sqrt(v_norm_sq(grid, interp.v.nodes[1:])).max()
    devs.append(_rel_dev(lhs, mid))
    devs.append(_rel_dev(mid, rhs))

    # bar - hat gap of v against the acceleration reconstruction, H-norm
    dv = interp.v.deltas()
    rate, z = dv / h, interp.z.nodes[1:]
    lhs = np.sqrt(h_inner(grid, dv, dv)).max()
    mid = h * np.sqrt(h_inner(grid, rate, rate)).max()
    rhs = h * np.sqrt(h_inner(grid, z, z)).max()
    devs.append(_rel_dev(lhs, mid))
    devs.append(_rel_dev(mid, rhs))

    # squared L2-V gap of theta (exact interval integral of a linear ramp)
    dth = interp.theta.deltas()
    lhs = float(np.sum(v_norm_sq(grid, dth)) * h / 3.0)
    rhs = h * h / 3.0 * float(np.sum(v_norm_sq(grid, dth / h) * h))
    devs.append(_rel_dev(lhs, rhs))

    return max(devs)


# ----------------------------------------------------------------------
# Uniform-boundedness monitors


class AprioriMonitor(_Figures):
    """``apriori_monitor`` in push form: ``add`` blocks, then ``report``."""

    def __init__(self, bundle: OperatorBundle, nonlin: Nonlinearity):
        super().__init__(("theta", "phi", "v", "z"))
        self.bundle, self.nonlin = bundle, nonlin

    def _fold(self, rows, times, k):
        if len(times) < 2:
            return
        bundle, h, sup, integral = self.bundle, self.h, self._sup, self._integral
        grid, th, ph, vv, zz = bundle.grid, *(rows[name][1:] for name in self.fields)
        dth = np.diff(rows["theta"], axis=0)
        beta = self.nonlin.beta(ph)
        diffusion_th, coupling_th = bundle.diffusion.apply(th), bundle.coupling.apply(th)
        damping_v, stiffness_ph = bundle.damping.apply(vv), bundle.stiffness.apply(ph)
        sup("v_sup_H2", h_inner(grid, vv, vv))
        integral("z_L2H2_h", h * h_inner(grid, zz, zz))
        integral("damping_v_form_L2", h * h_inner(grid, damping_v, vv))
        sup("phi_sup_V2", v_norm_sq(grid, ph))
        integral("v_L2V2_h", h * v_norm_sq(grid, vv))
        sup("coupling_theta_form_sup", h_inner(grid, coupling_th, th))
        integral("coupling_dtheta_form_L2_h", h_inner(grid, bundle.coupling.apply(dth), dth) / h)
        sup("z_sup_H2", h_inner(grid, zz, zz))
        integral("damping_z_form_L2", h * h_inner(grid, bundle.damping.apply(zz), zz))
        sup("v_sup_V2", v_norm_sq(grid, vv))
        integral("z_L2V2_h", h * v_norm_sq(grid, zz))
        sup("beta_sup_H", np.sqrt(h_inner(grid, beta, beta)))
        integral("dtheta_L2H2", h_inner(grid, dth, dth) / h)
        integral("dtheta_L2V2", v_norm_sq(grid, dth) / h)
        sup("diffusion_theta_sup_H2", h_inner(grid, diffusion_th, diffusion_th))
        sup("theta_sup_V2", v_norm_sq(grid, th))
        sup("coupling_theta_sup_H2", h_inner(grid, coupling_th, coupling_th))
        integral("damping_v_L2H2", h * h_inner(grid, damping_v, damping_v))
        integral("stiffness_phi_L2H2", h * h_inner(grid, stiffness_ph, stiffness_ph))

    def report(self) -> dict:
        if not self._folds:
            raise ValueError("apriori_monitor needs at least two states")
        # a key holding "_sup" is a sup, any other an integral; "_h" is one more factor h
        return {key: float(self._peak(key)) if "_sup" in key
                else self.h * float(self._total(key)) if key.endswith("_h")
                else float(self._total(key)) for key in self._folds}


def apriori_monitor(states, bundle: OperatorBundle, nonlin: Nonlinearity) -> dict:
    """Trajectory quantities that stay bounded under step refinement.

    Keys follow the estimates driving the scheme's stability analysis:
    sup-in-time and time-integrated norms of the velocity, acceleration,
    potential, temperature rate, and the images under every operator of the
    bundle.  Scaled variants carry their stabilizing power of h explicitly.
    Sups run over t >= h, not the initial state.  ``states``, two or more,
    are read once in the blocks of ``iter_blocks`` and pushed through
    ``AprioriMonitor``, so only one block of them is held.
    """
    monitor = AprioriMonitor(bundle, nonlin)
    for block in iter_blocks(states, bundle.grid.n_interior):
        monitor.add(block)
        del block  # before the next block is read
    return monitor.report()


def apriori_ratios(per_h: list[dict], floor: float = 1e-12) -> dict:
    """max-over-h of each monitored quantity relative to its coarsest value.

    ``per_h`` must be ordered from the largest step size down.  Quantities
    below ``floor`` everywhere report ratio 1.
    """
    if not per_h:
        raise ValueError("apriori_ratios needs the monitors of at least one step size")
    ratios = {}
    for key in per_h[0]:
        coarse = per_h[0][key]
        peak = max(d[key] for d in per_h)
        if peak <= floor:
            ratios[key] = 1.0
        else:
            ratios[key] = peak / max(coarse, floor)
    return ratios
