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
``energy`` and ``step_identity_residual`` are its one- and two-state cases.
The module also carries the piecewise-constant / piecewise-linear time
reconstructions of a trajectory, their exact norm identities, and the
uniform-boundedness monitors used by the refinement studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nonlinearity import Nonlinearity
from .operators import (Grid1D, OperatorBundle, cross_form_rows, form_rows, h_norm_sq_rows,
                        v_norm_sq_rows)


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

    kinetic = 0.5 * form_rows(grid, bundle.mass, v)
    elastic = 0.5 * form_rows(grid, bundle.stiffness, phi)
    thermal = 0.5 / eta * form_rows(grid, bundle.coupling, theta)
    potential = dx * np.sum(nonlin.beta_potential(phi), axis=1)
    b1 = h * form_rows(grid, bundle.damping, v)
    cross = h / eta * cross_form_rows(grid, bundle.coupling, bundle.diffusion, theta)
    total = kinetic + elastic + thermal
    pi_source = h * dx * np.sum(nonlin.pi(phi) * v, axis=1)
    prev_total = np.append(total[0] if prev is None else prev[1].record.total, total[:-1])
    residual = np.abs(total - prev_total
                      + 0.5 * form_rows(grid, bundle.mass, dv)
                      + 0.5 * form_rows(grid, bundle.stiffness, dphi)
                      + 0.5 / eta * form_rows(grid, bundle.coupling, dtheta)
                      + b1 + cross + dx * np.sum(nonlin.beta(phi) * dphi, axis=1) + pi_source)
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


def energy_ledger(states, bundle: OperatorBundle, nonlin: Nonlinearity) -> list:
    """Energy bookkeeping of a whole trajectory, one ``LedgerEntry`` per state.

    The states go through ``_ledger_rows`` in blocks of about 8192 values
    per field, which bounds the stacks' memory on fine grids.  Every entry
    has the bits of ``energy`` and ``step_identity_residual`` of its states.
    """
    block = max(1, 8192 // bundle.grid.n_interior)
    ledger = _ledger_rows(states[:block], bundle, nonlin)
    for i in range(block, len(states), block):
        ledger += _ledger_rows(states[i:i + block], bundle, nonlin,
                               (states[i - 1], ledger[-1]))
    return ledger


def decay_violations(ledger, slack: float = 1e-10):
    """(index, overshoot) pairs where energy + potential rose by more than
    ``slack * (1 + E(n))`` from one ledger entry to the next."""
    records = [entry.record for entry in ledger]
    return [(n, cur.lyapunov - prev.lyapunov)
            for n, (prev, cur) in enumerate(zip(records, records[1:]), start=1)
            if cur.lyapunov > prev.lyapunov + slack * (1.0 + prev.total)]


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
    return decay_violations(energy_ledger(states, bundle, nonlin), slack)


# ----------------------------------------------------------------------
# Time reconstructions


@dataclass(frozen=True)
class Interpolant:
    """Node values of one field with its two time reconstructions.

    ``hat`` is continuous piecewise linear through the nodes; ``bar`` is
    piecewise constant, equal on each interval to the right node value.
    """

    times: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        y = np.ascontiguousarray(self.nodes, dtype=float)
        if y.shape[0] != t.size:
            raise ValueError("node array does not match time grid")
        t.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "nodes", y)

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    def hat(self, t: float) -> np.ndarray:
        t = float(min(max(t, self.times[0]), self.times[-1]))
        j = int(np.searchsorted(self.times, t, side="right") - 1)
        j = min(max(j, 0), self.times.size - 2)
        w = (t - self.times[j]) / (self.times[j + 1] - self.times[j])
        return (1.0 - w) * self.nodes[j] + w * self.nodes[j + 1]

    def bar(self, t: float) -> np.ndarray:
        t = float(min(max(t, self.times[0]), self.times[-1]))
        j = int(np.searchsorted(self.times, t, side="left"))
        j = min(max(j, 1), self.times.size - 1)
        return self.nodes[j]

    def deltas(self) -> np.ndarray:
        return self.nodes[1:] - self.nodes[:-1]

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


@dataclass(frozen=True)
class TrajectoryInterpolants:
    theta: Interpolant
    phi: Interpolant
    v: Interpolant
    z: Interpolant

    @property
    def h(self) -> float:
        return self.theta.h

    @property
    def times(self) -> np.ndarray:
        return self.theta.times


def build_interpolants(states) -> TrajectoryInterpolants:
    h = states[1].h if len(states) > 1 else states[0].h
    times = np.array([s.t_index * h for s in states])
    fields = {}
    for name in ("theta", "phi", "v", "z"):
        nodes = np.stack([getattr(s, name) for s in states])
        fields[name] = Interpolant(times, nodes)
    return TrajectoryInterpolants(**fields)


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
        node_norms = np.sqrt(v_norm_sq_rows(grid, field.nodes))
        mid_norms = np.sqrt(v_norm_sq_rows(grid, field.midpoints()))
        lhs = max(node_norms.max(), mid_norms.max())
        rhs = max(node_norms[0], node_norms[1:].max())
        devs.append(_rel_dev(lhs, rhs))

    # bar - hat gap of phi against the velocity reconstruction, V-norm
    dphi = interp.phi.deltas()
    lhs = np.sqrt(v_norm_sq_rows(grid, dphi)).max()
    mid = h * np.sqrt(v_norm_sq_rows(grid, dphi / h)).max()
    rhs = h * np.sqrt(v_norm_sq_rows(grid, interp.v.nodes[1:])).max()
    devs.append(_rel_dev(lhs, mid))
    devs.append(_rel_dev(mid, rhs))

    # bar - hat gap of v against the acceleration reconstruction, H-norm
    dv = interp.v.deltas()
    lhs = np.sqrt(h_norm_sq_rows(grid, dv)).max()
    mid = h * np.sqrt(h_norm_sq_rows(grid, dv / h)).max()
    rhs = h * np.sqrt(h_norm_sq_rows(grid, interp.z.nodes[1:])).max()
    devs.append(_rel_dev(lhs, mid))
    devs.append(_rel_dev(mid, rhs))

    # squared L2-V gap of theta (exact interval integral of a linear ramp)
    dth = interp.theta.deltas()
    lhs = float(np.sum(v_norm_sq_rows(grid, dth)) * h / 3.0)
    rhs = h * h / 3.0 * float(np.sum(v_norm_sq_rows(grid, dth / h) * h))
    devs.append(_rel_dev(lhs, rhs))

    return max(devs)


# ----------------------------------------------------------------------
# Uniform-boundedness monitors


def apriori_monitor(states, bundle: OperatorBundle, nonlin: Nonlinearity) -> dict:
    """Trajectory quantities that stay bounded under step refinement.

    Keys follow the estimates driving the scheme's stability analysis:
    sup-in-time and time-integrated norms of the velocity, acceleration,
    potential, temperature rate, and the images under every operator of the
    bundle.  Scaled variants carry their stabilizing power of h explicitly.
    """
    grid = bundle.grid
    h = states[1].h if len(states) > 1 else states[0].h
    th = np.stack([s.theta for s in states])
    ph = np.stack([s.phi for s in states])
    vv = np.stack([s.v for s in states])
    zz = np.stack([s.z for s in states])
    dth = np.diff(th, axis=0)

    out = {}
    out["v_sup_H2"] = float(np.max(h_norm_sq_rows(grid, vv[1:])))
    out["z_L2H2_h"] = h * float(np.sum(h * h_norm_sq_rows(grid, zz[1:])))
    out["damping_v_form_L2"] = float(np.sum(h * form_rows(grid, bundle.damping, vv[1:])))
    out["phi_sup_V2"] = float(np.max(v_norm_sq_rows(grid, ph[1:])))
    out["v_L2V2_h"] = h * float(np.sum(h * v_norm_sq_rows(grid, vv[1:])))
    out["coupling_theta_form_sup"] = float(np.max(form_rows(grid, bundle.coupling, th[1:])))
    out["coupling_dtheta_form_L2_h"] = h * float(np.sum(form_rows(grid, bundle.coupling, dth) / h))

    out["z_sup_H2"] = float(np.max(h_norm_sq_rows(grid, zz[1:])))
    out["damping_z_form_L2"] = float(np.sum(h * form_rows(grid, bundle.damping, zz[1:])))
    out["v_sup_V2"] = float(np.max(v_norm_sq_rows(grid, vv[1:])))
    out["z_L2V2_h"] = h * float(np.sum(h * v_norm_sq_rows(grid, zz[1:])))

    out["beta_sup_H"] = float(np.max(np.sqrt(h_norm_sq_rows(grid, nonlin.beta(ph[1:])))))

    out["dtheta_L2H2"] = float(np.sum(h_norm_sq_rows(grid, dth) / h))
    out["dtheta_L2V2"] = float(np.sum(v_norm_sq_rows(grid, dth) / h))
    out["diffusion_theta_sup_H2"] = float(np.max(h_norm_sq_rows(grid, bundle.diffusion.apply(th[1:]))))
    out["theta_sup_V2"] = float(np.max(v_norm_sq_rows(grid, th[1:])))

    out["coupling_theta_sup_H2"] = float(np.max(h_norm_sq_rows(grid, bundle.coupling.apply(th[1:]))))
    out["damping_v_L2H2"] = float(np.sum(h * h_norm_sq_rows(grid, bundle.damping.apply(vv[1:]))))
    out["stiffness_phi_L2H2"] = float(np.sum(h * h_norm_sq_rows(grid, bundle.stiffness.apply(ph[1:]))))
    return out


def apriori_ratios(per_h: list[dict], floor: float = 1e-12) -> dict:
    """max-over-h of each monitored quantity relative to its coarsest value.

    ``per_h`` must be ordered from the largest step size down.  Quantities
    below ``floor`` everywhere report ratio 1.
    """
    ratios = {}
    for key in per_h[0]:
        coarse = per_h[0][key]
        peak = max(d[key] for d in per_h)
        if peak <= floor:
            ratios[key] = 1.0
        else:
            ratios[key] = peak / max(coarse, floor)
    return ratios


def write_energy_csv(path, states, bundle: OperatorBundle, nonlin: Nonlinearity,
                     header_lines=()) -> None:
    """Per-step energy table; the identity-residual column is 0 at n = 0."""
    h = states[1].h if len(states) > 1 else states[0].h
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write("n,t,kinetic,elastic,thermal,potential,dissipation_b1,dissipation_cross,identity_residual\n")
        for n, entry in enumerate(energy_ledger(states, bundle, nonlin)):
            rec = entry.record
            row = (n, n * h, rec.kinetic, rec.elastic, rec.thermal, rec.potential,
                   rec.dissipation_b1, rec.dissipation_cross, entry.identity_residual)
            f.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")
