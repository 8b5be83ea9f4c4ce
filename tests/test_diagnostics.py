import numpy as np
import pytest
from conftest import dirichlet_sine, p1_defaults, p2_defaults, preset_bundle
from hypothesis import given, settings
from hypothesis import strategies as st

from thermowave import (DiscreteOperator, Grid1D, State, StepConfig, apriori_monitor,
                        apriori_ratios, build_interpolants, cubic_nonlinearity,
                        energy, energy_ledger, h_norm,
                        interpolation_identities_check, laplacian_eigenvalues,
                        linear_reaction, lyapunov_check, random_smooth, run,
                        single_mode, step_identity_residual,
                        zero_nonlinearity, zero_profile)
from thermowave.diagnostics import Interpolant, decay_violations, is_uniform


def make_state(grid, theta, phi, v, h, t_index=0, z=None):
    if z is None:
        z = np.zeros_like(phi)
    return State(theta, phi, v, z, t_index, h)


def test_energy_zero_state():
    bundle, nl = p2_defaults(n=16)
    s = make_state(bundle.grid, *zero_profile(bundle.grid), h=0.01)
    rec = energy(s, bundle, nl)
    assert rec.kinetic == rec.elastic == rec.thermal == rec.potential == 0.0
    assert rec.dissipation_b1 == rec.dissipation_cross == 0.0


def test_energy_modal_elastic():
    bundle, nl = p1_defaults(n=32)
    grid = bundle.grid
    mu = laplacian_eigenvalues(grid)
    for k in (1, 5):
        e = dirichlet_sine(grid, k)
        s = make_state(grid, np.zeros(32), e, np.zeros(32), h=0.01)
        rec = energy(s, bundle, nl)
        want = 0.5 * mu[k - 1] * h_norm(grid, e) ** 2
        assert abs(rec.elastic - want) <= 1e-10 * want
        assert rec.kinetic == 0.0
        assert rec.thermal == 0.0


def test_energy_p4_constant_velocity_neumann():
    bundle = preset_bundle("P4", n=20, bc="neumann")
    nl = zero_nonlinearity()
    grid = bundle.grid
    v = np.ones(20)
    s = make_state(grid, np.zeros(20), np.zeros(20), v, h=0.01)
    rec = energy(s, bundle, nl)
    assert abs(rec.kinetic - 0.5) <= 1e-14


def test_energy_record_sign_invariants():
    bundle, nl = p2_defaults(n=32)
    grid = bundle.grid
    result = run(random_smooth(grid, 2), bundle, nl, T=0.25, cfg=StepConfig(h=1 / 64))
    for s in result.states:
        rec = energy(s, bundle, nl)
        for field in ("kinetic", "elastic", "thermal", "potential",
                      "dissipation_b1", "dissipation_cross"):
            assert getattr(rec, field) >= -1e-12


def test_identity_residual_zero_states():
    bundle, nl = p2_defaults(n=16)
    grid = bundle.grid
    s0 = make_state(grid, *zero_profile(grid), h=0.01)
    s1 = make_state(grid, *zero_profile(grid), h=0.01, t_index=1)
    assert step_identity_residual(s0, s1, bundle, nl) == 0.0


def test_identity_residual_linear_run():
    bundle, nl = p1_defaults(n=64, m=0.0)
    grid = bundle.grid
    result = run(random_smooth(grid, 4), bundle, nl, T=0.064, cfg=StepConfig(h=1e-3))
    for n in range(1, len(result.states)):
        resid = step_identity_residual(result.states[n - 1], result.states[n], bundle, nl)
        e = energy(result.states[n - 1], bundle, nl).total
        assert resid <= 1e-10 * (1.0 + e)


def test_identity_residual_cubic_run():
    bundle, nl = p2_defaults(n=64)
    grid = bundle.grid
    result = run(random_smooth(grid, 8), bundle, nl, T=0.064, cfg=StepConfig(h=1e-3))
    for n in range(1, len(result.states)):
        rec = energy(result.states[n - 1], bundle, nl)
        resid = step_identity_residual(result.states[n - 1], result.states[n], bundle, nl)
        assert resid <= 1e-9 * (1.0 + rec.total + rec.potential)


def test_lyapunov_zero_trajectory():
    bundle, nl = p2_defaults(n=16)
    result = run(zero_profile(bundle.grid), bundle, nl, T=0.1, cfg=StepConfig(h=0.01))
    assert lyapunov_check(result.states, bundle, nl) == []


def test_lyapunov_monotone_linear():
    bundle, nl = p1_defaults(n=32, m=0.0)
    grid = bundle.grid
    result = run(random_smooth(grid, 6), bundle, nl, T=0.5, cfg=StepConfig(h=1 / 128))
    assert lyapunov_check(result.states, bundle, nl) == []
    totals = [energy(s, bundle, nl).total for s in result.states]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_lyapunov_cubic_decay():
    bundle, nl = p2_defaults(n=32)
    grid = bundle.grid
    result = run(random_smooth(grid, 7), bundle, nl, T=0.5, cfg=StepConfig(h=1 / 256))
    assert lyapunov_check(result.states, bundle, nl) == []


def test_lyapunov_rejects_nonzero_pi():
    bundle, _ = p1_defaults(n=16)
    nl = linear_reaction(-1.0)
    result = run(zero_profile(bundle.grid), bundle, nl, T=0.1, cfg=StepConfig(h=0.01))
    with pytest.raises(ValueError):
        lyapunov_check(result.states, bundle, nl)


@pytest.mark.parametrize("preset, bc", [("P2", "dirichlet"), ("P4", "neumann")])
def test_ledger_matches_per_step_identity_residual(preset, bc):
    bundle = preset_bundle(preset, n=48, bc=bc)
    nl = cubic_nonlinearity(1.0)
    states = run(random_smooth(bundle.grid, 3), bundle, nl, T=0.125,
                 cfg=StepConfig(h=1 / 128)).states
    ledger = energy_ledger(states, bundle, nl)
    assert len(ledger) == len(states)
    assert ledger[0].identity_residual == 0.0
    for n, entry in enumerate(ledger):
        assert entry.record == energy(states[n], bundle, nl)
        if n > 0:
            assert entry.identity_residual == step_identity_residual(
                states[n - 1], states[n], bundle, nl)


def test_ledger_blocks_match_one_and_two_state_evaluations():
    # n = 1024 puts 8 states in a ledger block, so 21 states span 3 blocks
    bundle = preset_bundle("P4", n=1024, bc="neumann")
    nl = cubic_nonlinearity(1.0, "scaled_sine", 0.5)
    states = run(random_smooth(bundle.grid, 3), bundle, nl, T=20 / 256,
                 cfg=StepConfig(h=1 / 256)).states
    ledger = energy_ledger(states, bundle, nl)
    assert len(ledger) == 21 and ledger[0].pi_source == 0.0
    assert ledger[0].record == energy(states[0], bundle, nl)
    for prev, cur, entry in zip(states, states[1:], ledger[1:]):
        assert entry.record == energy(cur, bundle, nl)
        assert entry.identity_residual == step_identity_residual(prev, cur, bundle, nl)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       n=st.integers(min_value=2, max_value=48),
       h_fraction=st.floats(min_value=0.01, max_value=0.95),
       n_steps=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_ledger_identity_and_decay_hold_below_threshold(preset, bc, n, h_fraction, n_steps, seed):
    if preset == "P1":
        bundle, nl = preset_bundle("P1", n=n, bc=bc, m=1.0), linear_reaction(-1.0)
    else:
        bundle, nl = preset_bundle(preset, n=n, bc=bc), cubic_nonlinearity(1.0)
    h = h_fraction * bundle.h_threshold(nl.lipschitz_const)
    result = run(random_smooth(bundle.grid, seed), bundle, nl, T=n_steps * h,
                 cfg=StepConfig(h=h))
    assert result.complete
    ledger = energy_ledger(result.states, bundle, nl)
    for prev, entry in zip(ledger, ledger[1:]):
        assert entry.identity_residual <= 1e-10 * (1.0 + prev.record.total)
    if nl.pi_kind == "zero":
        assert decay_violations(ledger) == []


def _lyapunov_check_by_pairs(states, bundle, nl, slack=1e-10):
    """The decay check as a plain walk over consecutive energy pairs."""
    out = []
    prev = energy(states[0], bundle, nl)
    for n in range(1, len(states)):
        cur = energy(states[n], bundle, nl)
        if cur.lyapunov > prev.lyapunov + slack * (1.0 + prev.total):
            out.append((n, cur.lyapunov - prev.lyapunov))
        prev = cur
    return out


def test_lyapunov_check_matches_pairwise_walk():
    bundle, nl = p2_defaults(n=32)
    states = run(random_smooth(bundle.grid, 9), bundle, nl, T=0.25,
                 cfg=StepConfig(h=1 / 128)).states
    shuffled = [states[i] for i in np.random.default_rng(0).permutation(len(states))]
    for traj in (states, shuffled):
        for slack in (1e-10, 1e-3):
            want = _lyapunov_check_by_pairs(traj, bundle, nl, slack)
            assert lyapunov_check(traj, bundle, nl, slack) == want
    assert lyapunov_check(shuffled, bundle, nl)


def test_linear_energy_decrease_equals_dissipation():
    bundle, nl = p2_defaults(n=32)
    nl = zero_nonlinearity()
    grid = bundle.grid
    result = run(random_smooth(grid, 11), bundle, nl, T=0.125, cfg=StepConfig(h=1 / 64))
    states = result.states
    for n in range(1, len(states)):
        e0 = energy(states[n - 1], bundle, nl)
        e1 = energy(states[n], bundle, nl)
        dv = states[n].v - states[n - 1].v
        dphi = states[n].phi - states[n - 1].phi
        dth = states[n].theta - states[n - 1].theta
        from thermowave import h_inner
        drop = e0.total - e1.total
        dissipated = (0.5 * h_inner(grid, bundle.mass.apply(dv), dv)
                      + 0.5 * h_inner(grid, bundle.stiffness.apply(dphi), dphi)
                      + 0.5 / bundle.eta * h_inner(grid, bundle.coupling.apply(dth), dth)
                      + e1.dissipation_b1 + e1.dissipation_cross)
        assert abs(drop - dissipated) <= 1e-10 * (1.0 + e0.total)


def synthetic_trajectory(grid, n_steps, h, seed):
    """Random node values satisfying the difference-quotient relations."""
    rng = np.random.default_rng(seed)
    n = grid.n_interior
    states = []
    phi = rng.standard_normal(n)
    v = rng.standard_normal(n)
    theta = rng.standard_normal(n)
    z = np.zeros(n)
    states.append(State(theta, phi, v, z, 0, h))
    for i in range(1, n_steps + 1):
        phi_new = phi + h * (v + rng.standard_normal(n) * 0.1)
        v_new = (phi_new - phi) / h
        z_new = (v_new - v) / h
        theta_new = theta + h * rng.standard_normal(n)
        states.append(State(theta_new, phi_new, v_new, z_new, i, h))
        phi, v, theta = phi_new, v_new, theta_new
    states[0] = State(states[0].theta, states[0].phi, states[0].v,
                      states[1].z, 0, h)
    return states


def test_interpolation_identities_constant_trajectory():
    grid = Grid1D(12)
    n = 12
    phi = np.linspace(0, 1, n)
    states = [State(phi, phi, np.zeros(n), np.zeros(n), i, 0.1) for i in range(5)]
    interp = build_interpolants(states)
    assert interpolation_identities_check(interp, grid) <= 1e-15


def test_interpolation_identities_random_trajectory():
    grid = Grid1D(24)
    states = synthetic_trajectory(grid, 20, 1.0 / 32, seed=5)
    interp = build_interpolants(states)
    assert interpolation_identities_check(interp, grid) <= 1e-12


def test_interpolation_identities_real_run():
    bundle, nl = p2_defaults(n=32)
    result = run(random_smooth(bundle.grid, 3), bundle, nl, T=0.25,
                 cfg=StepConfig(h=1 / 64))
    interp = build_interpolants(result.states)
    assert interpolation_identities_check(interp, bundle.grid) <= 1e-12


def test_interpolant_evaluators():
    grid = Grid1D(4)
    states = synthetic_trajectory(grid, 4, 0.25, seed=1)
    interp = build_interpolants(states)
    # hat reproduces node values; bar is the right node on each interval
    for i, s in enumerate(states):
        assert np.max(np.abs(interp.phi.hat(0.25 * i) - s.phi)) <= 1e-14
    mid = interp.phi.hat(0.125)
    want = 0.5 * (states[0].phi + states[1].phi)
    assert np.max(np.abs(mid - want)) <= 1e-14
    assert np.array_equal(interp.phi.bar(0.1), states[1].phi)
    assert np.array_equal(interp.phi.bar(0.25), states[1].phi)
    assert np.array_equal(interp.phi.bar(0.26), states[2].phi)


@pytest.mark.parametrize("times", [
    [0.0, 1e-9, 5e-9, 6e-9],  # steps of 1e-9, 4e-9 and 1e-9
    [0.0, 0.1, 0.2 + 1e-6, 0.3 + 1e-6],  # one step longer by a relative 1e-5
    [0.0, 0.1, 0.2, 0.3 + 1e-12],
    [0.0, np.inf],  # an infinite step; a grid of two times is checked too
    [-np.inf, 0.0, np.inf],  # two infinite steps
    [0.0, 1e308, np.inf]])  # an infinite largest time, so an infinite tolerance
def test_interpolant_rejects_a_grid_that_is_not_uniform(times):
    with pytest.raises(ValueError, match="time grid must be uniform"):
        Interpolant(np.array(times), np.zeros((len(times), 3)))


def test_a_grid_with_a_time_that_is_not_finite_is_not_uniform():
    assert not is_uniform([0.0, np.inf])


def test_interpolant_accepts_a_long_non_dyadic_grid():
    # k * 0.001 to T = 20 drifts from the first step by about eps * T
    times = np.array([k * 0.001 for k in range(20001)])
    assert np.ptp(np.diff(times)) > 1e-15
    field = Interpolant(times, np.arange(times.size, dtype=float)[:, None])
    assert field.hat(10.0)[0] == pytest.approx(10000.0, rel=1e-12)


def test_constructors_leave_the_callers_arrays_writeable():
    # a State and an operator keep private read-only copies; an
    # Interpolant seals a read-only view of the caller's stacks
    a, b = np.zeros(4), np.zeros(3)
    state = State(a, a.copy(), a.copy(), a.copy(), 0, 0.1)
    op = DiscreteOperator(a, b)
    field = Interpolant(np.arange(4.0), a[:, None])
    assert a.flags.writeable and b.flags.writeable
    assert not any(x.flags.writeable for x in (state.theta, op.diag, op.offdiag, field.nodes))
    a[0], b[0] = 1.0, 2.0
    assert state.theta[0] == op.diag[0] == op.offdiag[0] == 0.0
    assert field.nodes[0, 0] == 1.0  # a view, not a copy
    with pytest.raises(ValueError):
        field.nodes[0, 0] = 3.0


class StackedReference:
    """The fine-step reference's sampling as a class of its own: the
    theta/phi/v stacks of a complete run at h_ref, linear and constant
    reconstructions on pos = t / h_ref.  The trajectory interpolants that
    replaced it must return its bits."""

    def __init__(self, states, h_ref):
        self.h_ref = h_ref
        self.states = states
        self._arrays = {name: np.stack([getattr(s, name) for s in states])
                        for name in ("theta", "phi", "v")}

    def sample(self, times):
        times = np.asarray(times, dtype=float)
        pos = times / self.h_ref
        j = np.clip(np.floor(pos).astype(int), 0, len(self.states) - 1)
        jn = np.clip(j + 1, 0, len(self.states) - 1)
        w = np.clip(pos - j, 0.0, 1.0)
        return {name: (1.0 - w)[:, None] * arr[j] + w[:, None] * arr[jn]
                for name, arr in self._arrays.items()}

    def sample_bar(self, times, side=-1):
        times = np.asarray(times, dtype=float)
        pos = times / self.h_ref + side * 1e-6
        j = np.clip(np.floor(pos).astype(int) + 1, 1, len(self.states) - 1)
        return {name: arr[j] for name, arr in self._arrays.items()}


def _reference_times(T, h):
    """Nodes, midpoints and quarter points of a coarser grid and of the
    reference's own, plus times before 0 and after T."""
    times = [np.array([-0.3, -1e-9, T + 1e-9, T + 0.05, 3.0 * T])]
    for step in (h, 4 * h):
        nodes = np.arange(round(T / step) + 1) * step
        times += [nodes] + [nodes[:-1] + w * step for w in (0.25, 0.5, 0.75)]
    return np.concatenate(times)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_interpolants_sample_as_the_stacked_reference(bc):
    bundle, nl = preset_bundle("P2", n=12, bc=bc), cubic_nonlinearity(1.0)
    h, T = 0.01, 0.16  # not dyadic, so the position arithmetic rounds
    states = run(random_smooth(bundle.grid, 2), bundle, nl, T, StepConfig(h=h)).states
    interp, want = build_interpolants(states), StackedReference(states, h)
    times = _reference_times(T, h)
    got = [interp.sample(times), interp.sample_bar(times, side=-1),
           interp.sample_bar(times, side=+1), interp.sample_bar(times)]
    ref = [want.sample(times), want.sample_bar(times, side=-1),
           want.sample_bar(times, side=+1), want.sample_bar(times)]
    for g, r in zip(got, ref):
        for name in ("theta", "phi", "v"):
            assert np.array_equal(g[name], r[name]), name


def test_interpolant_scalar_time_is_a_row_of_the_array_call():
    states = synthetic_trajectory(Grid1D(6), 8, 0.1, seed=3)
    field = build_interpolants(states).v
    times = _reference_times(0.8, 0.1)
    hat, left, right = field.hat(times), field.bar(times), field.bar(times, side=+1)
    for i, t in enumerate(times):
        assert np.array_equal(field.hat(t), hat[i])
        assert np.array_equal(field.bar(t), left[i])
        assert np.array_equal(field.bar(t, side=+1), right[i])


def test_apriori_zero_data():
    bundle, nl = p2_defaults(n=16)
    result = run(zero_profile(bundle.grid), bundle, nl, T=0.1, cfg=StepConfig(h=0.01))
    monitors = apriori_monitor(result.states, bundle, nl)
    assert all(v == 0.0 for v in monitors.values())


def test_apriori_bounded_under_refinement():
    bundle, nl = p1_defaults(n=64, m=0.0)
    grid = bundle.grid
    init = single_mode(grid, 1, 0.0, 1.0, 0.0)
    per_h = []
    for h in (1.0 / 64, 1.0 / 128, 1.0 / 256, 1.0 / 512, 1.0 / 1024):
        result = run(init, bundle, nl, T=0.5, cfg=StepConfig(h=h))
        per_h.append(apriori_monitor(result.states, bundle, nl))
    ratios = apriori_ratios(per_h)
    energy_family = ("v_sup_H2", "z_L2H2_h", "damping_v_form_L2", "phi_sup_V2",
                     "v_L2V2_h", "coupling_theta_form_sup",
                     "coupling_dtheta_form_L2_h")
    assert all(ratios[k] <= 1.10 for k in energy_family), ratios
    assert all(r <= 1.25 for r in ratios.values()), ratios


def test_apriori_beta_bound_uniform():
    bundle, nl = p2_defaults(n=32)
    grid = bundle.grid
    init = single_mode(grid, 1, 0.5, 0.5, 0.0)
    per_h = []
    for h in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        result = run(init, bundle, nl, T=0.5, cfg=StepConfig(h=h))
        per_h.append(apriori_monitor(result.states, bundle, nl))
    ratios = apriori_ratios(per_h)
    assert ratios["beta_sup_H"] <= 2.0
