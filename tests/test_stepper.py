import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import (all_preset_bundles, dirichlet_sine, p1_defaults,
                      p2_defaults, preset_bundle)

from thermowave import stepper
from thermowave import (Grid1D, NewtonDivergedError, Nonlinearity, State, StepAuditError,
                        StepConfig, StepPlan, StepReport, cubic_nonlinearity, energy_ledger,
                        h_norm, iter_run,
                        laplacian_eigenvalues, linear_reaction, modal_generator,
                        phi_equation_rhs, random_smooth, run, single_mode,
                        solve_phi, step, step_count, zero_nonlinearity,
                        zero_profile)


def make_state(grid, theta, phi, v, h):
    return State(theta, phi, v, np.zeros_like(phi), 0, h)


def dense_elliptic_matrix(bundle, h, extra_diag=None):
    n = bundle.grid.n_interior
    K = (bundle.mass.to_dense() + h * bundle.damping.to_dense()
         + h * h * bundle.stiffness.to_dense()
         + bundle.eta * h * h * bundle.coupling.to_dense()
         @ np.linalg.inv(np.eye(n) + h * bundle.diffusion.to_dense()))
    if extra_diag is not None:
        K = K + h * h * np.diag(extra_diag)
    return K


def test_rhs_zero_state():
    bundle, nl = p1_defaults(n=16)
    grid = bundle.grid
    s = make_state(grid, *zero_profile(grid), h=0.01)
    assert np.max(np.abs(phi_equation_rhs(s, bundle, 0.01))) == 0.0


def test_rhs_small_h_limit():
    bundle, _ = p2_defaults(n=24)
    grid = bundle.grid
    theta, phi, v = random_smooth(grid, 7)
    base = None
    for h in (1e-4, 1e-6, 1e-8):
        s = make_state(grid, theta, phi, v, h)
        g = phi_equation_rhs(s, bundle, h)
        gap = np.max(np.abs(g - bundle.mass.apply(phi)))
        assert gap <= 10.0 * h * (1 + np.max(np.abs(phi)) + np.max(np.abs(v)))


def test_rhs_p4_modal_closed_form():
    bundle = preset_bundle("P4", n=32)
    grid = bundle.grid
    mu = laplacian_eigenvalues(grid)
    h = 0.02
    for k in (1, 5):
        e = dirichlet_sine(grid, k)
        s = make_state(grid, 2.0 * e, 3.0 * e, 0.5 * e, h)
        g = phi_equation_rhs(s, bundle, h)
        factor = 3.0 + h * 0.5 + h * 3.0 + h * h * (1.0 * 3.0 + 2.0) / (1.0 + h * mu[k - 1])
        assert np.max(np.abs(g - factor * e)) <= 1e-12 * abs(factor)


def test_solve_phi_zero_rhs_linear():
    bundle, nl = p1_defaults(n=16)
    cfg = StepConfig(h=0.01)
    phi, iters, res = solve_phi(np.zeros(16), bundle, nl, cfg)
    assert np.max(np.abs(phi)) == 0.0
    assert iters == 0


def test_solve_phi_modal_closed_form():
    bundle, nl = p1_defaults(n=32)
    grid = bundle.grid
    mu = laplacian_eigenvalues(grid)
    h = 0.01
    cfg = StepConfig(h=h)
    for k in (1, 4, 17):
        g = dirichlet_sine(grid, k)
        phi, _, _ = solve_phi(g, bundle, nl, cfg)
        m = mu[k - 1]
        want = g / (1.0 + h * h * m + h * h * m / (1.0 + h * m))
        assert np.max(np.abs(phi - want)) <= 1e-12
        dense = np.linalg.solve(dense_elliptic_matrix(bundle, h), g)
        assert np.max(np.abs(phi - dense)) <= 1e-12


def test_solve_phi_cubic_vs_damped_picard():
    grid = Grid1D(8)
    bundle = preset_bundle("P2", n=8, epsilon=1.0)
    nl = cubic_nonlinearity(1.0)
    h = 1e-3
    rng = np.random.default_rng(11)
    g = rng.standard_normal(8)
    phi, _, res = solve_phi(g, bundle, nl, StepConfig(h=h))

    # independent oracle: damped fixed-point iteration on the dense system
    K = dense_elliptic_matrix(bundle, h)
    x = np.zeros(8)
    for _ in range(5000):
        x_new = np.linalg.solve(K, g - h * h * nl.beta(x))
        x = 0.5 * x + 0.5 * x_new
        if np.max(np.abs(x_new - x)) <= 1e-15:
            break
    resid = K @ x + h * h * nl.beta(x) - g
    assert np.max(np.abs(resid)) <= 1e-13 * (1 + np.max(np.abs(g)))
    assert np.max(np.abs(phi - x)) <= 1e-11


def test_step_zero_data_stays_zero():
    bundle, nl = p2_defaults(n=16)
    grid = bundle.grid
    s = make_state(grid, *zero_profile(grid), h=0.01)
    s1, rep = step(s, bundle, nl, StepConfig(h=0.01))
    assert np.max(np.abs(s1.phi)) == 0.0
    assert np.max(np.abs(s1.theta)) == 0.0
    assert rep.newton_iters == 0


def test_step_matches_modal_backward_euler():
    bundle, nl = p1_defaults(n=32, m=0.5)
    grid = bundle.grid
    mu = laplacian_eigenvalues(grid)
    h = 0.01
    for k in (1, 6):
        e = dirichlet_sine(grid, k)
        amps = np.array([0.8, -0.3, 0.4])
        s = make_state(grid, amps[0] * e, amps[1] * e, amps[2] * e, h)
        s1, _ = step(s, bundle, nl, StepConfig(h=h))
        M = modal_generator(bundle, nl, mu[k - 1])
        y1 = np.linalg.solve(np.eye(3) - h * M, amps)
        for got, want in zip((s1.theta, s1.phi, s1.v), y1):
            assert np.max(np.abs(got - want * e)) <= 1e-11


def test_step_residuals_small_random_data():
    bundle, nl = p2_defaults(n=64)
    grid = bundle.grid
    theta, phi, v = random_smooth(grid, 3, decay=1.0)
    s = make_state(grid, theta, phi, v, 1e-3)
    for _ in range(5):
        s, rep = step(s, bundle, nl, StepConfig(h=1e-3))
        scale = 1.0 + rep.rhs_norm
        assert rep.wave_residual <= 1e-10 * scale
        assert rep.heat_residual <= 1e-10 * scale


def test_run_shapes_and_time_grid():
    bundle, nl = p1_defaults(n=16)
    result = run(zero_profile(bundle.grid), bundle, nl, T=1.0, cfg=StepConfig(h=0.25))
    assert len(result.states) == 5
    assert [s.t_index for s in result.states] == [0, 1, 2, 3, 4]
    assert result.complete
    assert all(r.newton_iters == 0 for r in result.reports)


def test_run_rejects_non_integer_step_count():
    bundle, nl = p1_defaults(n=16)
    with pytest.raises(ValueError):
        run(zero_profile(bundle.grid), bundle, nl, T=1.0, cfg=StepConfig(h=0.3))


def test_step_count():
    assert step_count(1.0, 0.25) == 4
    assert step_count(0.3, 0.1) == 3  # 0.3 / 0.1 rounds to a whole count
    for T, h in ((1.0, 0.3), (0.25, 0.5), (1.0, 0.0), (1.0, -0.25), (1.0, float("nan")),
                 (1e300, 1e-100)):
        with pytest.raises(ValueError, match="^h = "):
            step_count(T, h)
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^T must be positive"):
            step_count(T, 0.25)


@pytest.mark.parametrize("kwargs, param", [
    ({"h": float("nan")}, "h"), ({"h": 0.1, "newton_tol": float("nan")}, "newton_tol"),
    ({"h": 0.1, "newton_max_iter": 0}, "newton_max_iter"),
    ({"h": 0.1, "solve_path": "bogus"}, "solve_path"),
])
def test_step_config_messages_name_the_parameter(kwargs, param):
    with pytest.raises(ValueError, match=f"^{param} must "):
        StepConfig(**kwargs)


@pytest.mark.parametrize("h", [1e-160, 1e-300, 5e-324])
def test_step_config_rejects_an_h_whose_inverse_square_overflows(h):
    # 1e-300 squared underflows to 0; 1e-160 squared is subnormal, 1/h^2 inf
    with pytest.raises(ValueError, match="^h must be large enough that 1/h\\^2 is finite"):
        StepConfig(h=h)
    assert StepConfig(h=1e-154).h == 1e-154  # 1/h^2 = 1e308 is finite


def test_run_rejects_bad_initial_data():
    bundle, nl = p1_defaults(n=16)
    theta, phi, v = zero_profile(bundle.grid)
    with pytest.raises(ValueError):
        run((theta[:-1], phi, v), bundle, nl, T=0.5, cfg=StepConfig(h=0.25))
    theta = theta.copy()
    theta[0] = np.nan
    with pytest.raises(ValueError):
        run((theta, phi, v), bundle, nl, T=0.5, cfg=StepConfig(h=0.25))


def test_run_difference_quotient_invariants():
    bundle, nl = p2_defaults(n=24)
    grid = bundle.grid
    h = 1.0 / 64
    result = run(random_smooth(grid, 5), bundle, nl, T=0.25, cfg=StepConfig(h=h))
    states = result.states
    for n in range(1, len(states)):
        v = (states[n].phi - states[n - 1].phi) / h
        z = (v - states[n - 1].v) / h
        assert np.array_equal(states[n].v, v)
        assert np.array_equal(states[n].z, z)
    assert np.array_equal(states[0].z, states[1].z)


def test_run_deterministic_bitwise():
    bundle, nl = p2_defaults(n=24)
    grid = bundle.grid
    init = random_smooth(grid, 9)
    r1 = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=1.0 / 64))
    r2 = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=1.0 / 64))
    for a, b in zip(r1.states, r2.states):
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.v, b.v)


def test_perturbation_stability_echo():
    bundle, nl = p2_defaults(n=32)
    grid = bundle.grid
    from thermowave import gradient_inner, h_inner, mode_vector

    def energy_norm(sa, sb):
        dv = sa.v - sb.v
        dphi = sa.phi - sb.phi
        dth = sa.theta - sb.theta
        val = (h_inner(grid, bundle.mass.apply(dv), dv)
               + h_inner(grid, dphi, dphi) + gradient_inner(grid, dphi, dphi)
               + h_inner(grid, bundle.coupling.apply(dth), dth))
        return np.sqrt(max(val, 0.0))

    delta = 1e-8
    base = random_smooth(grid, 21)
    pert = tuple(u + delta * mode_vector(grid, 1) for u in base)
    cfg = StepConfig(h=1.0 / 128)
    ra = run(base, bundle, nl, T=1.0, cfg=cfg)
    rb = run(pert, bundle, nl, T=1.0, cfg=cfg)
    d0 = energy_norm(ra.states[0], rb.states[0])
    dT = max(energy_norm(a, b) for a, b in zip(ra.states, rb.states))
    assert d0 > 0
    assert dT <= 1e3 * d0


def test_yosida_path_matches_direct():
    bundle, nl = p2_defaults(n=32)
    grid = bundle.grid
    theta, phi, v = random_smooth(grid, 13)
    s = make_state(grid, theta, phi, v, 1e-3)
    s_direct, _ = step(s, bundle, nl, StepConfig(h=1e-3, solve_path="direct"))
    s_yosida, _ = step(s, bundle, nl, StepConfig(h=1e-3, solve_path="yosida"))
    assert np.max(np.abs(s_direct.phi - s_yosida.phi)) <= 1e-8


def _assert_paths_agree(init, bundle, nl, h, n_steps):
    """Both solver paths complete the run, and every state's phi and theta
    agree to within the step's solver tolerance 10 newton_tol (1 + |g|)."""
    runs = [run(init, bundle, nl, T=n_steps * h, cfg=StepConfig(h=h, solve_path=path))
            for path in ("direct", "yosida")]
    assert all(r.complete for r in runs)
    direct, yosida = runs
    tol = 10.0 * StepConfig.newton_tol
    for a, b, report in zip(direct.states[1:], yosida.states[1:], direct.reports):
        for name in ("phi", "theta"):
            gap = h_norm(bundle.grid, getattr(a, name) - getattr(b, name))
            assert gap <= tol * (1.0 + report.rhs_norm), (name, gap)


def test_yosida_path_solves_the_unsmoothed_step():
    # the smoothing continuation alone stops at a residual of about 2e-8,
    # which the step audit rejects at step 0
    bundle, nl = p2_defaults(n=16)
    _assert_paths_agree(random_smooth(bundle.grid, 4), bundle, nl, 1 / 16, 4)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       n=st.integers(min_value=2, max_value=24),
       beta=st.one_of(
           st.tuples(st.just("cubic"), st.floats(min_value=0.1, max_value=10.0).map(lambda a: (a,))),
           st.tuples(st.just("odd_poly"),
                     st.tuples(st.floats(min_value=0.0, max_value=5.0),
                               st.floats(min_value=0.1, max_value=5.0),
                               st.floats(min_value=0.0, max_value=5.0))
                     .map(lambda c: (c[0], 0.0, c[1], 0.0, c[2])))),
       pi=st.one_of(st.just(("zero", 0.0)),
                    st.tuples(st.sampled_from(["linear", "scaled_sine"]),
                              st.floats(min_value=-2.0, max_value=2.0))),
       h_fraction=st.floats(min_value=0.01, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_solver_paths_complete_and_agree_below_threshold(preset, bc, n, beta, pi, h_fraction,
                                                         seed):
    bundle = preset_bundle(preset, n=n, bc=bc)
    nl = Nonlinearity(beta[0], beta[1], pi[0], pi[1])
    h = h_fraction * bundle.h_threshold(nl.lipschitz_const)
    _assert_paths_agree(random_smooth(bundle.grid, seed), bundle, nl, h, 3)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       n=st.integers(min_value=2, max_value=24),
       beta=st.sampled_from([("cubic", (0.5,)), ("cubic", (10.0,)),
                             ("odd_poly", (1.0, 0.0, 2.0, 0.0, 0.5))]),
       path=st.sampled_from(["direct", "yosida"]),
       h_fraction=st.floats(min_value=0.01, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_step_predictor_does_not_change_the_solution(preset, bc, n, beta, path, h_fraction,
                                                     seed):
    # below h_threshold the step's solution is unique, so Newton started
    # from phi + h (v + h z) lands where the first-order start phi + h v does
    bundle = preset_bundle(preset, n=n, bc=bc)
    nl = Nonlinearity(*beta)
    h = h_fraction * bundle.h_threshold(nl.lipschitz_const)
    cfg = StepConfig(h=h, solve_path=path)
    first = run(random_smooth(bundle.grid, seed), bundle, nl, T=h, cfg=cfg)
    assert first.complete
    state = first.states[1]  # a stepped state, so z is a real acceleration
    stepped, _ = step(state, bundle, nl, cfg)
    g = phi_equation_rhs(state, bundle, h)
    phi, _, _ = solve_phi(g, bundle, nl, cfg, phi0=state.phi + h * state.v)
    gap = h_norm(bundle.grid, stepped.phi - phi)
    assert gap <= 10.0 * cfg.newton_tol * (1.0 + h_norm(bundle.grid, g)), gap


def test_newton_divergence_reported():
    grid = Grid1D(16)
    bundle = preset_bundle("P2", n=16, epsilon=1.0)
    nl = cubic_nonlinearity(100.0)
    theta, phi, v = (1000.0 * u for u in single_mode(grid, 1, 1.0, 1.0, 1.0))
    cfg = StepConfig(h=0.75, newton_max_iter=6)
    assert cfg.h > bundle.h_threshold(nl.lipschitz_const)
    with pytest.warns(RuntimeWarning):
        result = run((theta, phi, v), bundle, nl, T=1.5, cfg=cfg)
    assert not result.complete
    assert result.failure_index == 0
    assert len(result.states) == 1


def test_newton_accepts_a_residual_within_tolerance_at_its_iteration_cap():
    # one iteration leaves the residual at 2.7e-8: it fell too fast to
    # stop inside the loop, and the cap accepts it within h^2 times the
    # plan's Newton bound at phi+ (StepPlan.bounds), which is tighter than
    # newton_tol (1 + |g|)
    bundle, nl = p2_defaults(n=16)
    theta, phi, v = random_smooth(bundle.grid, 3)
    cfg = StepConfig(h=1.0 / 64, newton_max_iter=1, newton_tol=1e-5)
    state, rep = step(make_state(bundle.grid, theta, phi, v, cfg.h), bundle, nl, cfg)
    assert rep.newton_iters == 1 and state.t_index == 1
    plan = StepPlan(bundle, cfg.h, nl)
    newton = plan.bounds(cfg.newton_tol, rep.rhs_norm, h_norm(bundle.grid, state.phi))[2]
    assert 1e-9 < rep.final_residual <= plan.h2 * newton < cfg.newton_tol * (1.0 + rep.rhs_norm)


def test_solve_phi_large_h_attempted_and_reported():
    # above the threshold the solve is still attempted; divergence raises
    grid = Grid1D(16)
    bundle = preset_bundle("P2", n=16, epsilon=1.0)
    nl = cubic_nonlinearity(100.0)
    g = 1e4 * np.ones(16)
    with pytest.raises(NewtonDivergedError) as info:
        solve_phi(g, bundle, nl, StepConfig(h=0.75, newton_max_iter=5))
    assert info.value.residual > 0
    # below the threshold, a first residual that overflows is divergence too
    with pytest.raises(NewtonDivergedError) as info, pytest.warns(RuntimeWarning):
        solve_phi(g, bundle, nl, StepConfig(h=0.01), phi0=1e103 * np.ones(16))
    assert info.value.iters == 0 and not np.isfinite(info.value.residual)


def preset_case(name, bc, n):
    """Bundle and nonlinearity of one preset: P1 linear (m = 1), others cubic."""
    if name == "P1":
        return preset_bundle("P1", n=n, bc=bc, m=1.0), linear_reaction(-1.0)
    return preset_bundle(name, n=n, bc=bc), cubic_nonlinearity(1.0)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "P5"])
def test_step_without_plan_matches_run_bitwise(name, bc):
    bundle, nl = preset_case(name, bc, 24)
    h = 1.0 / 128
    cfg = StepConfig(h=h)
    init = random_smooth(bundle.grid, 17)
    result = run(init, bundle, nl, T=20 * h, cfg=cfg)
    assert result.complete
    state = make_state(bundle.grid, *init, h)
    for want, want_report in zip(result.states[1:], result.reports):
        state, report = step(state, bundle, nl, cfg)
        for field in ("theta", "phi", "v", "z"):
            assert np.array_equal(getattr(state, field), getattr(want, field))
        assert report == want_report


def count_jacobian_calls(monkeypatch, bundle, nl):
    """The gbtrf and gbtrs calls of a complete run, and its Newton iterations."""
    import thermowave.stepper as stepper
    calls = {"gbtrf": 0, "gbtrs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        attr = "_" + name.upper()
        monkeypatch.setattr(stepper, attr, counted(name, getattr(stepper, attr)))
    result = run(random_smooth(bundle.grid, 3), bundle, nl, T=0.25,
                 cfg=StepConfig(h=1.0 / 64))
    iters = sum(r.newton_iters for r in result.reports)
    assert result.complete and iters >= len(result.reports)
    return calls, iters


def test_linear_run_factors_jacobian_once(monkeypatch):
    calls, iters = count_jacobian_calls(monkeypatch, *p1_defaults(n=32, m=1.0))
    assert calls == {"gbtrf": 1, "gbtrs": iters}


def test_nonlinear_run_factors_jacobian_every_iteration(monkeypatch):
    calls, iters = count_jacobian_calls(monkeypatch, *p2_defaults(n=32))
    assert calls == {"gbtrf": iters, "gbtrs": iters}


def test_step_plan_must_match_its_arguments():
    bundle, nl = p2_defaults(n=16)
    other, _ = p2_defaults(n=16)
    cfg = StepConfig(h=0.01)
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 1), 0.01)
    plan = StepPlan(bundle, 0.01, nl)
    step(state, bundle, nl, cfg, plan)
    for args in ((state, other, nl, cfg), (state, bundle, nl, StepConfig(h=0.02)),
                 (state, bundle, cubic_nonlinearity(2.0), cfg)):
        with pytest.raises(ValueError):
            step(*args, plan)


def audit_floor_cases():
    return [(name, bc) for name in ("P3", "P5") for bc in ("dirichlet", "neumann")]


@pytest.mark.parametrize("name,bc", audit_floor_cases())
def test_step_audit_floor_covers_viscous_damping(name, bc):
    # h |damping| is large at n = 1024: the wave residual of a converged
    # Newton solve sits at eps |damping| |phi+| / h, far above eps / h^2
    bundle, nl = preset_case(name, bc, 1024)
    h = 1.0 / 256
    assert h < bundle.h_threshold(nl.lipschitz_const)
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 7), h)
    _, report = step(state, bundle, nl, StepConfig(h=h))
    assert report.wave_residual > 1e-9 * (1.0 + report.rhs_norm)


# P5 Dirichlet, cubic, single_mode data with v_amp 0.5: (n, mode, h as a
# fraction of min(h_threshold, 1/16)).  Newton's residual stalls at the
# rounding of h damping(phi) and h^2 stiffness(phi), which grows like
# h / dx^2; above newton_tol (1 + |g|) that once ran out of iterations at
# step 0.
FINE_VISCOUS_CASES = [(1024, 1, 0.4), (1024, 1, 0.9), (1024, 3, 0.9), (2048, 1, 0.1),
                      (2048, 1, 0.4), (2048, 1, 0.9), (2048, 3, 0.1), (2048, 3, 0.4),
                      (2048, 3, 0.9), (2048, 7, 0.4), (2048, 7, 0.9)]


@pytest.mark.parametrize("n, mode, fraction", FINE_VISCOUS_CASES)
def test_newton_settles_at_the_rounding_floor_of_fine_viscous_grids(n, mode, fraction):
    bundle = preset_bundle("P5", n=n)
    nl = cubic_nonlinearity(1.0)
    h = fraction * min(bundle.h_threshold(nl.lipschitz_const), 1.0 / 16)
    result = run(single_mode(bundle.grid, mode, 1.0, 1.0, 0.5), bundle, nl, 20 * h,
                 StepConfig(h=h))  # each step passes its audit, or the run stops
    assert result.complete and len(result.reports) == 20
    ledger = energy_ledger(result.states, bundle, nl)
    for before, entry in zip(ledger, ledger[1:]):
        assert entry.identity_residual <= 1e-10 * (1.0 + before.record.total)


def test_step_audit_rejects_perturbed_phi(monkeypatch):
    import thermowave.stepper as stepper
    bundle, nl = preset_case("P3", "dirichlet", 1024)
    grid = bundle.grid
    h = 1.0 / 256
    cfg = StepConfig(h=h)
    state = make_state(grid, *random_smooth(grid, 7), h)
    s1, report = step(state, bundle, nl, cfg)

    # the documented wave floor, recomputed from the operator norm bounds
    eps = np.finfo(float).eps
    norm = {k: getattr(bundle, k).norm_bound()
            for k in ("mass", "damping", "stiffness", "coupling")}
    scale = (norm["mass"] / h ** 2 + norm["damping"] / h + norm["stiffness"]
             + bundle.eta * norm["coupling"])
    floor = 32 * eps * ((1 + report.rhs_norm) / h ** 2 + scale * h_norm(grid, s1.phi)
                        + norm["coupling"] * h_norm(grid, s1.theta))
    assert report.wave_residual <= floor

    # a smooth bump of size 1e3 * floor in the wave equation's mass term
    mode = dirichlet_sine(grid, 1)
    bump = 1e3 * floor * h * h * mode / h_norm(grid, mode)
    real_stages = stepper._stages

    def perturbed(*args):
        phi, iters, res, terms = real_stages(*args)
        return phi + bump, iters, res, terms

    monkeypatch.setattr(stepper, "_stages", perturbed)
    with pytest.raises(StepAuditError, match="step 0"):
        step(state, bundle, nl, cfg)


def test_run_returns_partial_trajectory_on_audit_failure(monkeypatch):
    import thermowave.stepper as stepper
    bundle, nl = preset_case("P3", "dirichlet", 1024)
    h = 1.0 / 256
    init = random_smooth(bundle.grid, 7)
    real_stages = stepper._stages

    def perturbed(*args):  # a phi+ off the solution Newton accepted
        phi, iters, res, terms = real_stages(*args)
        return phi + 1.0, iters, res, terms

    with monkeypatch.context() as patch:
        patch.setattr(stepper, "_stages", perturbed)
        with pytest.raises(StepAuditError, match="step 0"):
            step(make_state(bundle.grid, *init, h), bundle, nl, StepConfig(h=h))
        result = run(init, bundle, nl, T=8 * h, cfg=StepConfig(h=h))
    assert isinstance(result.failure, StepAuditError)
    assert not result.complete
    assert result.failure_index == 0
    assert len(result.states) == 1 and result.reports == []
    assert np.array_equal(result.states[0].phi, init[1])

    # without the rounding floors no iterate reaches the bound the audit
    # would apply, so the run stops in Newton before any audit
    monkeypatch.setattr(stepper, "_EPS", 0.0)
    result = run(init, bundle, nl, T=8 * h, cfg=StepConfig(h=h))
    assert isinstance(result.failure, NewtonDivergedError)
    assert result.failure_index == 0 and len(result.states) == 1
    assert str(result.failure).startswith("Newton did not converge in 25 iterations")
    assert str(result.failure).endswith("at step 0")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       n=st.integers(min_value=2, max_value=256),
       scale=st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0 ** e),
       h_fraction=st.floats(min_value=0.01, max_value=0.95),
       tol=st.floats(min_value=-12.0, max_value=-3.0).map(lambda e: 10.0 ** e),
       max_iter=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_an_unperturbed_run_never_fails_its_step_audit(preset, bc, n, scale, h_fraction, tol,
                                                        max_iter, seed):
    # Newton accepts only an iterate that the step audit passes, so a run
    # ends complete or in Newton, whatever its tolerance and iteration cap
    bundle = preset_bundle(preset, n=n, bc=bc)
    nl = cubic_nonlinearity(scale)
    h = h_fraction * min(bundle.h_threshold(nl.lipschitz_const), 1.0 / 16)
    cfg = StepConfig(h=h, newton_tol=tol, newton_max_iter=max_iter)
    result = run(random_smooth(bundle.grid, seed), bundle, nl, 3 * h, cfg)
    assert result.complete or isinstance(result.failure, NewtonDivergedError), result.failure


def reference_step(state, bundle, nonlin, cfg, solve=solve_phi):
    """One step that computes every product it uses afresh, through a new
    plan, so nothing carries over from an earlier computation: the
    straightforward step that step() must match bit for bit."""
    plan = StepPlan(bundle, cfg.h, nonlin)
    grid, h, eta = bundle.grid, cfg.h, bundle.eta
    shifted = plan.resolvent.solve(eta * state.phi + state.theta)
    g = (bundle.mass.apply(state.phi) + h * bundle.mass.apply(state.v)
         + h * bundle.damping.apply(state.phi) + h * h * bundle.coupling.apply(shifted))
    phi1, iters, res = solve(g, bundle, nonlin, cfg,
                             phi0=state.phi + h * (state.v + h * state.z), plan=plan)
    theta_rhs = state.theta + eta * (state.phi - phi1)
    theta1 = plan.resolvent.solve(theta_rhs)
    theta_res = h_norm(grid, theta1 + h * bundle.diffusion.apply(theta1) - theta_rhs)
    v1 = (phi1 - state.phi) / h
    z1 = (v1 - state.v) / h
    heat_res = h_norm(grid, (theta1 - state.theta) / h + eta * v1
                      + bundle.diffusion.apply(theta1))
    wave_res = h_norm(grid, bundle.mass.apply(z1) + bundle.damping.apply(v1)
                      + bundle.stiffness.apply(phi1) + nonlin.beta(phi1)
                      + nonlin.pi(phi1) - bundle.coupling.apply(theta1))
    report = StepReport(newton_iters=iters, final_residual=res, theta_residual=theta_res,
                        heat_residual=heat_res, wave_residual=wave_res,
                        rhs_norm=h_norm(grid, g))
    return State(theta1, phi1, v1, z1, state.t_index + 1, h), report


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       n=st.integers(min_value=2, max_value=24),
       beta=st.sampled_from([("cubic", (0.5,)), ("cubic", (10.0,)),
                             ("odd_poly", (1.0, 0.0, 2.0, 0.0, 0.5))]),
       pi=st.sampled_from([("zero", 0.0), ("linear", -0.8), ("linear", 1.5),
                           ("scaled_sine", 1.2)]),
       path=st.sampled_from(["direct", "yosida"]),
       h_fraction=st.floats(min_value=0.01, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_steps_through_one_plan_equal_the_recomputing_reference(preset, bc, n, beta, pi, path,
                                                                h_fraction, seed):
    bundle = preset_bundle(preset, n=n, bc=bc)
    nl = Nonlinearity(beta[0], beta[1], pi[0], pi[1])
    h = h_fraction * bundle.h_threshold(nl.lipschitz_const)
    cfg = StepConfig(h=h, solve_path=path)
    plan = StepPlan(bundle, h, nl)
    state = want = make_state(bundle.grid, *random_smooth(bundle.grid, seed), h)
    for _ in range(4):
        state, report = step(state, bundle, nl, cfg, plan)
        want, want_report = reference_step(want, bundle, nl, cfg)
        for field in ("theta", "phi", "v", "z"):
            assert same_bits(getattr(state, field), getattr(want, field)), field
        for field in StepReport.__dataclass_fields__:
            assert same_bits(getattr(report, field), getattr(want_report, field)), field


@pytest.mark.parametrize("path", ["direct", "yosida"])
def test_step_carries_its_phi_with_the_mass_and_damping_of_newtons_last_residual(
        monkeypatch, path):
    # the next step's right-hand side takes mass(phi+) and damping(phi+),
    # and its audit |phi| and |theta|, from this carry of the very arrays
    # the step returned; a step that fails its audit leaves the carry as
    # it was
    import thermowave.stepper as stepper
    from thermowave.stepper import _elliptic_residual
    bundle = preset_bundle("P2", n=16)
    nl = Nonlinearity("cubic", (1.0,), "scaled_sine", 1.2)
    h = 1.0 / 64
    cfg = StepConfig(h=h, solve_path=path)
    plan = StepPlan(bundle, h, nl)
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 2), h)
    g = phi_equation_rhs(state, bundle, h, plan)
    s1, _ = step(state, bundle, nl, cfg, plan)
    carry = plan._carry
    assert carry[0] is s1.phi and not s1.phi.flags.writeable
    _, want = _elliptic_residual(s1.phi.copy(), g, StepPlan(bundle, h, nl), None)
    assert same_bits(carry[1], want[0]) and same_bits(carry[2], want[1])
    assert carry[4] is s1.theta and not s1.theta.flags.writeable
    assert carry[3] == h_norm(bundle.grid, s1.phi) and carry[5] == h_norm(bundle.grid, s1.theta)

    real_stages = stepper._stages

    def perturbed(*args):
        phi, iters, res, terms = real_stages(*args)
        return phi + 1.0, iters, res, terms

    monkeypatch.setattr(stepper, "_stages", perturbed)
    with pytest.raises(StepAuditError, match="step 1"):
        step(s1, bundle, nl, cfg, plan)
    assert plan._carry is carry


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(calls=st.lists(st.lists(st.sampled_from(["solve_phi", "rhs", "rhs_of_a_copy"]),
                               max_size=3), min_size=3, max_size=3),
       path=st.sampled_from(["direct", "yosida"]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_standalone_solves_leave_the_plan_unchanged(calls, path, seed):
    # only step writes a plan's carry: solve_phi and phi_equation_rhs
    # calls, in any order, change no attribute but Newton's factor cache,
    # and between steps they change no step's state or report
    bundle = preset_bundle("P2", n=16)
    nl = Nonlinearity("cubic", (1.0,), "scaled_sine", 1.2)
    h = 1.0 / 64
    cfg = StepConfig(h=h, solve_path=path)
    plan, alone = StepPlan(bundle, h, nl), StepPlan(bundle, h, nl)
    state = want = make_state(bundle.grid, *random_smooth(bundle.grid, seed), h)

    def snapshot():
        return {name: (value, value.tobytes() if isinstance(value, np.ndarray) else None)
                for name, value in vars(plan).items() if name not in ("_bands", "_lu", "_piv")}

    for between in calls:
        before = snapshot()
        g = phi_equation_rhs(state, bundle, h, plan)
        for call in between:
            if call == "solve_phi":
                phi, _, _ = solve_phi(g, bundle, nl, cfg, phi0=state.phi, plan=plan)
                assert phi.flags.writeable
            else:
                s = state if call == "rhs" else State(state.theta, state.phi.copy(), state.v,
                                                      state.z, state.t_index, h)
                assert same_bits(phi_equation_rhs(s, bundle, h, plan), g)
        after = snapshot()
        assert after.keys() == before.keys()
        for name, (value, data) in before.items():
            assert after[name][0] is value and after[name][1] == data, name
        state, report = step(state, bundle, nl, cfg, plan)
        want, want_report = step(want, bundle, nl, cfg, alone)
        for field in ("theta", "phi", "v", "z"):
            assert same_bits(getattr(state, field), getattr(want, field)), field
        for field in StepReport.__dataclass_fields__:
            assert same_bits(getattr(report, field), getattr(want_report, field)), field


@pytest.mark.parametrize("sigma, c, fixed, per_iter", [(1.0, 1.0, 4, 3), (0.5, 2.0, 7, 4)],
                         ids=["sigma-c-squared", "sigma-other"])
def test_step_computes_each_product_once(monkeypatch, sigma, c, fixed, per_iter):
    # P2 cubic at n = 64, h = 1/1024 (the run-p2-n64 case), counted as
    # calls of the operators' product kernels and of the unchecked
    # resolvent solve.  Mass and damping (epsilon = 1) are unit
    # identities, which the plan applies as u itself, with no kernel call.
    # Per step: rhs 2 products (coupling, the resolvent audit's); Newton 3
    # per residual (stiffness, coupling, the resolvent audit's), with one
    # residual more than iterations, and one (I + h diffusion) w per
    # iteration; the theta+ solve 2 (its audit's, coupling theta+): 7 + 4
    # per Newton iteration.  With sigma = c^2 coupling applies as
    # diffusion, and each coupling product of a resolvent solution is that
    # solve's audit product: 4 + 3 per iteration.  One iteration, as at the
    # defaults after the first step, makes 7 and 11.  The rhs, every
    # residual and the theta+ step make one audited solve each; beta is
    # evaluated at the residuals only.
    from thermowave import DiscreteOperator, Resolvent
    calls = {"product": 0, "solve": 0, "beta": 0}
    for cls, name, key in ((DiscreteOperator, "_scaled", "product"),
                           (DiscreteOperator, "_banded", "product"),
                           (Resolvent, "_solve", "solve"), (Nonlinearity, "beta", "beta")):
        def counted(*args, _fn=getattr(cls, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    bundle = preset_bundle("P2", n=64, sigma=sigma, c=c)
    nl = cubic_nonlinearity(1.0)
    h = 1.0 / 1024
    cfg = StepConfig(h=h)
    plan = StepPlan(bundle, h, nl)
    assert plan.coupling_is_diffusion == (sigma == c * c)
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 0), h)
    state, _ = step(state, bundle, nl, cfg, plan)
    iters = []
    for _ in range(8):
        calls.update(dict.fromkeys(calls, 0))
        state, report = step(state, bundle, nl, cfg, plan)
        it = report.newton_iters
        iters.append(it)
        assert calls == {"product": fixed + per_iter * it, "solve": 3 + it, "beta": 1 + it}
    assert 1 in iters
    if sigma == c * c:
        assert iters == [1] * 8


@pytest.mark.parametrize("pi", [("zero", 0.0), ("scaled_sine", 1.2)])
def test_step_evaluates_pi_only_when_there_is_one(monkeypatch, pi):
    # a zero pi adds nothing to the residuals, the Jacobian or the wave
    # audit, so no step evaluates it; any other pi is evaluated at each
    # Newton residual and in each Jacobian, and the audit reuses the last
    calls = {"pi": 0, "pi_prime": 0}
    for name in calls:
        def counted(*args, _fn=getattr(Nonlinearity, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(Nonlinearity, name, counted)
    bundle, _ = p2_defaults(n=64)
    nl = cubic_nonlinearity(1.0, *pi)
    h = 1.0 / 1024
    cfg = StepConfig(h=h)
    plan = StepPlan(bundle, h, nl)
    assert plan.has_pi == (pi[0] != "zero")
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 0), h)
    for _ in range(8):
        calls.update(dict.fromkeys(calls, 0))
        state, report = step(state, bundle, nl, cfg, plan)
        iters = report.newton_iters if plan.has_pi else 0
        assert calls == {"pi": iters + plan.has_pi, "pi_prime": iters}


def bits(x):
    return np.array(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_plan_norm_has_the_bits_of_h_norm(bc, n):
    grid = Grid1D(n, bc)
    bundle = preset_bundle("P2", n=n, bc=bc)
    norm = StepPlan(bundle, 0.01).norm
    rng = np.random.default_rng(n)
    vectors = [rng.standard_normal(n) * scale for scale in (1e-300, 1e-160, 1.0, 1e150, 1e300)]
    vectors += [np.zeros(n), -np.zeros(n), np.full(n, 5e-324)]
    for special in (np.inf, -np.inf, np.nan):
        u = rng.standard_normal(n)
        u[n // 2] = special
        vectors.append(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for u in vectors:
            assert bits(norm(u)) == bits(h_norm(grid, u)), u


def test_a_step_whose_phi_norm_overflows_is_never_accepted():
    # the comparison set's diverging config: P2, linear pi with slope -1e4
    # (h above h_threshold), n = 64.  Step 73's phi+ has entries near 1e154,
    # so |phi+| overflows and every rounding floor of StepPlan.bounds is
    # infinite; Newton refuses the iterate at its first bound instead of
    # accepting it against that floor
    from thermowave.cli import build_problem, validate_config
    resolved = validate_config({"preset": "P2", "bc": "dirichlet", "n_interior": 64, "T": 8.0,
                                "h": 1.0 / 64, "pi": {"kind": "linear", "slope": -1e4},
                                "initial": {"profile": "random_smooth", "seed": 7}})
    grid, bundle, nl, initial, cfg = build_problem(resolved)
    with pytest.warns(RuntimeWarning, match="solvability threshold"):
        trajectory = iter_run(initial, bundle, nl, 8.0, cfg)
    with np.errstate(over="ignore"):
        for state, _ in trajectory:
            assert h_norm(grid, state.phi) < np.inf and h_norm(grid, state.theta) < np.inf
    assert isinstance(trajectory.failure, NewtonDivergedError)
    assert trajectory.failure_index == 73
    assert re.fullmatch(r"Newton did not converge in 2 iterations \(last residual "
                        r"\d\.\d{3}e\+\d+, \|phi\+\| overflowed\) at step 73",
                        str(trajectory.failure))


def test_the_step_audit_never_passes_against_an_infinite_bound(monkeypatch):
    # theta+ whose norm overflows passes the resolvent's own audit (its
    # floor is infinite too) and every residual comparison; the step audit
    # refuses it all the same
    bundle, nl = p2_defaults(n=16)
    h = 1.0 / 64
    plan = StepPlan(bundle, h, nl)
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 3), h)
    stages, solve = stepper._stages, StepPlan._solve
    solved = []

    def newton(*args):
        solved.append(True)
        return stages(*args)

    def overflowing(self, rhs):  # the solve after Newton's is theta+'s
        x, coupling, diffusion, misfit = solve(self, rhs)
        return (np.full_like(x, 1e300) if solved else x), coupling, diffusion, misfit
    monkeypatch.setattr(stepper, "_stages", newton)
    monkeypatch.setattr(StepPlan, "_solve", overflowing)
    with np.errstate(over="ignore"), pytest.raises(StepAuditError, match=r"allowed inf"):
        step(state, bundle, nl, StepConfig(h=h), plan)


_edge = st.one_of(st.floats(allow_nan=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                   np.inf, -np.inf, 1e300, -1e300, 1.7e308]))


def _float_horner(coeffs, r):
    """The Horner rule of ``nonlinearity._horner`` on Python floats."""
    coeffs = [float(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) < 2:
        return np.full_like(r, coeffs[0] if coeffs else 0.0)
    out = coeffs[-1] * r
    for c in coeffs[-2:0:-1]:
        out = (out + c) * r
    return out + coeffs[0]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       coeffs=st.sampled_from([{}, {"epsilon": 2.5}, {"sigma": 0.5, "c": 3.0, "gamma": 1.5}]),
       h=st.floats(min_value=1e-8, max_value=2.0),
       beta=st.sampled_from([(0.5,), (1.0, 0.0, 2.0, 0.0, 0.5)]),
       data=st.data())
def test_plan_kernels_and_multipliers_have_the_bits_of_checked_float_products(
        preset, bc, coeffs, h, beta, data):
    # each kernel the plan binds (a unit identity as u itself) has the bytes
    # of the checked apply, and each 0-d multiplier of the plan, the
    # resolvent, a scaled operator and the Horner rule has the bytes of the
    # Python float it holds, on zeros of both signs, subnormals, infinities
    # and entries near the float range
    n = data.draw(st.integers(min_value=2, max_value=12))
    bundle = preset_bundle(preset, n=n, bc=bc, **coeffs)
    nl = Nonlinearity("cubic" if len(beta) == 1 else "odd_poly", beta)
    plan = StepPlan(bundle, h, nl)
    u = data.draw(hnp.arrays(float, n, elements=_edge))
    ops = {name: getattr(bundle, name) for name in ("mass", "damping", "stiffness", "coupling")}
    ops["shifted"] = plan.resolvent.shifted
    multipliers = [(plan._h, h), (plan._h2, plan.h2), (plan._eta_h2, plan.eta_h2),
                   (plan._eta, bundle.eta), (plan.resolvent._h, h)]
    with np.errstate(all="ignore"):
        for name, op in ops.items():
            got = getattr(plan, name)(u)
            assert np.array_equal(bits(got), bits(op.apply(u))), name
            if op.kind in ("identity", "zero"):
                assert np.array_equal(bits(got), bits(op.coeff * u)), name
                multipliers.append((op._coeff, op.coeff))
        for zero_d, x in multipliers:
            assert zero_d.shape == () and zero_d.dtype == np.float64 and float(zero_d) == x
            assert np.array_equal(bits(zero_d * u), bits(x * u))
            assert np.array_equal(bits(u / zero_d), bits(u / x))
        poly = nl._poly
        for got, want in ((nl.beta(u), _float_horner(poly, u) * u),
                          (nl.beta_prime(u),
                           _float_horner([(k + 1) * c for k, c in enumerate(poly)], u)),
                          (nl.beta_potential(u),
                           _float_horner([c / (k + 2) for k, c in enumerate(poly)], u) * u * u)):
            assert np.array_equal(bits(got), bits(want))


def read_only(fn):
    """``fn`` with its array result made a read-only view."""
    def wrapped(*args):
        out = fn(*args).view()
        out.setflags(write=False)
        return out
    return wrapped


@pytest.mark.parametrize("path", ["direct", "yosida"])
@pytest.mark.parametrize("name,bc,bundle", all_preset_bundles(n=12))
def test_no_step_writes_a_product_in_place(monkeypatch, name, bc, bundle, path):
    # a unit identity's product is its argument itself, so a step that wrote
    # a product in place would write its input: every product here is
    # read-only, and the steps still run
    nl = cubic_nonlinearity(1.0, "linear", -0.5)
    h = 0.5 * min(bundle.h_threshold(nl.lipschitz_const), 1.0 / 16)
    plan = StepPlan(bundle, h, nl)
    for kernel in ("mass", "damping", "stiffness", "coupling", "shifted"):
        setattr(plan, kernel, read_only(getattr(plan, kernel)))
    plan.resolvent._product = read_only(plan.resolvent._product)
    for method in ("beta", "pi", "yosida"):
        monkeypatch.setattr(Nonlinearity, method, read_only(getattr(Nonlinearity, method)))
    cfg = StepConfig(h=h, solve_path=path)
    state = make_state(bundle.grid, *random_smooth(bundle.grid, 5), h)
    for _ in range(3):
        state, _ = step(state, bundle, nl, cfg, plan)
    assert state.t_index == 3


@pytest.mark.parametrize("name,bc,bundle", all_preset_bundles(n=12))
def test_reports_and_plan_scalars_are_builtin_numbers(name, bc, bundle):
    # what reaches a CSV or JSON file prints as a Python number does, never
    # as repr(np.float64(...))
    nl = cubic_nonlinearity(1.0, "scaled_sine", 0.5)
    h = 0.5 * min(bundle.h_threshold(nl.lipschitz_const), 1.0 / 16)
    plan = StepPlan(bundle, h, nl)
    for value in (plan.h, plan.h2, plan.eta_h2, *plan.bounds(1e-12, 1.0, 2.0, 3.0, 4.0)):
        assert type(value) is float
    result = run(random_smooth(bundle.grid, 2), bundle, nl, 3 * h, StepConfig(h=h))
    assert result.complete and len(result.reports) == 3
    for report in result.reports:
        assert type(report.newton_iters) is int
        for field in StepReport.__dataclass_fields__:
            if field != "newton_iters":
                assert type(getattr(report, field)) is float, field
    assert all(type(s.h) is float and type(s.t) is float for s in result.states)
