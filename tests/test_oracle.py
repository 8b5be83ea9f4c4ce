import numpy as np
import pytest
import scipy.linalg
from conftest import all_preset_bundles, p1_defaults, preset_bundle

from thermowave import (Grid1D, LinearReference, OperatorBundle, ReferenceDivergedError,
                        StepConfig, build_interpolants, cubic_nonlinearity, exact_linear_solution,
                        fine_reference, identity_operator,
                        inverse_modal_transform, laplacian_eigenvalues,
                        linear_reaction, make_initial, modal_generator,
                        modal_transform, random_smooth, run, single_mode, zero_nonlinearity,
                        zero_operator, assemble_laplacian)
from thermowave.oracle import _basis_block


def test_modal_transform_unit_mode():
    grid = Grid1D(16)
    theta, _, _ = single_mode(grid, 1, 1.0, 0.0, 0.0)
    coeffs = modal_transform(grid, theta)
    want = np.zeros(16)
    want[0] = 1.0
    assert np.max(np.abs(coeffs - want)) <= 1e-12


def test_modal_round_trip_and_parseval():
    rng = np.random.default_rng(0)
    for bc in ("dirichlet", "neumann"):
        grid = Grid1D(33, bc=bc)
        for _ in range(20):
            u = rng.standard_normal(33)
            c = modal_transform(grid, u)
            back = inverse_modal_transform(grid, c)
            assert np.max(np.abs(back - u)) <= 1e-12
            # Parseval: H-norm squared equals the coefficient sum of squares
            assert abs(grid.dx * np.dot(u, u) - np.dot(c, c)) <= 1e-12 * (1 + np.dot(c, c))


def test_modal_basis_diagonalizes_laplacian():
    for bc in ("dirichlet", "neumann"):
        grid = Grid1D(21, bc=bc)
        lap = assemble_laplacian(grid, 1.0)
        mu = laplacian_eigenvalues(grid)
        for k in (0, 1, 10, 20):
            coeffs = np.zeros(21)
            coeffs[k] = 1.0
            e = inverse_modal_transform(grid, coeffs)
            assert np.max(np.abs(lap.apply(e) - mu[k] * e)) <= 1e-9 * max(mu[k], 1.0)


def test_generator_encodes_both_equations():
    rng = np.random.default_rng(1)
    for name, bc, bundle in all_preset_bundles(n=16):
        nl = linear_reaction(-0.25) if name == "P1" else zero_nonlinearity()
        s = nl.pi_slope
        mu = laplacian_eigenvalues(bundle.grid)
        stack = modal_generator(bundle, nl, mu)  # one generator per mode
        assert stack.shape == (16, 3, 3)
        for k in (0, 3, 15):
            M = modal_generator(bundle, nl, mu[k])
            assert np.array_equal(stack[k], M)
            a1 = bundle.diffusion.symbol(mu[k])
            a2 = bundle.stiffness.symbol(mu[k])
            b1 = bundle.damping.symbol(mu[k])
            b2 = bundle.coupling.symbol(mu[k])
            for _ in range(5):
                y = rng.standard_normal(3)
                dy = M @ y
                r_heat = dy[0] + bundle.eta * dy[1] + a1 * y[0]
                r_wave = dy[2] + b1 * dy[1] + (a2 + s) * y[1] - b2 * y[0]
                assert abs(r_heat) <= 1e-12 * max(1.0, a1) * np.max(np.abs(y))
                assert abs(r_wave) <= 1e-9 * max(1.0, a2) * np.max(np.abs(y))


def test_generator_rejects_nonlinear():
    bundle, _ = p1_defaults(n=16)
    with pytest.raises(ValueError):
        modal_generator(bundle, cubic_nonlinearity(1.0), 1.0)


@pytest.mark.parametrize("desc, param", [
    ({"profile": "single_mode"}, "mode"),
    ({"profile": "random_smooth", "decay": 1.0}, "seed"),
    ({"profile": "smooth"}, "profile"),
    ({}, "profile"),
    ({"profile": "single_mode", "mode": 0}, "mode"),  # Dirichlet modes start at 1
    ({"profile": "random_smooth", "seed": 1, "decay": -1.0}, "decay"),
])
def test_make_initial_rejects_bad_descriptions(desc, param):
    with pytest.raises(ValueError, match=f"^{param} "):
        make_initial(Grid1D(8), desc)


def test_make_initial_dispatches_to_the_profiles():
    grid = Grid1D(8, "neumann")
    got = make_initial(grid, {"profile": "single_mode", "mode": 0, "phi_amp": 2.0})
    for a, b in zip(got, single_mode(grid, 0, 1.0, 2.0, 0.0)):
        assert np.array_equal(a, b)
    got = make_initial(grid, {"profile": "random_smooth", "seed": 3, "amplitude": 0.5})
    for a, b in zip(got, random_smooth(grid, 3, 2.0, 0.5)):
        assert np.array_equal(a, b)


def test_exact_solution_at_time_zero():
    bundle, nl = p1_defaults(n=24)
    init = random_smooth(bundle.grid, 3)
    snap = exact_linear_solution(init, bundle, nl, 0.0)
    for got, want in zip((snap.theta, snap.phi, snap.v), init):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_decoupled_heat_decay():
    # zero coupling plus zero potential/velocity data leaves a pure heat flow
    grid = Grid1D(24)
    sigma = 1.7
    bundle = OperatorBundle(
        grid=grid, mass=identity_operator(24),
        diffusion=assemble_laplacian(grid, sigma),
        damping=zero_operator(24),
        stiffness=assemble_laplacian(grid, 1.0),
        coupling=zero_operator(24), eta=1.0, mass_lb=1.0, coupling_bound=0.0)
    nl = zero_nonlinearity()
    mu = laplacian_eigenvalues(grid)
    for k in (1, 4):
        init = single_mode(grid, k, 1.0, 0.0, 0.0)
        t = 0.05
        snap = exact_linear_solution(init, bundle, nl, t)
        want = np.exp(-sigma * mu[k - 1] * t) * init[0]
        assert np.max(np.abs(snap.theta - want)) <= 1e-11
        assert np.max(np.abs(snap.phi)) <= 1e-12
        assert np.max(np.abs(snap.v)) <= 1e-12


def test_neumann_zero_mode_growth_closed_form():
    # with a positive linear reaction the constant mode obeys a 3x3 system
    # whose potential component grows like cosh(m t); the reference must
    # reproduce that regime exactly
    m = 0.5
    bundle = preset_bundle("P1", n=20, bc="neumann", m=m)
    nl = linear_reaction(-m * m)
    grid = bundle.grid
    ones = np.ones(20)
    init = (np.zeros(20), ones.copy(), np.zeros(20))
    for t in (0.3, 1.0):
        snap = exact_linear_solution(init, bundle, nl, t)
        want_phi = np.cosh(m * t)
        want_v = m * np.sinh(m * t)
        assert np.max(np.abs(snap.phi - want_phi)) <= 1e-11 * want_phi
        assert np.max(np.abs(snap.v - want_v)) <= 1e-10 * max(want_v, 1.0)


def test_neumann_stepper_tracks_oracle():
    bundle = preset_bundle("P2", n=24, bc="neumann", epsilon=1.0)
    nl = zero_nonlinearity()
    init = single_mode(bundle.grid, 1, 1.0, 0.5, 0.0)
    snap = exact_linear_solution(init, bundle, nl, 0.25)
    errs = []
    for h in (1.0 / 64, 1.0 / 128):
        result = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=h))
        s = result.states[-1]
        errs.append(max(np.max(np.abs(s.theta - snap.theta)),
                        np.max(np.abs(s.phi - snap.phi))))
    assert 1.5 <= errs[0] / errs[1] <= 2.6


def test_semigroup_property():
    bundle, nl = p1_defaults(n=16)
    mu = laplacian_eigenvalues(bundle.grid)
    for k in (0, 7, 15):
        M = modal_generator(bundle, nl, mu[k])
        for t, s in ((0.01, 0.02), (0.003, 0.05)):
            lhs = scipy.linalg.expm(t * M) @ scipy.linalg.expm(s * M)
            rhs = scipy.linalg.expm((t + s) * M)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))


def test_linear_reference_uniform_sampling_matches_pointwise():
    bundle, nl = p1_defaults(n=16)
    init = random_smooth(bundle.grid, 5)
    ref = LinearReference(init, bundle, nl)
    times = np.linspace(0.0, 0.1, 11)
    sampled = ref.sample(times)
    for i, t in enumerate(times):
        snap = ref.at(float(t))
        for name in ("theta", "phi", "v"):
            assert np.max(np.abs(sampled[name][i] - getattr(snap, name))) <= 1e-11


def test_stepper_converges_to_oracle_under_halving():
    for name in ("P1", "P2", "P3", "P4", "P5"):
        bundle = preset_bundle(name, n=24)
        nl = zero_nonlinearity()
        init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
        snap = exact_linear_solution(init, bundle, nl, 0.25)
        errs = []
        for h in (1.0 / 64, 1.0 / 128):
            result = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=h))
            s = result.states[-1]
            errs.append(max(np.max(np.abs(s.theta - snap.theta)),
                            np.max(np.abs(s.phi - snap.phi)),
                            np.max(np.abs(s.v - snap.v))))
        assert errs[1] < errs[0]
        assert 1.5 <= errs[0] / errs[1] <= 2.6, (name, errs)


def test_stepper_tracks_oracle_at_fine_step():
    # two independent solution paths agree to first-order accuracy
    bundle, nl = p1_defaults(n=64)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    snap = exact_linear_solution(init, bundle, nl, 0.1)
    result = run(init, bundle, nl, T=0.1, cfg=StepConfig(h=1e-5))
    s = result.states[-1]
    dev = max(np.max(np.abs(s.theta - snap.theta)),
              np.max(np.abs(s.phi - snap.phi)),
              np.max(np.abs(s.v - snap.v)))
    assert dev <= 1e-4


def test_stepper_error_scales_with_h_over_long_window():
    bundle, nl = p1_defaults(n=64)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    snap = exact_linear_solution(init, bundle, nl, 0.5)
    h = 1.0 / 512
    result = run(init, bundle, nl, T=0.5, cfg=StepConfig(h=h))
    s = result.states[-1]
    dev = max(np.max(np.abs(s.theta - snap.theta)),
              np.max(np.abs(s.phi - snap.phi)),
              np.max(np.abs(s.v - snap.v)))
    # measured constant is ~9.6; assert the first-order envelope with margin
    assert dev <= 20.0 * h


def test_fine_reference_zero_data():
    bundle, nl = p1_defaults(n=16)
    from thermowave import zero_profile
    ref = fine_reference(zero_profile(bundle.grid), bundle, nl, T=0.1, h_ref=0.01)
    out = ref.sample(np.array([0.0, 0.05, 0.1]))
    for name in ("theta", "phi", "v"):
        assert np.max(np.abs(out[name])) == 0.0


def test_fine_reference_consistency_and_accuracy():
    # mirror the sweep geometry: the reference step divides the finest sweep
    # member by 32, so it sits ~512x below the coarsest member
    bundle, nl = p1_defaults(n=24)
    init = single_mode(bundle.grid, 1, 1.0, 0.5, 0.0)
    T = 0.25
    h_coarse = 1.0 / 16
    ref1 = fine_reference(init, bundle, nl, T, h_ref=h_coarse / 256)
    ref2 = fine_reference(init, bundle, nl, T, h_ref=h_coarse / 512)
    exact = LinearReference(init, bundle, nl)
    times = np.arange(0, 9) * (T / 8)
    s1 = ref1.sample(times)
    s2 = ref2.sample(times)
    se = exact.sample(times)
    coarse = run(init, bundle, nl, T, StepConfig(h=h_coarse))
    coarse_err = max(np.max(np.abs(coarse.states[-1].phi - se["phi"][-1])),
                     np.max(np.abs(coarse.states[-1].theta - se["theta"][-1])))
    gap12 = max(np.max(np.abs(s1[name] - s2[name])) for name in s1)
    gap1e = max(np.max(np.abs(s1[name] - se[name])) for name in s1)
    # nested references agree with each other and the exact flow far below
    # the coarse discretization error
    assert gap12 <= coarse_err / 100.0
    assert gap1e <= coarse_err / 50.0


def test_fine_reference_propagates_divergence():
    from thermowave import Grid1D, single_mode
    grid = Grid1D(16)
    bundle = preset_bundle("P2", n=16, epsilon=1.0)
    nl = cubic_nonlinearity(100.0)
    init = tuple(1e8 * u for u in single_mode(grid, 1, 1.0, 1.0, 1.0))
    with pytest.raises(RuntimeError), pytest.warns(RuntimeWarning):
        fine_reference(init, bundle, nl, T=1.5, h_ref=0.75)


@pytest.mark.parametrize("n", [2, 7, 64, 255, 256, 1024])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_basis_data_is_the_closed_form_bit_for_bit(n, bc):
    # the block builder, whole and in row or column blocks of any size,
    # gives every entry of the closed form with the same bits
    grid = Grid1D(n, bc)
    if bc == "dirichlet":
        k = np.arange(1, n + 1)
        want = np.sqrt(2.0) * np.sin(np.outer(grid.x, k * np.pi))
    else:
        k = np.arange(0, n)
        want = np.sqrt(2.0) * np.cos(np.outer(grid.x, k * np.pi))
        want[:, 0] = 1.0
    assert np.array_equal(_basis_block(grid), want)
    for b in (1, 7, 64):
        starts = range(0, n, b)
        rows = np.concatenate([_basis_block(grid, rows=slice(i, i + b)) for i in starts])
        cols = np.concatenate([_basis_block(grid, cols=slice(j, j + b)) for j in starts], axis=1)
        assert np.array_equal(rows, want) and np.array_equal(cols, want)
    mu = laplacian_eigenvalues(grid)
    assert np.array_equal(mu, 2.0 / grid.dx ** 2 * (1.0 - np.cos(k * np.pi * grid.dx)))
    assert not mu.flags.writeable


def test_fine_reference_stacks_the_collected_run_bit_for_bit():
    bundle = preset_bundle("P2", n=16, epsilon=1.0)
    nl = cubic_nonlinearity(1.0)
    init = random_smooth(bundle.grid, 5)
    ref = fine_reference(init, bundle, nl, T=0.125, h_ref=1 / 256)
    want = build_interpolants(run(init, bundle, nl, 0.125,
                                  StepConfig(h=1 / 256, newton_tol=1e-13)).states)
    assert np.array_equal(ref.times, want.times)
    for name in ("theta", "phi", "v", "z"):
        assert np.array_equal(getattr(ref, name).nodes, getattr(want, name).nodes)


def test_fine_reference_divergence_part_way_names_the_failed_step():
    from unittest import mock
    from thermowave import NewtonDivergedError, stepper
    bundle = preset_bundle("P2", n=16, epsilon=1.0)
    real = stepper.step

    def step(state, *args):
        if state.t_index == 3:
            raise NewtonDivergedError(4, 2.0)
        return real(state, *args)

    with mock.patch.object(stepper, "step", step), pytest.raises(ReferenceDivergedError) as info:
        fine_reference(random_smooth(bundle.grid, 5), bundle, cubic_nonlinearity(1.0),
                       T=0.125, h_ref=1 / 256)
    assert info.value.failure_index == 3
    assert str(info.value.__cause__).endswith("at step 3")
