import math
from itertools import product

import numpy as np
import pytest
from conftest import all_preset_bundles, dirichlet_sine, preset_bundle
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scipy.linalg

from thermowave import (DiscreteOperator, Grid1D, ProblemPreset, Resolvent, ResolventAuditError,
                        assemble_laplacian, audit_bundle,
                        build_bundle, coupling_relative_bound, cubic_nonlinearity,
                        gradient_inner, h_inner,
                        h_norm, identity_operator, laplacian_eigenvalues, potential_total,
                        resolvent_solve, solvability_threshold, v_norm, v_norm_sq,
                        zero_operator)
from thermowave.operators import _ghost_diff


def mu_k(grid, k):
    return 2.0 / grid.dx ** 2 * (1.0 - np.cos(k * np.pi * grid.dx))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1)
    with pytest.raises(ValueError):
        Grid1D(8, bc="periodic")
    with pytest.raises(ValueError, match="integer"):
        Grid1D(8.0)
    assert Grid1D(np.int64(3)).dx == Grid1D(3).dx == 0.25
    assert Grid1D(4, bc="neumann").dx == 0.25


def test_laplacian_dirichlet_n3():
    op = assemble_laplacian(Grid1D(3), 1.0)
    assert np.array_equal(op.diag, [32.0, 32.0, 32.0])
    assert np.array_equal(op.offdiag, [-16.0, -16.0])


def test_laplacian_neumann_kills_constants():
    op = assemble_laplacian(Grid1D(17, bc="neumann"), 3.0)
    assert np.max(np.abs(op.apply(np.ones(17)))) == 0.0


def test_laplacian_rejects_bad_coeff():
    with pytest.raises(ValueError):
        assemble_laplacian(Grid1D(8), 0.0)
    with pytest.raises(ValueError):
        assemble_laplacian(Grid1D(8), -1.0)


def test_laplacian_dirichlet_eigenvectors():
    grid = Grid1D(63)
    op = assemble_laplacian(grid, 1.0)
    for k in (1, 2, 17, 40, 63):
        s = dirichlet_sine(grid, k)
        got = op.apply(s)
        want = mu_k(grid, k) * s
        assert np.max(np.abs(got - want)) <= 1e-9 * mu_k(grid, k)


def test_operator_symmetry_exact():
    for _, _, bundle in all_preset_bundles(n=16):
        for name in ("mass", "diffusion", "damping", "stiffness", "coupling"):
            dense = getattr(bundle, name).to_dense()
            assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_apply_on_a_stack_matches_rowwise_apply(bc):
    grid = Grid1D(17, bc)
    rng = np.random.default_rng(5)
    ops = [zero_operator(17), identity_operator(17, 2.5), assemble_laplacian(grid, 0.7),
           DiscreteOperator(rng.standard_normal(17), rng.standard_normal(16))]
    U = rng.standard_normal((6, 17))
    for op in ops:
        assert np.array_equal(op.apply(U), np.stack([op.apply(u) for u in U]))
        for bad in (U[:, :-1], U.T, np.float64(1.0)):
            with pytest.raises(ValueError):
                op.apply(bad)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 40), zero=st.booleans(),
       coeff=st.floats(allow_nan=False, allow_infinity=False), data=st.data())
def test_scaled_identity_apply_equals_the_tridiagonal_product(n, zero, coeff, data):
    # identity and zero operators apply as one multiply by coeff; on finite
    # data that equals diag*u plus both off-diagonal terms entry by entry
    op = zero_operator(n) if zero else identity_operator(n, coeff)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for shape in ((n,), (data.draw(st.integers(1, 6)), n)):
        u = data.draw(hnp.arrays(float, shape, elements=finite))
        with np.errstate(over="ignore"):  # both sides overflow alike
            want = op.diag * u
            want[..., :-1] += op.offdiag * u[..., 1:]
            want[..., 1:] += op.offdiag * u[..., :-1]
            assert np.array_equal(op.apply(u), want)


def test_tagged_operator_bands_must_match_the_tag():
    zeros, ones = np.zeros(4), np.ones(5)
    off = np.array([0.0, 1e-300, 0.0, 0.0])
    for bad in [(2.0 * ones, zeros, "identity", 1.0), (ones, off, "identity", 1.0),
                (0.0 * ones, zeros, "zero", 1.0), (ones, zeros, "zero", 0.0),
                (0.0 * ones, off, "zero", 0.0)]:
        with pytest.raises(ValueError):
            DiscreteOperator(*bad)
    assert DiscreteOperator(3.0 * ones, zeros, "identity", 3.0).apply(ones)[0] == 3.0


def test_monotonicity_audit():
    for _, _, bundle in all_preset_bundles(n=24):
        for name in ("mass", "diffusion", "damping", "stiffness", "coupling"):
            op = getattr(bundle, name)
            assert op.min_eigenvalue() >= -1e-12 * max(op.norm_bound(), 1.0)


def test_resolvent_trivial_cases():
    rng = np.random.default_rng(0)
    grid = Grid1D(12)
    lap = assemble_laplacian(grid, 1.0)
    assert np.array_equal(resolvent_solve(lap, 0.1, np.zeros(12)), np.zeros(12))
    rhs = rng.standard_normal(12)
    out = resolvent_solve(zero_operator(12), 0.1, rhs)
    assert np.max(np.abs(out - rhs)) <= 1e-14


def test_resolvent_eigenvector_closed_form():
    grid = Grid1D(31)
    lap = assemble_laplacian(grid, 1.0)
    h = 0.01
    for k in (1, 7, 31):
        s = dirichlet_sine(grid, k)
        x = resolvent_solve(lap, h, s)
        want = s / (1.0 + h * mu_k(grid, k))
        assert np.max(np.abs(x - want)) <= 1e-12
        dense = np.linalg.solve(np.eye(31) + h * lap.to_dense(), s)
        assert np.max(np.abs(x - dense)) <= 1e-12


def test_resolvent_roundtrip_property():
    rng = np.random.default_rng(1)
    for _, _, bundle in all_preset_bundles(n=20):
        for op in (bundle.diffusion, bundle.damping, bundle.stiffness, bundle.coupling):
            for h in (1e-3, 0.1, 2.0):
                for _ in range(10):
                    u = rng.standard_normal(20)
                    rhs = u + h * op.apply(u)
                    back = resolvent_solve(op, h, rhs)
                    assert np.max(np.abs(back - u)) <= 1e-12 * max(1.0, np.max(np.abs(u)))


def random_monotone_operator(rng, n):
    """Custom symmetric tridiagonal operator, diagonally dominant, hence PSD."""
    off = rng.standard_normal(n - 1) * rng.uniform(0.1, 1e3)
    pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    return DiscreteOperator(pad + rng.uniform(0.0, 1.0, n), off)


def banded_resolvent_reference(op, h, rhs, eps):
    """The one-shot solveh_banded solve, refinement rule and audit included."""
    ab = np.zeros((2, op.dim))
    ab[0, 1:] = h * op.offdiag
    ab[1, :] = 1.0 + h * op.diag
    x = scipy.linalg.solveh_banded(ab, rhs)
    res = rhs - (x + h * op.apply(x))
    bn = float(np.linalg.norm(rhs))
    floor = 8.0 * eps * (1.0 + h * op.norm_bound()) * float(np.linalg.norm(x))
    if float(np.linalg.norm(res)) > max(1e-14 * bn, 0.5 * floor):
        x = x + scipy.linalg.solveh_banded(ab, res)
        res = rhs - (x + h * op.apply(x))
    if float(np.linalg.norm(res)) > 1e-13 * bn + floor:
        raise RuntimeError("audit failed")
    return x


@pytest.mark.parametrize("n", [2, 64, 1024])
@pytest.mark.parametrize("zero_floor", [False, True])
def test_factored_resolvent_matches_solveh_banded_bitwise(n, zero_floor, monkeypatch):
    # a zero representation floor forces the refinement pass and exercises
    # the audit; with the real floor these well-conditioned solves never refine
    import thermowave.operators as operators
    eps = np.finfo(float).eps
    if zero_floor:
        monkeypatch.setattr(operators, "_EPS", 0.0)
        eps = 0.0
    rng = np.random.default_rng(n)
    for _ in range(5):
        op = random_monotone_operator(rng, n)
        for h in (1e-4, 0.1, 10.0):
            resolvent = Resolvent(op, h)
            for _ in range(3):  # one factor, several right-hand sides
                rhs = rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
                try:
                    want = banded_resolvent_reference(op, h, rhs, eps)
                except RuntimeError:
                    with pytest.raises(RuntimeError):
                        resolvent.solve(rhs)
                    continue
                assert np.array_equal(resolvent.solve(rhs), want)
                assert np.array_equal(resolvent_solve(op, h, rhs), want)


def test_resolvent_rejects_bad_step():
    lap = assemble_laplacian(Grid1D(8), 1.0)
    for h in (0.0, -1.0):
        with pytest.raises(ValueError):
            Resolvent(lap, h)


def test_resolvent_dimension_mismatch():
    lap = assemble_laplacian(Grid1D(8), 1.0)
    with pytest.raises(ValueError):
        resolvent_solve(lap, 0.1, np.zeros(9))


def test_norms_zero():
    grid = Grid1D(10)
    z = np.zeros(10)
    assert h_norm(grid, z) == 0.0
    assert v_norm(grid, z) == 0.0


def test_vnorm_eigenvector_identity():
    grid = Grid1D(40)
    for k in (1, 5, 33):
        s = dirichlet_sine(grid, k)
        lhs = v_norm_sq(grid, s)
        rhs = h_inner(grid, s, s) * (1.0 + mu_k(grid, k))
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_vnorm_neumann_constant():
    grid = Grid1D(16, bc="neumann")
    u = np.ones(16)
    assert abs(v_norm(grid, u) - 1.0) <= 1e-14
    assert abs(h_norm(grid, u) - 1.0) <= 1e-14


def test_summation_by_parts():
    rng = np.random.default_rng(2)
    grid = Grid1D(25)
    lap = assemble_laplacian(grid, 1.0)
    for _ in range(50):
        u = rng.standard_normal(25)
        w = rng.standard_normal(25)
        lhs = h_inner(grid, lap.apply(u), w)
        rhs = gradient_inner(grid, u, w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs)) * lap.norm_bound() ** 0.5


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(bc=st.sampled_from(["dirichlet", "neumann"]), n=st.integers(2, 600),
       m=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
def test_forms_on_a_stack_equal_the_vector_calls_per_row(bc, n, m, seed, scale):
    grid = Grid1D(n, bc)
    u, w = scale * np.random.default_rng(seed).standard_normal((2, m, n))
    nl = cubic_nonlinearity(2.0)
    forms = [(h_inner, (u, w)), (gradient_inner, (u, w)), (v_norm_sq, (u,)),
             (lambda g, r: potential_total(nl, g, r), (u,))]
    for form, args in forms:
        stacked = form(grid, *args)
        assert stacked.shape == (m,)
        assert np.array_equal(stacked, [form(grid, *(a[i] for a in args)) for i in range(m)])
        for k in range(len(args)):  # a last axis of the wrong length, in any argument
            bad = [a[..., :-1] if j == k else a for j, a in enumerate(args)]
            with pytest.raises(ValueError):
                form(grid, *bad)


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-308, np.inf, -np.inf, np.nan, 1e308, -1e308,
               1.5)


def _np_diff_gradient_inner(grid, u, w):
    """The Dirichlet form as it was written with ``np.diff``'s padding."""
    pad = {"prepend": 0.0, "append": 0.0} if grid.bc == "dirichlet" else {}
    return (np.diff(u, **pad) * np.diff(w, **pad)).sum(axis=-1) / grid.dx


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_gradient_inner_has_the_bytes_of_the_np_diff_form_on_edge_values(bc):
    # every ordered triple of edge values as a 3-point row, and its rows
    # reversed as a second argument: stacked, one vector at a time, and as
    # an (11, 121, 3) stack
    grid = Grid1D(3, bc)
    u = np.array(list(product(EDGE_VALUES, repeat=3)))
    w = u[::-1].copy()
    with np.errstate(all="ignore"):
        assert _ghost_diff(u).tobytes() == np.diff(u, prepend=0.0, append=0.0).tobytes()
        for a, b in ((u, w), (u, u), (u.reshape(11, -1, 3), w.reshape(11, -1, 3))):
            assert gradient_inner(grid, a, b).tobytes() == \
                _np_diff_gradient_inner(grid, a, b).tobytes()
            assert v_norm_sq(grid, a).tobytes() == \
                (h_inner(grid, a, a) + _np_diff_gradient_inner(grid, a, a)).tobytes()
        for row_u, row_w in zip(u, w):
            assert _ghost_diff(row_u).tobytes() == \
                np.diff(row_u, prepend=0.0, append=0.0).tobytes()
            assert gradient_inner(grid, row_u, row_w).tobytes() == \
                _np_diff_gradient_inner(grid, row_u, row_w).tobytes()


def test_bundle_p1_shares_operators():
    bundle = preset_bundle("P1", n=16, sigma=1.0, c=1.0, gamma=2.0)
    assert np.array_equal(bundle.coupling.diag, bundle.stiffness.diag)
    assert np.array_equal(bundle.coupling.diag, bundle.diffusion.diag)
    assert bundle.eta == 1.0
    assert bundle.damping.is_zero


def test_bundle_p4_identity_coupling():
    bundle = preset_bundle("P4", n=16)
    assert bundle.coupling.kind == "identity"
    assert np.array_equal(bundle.coupling.diag, np.ones(16))
    assert bundle.eta == 1.0


def test_bundle_p3_zero_epsilon_degenerates():
    bundle = preset_bundle("P3", n=16, epsilon=0.0)
    assert bundle.damping.is_zero


def test_preset_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ProblemPreset("P1", gamma=1.0)
    with pytest.raises(ValueError):
        ProblemPreset("P2", sigma=0.0)
    with pytest.raises(ValueError):
        ProblemPreset("P2", c=-1.0)
    with pytest.raises(ValueError):
        ProblemPreset("P3", epsilon=-0.5)
    with pytest.raises(ValueError):
        ProblemPreset("P6")


def test_bundle_structural_audits():
    for name, bc, bundle in all_preset_bundles(n=24):
        audit = audit_bundle(bundle, n_samples=100, seed=3)
        assert audit["cross_symmetry"] <= 1e-12, (name, bc)
        assert audit["positivity_damping_stiffness"] >= -1e-12, (name, bc)
        assert audit["positivity_coupling_diffusion"] >= -1e-12, (name, bc)
        assert audit["relative_bound_slack"] <= 1e-9, (name, bc)
        assert audit["mass_coercivity_slack"] >= -1e-12, (name, bc)


def test_bundle_audit_matches_the_loop_over_probe_pairs():
    # reference: a loop that draws one (w, z) pair per probe and uses one-vector forms
    def loop_audit(bundle, n_samples, seed):
        rng = np.random.default_rng(seed)
        grid, n = bundle.grid, bundle.grid.n_interior
        b1, a2, b2, a1 = bundle.damping, bundle.stiffness, bundle.coupling, bundle.diffusion
        s12 = max(b1.norm_bound(), 1.0) * max(a2.norm_bound(), 1.0)
        s21 = max(b2.norm_bound(), 1.0) * max(a1.norm_bound(), 1.0)
        out = [0.0, math.inf, math.inf, -math.inf]
        for _ in range(n_samples):
            w, z = rng.standard_normal(n), rng.standard_normal(n)
            nw, nz = h_norm(grid, w), h_norm(grid, z)
            asym = h_inner(grid, b1.apply(w), a2.apply(z)) - h_inner(grid, b1.apply(z), a2.apply(w))
            out[0] = max(out[0], abs(asym) / (nw * nz * s12))
            out[1] = min(out[1], h_inner(grid, b1.apply(w), a2.apply(w)) / (nw * nw * s12))
            out[2] = min(out[2], h_inner(grid, b2.apply(w), a1.apply(w)) / (nw * nw * s21))
            out[3] = max(out[3], h_norm(grid, b2.apply(w))
                         - bundle.coupling_bound * (h_norm(grid, a1.apply(w)) + nw))
        return out

    keys = ("cross_symmetry", "positivity_damping_stiffness",
            "positivity_coupling_diffusion", "relative_bound_slack")
    for name, bc, bundle in all_preset_bundles(n=24):
        audit = audit_bundle(bundle, n_samples=0)
        assert [audit[k] for k in keys] == [0.0, math.inf, math.inf, -math.inf]
        audit = audit_bundle(bundle, n_samples=40, seed=3)
        # the sums run in another order: equal up to rounding of unit-scale figures
        for key, want in zip(keys, loop_audit(bundle, 40, 3)):
            assert abs(audit[key] - want) <= 64 * np.finfo(float).eps * max(1.0, abs(want)), (
                name, bc, key)


def test_coupling_bound_p1_matches_dense_svd():
    for sigma, c in ((1.0, 1.0), (2.0, 1.5)):
        bundle = preset_bundle("P1", n=16, sigma=sigma, c=c, gamma=2.0)
        n = 16
        dense = bundle.coupling.to_dense() @ np.linalg.inv(
            np.eye(n) + bundle.diffusion.to_dense())
        svd = np.linalg.svd(dense, compute_uv=False)[0]
        assert abs(bundle.coupling_bound - svd) <= 1e-8 * svd
        assert bundle.coupling_bound <= c * c / sigma + 1e-10


def test_coupling_bound_custom_operators_match_dense_svd():
    # custom kinds have no modal symbol: the bound comes from Lanczos on
    # the composed normal operator, with one resolvent factor for all solves
    rng = np.random.default_rng(5)
    n = 32
    for _ in range(3):
        coupling = random_monotone_operator(rng, n)
        diffusion = random_monotone_operator(rng, n)
        dense = coupling.to_dense() @ np.linalg.inv(np.eye(n) + diffusion.to_dense())
        svd = np.linalg.svd(dense, compute_uv=False)[0]
        assert abs(coupling_relative_bound(coupling, diffusion) - svd) <= 1e-10 * svd


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_tagged_coupling_bound_is_the_closed_form_symbol_ratio(n):
    for name, bc, bundle in all_preset_bundles(n=n):
        mu = laplacian_eigenvalues(bundle.grid)
        ratio = np.abs(bundle.coupling.symbol(mu)) / (1.0 + bundle.diffusion.symbol(mu))
        assert bundle.coupling_bound == float(np.max(ratio)), (name, bc)
        if n <= 256:
            dense = bundle.coupling.to_dense() @ np.linalg.inv(
                np.eye(n) + bundle.diffusion.to_dense())
            svd = np.linalg.svd(dense, compute_uv=False)[0]
            assert abs(bundle.coupling_bound - svd) <= 1e-8 * svd, (name, bc)


def test_laplacian_tag_on_bands_of_no_grid_takes_the_lanczos_bound():
    n = 16
    diag, off = np.full(n, 3.0), np.full(n - 1, -1.0)
    tagged = DiscreteOperator(diag, off, "laplacian", 1.0)
    diffusion = assemble_laplacian(Grid1D(n), 1.0)
    bound = coupling_relative_bound(tagged, diffusion)
    assert bound == coupling_relative_bound(DiscreteOperator(diag, off), diffusion)
    dense = tagged.to_dense() @ np.linalg.inv(np.eye(n) + diffusion.to_dense())
    svd = np.linalg.svd(dense, compute_uv=False)[0]
    assert abs(bound - svd) <= 1e-10 * svd


def test_coupling_bound_p4_below_one():
    bundle = preset_bundle("P4", n=16)
    assert 0.0 < bundle.coupling_bound <= 1.0


def test_coupling_bound_zero_coupling():
    grid = Grid1D(8)
    assert coupling_relative_bound(zero_operator(8), assemble_laplacian(grid, 1.0)) == 0.0


def test_solvability_threshold_formula():
    want = np.sqrt(0.625) - 0.25
    got = solvability_threshold(1.0, 0.0, 1.0, 1.0)
    assert abs(got - want) <= 1e-12


def test_threshold_shrinks_with_lipschitz_constant():
    bundle = preset_bundle("P2", n=16)
    thresholds = [bundle.h_threshold(c) for c in (0.0, 0.5, 2.0, 10.0)]
    assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] > 0.0


def test_operators_are_immutable():
    op = assemble_laplacian(Grid1D(8), 1.0)
    with pytest.raises(ValueError):
        op.diag[0] = 5.0


def test_smoothed_beta_compatible_with_elliptic_operators():
    # pointwise monotone maps stay nonnegative against the second-difference
    # operators (M-matrix structure), smoothed or not; checked per preset
    from thermowave import cubic_nonlinearity
    nl = cubic_nonlinearity(1.0)
    rng = np.random.default_rng(12)
    for _, _, bundle in all_preset_bundles(n=20):
        grid = bundle.grid
        for lam in (1e-6, 1e-2, 1.0):
            for _ in range(25):
                w = rng.standard_normal(20) * 2
                smoothed = nl.yosida(lam, w)
                assert h_inner(grid, smoothed, bundle.stiffness.apply(w)) >= -1e-12
                assert h_inner(grid, smoothed, bundle.damping.apply(w)) >= -1e-12
                assert h_inner(grid, nl.beta(w), bundle.stiffness.apply(w)) >= -1e-12


# ----------------------------------------------------------------------
# The unchecked product kernels and resolvent solve, and ``applies_as``

def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def operator_of(kind, n, coeff, rng):
    if kind == "zero":
        return zero_operator(n)
    if kind == "identity":
        return identity_operator(n, coeff)
    if kind == "laplacian":
        return assemble_laplacian(Grid1D(n, rng.choice(["dirichlet", "neumann"])), abs(coeff))
    return DiscreteOperator(rng.standard_normal(n) * coeff, rng.standard_normal(n - 1) * coeff)


KINDS = ("zero", "identity", "laplacian", "custom")


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 40), m=st.none() | st.integers(1, 6),
       coeff=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_product_kernel_has_the_bits_of_apply(kind, n, m, coeff, seed):
    rng = np.random.default_rng(seed)
    op = operator_of(kind, n, coeff, rng)
    u = rng.standard_normal((n,) if m is None else (m, n)) * rng.uniform(1e-3, 1e3)
    if kind in ("zero", "identity"):
        want = op.coeff * u
    else:
        want = op.diag * u
        want[..., :-1] += op.offdiag * u[..., 1:]
        want[..., 1:] += op.offdiag * u[..., :-1]
    assert np.array_equal(bits(op._product(u)), bits(want))
    assert np.array_equal(bits(op.apply(u)), bits(want))
    assert np.array_equal(bits(op.apply(u.tolist())), bits(want))
    for bad in (u[..., :-1], np.zeros(n + 1), np.zeros((n, n + 1)), 1.0):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.apply(bad)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 200), h=st.sampled_from([1e-4, 0.1, 10.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_unchecked_resolvent_solve_returns_the_x_of_solve_with_its_audit_products(n, h, seed):
    rng = np.random.default_rng(seed)
    op = random_monotone_operator(rng, n)
    checked, unchecked = Resolvent(op, h), Resolvent(op, h)
    for _ in range(3):
        rhs = rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
        x = checked.solve(rhs.tolist())
        got, ax, misfit = unchecked._solve(rhs)
        assert np.array_equal(bits(got), bits(x))
        assert np.array_equal(bits(ax), bits(op.apply(x)))
        assert np.array_equal(bits(misfit), bits(rhs - (x + h * op.apply(x))))
    for bad in (rhs[:-1], np.zeros(n + 1), np.zeros((1, n)), 1.0):
        with pytest.raises(ValueError, match="dimension mismatch"):
            checked.solve(bad)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 60), h=st.sampled_from([1e-4, 0.1, 10.0]),
       calls=st.lists(st.sampled_from(["solve", "_solve", "non-finite", "mismatch"]),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solves_leave_the_resolvent_unchanged(n, h, calls, seed):
    # a resolvent holds no per-call state, so one can serve concurrent runs
    rng = np.random.default_rng(seed)
    resolvent = Resolvent(random_monotone_operator(rng, n), h)
    objects = (resolvent, resolvent.op, resolvent.shifted)

    def snapshot():
        return [{name: (value, value.tobytes() if isinstance(value, np.ndarray) else None)
                 for name, value in vars(obj).items()} for obj in objects]

    before = snapshot()
    for call in calls:
        rhs = rng.standard_normal(n)
        if call == "non-finite":
            rhs[rng.integers(n)] = np.nan
            with pytest.raises(ResolventAuditError):
                resolvent._solve(rhs)
        elif call == "mismatch":
            with pytest.raises(ValueError, match="dimension mismatch"):
                resolvent.solve(rhs[:-1])
        else:
            getattr(resolvent, call)(rhs)
    for want, got in zip(before, snapshot()):
        assert got.keys() == want.keys()
        for name, (value, data) in want.items():
            assert got[name][0] is value and got[name][1] == data, name


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), n=st.integers(2, 30),
       coeffs=st.tuples(st.sampled_from([0.5, 2.0]), st.sampled_from([0.5, 2.0])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_applies_as_holds_for_one_kernel_on_equal_bands(kinds, n, coeffs, seed):
    # the custom operator takes the Laplacian's bands half the time, so
    # equal bands under different kind tags come up
    rng = np.random.default_rng(seed)
    ops = [operator_of(kind, n, coeff, np.random.default_rng(seed))
           for kind, coeff in zip(kinds, coeffs)]
    for i, kind in enumerate(kinds):
        if kind == "custom" and rng.random() < 0.5:
            lap = operator_of("laplacian", n, coeffs[i], np.random.default_rng(seed))
            ops[i] = DiscreteOperator(lap.diag, lap.offdiag)
    a, b = ops
    scaled = [kind in ("zero", "identity") for kind in kinds]
    if scaled[0] != scaled[1]:
        want = False
    elif scaled[0]:
        want = a.coeff == b.coeff
    else:
        want = np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)
    assert a.applies_as(b) == b.applies_as(a) == want
    if want:
        u = rng.standard_normal((3, n))
        assert np.array_equal(bits(a._product(u)), bits(b._product(u)))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "P5"])
@pytest.mark.parametrize("sigma, c", [(1.0, 1.0), (4.0, 2.0), (0.01, 0.1), (0.5, 2.0),
                                      (1.0, 2.0), (2.0, 1.0)])
def test_coupling_applies_as_diffusion_for_p1_to_p3_at_sigma_c_squared(name, bc, sigma, c):
    bundle = preset_bundle(name, n=24, bc=bc, sigma=sigma, c=c)
    want = name in ("P1", "P2", "P3") and sigma == c * c
    assert bundle.coupling.applies_as(bundle.diffusion) == want


def test_applies_as_tells_signed_zero_coefficients_apart():
    # -0.0 == 0.0, but the two products differ in the sign of their zeros
    negative, zero = identity_operator(4, -0.0), zero_operator(4)
    u = np.array([-1.0, 1.0, 0.0, 2.0])
    assert not np.array_equal(bits(negative.apply(u)), bits(zero.apply(u)))
    assert not negative.applies_as(zero)
    assert zero.applies_as(zero_operator(4)) and negative.applies_as(identity_operator(4, -0.0))
