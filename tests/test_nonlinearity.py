import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thermowave import (Grid1D, Nonlinearity, cubic_nonlinearity,
                        potential_total, zero_nonlinearity)


def test_cubic_closed_forms():
    nl = cubic_nonlinearity(1.0)
    assert nl.beta(2.0) == 8.0
    assert nl.beta_prime(2.0) == 12.0
    assert nl.beta_potential(2.0) == 4.0


def test_zero_beta():
    nl = zero_nonlinearity()
    for r in (-3.0, 0.0, 1.7):
        assert nl.beta(r) == 0.0
        assert nl.beta_prime(r) == 0.0
        assert nl.beta_potential(r) == 0.0


def test_odd_polynomial():
    nl = Nonlinearity(beta_kind="odd_poly", beta_coeffs=(1.0, 0.0, 1.0))
    assert nl.beta(1.0) == 2.0
    assert nl.beta_potential(1.0) == 0.75
    assert nl.beta_prime(1.0) == 4.0


def test_spec_validation():
    with pytest.raises(ValueError):
        Nonlinearity(beta_kind="cubic", beta_coeffs=(-1.0,))
    with pytest.raises(ValueError):
        Nonlinearity(beta_kind="odd_poly", beta_coeffs=(1.0, 0.5))
    with pytest.raises(ValueError):
        Nonlinearity(beta_kind="odd_poly", beta_coeffs=(-1.0,))
    with pytest.raises(ValueError):
        Nonlinearity(beta_kind="quartic")
    with pytest.raises(ValueError):
        Nonlinearity(pi_kind="tanh")


@pytest.mark.parametrize("kwargs, param", [
    ({"beta_kind": "cubic", "beta_coeffs": (float("nan"),)}, "beta_coeffs"),
    ({"beta_kind": "odd_poly", "beta_coeffs": (1.0, 0.0, float("inf"))}, "beta_coeffs"),
    ({"pi_kind": "linear", "pi_param": float("nan")}, "pi_param"),
    ({"pi_kind": "scaled_sine", "pi_param": -float("inf")}, "pi_param"),
])
def test_spec_rejects_non_finite_parameters(kwargs, param):
    with pytest.raises(ValueError, match=f"^{param} must be finite"):
        Nonlinearity(**kwargs)


def test_pi_catalog():
    lin = Nonlinearity(pi_kind="linear", pi_param=-4.0)
    assert lin.pi(0.5) == -2.0
    assert lin.lipschitz_const == 4.0
    sine = Nonlinearity(pi_kind="scaled_sine", pi_param=0.7)
    assert abs(sine.pi(1.0) - 0.7 * np.sin(1.0)) <= 1e-15
    assert sine.lipschitz_const == 0.7
    rng = np.random.default_rng(0)
    r = rng.standard_normal(200) * 3
    rp = rng.standard_normal(200) * 3
    for nl in (lin, sine):
        gap = np.abs(nl.pi(r) - nl.pi(rp))
        assert np.all(gap <= nl.lipschitz_const * np.abs(r - rp) + 1e-12)


def test_yosida_fixes_origin():
    for nl in (cubic_nonlinearity(2.0),
               Nonlinearity(beta_kind="odd_poly", beta_coeffs=(1.0, 0.0, 0.5))):
        for lam in (1e-8, 1e-3, 1.0):
            assert nl.yosida(lam, 0.0) == 0.0


def test_yosida_zero_beta_is_zero():
    nl = zero_nonlinearity()
    r = np.linspace(-5, 5, 11)
    assert np.max(np.abs(nl.yosida(1e-3, r))) == 0.0


def test_yosida_small_lambda_limit():
    nl = cubic_nonlinearity(1.0)
    val = nl.yosida(1e-6, 2.0)
    assert abs(val - 8.0) <= 1e-4


def test_yosida_contraction():
    nl = cubic_nonlinearity(1.0)
    rng = np.random.default_rng(1)
    for lam in (1e-3, 0.1, 1.0):
        r = rng.standard_normal(100) * 4
        rp = rng.standard_normal(100) * 4
        gap = np.abs(nl.yosida(lam, r) - nl.yosida(lam, rp))
        assert np.all(gap <= (1.0 / lam) * np.abs(r - rp) * (1 + 1e-12) + 1e-12)


def test_yosida_under_approximates_beta():
    nl = cubic_nonlinearity(1.5)
    r = np.linspace(-4, 4, 101)
    for lam in (1e-4, 0.05, 2.0):
        y = nl.yosida(lam, r)
        assert np.all(y * r >= -1e-14)
        assert np.all(np.abs(y) <= np.abs(nl.beta(r)) + 1e-12)


def test_yosida_monotone_in_argument():
    nl = Nonlinearity(beta_kind="odd_poly", beta_coeffs=(0.5, 0.0, 0.0, 0.0, 1.0))
    r = np.linspace(-3, 3, 201)
    for lam in (1e-3, 0.3):
        y = nl.yosida(lam, r)
        assert np.all(np.diff(y) >= -1e-12)


def test_yosida_residual_tolerance():
    nl = cubic_nonlinearity(3.0)
    rng = np.random.default_rng(2)
    r = rng.standard_normal(500) * 10
    for lam in (1e-6, 1e-2, 5.0):
        s = nl.smoothing_resolvent(lam, r)
        resid = np.abs(s + lam * nl.beta(s) - r)
        assert np.all(resid <= 1e-14 * (1.0 + np.abs(r)))


def test_potential_total_zero():
    grid = Grid1D(16)
    assert potential_total(cubic_nonlinearity(1.0), grid, np.zeros(16)) == 0.0


def test_potential_total_constant_one():
    grid = Grid1D(63)
    val = potential_total(cubic_nonlinearity(1.0), grid, np.ones(63))
    assert abs(val - 0.25) <= 0.25 * 2.0 / 63


def test_potential_midpoint_convexity():
    grid = Grid1D(20)
    rng = np.random.default_rng(3)
    nl = cubic_nonlinearity(1.0)
    for _ in range(100):
        u = rng.standard_normal(20) * 2
        w = rng.standard_normal(20) * 2
        mid = potential_total(nl, grid, 0.5 * (u + w))
        avg = 0.5 * (potential_total(nl, grid, u) + potential_total(nl, grid, w))
        assert mid <= avg + 1e-12


def test_subgradient_inequality():
    grid = Grid1D(20)
    rng = np.random.default_rng(4)
    for nl in (cubic_nonlinearity(1.0),
               Nonlinearity(beta_kind="odd_poly", beta_coeffs=(1.0, 0.0, 1.0))):
        for _ in range(100):
            w = rng.standard_normal(20) * 2
            z = rng.standard_normal(20) * 2
            lhs = grid.dx * float(np.dot(nl.beta(w), w - z))
            rhs = potential_total(nl, grid, w) - potential_total(nl, grid, z)
            assert lhs >= rhs - 1e-10


def test_beta_prime_matches_finite_differences():
    rng = np.random.default_rng(5)
    for nl in (cubic_nonlinearity(2.0),
               Nonlinearity(beta_kind="odd_poly", beta_coeffs=(3.0, 0.0, 0.25))):
        r = rng.standard_normal(50) * 3
        eps = 1e-6 * np.maximum(1.0, np.abs(r))
        fd = (nl.beta(r + eps) - nl.beta(r - eps)) / (2 * eps)
        exact = nl.beta_prime(r)
        assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(1.0, np.abs(exact)))


def test_beta_potential_derivative_consistency():
    nl = Nonlinearity(beta_kind="odd_poly", beta_coeffs=(1.0, 0.0, 2.0))
    r = np.linspace(-2, 2, 41)
    eps = 1e-6
    fd = (nl.beta_potential(r + eps) - nl.beta_potential(r - eps)) / (2 * eps)
    assert np.max(np.abs(fd - nl.beta(r))) <= 1e-6 * (1 + np.max(np.abs(nl.beta(r))))


def test_potential_nonnegative():
    nl = Nonlinearity(beta_kind="odd_poly", beta_coeffs=(0.5, 0.0, 1.5))
    r = np.linspace(-5, 5, 101)
    assert np.all(nl.beta_potential(r) >= 0.0)
    assert nl.beta_potential(0.0) == 0.0


# Horner's rule started from zero, as beta, beta_prime and beta_potential
# evaluated it before they started at the highest nonzero coefficient.
def _zero_start_horner(coeffs, r):
    out = np.zeros_like(r)
    for c in reversed(coeffs):
        out = out * r + c
    return out


def _reference_beta(poly, r):
    return _zero_start_horner(poly, r) * r


def _reference_beta_prime(poly, r):
    return _zero_start_horner([(k + 1) * c for k, c in enumerate(poly)], r)


def _reference_beta_potential(poly, r):
    return _zero_start_horner([c / (k + 2) for k, c in enumerate(poly)], r) * r * r


_odd_power_coeff = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3),
                             st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]))


@st.composite
def _betas(draw):
    if draw(st.booleans()):
        return Nonlinearity("cubic", (draw(st.floats(min_value=5e-324, max_value=1e6)),))
    odd = draw(st.lists(_odd_power_coeff, min_size=1, max_size=4))
    coeffs = [c for a in odd for c in (a, 0.0)][:-1]
    return Nonlinearity("odd_poly", tuple(coeffs + [0.0] * draw(st.integers(0, 3))))


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(nl=_betas(), r=hnp.arrays(float, st.integers(0, 12), elements=_finite))
def test_beta_family_equals_the_zero_start_horner_bitwise(nl, r):
    with np.errstate(over="ignore"):
        pairs = ((nl.beta(r), _reference_beta(nl._poly, r)),
                 (nl.beta_prime(r), _reference_beta_prime(nl._poly, r)),
                 (nl.beta_potential(r), _reference_beta_potential(nl._poly, r)))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # zeros keep their sign


def test_beta_of_infinity_is_infinite():
    # the zero start computed 0 * inf = NaN here
    r = np.array([np.inf, -np.inf])
    assert np.array_equal(cubic_nonlinearity(2.0).beta(r), r)
