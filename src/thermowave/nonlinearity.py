"""Pointwise nonlinearities of the wave equation.

Two slots: ``beta`` is a nondecreasing function with beta(0) = 0 and a
nonnegative convex antiderivative (the potential), ``pi`` is a Lipschitz
perturbation.  The shipped beta catalog (zero, cubic, monotone odd
polynomials) has closed-form potentials and derivatives, so every test
against them is exact.  A resolvent-based smoothing of beta backs the
regularized solve path: for lam > 0 the smoothed value at r is
beta(s) where s solves s + lam * beta(s) = r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import Grid1D, h_inner

BETA_KINDS = ("zero", "cubic", "odd_poly")
PI_KINDS = ("zero", "linear", "scaled_sine")


@dataclass(frozen=True)
class Nonlinearity:
    """Specification of the pointwise terms.

    ``beta_coeffs``: for ``cubic`` a single positive scale a (beta = a r^3);
    for ``odd_poly`` ascending-power coefficients starting at r^1, with
    even-power entries zero and odd-power entries nonnegative so the result
    is odd and nondecreasing.  ``pi_param`` is the slope of a linear pi or
    the amplitude of a scaled sine.
    """

    beta_kind: str = "zero"
    beta_coeffs: tuple = ()
    pi_kind: str = "zero"
    pi_param: float = 0.0
    _poly: tuple = field(init=False, repr=False, default=())
    _slope_poly: tuple = field(init=False, repr=False, default=())  # beta_prime's

    def __post_init__(self):
        if self.beta_kind not in BETA_KINDS:
            raise ValueError(f"beta_kind must be one of {BETA_KINDS}, got {self.beta_kind!r}")
        if self.pi_kind not in PI_KINDS:
            raise ValueError(f"pi_kind must be one of {PI_KINDS}, got {self.pi_kind!r}")
        for name, values in (("beta_coeffs", self.beta_coeffs), ("pi_param", self.pi_param)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if self.beta_kind == "zero":
            poly = ()
            if self.beta_coeffs:
                raise ValueError("beta_coeffs must be empty for a zero beta")
        elif self.beta_kind == "cubic":
            if len(self.beta_coeffs) != 1 or self.beta_coeffs[0] <= 0:
                raise ValueError("beta_coeffs must be a single positive scale for a cubic beta")
            poly = (0.0, 0.0, float(self.beta_coeffs[0]))
        else:
            if not self.beta_coeffs:
                raise ValueError("beta_coeffs must not be empty for an odd_poly beta")
            poly = tuple(float(c) for c in self.beta_coeffs)  # powers r^1, r^2, ...
            if any(c != 0.0 for c in poly[1::2]):
                raise ValueError("beta_coeffs must vanish at even powers for an odd beta")
            if any(c < 0.0 for c in poly[::2]):
                raise ValueError("beta_coeffs must be nonnegative at odd powers for monotonicity")
        object.__setattr__(self, "_poly", poly)
        object.__setattr__(self, "_slope_poly", tuple((k + 1) * c for k, c in enumerate(poly)))

    # -- beta -----------------------------------------------------------

    def beta(self, r):
        # beta = r * (c1 + r*(c2 + ...)) on powers r^1..r^d
        out = _horner(self._poly, r)
        out *= r
        return out

    def beta_prime(self, r):
        return _horner(self._slope_poly, r)

    def beta_potential(self, r):
        out = _horner([c / (k + 2) for k, c in enumerate(self._poly)], r)
        out *= r
        out *= r
        return out

    @property
    def has_beta(self) -> bool:
        return any(c != 0.0 for c in self._poly)

    # -- pi --------------------------------------------------------------

    def pi(self, r):
        r = np.asarray(r, dtype=float)
        if self.pi_kind == "zero":
            return np.zeros_like(r)
        if self.pi_kind == "linear":
            return self.pi_param * r
        return self.pi_param * np.sin(r)

    def pi_prime(self, r):
        r = np.asarray(r, dtype=float)
        if self.pi_kind == "zero":
            return np.zeros_like(r)
        if self.pi_kind == "linear":
            return np.full_like(r, self.pi_param)
        return self.pi_param * np.cos(r)

    @property
    def lipschitz_const(self) -> float:
        if self.pi_kind == "zero":
            return 0.0
        return abs(self.pi_param)

    @property
    def is_linear(self) -> bool:
        """True when the stepping problem is linear (no beta, affine pi)."""
        return (not self.has_beta) and self.pi_kind in ("zero", "linear")

    @property
    def pi_slope(self) -> float:
        if self.pi_kind == "zero":
            return 0.0
        if self.pi_kind == "linear":
            return self.pi_param
        raise ValueError("pi has no global slope")

    # -- resolvent smoothing ----------------------------------------------

    def smoothing_resolvent(self, lam: float, r):
        """Solve s + lam * beta(s) = r componentwise (safeguarded Newton)."""
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        r = np.asarray(r, dtype=float)
        if not self.has_beta:
            return r.copy()
        lo = np.minimum(0.0, r)
        hi = np.maximum(0.0, r)
        s = r / (1.0 + lam * self.beta_prime(r))
        tol = 1e-14 * (1.0 + np.abs(r))
        for _ in range(200):
            f = s + lam * self.beta(s) - r
            done = np.abs(f) <= tol
            if done.all():
                return s
            hi = np.where(f > 0, s, hi)
            lo = np.where(f < 0, s, lo)
            step = f / (1.0 + lam * self.beta_prime(s))
            cand = s - step
            bad = (cand <= lo) | (cand >= hi)
            cand = np.where(bad & ~done, 0.5 * (lo + hi), cand)
            s = np.where(done, s, cand)
        raise RuntimeError("smoothing resolvent did not converge; beta violates monotonicity")

    def yosida(self, lam: float, r):
        """Smoothed beta: (r - s)/lam evaluated stably as beta(s)."""
        if not self.has_beta:
            return np.zeros_like(np.asarray(r, dtype=float))
        s = self.smoothing_resolvent(lam, r)
        return self.beta(s)

    def yosida_prime(self, lam: float, r):
        if not self.has_beta:
            return np.zeros_like(np.asarray(r, dtype=float))
        s = self.smoothing_resolvent(lam, r)
        bp = self.beta_prime(s)
        return bp / (1.0 + lam * bp)


def _horner(coeffs, r):
    """sum_k coeffs[k] r^k by Horner's rule, updated in place.

    It starts at the highest nonzero coefficient c as c * r: from zero the
    rule would pass (0 * r + c) * r, the same bits for finite r.  Every
    later coefficient is added, zeros included, as the rule from zero does.
    """
    r = np.asarray(r, dtype=float)
    top = len(coeffs) - 1
    while top >= 0 and coeffs[top] == 0.0:
        top -= 1
    if top <= 0:
        return np.full_like(r, coeffs[0] if top == 0 else 0.0)
    out = coeffs[top] * r
    for c in coeffs[top - 1:0:-1]:
        out += c
        out *= r
    out += coeffs[0]
    return out


def potential_total(nonlin: Nonlinearity, grid: Grid1D, u: np.ndarray):
    """Quadrature of the convex potential of beta over the grid, its grid
    inner product with 1: one value for a vector or per row of a stack."""
    return h_inner(grid, nonlin.beta_potential(u), np.ones(grid.n_interior))


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity()


def cubic_nonlinearity(scale: float = 1.0, pi_kind: str = "zero",
                       pi_param: float = 0.0) -> Nonlinearity:
    return Nonlinearity(beta_kind="cubic", beta_coeffs=(scale,),
                        pi_kind=pi_kind, pi_param=pi_param)


def linear_reaction(slope: float) -> Nonlinearity:
    """No beta; pi(r) = slope * r (the -m^2 term of the linear preset)."""
    if slope == 0.0:
        return Nonlinearity()
    return Nonlinearity(pi_kind="linear", pi_param=slope)
