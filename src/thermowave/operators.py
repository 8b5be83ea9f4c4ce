"""Grids, tridiagonal elliptic operators, and the operator bundles of the
coupled heat/wave system.

Everything here lives on a uniform 1-D grid over the unit interval.  The
continuous model couples a heat equation for a temperature ``theta`` with a
(possibly damped) wave equation for a potential ``phi``:

    theta' + eta * phi' + diffusion(theta) = 0
    mass(phi'') + damping(phi') + stiffness(phi) + beta(phi) + pi(phi)
        = coupling(theta)

All five operator slots are realized as symmetric tridiagonal matrices
(scaled identities or scaled second-difference Laplacians for the packaged
presets).  Operators and bundles are immutable after assembly and safe to
share between concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._lapack import _check_lapack_info, pttrf as _PTTRF, pttrs as _PTTRS, tridiagonal_eigvals

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BC_NAMES = (DIRICHLET, NEUMANN)

ZERO = "zero"
IDENTITY = "identity"
LAPLACIAN = "laplacian"
CUSTOM = "custom"

_SCALED = (IDENTITY, ZERO)  # the kinds whose product is one multiply by coeff
_EPS = float(np.finfo(float).eps)

PRESET_NAMES = ("P1", "P2", "P3", "P4", "P5")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, 1) holding ``n_interior`` unknowns per field.

    Dirichlet grids use the interior nodes x_i = i*dx with dx = 1/(n+1)
    (ghost zeros on the boundary); Neumann grids are cell-centered,
    x_i = (i - 1/2)*dx with dx = 1/n (zero-flux one-sided stencils).
    """

    n_interior: int
    bc: str = DIRICHLET

    def __post_init__(self):
        if int(self.n_interior) != self.n_interior or self.n_interior < 2:
            raise ValueError(f"n_interior must be an integer >= 2, got {self.n_interior}")
        if self.bc not in BC_NAMES:
            raise ValueError(f"bc must be one of {BC_NAMES}, got {self.bc!r}")

    @cached_property
    def dx(self) -> float:
        if self.bc == DIRICHLET:
            return 1.0 / (self.n_interior + 1)
        return 1.0 / self.n_interior

    @property
    def x(self) -> np.ndarray:
        i = np.arange(1, self.n_interior + 1, dtype=float)
        if self.bc == DIRICHLET:
            return i * self.dx
        return (i - 0.5) * self.dx


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal operator (only one off-diagonal is stored).

    ``kind`` tags the algebraic family: scaled identity and scaled
    Laplacian operators know their action on Laplacian eigenvectors
    (``symbol``), which the modal reference paths rely on.  ``custom``
    operators support everything else.  A scaled identity or zero operator
    applies as one multiply by ``coeff``, so its bands must match its tag.
    ``_product`` is the one product kernel, unchecked: ``apply`` calls it
    after its check, and a ``StepPlan`` binds it.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    kind: str = CUSTOM
    coeff: float = 0.0

    def __post_init__(self):
        d = np.ascontiguousarray(self.diag, dtype=float)
        o = np.ascontiguousarray(self.offdiag, dtype=float)
        if d.ndim != 1 or d.size < 2:
            raise ValueError("diag must be a vector of length >= 2")
        if o.shape != (d.size - 1,):
            raise ValueError("offdiag must have length dim - 1")
        if self.kind == IDENTITY and (np.any(o != 0.0) or np.any(d != self.coeff)):
            raise ValueError("identity operator needs offdiag == 0 and diag == coeff")
        if self.kind == ZERO and (np.any(o != 0.0) or np.any(d != 0.0) or self.coeff != 0.0):
            raise ValueError("zero operator needs zero bands and coeff == 0")
        d.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", o)

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply to a vector, or to every row of a (..., dim) stack: the
        input checked, then the product kernel ``_product``."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != self.diag.shape:
            raise ValueError(f"dimension mismatch: operator dim {self.dim}, vector shape {u.shape}")
        return self._product(u)

    @property
    def _product(self):
        return self._scaled if self.kind in _SCALED else self._banded

    def _scaled(self, u):
        return self.coeff * u

    def _banded(self, u):
        y = self.diag * u
        y[..., :-1] += self.offdiag * u[..., 1:]
        y[..., 1:] += self.offdiag * u[..., :-1]
        return y

    def applies_as(self, other: DiscreteOperator) -> bool:
        """Whether this operator's product has ``other``'s bits on every
        input: both kernels are ``_scaled`` with one ``coeff``, or both are
        ``_banded`` with the same bands, bit for bit."""
        if (self.kind in _SCALED) != (other.kind in _SCALED):
            return False
        if self.kind in _SCALED:
            return np.float64(self.coeff).tobytes() == np.float64(other.coeff).tobytes()
        return (self.diag.tobytes() == other.diag.tobytes()
                and self.offdiag.tobytes() == other.offdiag.tobytes())

    def symbol(self, mu):
        """Action on a Laplacian eigenvector with eigenvalue ``mu``."""
        if self.kind == ZERO:
            return np.zeros_like(np.asarray(mu, dtype=float))
        if self.kind == IDENTITY:
            return np.full_like(np.asarray(mu, dtype=float), self.coeff)
        if self.kind == LAPLACIAN:
            return self.coeff * np.asarray(mu, dtype=float)
        raise ValueError("custom operators have no modal symbol")

    def to_dense(self) -> np.ndarray:
        return (np.diag(self.diag)
                + np.diag(self.offdiag, 1)
                + np.diag(self.offdiag, -1))

    def min_eigenvalue(self) -> float:
        return float(tridiagonal_eigvals(self.diag, self.offdiag, lowest=True)[0])

    def norm_bound(self) -> float:
        """Infinity-norm bound, used to scale audit tolerances."""
        return float(np.max(np.abs(self.diag)) + 2.0 * (np.max(np.abs(self.offdiag)) if self.dim > 1 else 0.0))


def zero_operator(n: int) -> DiscreteOperator:
    return DiscreteOperator(np.zeros(n), np.zeros(n - 1), ZERO, 0.0)


def identity_operator(n: int, coeff: float = 1.0) -> DiscreteOperator:
    return DiscreteOperator(np.full(n, float(coeff)), np.zeros(n - 1), IDENTITY, float(coeff))


def assemble_laplacian(grid: Grid1D, coeff: float) -> DiscreteOperator:
    """Second-difference realization of -coeff * d^2/dx^2 on the grid.

    Dirichlet rows assume ghost zeros outside the interval; Neumann rows use
    the one-sided cell-centered stencil, so constants are in the kernel.
    """
    if coeff <= 0:
        raise ValueError(f"coeff must be positive, got {coeff}")
    n = grid.n_interior
    a = coeff / grid.dx ** 2
    diag = np.full(n, 2.0 * a)
    off = np.full(n - 1, -a)
    if grid.bc == NEUMANN:
        diag[0] = a
        diag[-1] = a
    return DiscreteOperator(diag, off, LAPLACIAN, float(coeff))


def _mode_numbers(grid: Grid1D) -> np.ndarray:
    """The wavenumbers k of the grid Laplacian's modes, in order: k = 1..n
    (Dirichlet), k = 0..n-1 with the constant as the zero mode (Neumann)."""
    n = grid.n_interior
    return np.arange(1, n + 1) if grid.bc == DIRICHLET else np.arange(0, n)


@lru_cache(maxsize=32)
def laplacian_eigenvalues(grid: Grid1D) -> np.ndarray:
    """Closed-form spectrum of the unit grid Laplacian, in the order of ``oracle``'s modes."""
    k = _mode_numbers(grid)
    mu = 2.0 / grid.dx ** 2 * (1.0 - np.cos(k * np.pi * grid.dx))
    mu.setflags(write=False)
    return mu


def _laplacian_grid(op: DiscreteOperator):
    """The grid whose ``assemble_laplacian(grid, op.coeff)`` has op's bands, or None."""
    grid = Grid1D(op.dim, NEUMANN if op.diag[0] == -op.offdiag[0] else DIRICHLET)
    lap = assemble_laplacian(grid, op.coeff)
    same = np.array_equal(lap.diag, op.diag) and np.array_equal(lap.offdiag, op.offdiag)
    return grid if same else None


# ----------------------------------------------------------------------
# Inner products and norms
#
# Each form takes one vector or a (..., n_interior) stack of rows and gives
# one value per row, summed along the row alone, so a row's value has the
# same bits in any stack.  A form (op u, u) is h_inner(grid, op.apply(u), u).


def _rows(grid: Grid1D, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (grid.n_interior,):
        raise ValueError(f"dimension mismatch: grid has {grid.n_interior} unknowns, "
                         f"array shape {u.shape}")
    return u


def h_inner(grid: Grid1D, u: np.ndarray, w: np.ndarray):
    """Grid inner product dx * sum(u * w), one value per row."""
    return grid.dx * (_rows(grid, u) * _rows(grid, w)).sum(axis=-1)


def h_norm(grid: Grid1D, u: np.ndarray) -> float:
    """H norm of one vector: the stepper's residual and audit norm."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValueError(f"dimension mismatch: grid has {grid.n_interior} unknowns, "
                         f"vector shape {u.shape}")
    return math.sqrt(max(grid.dx * float(np.dot(u, u)), 0.0))


def gradient_inner(grid: Grid1D, u: np.ndarray, w: np.ndarray):
    """Discrete Dirichlet form: dx * sum of (forward differences / dx)
    products, one value per row.

    Dirichlet grids include the two boundary differences against ghost
    zeros; Neumann grids use interior differences only (no boundary flux).
    """
    u, w = _rows(grid, u), _rows(grid, w)
    if grid.bc == DIRICHLET:
        du = np.diff(u, prepend=0.0, append=0.0)
        dw = du if w is u else np.diff(w, prepend=0.0, append=0.0)
    else:
        du = np.diff(u)
        dw = du if w is u else np.diff(w)
    return (du * dw).sum(axis=-1) / grid.dx


def v_norm_sq(grid: Grid1D, u: np.ndarray):
    """Squared V norm (H norm plus Dirichlet form), one value per row."""
    return h_inner(grid, u, u) + gradient_inner(grid, u, u)


def v_norm(grid: Grid1D, u: np.ndarray):
    return np.sqrt(np.maximum(v_norm_sq(grid, u), 0.0))


# ----------------------------------------------------------------------
# Resolvent solves


class PicklableError:
    """Mixin of the package's exceptions: they pickle as their type, ``args``,
    attributes and ``__cause__``, so one raised in a sweep's worker process
    arrives whole, although their ``__init__`` take other arguments than
    ``args``."""

    def __reduce__(self):
        return _rebuild_error, (type(self), self.args, vars(self), self.__cause__)


def _rebuild_error(cls, args, attributes, cause):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(attributes)
    exc.__cause__ = cause
    return exc


class ResolventAuditError(PicklableError, RuntimeError):
    """A resolvent solve missed its residual bound (non-finite data included)."""


class Resolvent:
    """(I + h*op) factored once, for any number of solves.

    ``op`` must be monotone so the shifted matrix ``shifted`` = I + h*op is
    positive definite.  Its two bands are factored by LAPACK ``pttrf``; each
    ``solve`` is one ``pttrs``, plus a refinement pass when the residual is
    above the representation floor, and a residual audit that keeps the
    result within 1e-13 * |rhs| up to that floor.  ``solveh_banded`` on the
    same two bands is ``ptsv`` = ``pttrf`` + ``pttrs``, so a solve here
    returns the same bits as a one-shot banded solve.

    ``last`` holds the latest solve's x with the products of its audit,
    ``(x, op x, rhs - (x + h op x))``, for callers that need them again; it
    makes a resolvent single-threaded.  ``solve`` checks its rhs and calls
    ``_solve``, the unchecked solve, audit included, that a ``StepPlan`` calls.
    """

    def __init__(self, op: DiscreteOperator, h: float):
        if h <= 0:
            raise ValueError(f"h must be positive, got {h}")
        self.op = op
        self.h = h
        self._product = op._product
        self.shifted = DiscreteOperator(1.0 + h * op.diag, h * op.offdiag)
        self._d, self._e, info = _PTTRF(self.shifted.diag, self.shifted.offdiag)
        _check_lapack_info(info, "pttrf", "{info}th leading minor not positive definite")
        # Representable solutions cannot beat the backward-stable floor
        # eps * |I + h op| * |x|, which dominates 1e-13 * |rhs| once
        # h * |op| is large and the data is rough.
        self._floor_per_x = 8.0 * _EPS * (1.0 + h * op.norm_bound())
        self.last = None

    def _pttrs(self, b, overwrite_b=0):
        x, info = _PTTRS(self._d, self._e, b, overwrite_b=overwrite_b)
        _check_lapack_info(info, "pttrs", "pttrs failed with info {info}")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (I + h*op) x = rhs, refined once if needed, audited."""
        rhs = np.asarray(rhs, dtype=float)
        op = self.op
        if rhs.shape != (op.dim,):
            raise ValueError(f"dimension mismatch: operator dim {op.dim}, rhs shape {rhs.shape}")
        return self._solve(rhs)

    def _solve(self, rhs):
        """``solve`` of a float vector of the operator's dimension, unchecked."""
        product, h = self._product, self.h
        x = self._pttrs(rhs)
        ax = product(x)
        res = rhs - (x + h * ax)
        rn = math.sqrt(res.dot(res))
        bn = math.sqrt(rhs.dot(rhs))
        floor = self._floor_per_x * math.sqrt(x.dot(x))
        if rn > max(1e-14 * bn, 0.5 * floor):
            x = x + self._pttrs(res, overwrite_b=1)
            ax = product(x)
            res = rhs - (x + h * ax)
            rn = math.sqrt(res.dot(res))
        if not rn <= 1e-13 * bn + floor:  # also rejects a NaN residual
            raise ResolventAuditError(f"resolvent residual audit failed: {rn:.3e} > "
                                      f"1e-13 * {bn:.3e} + floor {floor:.3e}")
        self.last = (x, ax, res)
        return x


def resolvent_solve(op: DiscreteOperator, h: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + h*op) x = rhs once; see ``Resolvent`` for repeated solves."""
    return Resolvent(op, h).solve(rhs)


# ----------------------------------------------------------------------
# Bundles and presets


@dataclass(frozen=True)
class OperatorBundle:
    """The operator tuple of one coupled problem plus structural constants.

    ``mass_lb`` is a lower bound for the mass form (exact for the packaged
    presets where mass is the identity).  ``coupling_bound`` certifies
    |coupling u| <= coupling_bound * (|diffusion u| + |u|) for all u; it
    feeds the step-size threshold of the per-step nonlinear solve.
    """

    grid: Grid1D
    mass: DiscreteOperator
    diffusion: DiscreteOperator
    damping: DiscreteOperator
    stiffness: DiscreteOperator
    coupling: DiscreteOperator
    eta: float
    mass_lb: float
    coupling_bound: float

    def __post_init__(self):
        n = self.grid.n_interior
        for name in ("mass", "diffusion", "damping", "stiffness", "coupling"):
            if getattr(self, name).dim != n:
                raise ValueError(f"{name} operator dimension does not match grid")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.mass_lb <= 0:
            raise ValueError(f"mass_lb must be positive, got {self.mass_lb}")

    def h_threshold(self, lipschitz_const: float = 0.0) -> float:
        return solvability_threshold(self.mass_lb, lipschitz_const, self.eta, self.coupling_bound)


@dataclass(frozen=True)
class ProblemPreset:
    """Coefficient set for the five packaged problems.

    P1: linear thermoacoustic coupling; an undamped wave equation with the
        pointwise term -m^2 * phi, forced by the temperature through the
        same scaled Laplacian that stiffens the wave.
    P2: as P1 with friction epsilon * phi' and a monotone nonlinearity
        beta plus Lipschitz perturbation pi in place of the m^2 term.
    P3: as P2 with viscous friction -epsilon * Laplacian(phi').
    P4: unit-coefficient variant of P2 with identity coupling and damping.
    P5: unit-coefficient variant of P3 with identity coupling.
    """

    name: str
    sigma: float = 1.0
    c: float = 1.0
    m: float = 0.0
    epsilon: float = 1.0
    gamma: float = 2.0
    bc: str = DIRICHLET

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}")
        if self.bc not in BC_NAMES:
            raise ValueError(f"bc must be one of {BC_NAMES}, got {self.bc!r}")
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        for name, value in (("c", self.c), ("m", self.m)):
            if not math.isfinite(value * value):
                raise ValueError(f"{name} must be small enough that {name}^2 is finite, "
                                 f"got {value}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


def build_bundle(preset: ProblemPreset, grid: Grid1D) -> OperatorBundle:
    """Assemble the operator bundle for a preset on the given grid."""
    if grid.bc != preset.bc:
        raise ValueError(f"grid bc {grid.bc!r} does not match preset bc {preset.bc!r}")
    n = grid.n_interior
    mass = identity_operator(n, 1.0)
    if preset.name in ("P1", "P2", "P3"):
        diffusion = assemble_laplacian(grid, preset.sigma)
        stiffness = assemble_laplacian(grid, preset.c ** 2)
        coupling = assemble_laplacian(grid, preset.c ** 2)
        eta = preset.gamma - 1.0
        if preset.name == "P1":
            damping = zero_operator(n)
        elif preset.name == "P2":
            damping = identity_operator(n, preset.epsilon) if preset.epsilon > 0 else zero_operator(n)
        else:
            damping = assemble_laplacian(grid, preset.epsilon) if preset.epsilon > 0 else zero_operator(n)
    else:
        diffusion = assemble_laplacian(grid, 1.0)
        stiffness = assemble_laplacian(grid, 1.0)
        coupling = identity_operator(n, 1.0)
        eta = 1.0
        damping = identity_operator(n, 1.0) if preset.name == "P4" else assemble_laplacian(grid, 1.0)
    bound = coupling_relative_bound(coupling, diffusion)
    return OperatorBundle(grid=grid, mass=mass, diffusion=diffusion, damping=damping,
                          stiffness=stiffness, coupling=coupling, eta=eta,
                          mass_lb=1.0, coupling_bound=bound)


def _lanczos_top_eigenvalue(apply, n: int, m: int = 128) -> float:
    """Largest eigenvalue of a symmetric PSD operator by Lanczos with full
    reorthogonalization.  Deterministic: fixed start vector, fixed iteration
    budget, LAPACK tridiagonal eigensolve at the end."""
    m = min(m, n)
    Q = np.zeros((m, n))
    alpha = np.zeros(m)
    beta = np.zeros(max(m - 1, 0))
    q = np.ones(n) / math.sqrt(n)
    q[0] += 0.5 / math.sqrt(n)  # break symmetry deterministically
    q /= np.linalg.norm(q)
    k = 0
    for j in range(m):
        Q[j] = q
        w = apply(q)
        alpha[j] = float(np.dot(q, w))
        w = w - alpha[j] * q
        if j > 0:
            w = w - beta[j - 1] * Q[j - 1]
        for _ in range(2):  # full reorthogonalization, twice for safety
            w = w - Q[: j + 1].T @ (Q[: j + 1] @ w)
        k = j + 1
        if j < m - 1:
            b = float(np.linalg.norm(w))
            if b <= 1e-14 * max(1.0, abs(alpha[j])):
                break
            beta[j] = b
            q = w / b
    return float(tridiagonal_eigvals(alpha[:k], beta[: k - 1])[-1])


def coupling_relative_bound(coupling: DiscreteOperator, diffusion: DiscreteOperator) -> float:
    """Constant C certifying |coupling u| <= C * (|diffusion u| + |u|).

    Computed as the largest singular value of coupling composed with the
    unit-shift resolvent of diffusion; by the triangle inequality that
    singular value majorizes the optimal ratio constant.  Kind-tagged
    operator pairs share an eigenbasis, so the value is an exact maximum of
    symbol ratios over the closed-form spectrum ``laplacian_eigenvalues``
    of the grid that a tagged Laplacian's bands belong to; custom pairs go
    through a deterministic Lanczos iteration on the composed normal
    operator, and so does a Laplacian tag on bands of no grid.
    """
    if coupling.is_zero:
        return 0.0
    n = coupling.dim
    mu = None
    if coupling.kind in (IDENTITY, LAPLACIAN) and diffusion.kind in (IDENTITY, LAPLACIAN):
        mu = np.array([0.0])
        if LAPLACIAN in (coupling.kind, diffusion.kind):
            grid = _laplacian_grid(coupling if coupling.kind == LAPLACIAN else diffusion)
            mu = None if grid is None else laplacian_eigenvalues(grid)
    if mu is not None:
        vals = np.abs(coupling.symbol(mu)) / (1.0 + diffusion.symbol(mu))
        return float(np.max(vals))

    resolvent = Resolvent(diffusion, 1.0)

    def ktk(x):
        y = resolvent.solve(np.asarray(x, dtype=float).ravel())
        y = coupling.apply(y)
        y = coupling.apply(y)
        return resolvent.solve(y)

    lam = _lanczos_top_eigenvalue(ktk, n)
    if lam > 1e24:
        raise RuntimeError("coupling is not relatively bounded by diffusion on this grid")
    return math.sqrt(max(lam, 0.0))


def solvability_threshold(mass_lb: float, lipschitz_const: float, eta: float,
                          coupling_bound: float) -> float:
    """Step-size threshold below which the per-step elliptic operator is
    strictly monotone, so each implicit step has a unique solution.
    """
    d = 1.0 + lipschitz_const + eta * coupling_bound
    b = eta * coupling_bound
    val = math.sqrt(mass_lb / d + b * b / (4.0 * d)) - b / (2.0 * d)
    if val <= 0.0:
        raise RuntimeError("solvability threshold came out nonpositive")
    return val


# ----------------------------------------------------------------------
# Structural audits


def audit_bundle(bundle: OperatorBundle, n_samples: int = 100, seed: int = 0) -> dict:
    """Numerical audit of the structural conditions the scheme relies on.

    Returns worst-case figures over ``n_samples`` random probe pairs:
    monotonicity of every operator, coercivity of the mass form, symmetry
    compatibility and sign of the damping/stiffness and coupling/diffusion
    pairings, and the relative bound of coupling by diffusion.
    """
    rng = np.random.default_rng(seed)
    grid = bundle.grid
    out = {}
    for name in ("mass", "diffusion", "damping", "stiffness", "coupling"):
        op = getattr(bundle, name)
        scale = max(op.norm_bound(), 1.0)
        out[f"min_eig_{name}"] = op.min_eigenvalue()
        out[f"min_eig_{name}_scaled"] = op.min_eigenvalue() / scale
    out["mass_coercivity_slack"] = bundle.mass.min_eigenvalue() - bundle.mass_lb

    b1, a2 = bundle.damping, bundle.stiffness
    b2, a1 = bundle.coupling, bundle.diffusion
    sb1 = max(b1.norm_bound(), 1.0)
    sa2 = max(a2.norm_bound(), 1.0)
    sb2 = max(b2.norm_bound(), 1.0)
    sa1 = max(a1.norm_bound(), 1.0)
    # one probe pair (w, z) per row, drawn in the order w0, z0, w1, z1, ...
    w, z = np.moveaxis(rng.standard_normal((n_samples, 2, grid.n_interior)), 1, 0)
    nw = np.sqrt(h_inner(grid, w, w))
    nz = np.sqrt(h_inner(grid, z, z))
    b1w, a2w, b2w, a1w = b1.apply(w), a2.apply(w), b2.apply(w), a1.apply(w)
    lhs = h_inner(grid, b1w, a2.apply(z))
    rhs = h_inner(grid, b1.apply(z), a2w)
    cross = np.abs(lhs - rhs) / (nw * nz * sb1 * sa2)
    pos_da = h_inner(grid, b1w, a2w) / (nw * nw * sb1 * sa2)
    pos_cd = h_inner(grid, b2w, a1w) / (nw * nw * sb2 * sa1)
    rel = (np.sqrt(h_inner(grid, b2w, b2w))
           - bundle.coupling_bound * (np.sqrt(h_inner(grid, a1w, a1w)) + nw))
    out["cross_symmetry"] = float(np.max(cross, initial=0.0))
    out["positivity_damping_stiffness"] = float(np.min(pos_da, initial=math.inf))
    out["positivity_coupling_diffusion"] = float(np.min(pos_cd, initial=math.inf))
    out["relative_bound_slack"] = float(np.max(rel, initial=-math.inf))
    return out
