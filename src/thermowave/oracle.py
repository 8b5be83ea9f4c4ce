"""Independent reference solutions.

For linear configurations (no beta; zero or linear pi) every packaged
operator is a scaled identity or a scaled Laplacian, so the semi-discrete
system decouples over the Laplacian eigenbasis into independent 3x3 linear
ODEs in the modal coefficients of (theta, phi, v).  Their matrix
exponentials give the exact-in-time solution on the same spatial grid,
isolating exactly the time-discretization error the stepper commits.  For
nonlinear configurations a nested fine-step run serves as the reference:
``fine_reference`` returns its ``diagnostics.TrajectoryInterpolants``,
whose ``sample`` / ``sample_bar`` are the run's piecewise-linear and
piecewise-constant reconstructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _lapack
from .diagnostics import TrajectoryInterpolants, build_interpolants
from .nonlinearity import Nonlinearity
from .operators import DIRICHLET, Grid1D, OperatorBundle
from .stepper import StepConfig, _states, iter_run


@lru_cache(maxsize=32)
def _basis_data(n: int, bc: str):
    grid = Grid1D(n, bc)
    dx = grid.dx
    x = grid.x
    # sqrt(2) sin(k pi x) (Dirichlet) or sqrt(2) cos(k pi x) with a constant
    # first mode (Neumann), built in the one n x n buffer of the outer product
    k = np.arange(1, n + 1) if bc == DIRICHLET else np.arange(0, n)
    B = np.outer(x, k * np.pi)
    (np.sin if bc == DIRICHLET else np.cos)(B, out=B)
    B *= math.sqrt(2.0)
    if bc != DIRICHLET:
        B[:, 0] = 1.0
    mu = 2.0 / dx ** 2 * (1.0 - np.cos(k * np.pi * dx))
    B.setflags(write=False)
    mu.setflags(write=False)
    return mu, B


def laplacian_eigenvalues(grid: Grid1D) -> np.ndarray:
    """Eigenvalues of the unit-coefficient discrete Laplacian on the grid."""
    return _basis_data(grid.n_interior, grid.bc)[0]


def modal_transform(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Coefficients of u in the orthonormal Laplacian eigenbasis."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValueError("dimension mismatch in modal_transform")
    _, B = _basis_data(grid.n_interior, grid.bc)
    return grid.dx * (B.T @ u)


def inverse_modal_transform(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.n_interior,):
        raise ValueError("dimension mismatch in inverse_modal_transform")
    _, B = _basis_data(grid.n_interior, grid.bc)
    return B @ coeffs


def modal_generator(bundle: OperatorBundle, nonlin: Nonlinearity, mu: float) -> np.ndarray:
    """3x3 generator of the semi-discrete dynamics on one Laplacian mode.

    Rows evolve (theta_hat, phi_hat, v_hat); requires symbol-evaluable
    operators and a linear configuration.
    """
    if not nonlin.is_linear:
        raise ValueError("modal generators exist only for linear configurations")
    a1 = float(bundle.diffusion.symbol(mu))
    a2 = float(bundle.stiffness.symbol(mu))
    b1 = float(bundle.damping.symbol(mu))
    b2 = float(bundle.coupling.symbol(mu))
    ell = float(bundle.mass.symbol(mu))
    s = nonlin.pi_slope
    return np.array([
        [-a1, 0.0, -bundle.eta],
        [0.0, 0.0, 1.0],
        [b2 / ell, -(a2 + s) / ell, -b1 / ell],
    ])


@dataclass(frozen=True)
class FieldSnapshot:
    theta: np.ndarray
    phi: np.ndarray
    v: np.ndarray
    z: np.ndarray


class LinearReference:
    """Exact-in-time solution of a linear configuration on the grid.

    The per-mode exponentials ``exp(t * G_k)`` are computed once per distinct
    float ``t``, one batched ``_lapack.expm`` over all modes, and cached (at most
    ``EXPM_CACHE_SIZE`` times, the oldest dropped first), so a reference
    shared by a refinement sweep pays once for every step length its members
    have in common.  ``sample(times)`` propagates uniformly spaced requests
    with the exponential of the spacing; arbitrary times take one cached
    exponential each.  Modal rows map to grid values in one product per field.
    """

    EXPM_CACHE_SIZE = 64

    def __init__(self, initial, bundle: OperatorBundle, nonlin: Nonlinearity):
        if not nonlin.is_linear:
            raise ValueError("LinearReference requires a linear configuration")
        self.bundle = bundle
        self.grid = bundle.grid
        theta0, phi0, v0 = (np.asarray(u, dtype=float) for u in initial)
        self._initial = {"theta": theta0.copy(), "phi": phi0.copy(), "v": v0.copy()}
        mu = laplacian_eigenvalues(self.grid)
        self._mu = mu
        self._y0 = np.stack([
            modal_transform(self.grid, theta0),
            modal_transform(self.grid, phi0),
            modal_transform(self.grid, v0),
        ], axis=1)  # (n_modes, 3)
        self._gen = np.stack([modal_generator(bundle, nonlin, m) for m in mu])
        self._expm = {}  # t -> (n_modes, 3, 3) exponentials, oldest first

    def _expm_batch(self, t: float) -> np.ndarray:
        E = self._expm.get(t)
        if E is None:
            if len(self._expm) >= self.EXPM_CACHE_SIZE:
                del self._expm[next(iter(self._expm))]
            E = self._expm[t] = _lapack.expm(t * self._gen)
            E.setflags(write=False)
        return E

    def _assemble(self, Y: np.ndarray) -> dict:
        """Grid values of modal rows Y (n_times, n_modes, 3), per field."""
        _, B = _basis_data(self.grid.n_interior, self.grid.bc)
        return {name: (B @ Y[:, :, j, None])[..., 0]
                for j, name in enumerate(("theta", "phi", "v"))}

    def at(self, t: float) -> FieldSnapshot:
        """The fields of ``sample([t])`` and the acceleration z at t."""
        fields = {k: rows[0] for k, rows in self.sample([t]).items()}
        Y = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
        dY = np.einsum("kij,kj->ki", self._gen, Y)
        z = inverse_modal_transform(self.grid, dY[:, 2])
        return FieldSnapshot(fields["theta"], fields["phi"], fields["v"], z)

    def sample(self, times) -> dict:
        times = np.asarray(times, dtype=float)
        Y = np.empty((times.size, self.grid.n_interior, 3))
        dt = np.diff(times)
        if times.size > 2 and np.allclose(dt, dt[0], rtol=1e-12, atol=1e-15):
            E = self._expm_batch(float(dt[0]))
            y = Y[0] = np.einsum("kij,kj->ki", self._expm_batch(float(times[0])), self._y0)
            for i in range(1, times.size):
                y = Y[i] = np.einsum("kij,kj->ki", E, y)
        else:
            for i, t in enumerate(times):
                Y[i] = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
        out = self._assemble(Y)
        # the reference at time zero is the initial data itself
        for name, rows in out.items():
            rows[times == 0.0] = self._initial[name]
        return out


def exact_linear_solution(initial, bundle: OperatorBundle, nonlin: Nonlinearity,
                          t: float) -> FieldSnapshot:
    """Semi-discrete solution at time t via per-mode matrix exponentials."""
    return LinearReference(initial, bundle, nonlin).at(t)


class ReferenceDivergedError(RuntimeError):
    """The fine-step reference run stopped early at step ``failure_index``;
    the run's exception is the ``__cause__``."""

    def __init__(self, h_ref: float, failure_index: int, cause: RuntimeError):
        super().__init__(f"fine reference h = {h_ref} diverged: {cause}")
        self.h_ref = h_ref
        self.failure_index = failure_index
        self.__cause__ = cause


def fine_reference(initial, bundle: OperatorBundle, nonlin: Nonlinearity,
                   T: float, h_ref: float) -> TrajectoryInterpolants:
    """Time reconstructions of a tight-tolerance run at h_ref, reusable
    across a refinement sweep; ``ReferenceDivergedError`` if it stops early.
    Only the run's field rows are kept, never its states."""
    pairs = iter_run(initial, bundle, nonlin, T, StepConfig(h=h_ref, newton_tol=1e-13))
    outcome = {}
    reference = build_interpolants(_states(pairs, outcome))
    if outcome["failure"] is not None:
        raise ReferenceDivergedError(h_ref, outcome["last"].t_index, outcome["failure"])
    return reference
