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
piecewise-constant reconstructions.  ``max_deviation`` holds a trajectory
against a ``LinearReference`` one block of states at a time, along one
chain of its time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .diagnostics import TrajectoryInterpolants, build_interpolants, is_uniform, iter_blocks
from .nonlinearity import Nonlinearity
from .operators import (DIRICHLET, Grid1D, OperatorBundle, _mode_numbers,
                        laplacian_eigenvalues)
from .stepper import StepConfig, iter_run


# Rows (or columns) of the basis per block, 0.5 MB at n = 1024.  Products
# over blocks of 64 have the bits of the dense one on this OpenBLAS; blocks
# of 1 or 7, or a tail of 1-3, do not, so the last block takes 64 to 127.
_BLOCK = 64


def _blocks(n: int) -> list:
    stops = [*range(_BLOCK, n - _BLOCK + 1, _BLOCK), n]
    return [slice(a, b) for a, b in zip([0, *stops[:-1]], stops)]


def _basis_block(grid: Grid1D, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Rows ``rows`` and columns ``cols`` of the orthonormal Laplacian
    eigenbasis B: sqrt(2) sin(k pi x) (Dirichlet), or sqrt(2) cos(k pi x)
    with a constant zero mode (Neumann), over the grid's mode numbers k
    (``operators._mode_numbers``).  Built in
    the one buffer of the outer product, each entry has the same bits in
    any block."""
    k = _mode_numbers(grid)
    B = np.outer(grid.x[rows], (k * np.pi)[cols])
    (np.sin if grid.bc == DIRICHLET else np.cos)(B, out=B)
    B *= math.sqrt(2.0)
    if grid.bc != DIRICHLET:
        B[:, k[cols] == 0] = 1.0
    return B


def _synthesize(grid: Grid1D, *coeffs) -> list:
    """``B @ c`` for every c, in one pass over row blocks of the basis."""
    n = grid.n_interior
    out = [np.empty(n) for _ in coeffs]
    for rows in _blocks(n):
        B = _basis_block(grid, rows=rows)
        for u, c in zip(out, coeffs):
            u[rows] = B @ c
    return out


def modal_transform(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Coefficients ``dx * (B.T @ u)`` of u, over column blocks of B."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValueError("dimension mismatch in modal_transform")
    c = np.empty(grid.n_interior)
    for cols in _blocks(grid.n_interior):
        c[cols] = _basis_block(grid, cols=cols).T @ u
    return grid.dx * c


def inverse_modal_transform(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    """Grid values ``B @ coeffs`` of modal coefficients, over row blocks of B."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.n_interior,):
        raise ValueError("dimension mismatch in inverse_modal_transform")
    return _synthesize(grid, coeffs)[0]


def modal_generator(bundle: OperatorBundle, nonlin: Nonlinearity, mu) -> np.ndarray:
    """3x3 generator of the semi-discrete dynamics on one Laplacian mode, or
    for an array ``mu`` the stack of the generators of its modes.

    Rows evolve (theta_hat, phi_hat, v_hat); requires symbol-evaluable
    operators and a linear configuration.
    """
    if not nonlin.is_linear:
        raise ValueError("modal generators exist only for linear configurations")
    mu = np.asarray(mu, dtype=float)
    a1, a2, b1, b2, ell = (op.symbol(mu) for op in (
        bundle.diffusion, bundle.stiffness, bundle.damping, bundle.coupling, bundle.mass))
    G = np.zeros(mu.shape + (3, 3))
    G[..., 0, 0], G[..., 0, 2], G[..., 1, 2] = -a1, -bundle.eta, 1.0
    G[..., 2, 0], G[..., 2, 1], G[..., 2, 2] = b2 / ell, -(a2 + nonlin.pi_slope) / ell, -b1 / ell
    return G


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
    exponential each.  With a ``chain()`` a uniform grid is sampled in
    consecutive blocks, one block of rows held at a time, with the rows of
    the whole grid's call.  The reference keeps the dense basis B (8n²
    bytes) for its lifetime and maps modal rows to grid values in one
    product per block.
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
        B = self._basis = _basis_block(self.grid)
        self._y0 = np.stack([self.grid.dx * (B.T @ u) for u in (theta0, phi0, v0)],
                            axis=1)  # (n_modes, 3)
        self._gen = modal_generator(bundle, nonlin, mu)
        self._expm = {}  # t -> (n_modes, 3, 3) exponentials, oldest first

    def _expm_batch(self, t: float) -> np.ndarray:
        E = self._expm.get(t)
        if E is None:
            if len(self._expm) >= self.EXPM_CACHE_SIZE:
                del self._expm[next(iter(self._expm))]
            E = self._expm[t] = _lapack.expm(t * self._gen)
            E.setflags(write=False)
        return E

    def at(self, t: float) -> FieldSnapshot:
        """The fields of ``sample([t])`` and the acceleration z at t."""
        fields = {k: rows[0] for k, rows in self.sample([t]).items()}
        Y = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
        dY = np.einsum("kij,kj->ki", self._gen, Y)
        z = self._basis @ dY[:, 2]
        return FieldSnapshot(fields["theta"], fields["phi"], fields["v"], z)

    def chain(self) -> dict:
        """A new, empty chain for ``sample``, which keeps in it the start
        time, the step exponential and the last modal row of one grid."""
        return {}

    def sample(self, times, chain=None) -> dict:
        """Grid values of theta, phi and v, one row per time.

        Two or more times that are ``diagnostics.is_uniform`` are one chain
        Y[i] = exp(dt G) Y[i - 1] from exp(times[0] G) y0, dt = times[1] -
        times[0]; any other times take one exponential each.  Given a
        ``chain``, the times are the next block of one uniform grid whose
        earlier blocks came with the same chain: it continues across the
        blocks from the grid's first time and spacing, so each row has the
        bits of the whole grid's call.  The rows at time zero are the
        initial data.
        """
        times = np.asarray(times, dtype=float)
        if chain is None and is_uniform(times):
            chain = {}
        Y = np.empty((times.size, self.grid.n_interior, 3))
        for i, t in enumerate(times):
            if chain is None:
                Y[i] = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
            elif "y" not in chain:
                chain["t0"] = t
                chain["y"] = Y[i] = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
            else:
                if "E" not in chain:
                    chain["E"] = self._expm_batch(float(t - chain["t0"]))
                chain["y"] = Y[i] = np.einsum("kij,kj->ki", chain["E"], chain["y"])
        B = self._basis
        out = {name: (B @ Y[:, :, j, None])[..., 0]
               for j, name in enumerate(("theta", "phi", "v"))}
        for name, rows in out.items():
            rows[times == 0.0] = self._initial[name]
        return out


def exact_linear_solution(initial, bundle: OperatorBundle, nonlin: Nonlinearity,
                          t: float) -> FieldSnapshot:
    """Semi-discrete solution at time t via per-mode matrix exponentials."""
    return LinearReference(initial, bundle, nonlin).at(t)


def max_deviation(states, reference: LinearReference, write) -> float:
    """Largest pointwise deviation of the states' fields from the
    reference at their times, and at least 0.0.  ``states`` is any iterable
    of consecutive states, read once, each at time ``t_index * h``; they go
    in the blocks of ``diagnostics.iter_blocks`` and sample the reference
    along one chain, and ``write`` takes one row (t, theta_dev, phi_dev,
    v_dev) per state as soon as its block is done.  Only one block of rows
    is held."""
    chain = reference.chain()
    peaks = []  # each block's largest deviation per field
    for block in iter_blocks(states, reference.grid.n_interior):
        times = np.array([s.t_index * s.h for s in block])
        ref = reference.sample(times, chain)
        rows = np.column_stack([times, *(
            np.max(np.abs(np.stack([getattr(s, name) for s in block]) - ref[name]), axis=1)
            for name in ("theta", "phi", "v"))])
        del block, ref  # before the next block is read
        for row in rows.tolist():
            write(row)
        peaks.append(np.max(rows[:, 1:], axis=0))
    return max(0.0, *np.max(peaks, axis=0).tolist())


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
    across a refinement sweep; ``ReferenceDivergedError`` if it stops early,
    with the index and exception of the trajectory's failed step.  Only the
    run's field rows are kept, never its states."""
    trajectory = iter_run(initial, bundle, nonlin, T, StepConfig(h=h_ref, newton_tol=1e-13))
    reference = build_interpolants(s for s, _ in trajectory)
    if trajectory.failure is not None:
        raise ReferenceDivergedError(h_ref, trajectory.last.t_index, trajectory.failure)
    return reference
