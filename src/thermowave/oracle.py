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
from .operators import (DIRICHLET, Grid1D, OperatorBundle, PicklableError, _mode_numbers,
                        laplacian_eigenvalues)
from .stepper import StepConfig, iter_run


# Rows (or columns) of the basis per block, 0.5 MB at n = 1024.  On
# OpenBLAS (0.3.31, Haswell kernels) a product with a block of 64 has the
# bits of the dense product on one thread, and the same bits under 1, 2 or
# 4 threads at n = 256, 2049 and 8192, where a dense product's bits move
# with how a threaded BLAS splits it.  Blocks of 1 or 7, or a tail of 1-3,
# do not keep the bits, so the last block takes 64 to 127.
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


# The two kernels below are the only products with B.  Each takes its
# blocks from ``basis`` (the whole B) when given, as views, and otherwise
# builds them one at a time; every vector is its own matrix-vector product
# with a block, so how many vectors go in one call does not move bits.

def _synthesize(grid: Grid1D, coeffs, basis=None) -> np.ndarray:
    """``B @ c`` for every coefficient vector c along the last axis of
    ``coeffs``, in one pass over row blocks of B."""
    c = np.asarray(coeffs, dtype=float)[..., None]
    out = np.empty(c.shape)
    for rows in _blocks(grid.n_interior):
        B = _basis_block(grid, rows=rows) if basis is None else basis[rows]
        out[..., rows, :] = B @ c
    return out[..., 0]


def _analyze(grid: Grid1D, u, basis=None) -> np.ndarray:
    """Coefficients ``dx * (B.T @ u)`` of every vector u along the last
    axis of ``u``, in one pass over column blocks of B."""
    u = np.asarray(u, dtype=float)[..., None]
    c = np.empty(u.shape)
    for cols in _blocks(grid.n_interior):
        B = _basis_block(grid, cols=cols) if basis is None else basis[:, cols]
        c[..., cols, :] = B.T @ u
    return grid.dx * c[..., 0]


def modal_transform(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Coefficients ``dx * (B.T @ u)`` of u, over column blocks of B."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_interior,):
        raise ValueError("dimension mismatch in modal_transform")
    return _analyze(grid, u)


def inverse_modal_transform(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    """Grid values ``B @ coeffs`` of modal coefficients, over row blocks of B."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.n_interior,):
        raise ValueError("dimension mismatch in inverse_modal_transform")
    return _synthesize(grid, coeffs)


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
    have in common.  The cache is per process: a sweep's forked worker
    inherits what was cached before the fork and pays once more for each
    distinct time it samples.  ``sample(times)`` propagates uniformly
    spaced increasing requests with the exponential of the spacing;
    arbitrary times take one cached exponential each.  With a ``chain()`` a
    uniform grid is sampled in consecutive blocks, one block of rows held
    at a time, with the rows of the whole grid's call.  The reference
    builds the basis B once and keeps it (8n² bytes) for its lifetime; the
    initial coefficients and every grid value come from the two block
    kernels over views of it, so its outputs do not depend on the BLAS
    thread count (see ``_BLOCK``).
    """

    EXPM_CACHE_SIZE = 64
    FIELDS = ("theta", "phi", "v")

    def __init__(self, initial, bundle: OperatorBundle, nonlin: Nonlinearity):
        if not nonlin.is_linear:
            raise ValueError("LinearReference requires a linear configuration")
        self.bundle = bundle
        self.grid = bundle.grid
        u0 = np.array(initial, dtype=float)
        self._initial = dict(zip(self.FIELDS, u0))
        mu = laplacian_eigenvalues(self.grid)
        self._mu = mu
        self._basis = _basis_block(self.grid)
        self._y0 = np.ascontiguousarray(_analyze(self.grid, u0, self._basis).T)  # (n_modes, 3)
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
        """The fields of ``sample([t])`` and the acceleration z at t, all
        four from one synthesis pass."""
        times = np.array([float(t)])
        Y = self._modal_rows(times)
        dY = np.einsum("kij,kj->ki", self._gen, Y[0])
        coeffs = np.moveaxis(np.concatenate([Y, dY[None, :, 2:]], axis=2), 2, 0)
        theta, phi, v, z = self._grid_values(times, coeffs, self.FIELDS)
        return FieldSnapshot(theta[0], phi[0], v[0], z[0])

    def chain(self) -> dict:
        """A new, empty chain for ``sample``, which keeps in it the start
        time, spacing and last time, the step exponential and the last
        modal row of one grid."""
        return {}

    def sample(self, times, chain=None, fields=FIELDS) -> dict:
        """Grid values of the named ``fields`` (theta, phi and v unless
        told), one row per time: the modal rows of ``_modal_rows`` in one
        synthesis pass, which synthesizes the named fields alone, each row
        with the bits it has among all three.  The rows at time zero are
        the initial data."""
        times = np.asarray(times, dtype=float)
        coeffs = np.moveaxis(self._modal_rows(times, chain), 2, 0)
        if tuple(fields) != self.FIELDS:
            coeffs = coeffs[[self.FIELDS.index(name) for name in fields]]
        return dict(zip(fields, self._grid_values(times, coeffs, fields)))

    def _modal_rows(self, times: np.ndarray, chain=None) -> np.ndarray:
        """Modal rows (times, modes, 3) of theta, phi and v.

        Two or more increasing times that are ``diagnostics.is_uniform``
        are one chain Y[i] = exp(dt G) Y[i - 1] from exp(times[0] G) y0,
        dt = times[1] - times[0]; any other times take one exponential
        each.  Given a ``chain``, the times are the next block of one
        uniform grid whose earlier blocks came with the same chain: it
        continues across the blocks from the grid's first time and
        spacing, so each row has the bits of the whole grid's call.  The
        chain's first two times set its spacing dt, which must be
        positive; each block, led by the time before it (if any) and dt
        before that, must be ``is_uniform``, or ``ValueError``.
        """
        if chain is None and is_uniform(times) and times[1] > times[0]:
            chain = {}
        elif chain is not None and times.size:
            grid = np.concatenate([chain.get("t", []), times])
            if grid.size > 1:
                dt = chain.setdefault("dt", grid[1] - grid[0])
                if not (dt > 0 and is_uniform([grid[0] - dt, *grid])):
                    raise ValueError(f"sample: chained times {times.tolist()} do not continue "
                                     f"one increasing uniform grid of step {float(dt)!r}")
            chain["t"] = grid[-1:]
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
        return Y

    def _grid_values(self, times: np.ndarray, coeffs: np.ndarray, fields) -> np.ndarray:
        """Grid values (vectors, times, points) of the modal coefficients
        (vectors, times, modes), the leading vectors, named by ``fields``,
        at time zero replaced by those fields' initial data."""
        out = _synthesize(self.grid, coeffs, self._basis)
        for u, name in zip(out, fields):
            u[times == 0.0] = self._initial[name]
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
    if not peaks:
        raise ValueError("max_deviation needs at least one state")
    return max(0.0, *np.max(peaks, axis=0).tolist())


class ReferenceDivergedError(PicklableError, RuntimeError):
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
        raise ReferenceDivergedError(h_ref, trajectory.failure_index, trajectory.failure)
    return reference
