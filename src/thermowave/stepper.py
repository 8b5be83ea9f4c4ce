"""One implicit step of the coupled scheme and whole-trajectory runs.

Each step advances (theta, phi, v, z) by backward differences: the new
acceleration and velocity are difference quotients of the new potential,

    v+ = (phi+ - phi) / h,     z+ = (v+ - v) / h,

and (phi+, theta+) solve the coupled implicit system.  Eliminating theta+
through the heat resolvent turns the step into a single nonlinear elliptic
equation for phi+,

    mass(phi+) + h damping(phi+) + h^2 stiffness(phi+) + h^2 beta(phi+)
      + h^2 pi(phi+) + eta h^2 coupling((I + h diffusion)^{-1} phi+) = g,

with g assembled from the previous state.  The solver is a Newton iteration
whose linear stage eliminates the resolvent through a banded Schur
complement, keeping every step O(n).  Below the bundle's ``h_threshold``
the elliptic operator is strictly monotone and the step has a unique
solution; larger steps are attempted anyway and divergence is reported,
never silently accepted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .nonlinearity import Nonlinearity
from .operators import OperatorBundle, h_norm, resolvent_solve

_EPS = float(np.finfo(float).eps)

DEFAULT_YOSIDA_LAMBDAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


class NewtonDivergedError(RuntimeError):
    """Newton ran out of iterations; h may exceed the solvability threshold."""

    def __init__(self, iters: int, residual: float):
        super().__init__(f"Newton did not converge in {iters} iterations "
                         f"(last residual {residual:.3e})")
        self.iters = iters
        self.residual = residual


@dataclass(frozen=True)
class StepConfig:
    h: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    solve_path: str = "direct"  # "direct" | "yosida"
    yosida_lambdas: tuple = DEFAULT_YOSIDA_LAMBDAS

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")
        if self.solve_path not in ("direct", "yosida"):
            raise ValueError(f"unknown solve_path {self.solve_path!r}")
        if self.solve_path == "yosida":
            lams = tuple(float(l) for l in self.yosida_lambdas)
            if not lams or any(l <= 0 for l in lams):
                raise ValueError("yosida_lambdas must be positive")
            if any(b >= a for a, b in zip(lams, lams[1:])):
                raise ValueError("yosida_lambdas must decrease")
            object.__setattr__(self, "yosida_lambdas", lams)


@dataclass(frozen=True)
class State:
    """Grid vectors at one time index.

    By construction v and z of a stepped state are exact difference
    quotients of phi and v; the z of the initial state is backfilled with
    the first computed acceleration once a run takes its first step.
    """

    theta: np.ndarray
    phi: np.ndarray
    v: np.ndarray
    z: np.ndarray
    t_index: int
    h: float

    def __post_init__(self):
        arrs = {}
        dim = None
        for name in ("theta", "phi", "v", "z"):
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            if dim is None:
                dim = a.shape
            if a.shape != dim or a.ndim != 1:
                raise ValueError("state vectors must share one dimension")
            a.setflags(write=False)
            arrs[name] = a
        for name, a in arrs.items():
            object.__setattr__(self, name, a)

    @property
    def t(self) -> float:
        return self.t_index * self.h


@dataclass(frozen=True)
class StepReport:
    newton_iters: int
    final_residual: float
    theta_residual: float
    heat_residual: float
    wave_residual: float
    rhs_norm: float


@dataclass
class RunResult:
    states: list
    reports: list
    failure_index: int | None = None

    @property
    def complete(self) -> bool:
        return self.failure_index is None


def phi_equation_rhs(state: State, bundle: OperatorBundle, h: float) -> np.ndarray:
    """Right-hand side g of the per-step elliptic equation for phi+."""
    shifted = resolvent_solve(bundle.diffusion, h,
                              bundle.eta * state.phi + state.theta)
    return (bundle.mass.apply(state.phi)
            + h * bundle.mass.apply(state.v)
            + h * bundle.damping.apply(state.phi)
            + h * h * bundle.coupling.apply(shifted))


def _elliptic_residual(phi, g, bundle, h, beta_f, pi_f):
    shifted = resolvent_solve(bundle.diffusion, h, phi)
    return (bundle.mass.apply(phi)
            + h * bundle.damping.apply(phi)
            + h * h * bundle.stiffness.apply(phi)
            + h * h * beta_f(phi)
            + h * h * pi_f(phi)
            + bundle.eta * h * h * bundle.coupling.apply(shifted)
            - g)


def _tridiag_product_bands(d1, o1, d2, o2):
    """Pentadiagonal bands (solve_banded layout) of T1 @ T2 for symmetric
    tridiagonal T1 = (d1, o1), T2 = (d2, o2)."""
    n = d1.size
    P = np.zeros((5, n))
    P[0, 2:] = o1[:-1] * o2[1:]
    P[1, 1:] = d1[:-1] * o2 + o1 * d2[1:]
    P[2, :] = d1 * d2
    P[2, 1:] += o1 * o2
    P[2, :-1] += o1 * o2
    P[3, :-1] = o1 * d2[:-1] + d1[1:] * o2
    P[4, :-2] = o1[1:] * o2[:-1]
    return P


def _newton(g, bundle, cfg, beta_f, beta_p, pi_f, pi_p, phi0):
    """Newton iteration on the per-step elliptic equation.

    The Jacobian is T1 + eta h^2 coupling (I + h diffusion)^{-1} with T1
    tridiagonal; writing the update as (I + h diffusion) w eliminates the
    resolvent and leaves one pentadiagonal banded solve per iteration.
    Iterations continue past the tolerance while the residual still drops
    fast, so accepted steps sit at the attainable floor.
    """
    grid = bundle.grid
    h = cfg.h
    gn = h_norm(grid, g)
    target = cfg.newton_tol * (1.0 + gn)
    floor = 8.0 * _EPS * (1.0 + gn)

    d2 = 1.0 + h * bundle.diffusion.diag
    o2 = h * bundle.diffusion.offdiag
    lin_d = (bundle.mass.diag + h * bundle.damping.diag
             + h * h * bundle.stiffness.diag)
    lin_o = (bundle.mass.offdiag + h * bundle.damping.offdiag
             + h * h * bundle.stiffness.offdiag)
    cpl_d = bundle.eta * h * h * bundle.coupling.diag
    cpl_o = bundle.eta * h * h * bundle.coupling.offdiag

    phi = np.array(phi0, dtype=float)
    res_vec = _elliptic_residual(phi, g, bundle, h, beta_f, pi_f)
    res = h_norm(grid, res_vec)
    if res == 0.0:
        return phi, 0, res
    prev = math.inf
    for it in range(1, cfg.newton_max_iter + 1):
        d1 = lin_d + h * h * (beta_p(phi) + pi_p(phi))
        P = _tridiag_product_bands(d1, lin_o, d2, o2)
        P[2, :] += cpl_d
        P[1, 1:] += cpl_o
        P[3, :-1] += cpl_o
        w = scipy.linalg.solve_banded((2, 2), P, -res_vec)
        dphi = d2 * w
        dphi[:-1] += o2 * w[1:]
        dphi[1:] += o2 * w[:-1]
        phi = phi + dphi
        res_vec = _elliptic_residual(phi, g, bundle, h, beta_f, pi_f)
        res = h_norm(grid, res_vec)
        if res <= floor:
            return phi, it, res
        if res <= target and res > 0.125 * prev:
            return phi, it, res
        prev = res
    if res <= target:
        return phi, cfg.newton_max_iter, res
    raise NewtonDivergedError(cfg.newton_max_iter, res)


def solve_phi(g: np.ndarray, bundle: OperatorBundle, nonlin: Nonlinearity,
              cfg: StepConfig, phi0: np.ndarray | None = None):
    """Solve the per-step elliptic equation; returns (phi, iters, residual).

    The direct path applies Newton to the equation as stated.  The
    regularized path replaces beta by its resolvent smoothing and continues
    the smoothing parameter down a decreasing schedule with warm starts;
    the reported residual is always measured against the unsmoothed
    equation.
    """
    if phi0 is None:
        phi0 = np.zeros(bundle.grid.n_interior)
    if cfg.solve_path == "direct" or not nonlin.has_beta:
        return _newton(g, bundle, cfg, nonlin.beta, nonlin.beta_prime,
                       nonlin.pi, nonlin.pi_prime, phi0)
    phi = np.array(phi0, dtype=float)
    iters = 0
    for lam in cfg.yosida_lambdas:
        phi, it, _ = _newton(
            g, bundle, cfg,
            lambda r, lam=lam: nonlin.yosida(lam, r),
            lambda r, lam=lam: nonlin.yosida_prime(lam, r),
            nonlin.pi, nonlin.pi_prime, phi)
        iters += it
    res = h_norm(bundle.grid,
                 _elliptic_residual(phi, g, bundle, cfg.h, nonlin.beta, nonlin.pi))
    return phi, iters, res


def step(state: State, bundle: OperatorBundle, nonlin: Nonlinearity,
         cfg: StepConfig) -> tuple[State, StepReport]:
    """Advance one step and audit both scheme equations on the new state.

    The audit threshold carries a floating-point floor of order
    eps / h^2 beside the solver tolerance: the acceleration equation is a
    second difference quotient of phi+, so representation error of phi+
    alone contributes at that scale.
    """
    grid = bundle.grid
    h = cfg.h
    g = phi_equation_rhs(state, bundle, h)
    phi1, iters, res = solve_phi(g, bundle, nonlin, cfg, phi0=state.phi + h * state.v)

    theta_rhs = state.theta + bundle.eta * (state.phi - phi1)
    theta1 = resolvent_solve(bundle.diffusion, h, theta_rhs)
    theta_res = h_norm(grid, theta1 + h * bundle.diffusion.apply(theta1) - theta_rhs)

    v1 = (phi1 - state.phi) / h
    z1 = (v1 - state.v) / h

    heat_res = h_norm(grid, (theta1 - state.theta) / h + bundle.eta * v1
                      + bundle.diffusion.apply(theta1))
    wave_res = h_norm(grid, bundle.mass.apply(z1) + bundle.damping.apply(v1)
                      + bundle.stiffness.apply(phi1) + nonlin.beta(phi1)
                      + nonlin.pi(phi1) - bundle.coupling.apply(theta1))

    gn = h_norm(grid, g)
    audit = max(10.0 * cfg.newton_tol, 32.0 * _EPS / (h * h)) * (1.0 + gn)
    if wave_res > audit or heat_res > audit:
        raise RuntimeError(f"scheme residual audit failed at step {state.t_index}: "
                           f"heat {heat_res:.3e}, wave {wave_res:.3e}, allowed {audit:.3e}")

    new_state = State(theta1, phi1, v1, z1, state.t_index + 1, h)
    report = StepReport(newton_iters=iters, final_residual=res,
                        theta_residual=theta_res, heat_residual=heat_res,
                        wave_residual=wave_res, rhs_norm=gn)
    return new_state, report


def run(initial, bundle: OperatorBundle, nonlin: Nonlinearity, T: float,
        cfg: StepConfig) -> RunResult:
    """Integrate from t = 0 to T; T / h must be a whole number of steps.

    On Newton divergence the partial trajectory is returned with the index
    of the failed step.  The initial state's acceleration is backfilled
    with the first computed one, matching the scheme's startup convention.
    """
    theta0, phi0, v0 = (np.array(u, dtype=float) for u in initial)
    for name, u in (("theta0", theta0), ("phi0", phi0), ("v0", v0)):
        if u.shape != (bundle.grid.n_interior,):
            raise ValueError(f"{name} does not match the grid")
        if not np.all(np.isfinite(u)):
            raise ValueError(f"{name} has non-finite entries")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    n_steps = round(T / cfg.h)
    if n_steps < 1 or abs(n_steps * cfg.h - T) > 1e-9 * T:
        raise ValueError(f"T/h = {T / cfg.h} is not a positive integer")
    threshold = bundle.h_threshold(nonlin.lipschitz_const)
    if cfg.h >= threshold:
        warnings.warn(f"h = {cfg.h} is at or above the solvability threshold "
                      f"{threshold:.6g}; attempting anyway", RuntimeWarning,
                      stacklevel=2)

    state = State(theta0, phi0, v0, np.zeros_like(phi0), 0, cfg.h)
    states = [state]
    reports = []
    failure = None
    for n in range(n_steps):
        try:
            state, report = step(state, bundle, nonlin, cfg)
        except NewtonDivergedError:
            failure = n
            break
        states.append(state)
        reports.append(report)
    if len(states) > 1:
        states[0] = replace(states[0], z=states[1].z)
    return RunResult(states=states, reports=reports, failure_index=failure)
