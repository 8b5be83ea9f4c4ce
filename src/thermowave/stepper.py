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
complement, keeping every step O(n); everything constant for a fixed
bundle and step size is built once per run in a ``StepPlan``.  Below the
bundle's ``h_threshold`` the elliptic operator is strictly monotone and the
step has a unique solution; larger steps are attempted anyway and
divergence is reported, never silently accepted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._lapack import _check_lapack_info, gbtrf as _GBTRF, gbtrs as _GBTRS
from .nonlinearity import Nonlinearity
from .operators import (IDENTITY, OperatorBundle, PicklableError, Resolvent,
                        ResolventAuditError, h_norm)

_EPS = float(np.finfo(float).eps)

# the smoothing parameters of the regularized path's continuation, in order
YOSIDA_LAMBDAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


class NewtonDivergedError(PicklableError, RuntimeError):
    """Newton ran out of iterations, met a non-finite residual or an
    iterate whose norm |phi+| overflowed (``overflowed``); h may exceed the
    solvability threshold, the data the float range, or ``newton_max_iter``
    be too small for ``newton_tol``."""

    def __init__(self, iters: int, residual: float, allowed: float | None = None,
                 overflowed: bool = False):
        cap = f" above the allowed {allowed:.3e} at newton_max_iter {iters}" if allowed else ""
        if overflowed:
            cap = ", |phi+| overflowed"
        super().__init__(f"Newton did not converge in {iters} iterations "
                         f"(last residual {residual:.3e}{cap})")
        self.iters = iters
        self.residual = residual


@dataclass(frozen=True)
class StepConfig:
    h: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    solve_path: str = "direct"  # "direct" | "yosida"

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not (self.h * self.h > 0 and math.isfinite(1.0 / (self.h * self.h))):
            # the step equation is scaled by 1/h^2
            raise ValueError(f"h must be large enough that 1/h^2 is finite, got {self.h}")
        if not self.newton_tol > 0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"newton_max_iter must be at least 1, got {self.newton_max_iter}")
        if self.solve_path not in ("direct", "yosida"):
            raise ValueError(f"solve_path must be 'direct' or 'yosida', got {self.solve_path!r}")


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
        arrs = [np.array(getattr(self, name), dtype=float)  # private copies
                for name in ("theta", "phi", "v", "z")]
        if arrs[0].ndim != 1 or any(a.shape != arrs[0].shape for a in arrs):
            raise ValueError("state vectors must share one dimension")
        self._seal(*arrs)

    def _seal(self, theta, phi, v, z):
        """Set the vectors, made read-only."""
        for a in (theta, phi, v, z):
            a.setflags(write=False)
        self.__dict__.update(theta=theta, phi=phi, v=v, z=z)

    @classmethod
    def _stepped(cls, theta, phi, v, z, t_index, h):
        """The state of vectors no caller can write: a step's results,
        ``iter_run``'s checked copies or another state's own.  They are 1-D
        float arrays of one shape by construction, so ``__post_init__``'s
        checks and copies are skipped."""
        state = object.__new__(cls)
        state.__dict__.update(t_index=t_index, h=h)
        state._seal(theta, phi, v, z)
        return state

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
    """A run's states and step reports, and the exception of the failed
    step when the run stopped early (``failure``, None for a complete run)."""

    states: list
    reports: list
    failure: RuntimeError | None = None

    @property
    def failure_index(self) -> int | None:
        """Index of the failed step; every step before it has a report."""
        return None if self.failure is None else len(self.reports)

    @property
    def complete(self) -> bool:
        return self.failure is None


class StepAuditError(PicklableError, RuntimeError):
    """A computed step failed the scheme-residual audit."""


class StepPlan:
    """The linear algebra shared by every step of one (bundle, h): built
    once per run, so no step factors or assembles anything constant.

    It holds the heat resolvent (I + h diffusion) factored once, the
    constant bands of the Newton Jacobian, one band buffer that holds the
    Jacobian's LU factor, and the rounding scales of ``bounds``, the step's
    acceptance policy (see ``newton_direction`` for when the factor is
    renewed).  It decides once whether the step has a pi term (``has_pi``:
    a zero pi adds nothing, so no step evaluates it) and binds ``norm``,
    the grid H norm of the stepper's own vectors: ``h_norm``'s bits
    without its shape check.  ``nonlin`` may be omitted by callers that
    only need the resolvent (``phi_equation_rhs``).  The band buffer makes
    a plan single-threaded: concurrent runs each build their own.

    It binds the unchecked product kernels of the operators (``mass``,
    ``damping``, ``stiffness``, ``coupling``, ``shifted``), with the bits of
    the checked calls.  A unit identity (kind ``identity``, coeff 1.0) is
    bound as u itself, which has the bits of 1.0 * u without the copy; so
    a product may be its argument, and no step writes a product, or any
    array it did not make, in place.  ``_solve`` makes the audited
    resolvent solve and returns its products with coupling(x), which is
    the audit's diffusion(x) when coupling applies as diffusion.

    The vector multipliers h, h^2, eta h^2 and eta are held as 0-d float64
    arrays (``_h``, ``_h2``, ``_eta_h2``, ``_eta``): a product with one has
    the bits of the product with the float, but converts nothing per call.
    ``h``, ``h2`` and ``eta_h2`` stay floats, as does every scalar formula
    (``bounds``, norms), so nothing that reaches a report prints as a NumPy
    scalar.

    A plan also carries the last audited step's phi+ with mass(phi+),
    damping(phi+) and |phi+|, and its theta+ with |theta+|, written by
    ``step`` alone; ``phi_equation_rhs`` and ``step`` take them from the
    carry only for that very (sealed) array object, so any other array,
    however close, gets its own.
    """

    def __init__(self, bundle: OperatorBundle, h: float, nonlin: Nonlinearity | None = None):
        self.resolvent = Resolvent(bundle.diffusion, h)  # rejects h <= 0
        self.bundle = bundle
        self.h = h
        self.h2, self.eta_h2 = h * h, bundle.eta * h * h  # left to right, as written inline
        self._h, self._h2, self._eta_h2, self._eta = (
            np.array(x, float) for x in (h, self.h2, self.eta_h2, bundle.eta))
        self.nonlin = nonlin
        self.linear = nonlin is not None and nonlin.is_linear
        self.has_pi = nonlin is not None and nonlin.pi_kind != "zero"
        dx = bundle.grid.dx
        self.norm = lambda u: math.sqrt(dx * u.dot(u))
        self.mass, self.damping, self.stiffness, self.coupling = (
            _unit if op.kind == IDENTITY and op.coeff == 1.0 else op._product
            for op in (bundle.mass, bundle.damping, bundle.stiffness, bundle.coupling))
        self.shifted = self.resolvent.shifted._product
        self.coupling_is_diffusion = bundle.coupling.applies_as(bundle.diffusion)

        # Newton Jacobian T1 (I + h diffusion) + eta h^2 coupling with
        # T1 = lin + h^2 (beta' + pi'); see _newton.
        self.d2, self.o2 = self.resolvent.shifted.diag, self.resolvent.shifted.offdiag
        self.lin_d = (bundle.mass.diag + h * bundle.damping.diag
                      + self.h2 * bundle.stiffness.diag)
        self.lin_o = (bundle.mass.offdiag + h * bundle.damping.offdiag
                      + self.h2 * bundle.stiffness.offdiag)
        self.cpl_d = self.eta_h2 * bundle.coupling.diag
        self.cpl_o = self.eta_h2 * bundle.coupling.offdiag
        # gbtrf band layout: rows 0-1 hold the LU fill-in, rows 2-6 the
        # pentadiagonal (solve_banded layout); the outermost bands and the
        # T1-independent products are the same for every iteration.
        n = bundle.grid.n_interior
        o1, d2, o2 = self.lin_o, self.d2, self.o2
        self._template = np.zeros((7, n), order="F")
        self._template[2, 2:] = o1[:-1] * o2[1:]
        self._template[6, :-2] = o1[1:] * o2[:-1]
        self._upper = o1 * d2[1:]
        self._lower = o1 * d2[:-1]
        self._cross = o1 * o2
        self._bands = P = np.empty((7, n), order="F")
        self._rows = (P[3, 1:], P[4], P[4, 1:], P[4, :-1], P[5, :-1])  # what _fill_bands writes
        self._lu = self._piv = None  # the Jacobian's LU factor, once computed, and its pivots

        # Rounding scales of the step's acceptance policy; see bounds().
        self.coupling_norm = bundle.coupling.norm_bound()
        self.wave_scale = (bundle.mass.norm_bound() / self.h2 + bundle.damping.norm_bound() / h
                           + bundle.stiffness.norm_bound() + bundle.eta * self.coupling_norm)
        self.heat_scale = 1.0 / h + bundle.diffusion.norm_bound()
        # step's last phi+, mass(phi+), damping(phi+), |phi+|, theta+, |theta+|
        self._carry = (None, None, None, None, None, None)

    def bounds(self, tol, gn, phi_n, theta_n=0.0, heat_n=0.0):
        """The step's acceptance policy (wave, heat, newton) at tolerance
        ``tol``, |g| = gn, |phi+| = phi_n, |theta+| = theta_n and
        heat_n = |theta| + eta (|phi| + |phi+|).

        The audit allows each scheme equation max(10 tol (1 + |g|), floor),
        the floor 32 eps times the rounding scale of evaluating it (|.| the
        grid H-norm, |op| its ``norm_bound``).  h^2 times the wave equation
        is the elliptic equation, which rounds at eps (|g| + h^2 wave_scale
        |phi+|): h^2 wave_scale bounds mass + h damping + h^2 stiffness
        + eta h^2 coupling, and so the pointwise terms.  Over h^2, with
        coupling(theta+), the wave scale is (1 + |g|) / h^2 + wave_scale
        |phi+| + |coupling| |theta+|; z+ and v+ round at it too.  h times
        the heat equation is theta+'s resolvent equation, which rounds at
        eps ((1 + h |diffusion|) |theta+| + |theta + eta (phi - phi+)|);
        over h, heat_scale |theta+| + heat_n / h.

        Newton's residual is h^2 times the wave residual but for rounding,
        which a margin of half the wave floor covers: Newton accepts within
        h^2 newton, the wave bound less that margin at theta_n = 0 (which
        only lowers it), so each step it accepts passes the wave audit.  It
        stops at once within half of h^2 newton at tol = phi_n = 0, 8 eps
        (1 + |g|): the rounding of g.
        """
        scale = _EPS * ((1.0 + gn) / self.h2 + self.wave_scale * phi_n
                        + self.coupling_norm * theta_n)
        solver = 10.0 * tol * (1.0 + gn)
        heat = max(solver, 32.0 * _EPS * (self.heat_scale * theta_n + heat_n / self.h))
        # newton is wave - 16 scale, but inf rather than nan for an infinite scale
        return max(solver, 32.0 * scale), heat, max(solver - 16.0 * scale, 16.0 * scale)

    def _solve(self, rhs):
        """x = (I + h diffusion)^{-1} rhs, audited, with coupling(x) and the
        audit's diffusion(x) and rhs - (x + h diffusion(x))."""
        x, diffusion, misfit = self.resolvent._solve(rhs)
        coupling = diffusion if self.coupling_is_diffusion else self.coupling(x)
        return x, coupling, diffusion, misfit

    def _fill_bands(self, d1):
        """Pentadiagonal bands of T1 (I + h diffusion) + eta h^2 coupling
        for T1 = (d1, lin_o), written into the band buffer."""
        upper, diag, diag_right, diag_left, lower = self._rows
        self._bands[...] = self._template
        np.multiply(d1[:-1], self.o2, out=upper)
        upper += self._upper
        upper += self.cpl_o
        np.multiply(d1, self.d2, out=diag)
        diag_right += self._cross
        diag_left += self._cross
        diag += self.cpl_d
        np.multiply(d1[1:], self.o2, out=lower)
        lower += self._lower
        lower += self.cpl_o

    def newton_direction(self, phi, rhs, lam):
        """w with J(phi) w = rhs, J the Newton Jacobian in the eliminated
        form of the equation smoothed with ``lam`` (None: as stated);
        ``rhs`` is overwritten.  The Jacobian is factored afresh at every
        call unless the plan is linear: beta' + pi' of a linear nonlinearity
        is the same at every phi, so its first factor serves the whole run."""
        if self._lu is None or not self.linear:
            nonlin = self.nonlin
            slope = nonlin.beta_prime(phi) if lam is None else nonlin.yosida_prime(lam, phi)
            if self.has_pi:
                slope = slope + nonlin.pi_prime(phi)
            self._fill_bands(self.lin_d + self._h2 * slope)
            lu, piv, info = _GBTRF(self._bands, 2, 2, overwrite_ab=1)
            _check_lapack_info(info, "gbtrf", "singular matrix")
            self._lu, self._piv = lu, piv
        w, info = _GBTRS(self._lu, 2, 2, rhs, self._piv, overwrite_b=1)
        _check_lapack_info(info, "gbtrs", "singular matrix")
        return w


def _unit(u):
    """The product of a unit identity, 1.0 * u: u itself, which has its bits."""
    return u


def _plan_for(plan, bundle, h, nonlin=None) -> StepPlan:
    """``plan`` once checked against the call's arguments, or a new plan."""
    if plan is None:
        return StepPlan(bundle, h, nonlin)
    if plan.bundle is not bundle or plan.h != h or (
            nonlin is not None and plan.nonlin is not nonlin and plan.nonlin != nonlin):
        raise ValueError("step plan was built for another bundle, step size or nonlinearity")
    return plan


def phi_equation_rhs(state: State, bundle: OperatorBundle, h: float,
                     plan: StepPlan | None = None) -> np.ndarray:
    """Right-hand side g of the per-step elliptic equation for phi+."""
    return _rhs(state, _plan_for(plan, bundle, h))


def _rhs(state, plan):
    """``phi_equation_rhs`` with a plan already checked against its arguments."""
    phi, h, n = state.phi, plan._h, plan.bundle.grid.n_interior
    if phi.shape != (n,):
        raise ValueError(f"dimension mismatch: grid has {n} unknowns, state shape {phi.shape}")
    _, coupling, _, _ = plan._solve(plan._eta * phi + state.theta)
    carried, mass, damping = plan._carry[:3]
    if phi is not carried:
        mass, damping = plan.mass(phi), plan.damping(phi)
    return mass + h * plan.mass(state.v) + h * damping + plan._h2 * coupling


def _elliptic_residual(phi, g, plan, lam):
    """The residual at phi of the equation smoothed with ``lam`` (None: as
    stated), and its terms that depend on phi alone: (mass, damping,
    stiffness, beta, pi), pi None when the plan has no pi term."""
    h2, nonlin = plan._h2, plan.nonlin
    mass, damping, stiffness = plan.mass(phi), plan.damping(phi), plan.stiffness(phi)
    beta = nonlin.beta(phi) if lam is None else nonlin.yosida(lam, phi)
    res = mass + plan._h * damping + h2 * stiffness + h2 * beta
    pi = None
    if plan.has_pi:
        pi = nonlin.pi(phi)
        res += h2 * pi
    res += plan._eta_h2 * plan._solve(phi)[1]
    res -= g
    return res, (mass, damping, stiffness, beta, pi)


def _newton(g, gn, plan, cfg, lam, phi0):
    """Newton iteration on the per-step elliptic equation, smoothed with
    ``lam`` (None: as stated), from phi0, a float vector it never writes.

    The Jacobian is T1 + eta h^2 coupling (I + h diffusion)^{-1} with T1
    tridiagonal; writing the update as (I + h diffusion) w eliminates the
    resolvent and leaves one pentadiagonal banded solve per iteration.
    Iterations go on while the residual falls by more than 8x, so accepted
    steps sit at the attainable floor, within ``StepPlan.bounds``.  Returns
    the iterate, the iteration count and the residual's norm and terms.
    """
    stop = 0.5 * plan.h2 * plan.bounds(0.0, gn, 0.0)[2]
    phi = phi0
    res_vec, terms = _elliptic_residual(phi, g, plan, lam)
    res = plan.norm(res_vec)
    if res == 0.0:
        return phi, 0, res, terms
    prev = math.inf
    for it in range(1, cfg.newton_max_iter + 1):
        if not math.isfinite(res):
            raise NewtonDivergedError(it - 1, res)
        w = plan.newton_direction(phi, -res_vec, lam)
        phi = phi + plan.shifted(w)
        res_vec, terms = _elliptic_residual(phi, g, plan, lam)
        res = plan.norm(res_vec)
        if res <= stop:
            return phi, it, res, terms
        if res > 0.125 * prev or it == cfg.newton_max_iter:
            phi_n = plan.norm(phi)
            if not phi_n < math.inf:
                raise NewtonDivergedError(it, res, overflowed=True)
            allowed = plan.h2 * plan.bounds(cfg.newton_tol, gn, phi_n)[2]
            if res <= allowed:
                return phi, it, res, terms
        prev = res
    raise NewtonDivergedError(cfg.newton_max_iter, res, allowed)


def solve_phi(g: np.ndarray, bundle: OperatorBundle, nonlin: Nonlinearity,
              cfg: StepConfig, phi0: np.ndarray | None = None,
              plan: StepPlan | None = None):
    """Solve the per-step elliptic equation; returns (phi, iters, residual).

    The direct path applies Newton to the equation as stated.  The
    regularized path first replaces beta by its resolvent smoothing and
    continues the smoothing parameter down ``YOSIDA_LAMBDAS`` with warm
    starts; from its last iterate it then solves the equation as stated,
    like the direct path.  The iterations of every stage are counted, and
    nothing but Newton's factor cache is written to the plan.
    """
    plan = _plan_for(plan, bundle, cfg.h, nonlin)
    n = bundle.grid.n_interior
    phi0 = np.zeros(n) if phi0 is None else np.array(phi0, dtype=float)  # never the caller's
    if phi0.shape != (n,):
        raise ValueError(f"dimension mismatch: grid has {n} unknowns, phi0 shape {phi0.shape}")
    return _stages(g, h_norm(bundle.grid, g), plan, cfg, phi0)[:3]


def _stages(g, gn, plan, cfg, phi0):
    """``solve_phi``'s stages from phi0, given |g| = gn, and the terms of
    the last residual, evaluated at phi on the equation as stated."""
    smoothed = YOSIDA_LAMBDAS if cfg.solve_path == "yosida" and plan.nonlin.has_beta else ()
    phi, iters = phi0, 0
    for lam in (*smoothed, None):
        phi, it, res, terms = _newton(g, gn, plan, cfg, lam, phi)
        iters += it
    return phi, iters, res, terms


def step(state: State, bundle: OperatorBundle, nonlin: Nonlinearity,
         cfg: StepConfig, plan: StepPlan | None = None) -> tuple[State, StepReport]:
    """Advance one step and audit both scheme equations on the new state
    against ``StepPlan.bounds``, raising ``StepAuditError`` if either fails.

    The audit takes the products that an earlier computation made from the
    same array from it: stiffness(phi+), beta(phi+) and any pi(phi+) from
    Newton's last residual, diffusion(theta+), the resolvent equation's
    residual and, when coupling applies as diffusion, coupling(theta+) from
    the theta+ solve's own audit, and |phi| and |theta| of a state the last
    step made from its carry.  Only a step that passes writes the carry.
    """
    plan = _plan_for(plan, bundle, cfg.h, nonlin)
    h, eta, norm = plan._h, plan._eta, plan.norm
    g = _rhs(state, plan)
    gn = norm(g)
    # second-order predictor: phi + h v+ with v+ extrapolated as v + h z
    phi1, iters, res, (mass, damping, stiffness, beta, pi) = _stages(
        g, gn, plan, cfg, state.phi + h * (state.v + h * state.z))

    d = phi1 - state.phi
    # the bits of theta + eta (phi - phi1), negation being exact, but for
    # the sign of a zero entry
    theta_rhs = state.theta - eta * d
    # the solve's audit evaluated rhs - (theta1 + h diffusion(theta1)): the
    # negated heat resolvent residual, whose norm has the same bits
    theta1, coupling_theta1, diffusion_theta1, theta_misfit = plan._solve(theta_rhs)
    theta_res = norm(theta_misfit)

    v1 = d / h
    z1 = (v1 - state.v) / h

    heat_res = norm((theta1 - state.theta) / h + eta * v1 + diffusion_theta1)
    wave = plan.mass(z1) + plan.damping(v1) + stiffness + beta
    if plan.has_pi:
        wave += pi
    wave -= coupling_theta1
    wave_res = norm(wave)

    phi1_n, theta1_n = norm(phi1), norm(theta1)
    carried_phi, _, _, phi_n, carried_theta, theta_n = plan._carry  # the last step's
    if state.phi is not carried_phi:
        phi_n = norm(state.phi)
    if state.theta is not carried_theta:
        theta_n = norm(state.theta)
    wave_allowed, heat_allowed, _ = plan.bounds(cfg.newton_tol, gn, phi1_n, theta1_n,
                                                theta_n + bundle.eta * (phi_n + phi1_n))
    if not (wave_res <= wave_allowed < math.inf and heat_res <= heat_allowed < math.inf):
        raise StepAuditError(f"scheme residual audit failed at step {state.t_index}: "
                             f"heat {heat_res:.3e} (allowed {heat_allowed:.3e}), "
                             f"wave {wave_res:.3e} (allowed {wave_allowed:.3e})")

    plan._carry = (phi1, mass, damping, phi1_n, theta1, theta1_n)
    new_state = State._stepped(theta1, phi1, v1, z1, state.t_index + 1, cfg.h)
    report = StepReport(newton_iters=iters, final_residual=res,
                        theta_residual=theta_res, heat_residual=heat_res,
                        wave_residual=wave_res, rhs_norm=gn)
    return new_state, report


def step_count(T: float, h: float) -> int:
    """Number of steps of size h from t = 0 to T, which must be whole."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if h > 0 and math.isinf(T / h):
        raise ValueError(f"h = {h} divides T = {T} into more steps than a float can count")
    n_steps = round(T / h) if h > 0 else 0
    if n_steps < 1 or abs(n_steps * h - T) > 1e-9 * T:
        raise ValueError(f"h = {h} does not divide T = {T} into a whole number of steps")
    return n_steps


def iter_run(initial, bundle: OperatorBundle, nonlin: Nonlinearity, T: float,
             cfg: StepConfig) -> Trajectory:
    """Integrate from t = 0 to T one state at a time; T / h must be a whole
    number of steps.

    Returns a ``Trajectory`` of (state, report) pairs, each state once:
    the initial state with report None, then every stepped state with the
    report of the step into it.  The initial state comes after the first
    step, with its acceleration backfilled by the first computed one (the
    scheme's startup convention), or alone when that step fails.  Once the
    pairs run out, the trajectory's ``failure`` is None for a complete run,
    or the exception of the failed step on Newton divergence, a failed
    step audit or a failed resolvent audit (every such message names the
    step, "at step k"), its ``last`` is the last state, whose ``t_index``
    is the number of steps taken, and its ``failure_index`` that index
    when the run failed.  Its ``StopIteration``
    carries the failure, so ``yield from iter_run(...)`` returns it.  The
    data are checked, and a step at or above ``h_threshold`` warned about,
    when ``iter_run`` is called.  The constant linear algebra of all steps
    is built once, as one ``StepPlan``.  Nothing is kept beyond the
    current state, so memory does not grow with the number of steps.
    """
    theta0, phi0, v0 = (np.array(u, dtype=float) for u in initial)
    for name, u in (("theta0", theta0), ("phi0", phi0), ("v0", v0)):
        if u.shape != (bundle.grid.n_interior,):
            raise ValueError(f"{name} does not match the grid")
        if not np.all(np.isfinite(u)):
            raise ValueError(f"{name} has non-finite entries")
    n_steps = step_count(T, cfg.h)
    threshold = bundle.h_threshold(nonlin.lipschitz_const)
    if cfg.h >= threshold:
        warnings.warn(f"h = {cfg.h} is at or above the solvability threshold "
                      f"{threshold:.6g}; attempting anyway", RuntimeWarning,
                      stacklevel=2)
    plan = StepPlan(bundle, cfg.h, nonlin)
    state = State._stepped(theta0, phi0, v0, np.zeros_like(phi0), 0, cfg.h)
    return Trajectory(state, n_steps, bundle, nonlin, cfg, plan)


class Trajectory:
    """``iter_run``'s run: an iterator of its (state, report) pairs that,
    once they run out, holds how the run ended as ``failure`` and ``last``."""

    def __init__(self, state, n_steps, bundle, nonlin, cfg, plan):
        self.failure = self.last = None
        self._pairs = self._steps(state, n_steps, bundle, nonlin, cfg, plan)

    @property
    def failure_index(self) -> int | None:
        """Index of the failed step, the last state's; None for a complete run."""
        return None if self.failure is None else self.last.t_index

    def _steps(self, state, n_steps, bundle, nonlin, cfg, plan):
        initial = state
        for _ in range(n_steps):
            try:
                state, report = step(state, bundle, nonlin, cfg, plan)
            except (NewtonDivergedError, StepAuditError, ResolventAuditError) as exc:
                if not isinstance(exc, StepAuditError):  # which names its step already
                    exc.args = (f"{exc} at step {state.t_index}",)
                if initial is not None:
                    yield initial, None
                self.failure = exc
                return exc
            if initial is not None:
                yield State._stepped(initial.theta, initial.phi, initial.v, state.z,
                                     0, cfg.h), None
                initial = None
            yield state, report

    def __iter__(self):
        return self

    def __next__(self):  # the pairs' StopIteration carries the failure
        self.last, report = next(self._pairs)
        return self.last, report


def run(initial, bundle: OperatorBundle, nonlin: Nonlinearity, T: float,
        cfg: StepConfig) -> RunResult:
    """The states and reports of ``iter_run``'s trajectory, collected with
    its ``failure``: a failed step ends the run, and the partial trajectory
    is returned with the step's index as ``failure_index``."""
    trajectory = iter_run(initial, bundle, nonlin, T, cfg)
    pairs = list(trajectory)  # only the first pair has no report
    return RunResult(states=[s for s, _ in pairs], reports=[r for _, r in pairs[1:]],
                     failure=trajectory.failure)
