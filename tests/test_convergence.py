import math

import numpy as np
import pytest
from conftest import p1_defaults, p2_defaults

from thermowave import (LinearReference, StepConfig, SweepDivergedError, build_interpolants,
                        check_h_list, cubic_nonlinearity, error_norms, fine_reference,
                        linear_reaction, run, single_mode, sweep, zero_profile)


def test_self_comparison_is_zero():
    bundle, nl = p2_defaults(n=24)
    init = single_mode(bundle.grid, 1, 1.0, 0.5, 0.0)
    h = 1.0 / 32
    result = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=h))
    ref = build_interpolants(result.states)
    report = error_norms(result.states, ref, bundle)
    assert all(abs(e) <= 1e-13 for e in report.as_tuple())


def test_zero_trajectory_zero_reference():
    bundle, nl = p1_defaults(n=16)
    result = run(zero_profile(bundle.grid), bundle, nl, T=0.25, cfg=StepConfig(h=1 / 16))
    ref = LinearReference(zero_profile(bundle.grid), bundle, nl)
    report = error_norms(result.states, ref, bundle)
    assert report.total == 0.0


def brute_force_norms(states, reference, bundle, oversample=10):
    """Independent evaluation on a dense time grid: sup over all samples,
    midpoint-rule integrals on the fine subgrid."""
    grid = bundle.grid
    h = states[1].h
    N = len(states) - 1
    hat = {name: np.stack([getattr(s, name) for s in states])
           for name in ("theta", "phi", "v")}

    def hat_at(name, t):
        pos = t / h
        j = min(int(math.floor(pos)), N - 1)
        w = pos - j
        return (1 - w) * hat[name][j] + w * hat[name][j + 1]

    def bar_at(name, t):
        j = min(int(math.floor(t / h)), N - 1)
        return hat[name][j + 1]

    def form(op, d):
        return grid.dx * float(np.dot(op.apply(d), d))

    def v2(d):
        base = grid.dx * float(np.dot(d, d))
        dd = np.diff(d, prepend=0.0, append=0.0) if grid.bc == "dirichlet" else np.diff(d)
        return base + float(np.dot(dd, dd)) / grid.dx

    def h2(d):
        return grid.dx * float(np.dot(d, d))

    m = oversample
    t_sup = np.arange(N * m + 1) * (h / m)
    ref_sup = reference.sample(t_sup)
    sup1 = sup3 = sup4 = sup6 = 0.0
    for i, t in enumerate(t_sup):
        dv = hat_at("v", t) - ref_sup["v"][i]
        dphi = hat_at("phi", t) - ref_sup["phi"][i]
        dth = hat_at("theta", t) - ref_sup["theta"][i]
        sup1 = max(sup1, form(bundle.mass, dv))
        sup3 = max(sup3, v2(dphi))
        sup4 = max(sup4, h2(dth))
        sup6 = max(sup6, form(bundle.coupling, dth))

    t_mid = (np.arange(N * m) + 0.5) * (h / m)
    ref_mid = reference.sample(t_mid)
    i2 = i5 = i7 = 0.0
    for i, t in enumerate(t_mid):
        dv = bar_at("v", t) - ref_mid["v"][i]
        dth = bar_at("theta", t) - ref_mid["theta"][i]
        i2 += form(bundle.damping, dv) * (h / m)
        i5 += v2(dth) * (h / m)
        i7 += grid.dx * float(np.dot(bundle.coupling.apply(dth),
                                     bundle.diffusion.apply(dth))) * (h / m)
    return (math.sqrt(sup1), math.sqrt(i2), math.sqrt(sup3), math.sqrt(sup4),
            math.sqrt(i5), math.sqrt(sup6), i7)


def test_error_norms_match_oversampled_quadrature():
    bundle, nl = p1_defaults(n=64, m=0.0)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    h = 1.0 / 64
    result = run(init, bundle, nl, T=0.5, cfg=StepConfig(h=h))
    ref = LinearReference(init, bundle, nl)
    report = error_norms(result.states, ref, bundle)
    brute = brute_force_norms(result.states, ref, bundle, oversample=10)
    for got, want in zip(report.as_tuple(), brute):
        if want == 0.0:
            assert got <= 1e-12
        else:
            assert abs(got - want) <= 0.01 * want, (got, want)


def test_p1_damping_error_identically_zero():
    bundle, nl = p1_defaults(n=32, m=0.0)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    result = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=1 / 32))
    ref = LinearReference(init, bundle, nl)
    report = error_norms(result.states, ref, bundle)
    assert report.e2 == 0.0


def test_sweep_linear_first_order():
    bundle, nl = p1_defaults(n=64, m=0.0)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    h_list = [1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256, 1.0 / 512]
    result = sweep(init, bundle, nl, T=0.5, h_list=h_list)
    assert result.reference_kind == "modal"
    assert result.fitted_order >= 0.45
    assert result.fitted_M < math.inf
    # every nonzero error figure decays monotonically up to 5% slack
    for i in range(7):
        vals = [r.as_tuple()[i] for r in result.reports]
        for a, b in zip(vals, vals[1:]):
            if a > 1e-13 or b > 1e-13:
                assert b <= 1.05 * a


def test_sweep_total_scaled_by_sqrt_h_bounded():
    bundle, nl = p1_defaults(n=64, m=0.0)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    h_list = [1.0 / 32, 1.0 / 64, 1.0 / 128]
    result = sweep(init, bundle, nl, T=0.5, h_list=h_list)
    scaled = [r.total / math.sqrt(r.h) for r in result.reports]
    assert max(scaled) <= scaled[0] * 1.05
    assert result.fitted_M == max(scaled)


def test_sweep_nonlinear_uses_fine_reference():
    bundle, nl = p2_defaults(n=32)
    init = single_mode(bundle.grid, 1, 0.5, 0.5, 0.0)
    h_list = [1.0 / 16, 1.0 / 32, 1.0 / 64]
    result = sweep(init, bundle, nl, T=0.25, h_list=h_list)
    assert result.reference_kind == "fine_step"
    assert result.fitted_order >= 0.45
    for i in range(7):
        vals = [r.as_tuple()[i] for r in result.reports]
        for a, b in zip(vals, vals[1:]):
            if a > 1e-13 or b > 1e-13:
                assert b <= 1.05 * a


def test_sweep_neumann_variant():
    from thermowave import ProblemPreset, build_bundle, Grid1D, zero_nonlinearity
    grid = Grid1D(32, bc="neumann")
    bundle = build_bundle(ProblemPreset("P4", bc="neumann"), grid)
    nl = zero_nonlinearity()
    init = single_mode(grid, 1, 1.0, 1.0, 0.0)
    result = sweep(init, bundle, nl, T=0.25, h_list=[1 / 16, 1 / 32, 1 / 64, 1 / 128])
    assert result.fitted_order >= 0.45


def test_sweep_reports_partial_on_divergence():
    from thermowave import SweepDivergedError, cubic_nonlinearity, single_mode
    bundle, _ = p2_defaults(n=16)
    nl = cubic_nonlinearity(100.0)
    init = tuple(1e8 * u for u in single_mode(bundle.grid, 1, 1.0, 1.0, 1.0))
    with pytest.raises(SweepDivergedError) as info, pytest.warns(RuntimeWarning):
        sweep(init, bundle, nl, T=3.0, h_list=[1.5, 0.75],
              reference=LinearReference(single_mode(bundle.grid, 1, 0, 0, 0),
                                        p2_defaults(n=16)[0], linear_reaction(0.0)))
    assert info.value.failure_index == 0
    assert isinstance(info.value.partial, list)


def test_sweep_validates_h_list():
    bundle, nl = p1_defaults(n=16)
    init = zero_profile(bundle.grid)
    with pytest.raises(ValueError):
        sweep(init, bundle, nl, T=0.5, h_list=[1 / 16, 1 / 16])
    with pytest.raises(ValueError):
        sweep(init, bundle, nl, T=0.5, h_list=[1 / 16, 1 / 48])
    with pytest.raises(ValueError):
        sweep(init, bundle, nl, T=0.5, h_list=[1 / 16, 1 / 32, 1 / 30])


def test_sweep_runs_each_member_with_its_config():
    bundle, nl = p2_defaults(n=16)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    h_list = [1 / 16, 1 / 32]
    one_iter = [StepConfig(h=h, newton_max_iter=1) for h in h_list]
    with pytest.raises(SweepDivergedError) as info:
        sweep(init, bundle, nl, T=0.25, h_list=h_list, configs=one_iter)
    assert info.value.h == 1 / 16
    with pytest.raises(ValueError, match="configs"):
        sweep(init, bundle, nl, T=0.25, h_list=h_list, configs=one_iter[::-1])


def test_divergence_errors_keep_the_run_exception():
    from thermowave import NewtonDivergedError, ReferenceDivergedError
    bundle, nl = p2_defaults(n=16)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    h_list = [1 / 16, 1 / 32]
    with pytest.raises(SweepDivergedError) as info:
        sweep(init, bundle, nl, T=0.25, h_list=h_list,
              configs=[StepConfig(h=h, newton_max_iter=1) for h in h_list])
    assert isinstance(info.value.__cause__, NewtonDivergedError)
    assert str(info.value) == f"sweep member h = 0.0625 diverged: {info.value.__cause__}"
    huge = tuple(1e103 * u for u in init)
    with pytest.raises(ReferenceDivergedError) as info, pytest.warns(RuntimeWarning):
        fine_reference(huge, bundle, nl, T=0.25, h_ref=1 / 64)
    assert isinstance(info.value.__cause__, NewtonDivergedError)
    assert str(info.value) == f"fine reference h = 0.015625 diverged: {info.value.__cause__}"
    assert info.value.failure_index == 0


def test_check_h_list():
    assert check_h_list(0.5, [0.25, "0.125"]) == [0.25, 0.125]
    for h_list in ([], [0.25]):
        with pytest.raises(ValueError, match="^h_list must hold at least two"):
            check_h_list(0.5, h_list)
    with pytest.raises(ValueError, match="^h_list must halve"):
        check_h_list(0.3, [0.1, 0.03])  # each entry divides T
    with pytest.raises(ValueError, match="^h = 0.2 "):
        check_h_list(0.5, [0.2, 0.1])
    with pytest.raises(ValueError, match="^T must be positive"):
        check_h_list(-0.5, [0.25, 0.125])


def test_error_report_nonnegative_and_grid_checked():
    bundle, nl = p1_defaults(n=24, m=0.0)
    init = single_mode(bundle.grid, 1, 1.0, 1.0, 0.0)
    result = run(init, bundle, nl, T=0.25, cfg=StepConfig(h=1 / 32))
    ref = LinearReference(init, bundle, nl)
    report = error_norms(result.states, ref, bundle)
    for e in report.as_tuple():
        assert e >= -1e-12
    other_bundle, other_nl = p1_defaults(n=16)
    other_ref = LinearReference(single_mode(other_bundle.grid, 1, 1, 1, 0),
                                other_bundle, other_nl)
    with pytest.raises(ValueError):
        error_norms(result.states, other_ref, bundle)


@pytest.mark.parametrize("members", [2, 3, 5, 8])
def test_fitted_slope_is_the_least_squares_slope(members):
    # the closed form against np.polyfit's slope, on totals scattered about
    # a power of h; an infinite total reads NaN in both
    from thermowave.convergence import ErrorReport, _fitted_slope
    rng = np.random.default_rng(members)
    for _ in range(20):
        hs = 0.25 / 2.0 ** np.arange(members)
        totals = hs ** rng.uniform(0.3, 2.5) * np.exp(rng.normal(0.0, 0.3, members))
        reports = [ErrorReport(h, t, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for h, t in zip(hs, totals)]
        want = np.polyfit(np.log(hs), np.log(totals), 1)[0]
        assert _fitted_slope(reports) == pytest.approx(want, rel=1e-13)
    reports[-1] = ErrorReport(hs[-1], math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert math.isnan(np.polyfit(np.log(hs), np.log([r.total for r in reports]), 1)[0])
    with np.errstate(all="raise"):
        assert math.isnan(_fitted_slope(reports))
