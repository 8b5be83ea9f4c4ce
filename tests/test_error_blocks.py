"""Block-streamed error figures, a-priori monitors, oracle deviations and
reference rows.

``error_norms``, ``apriori_monitor`` and ``oracle.max_deviation`` read a
trajectory in the blocks of ``diagnostics.iter_blocks``; the first two push
them through ``ErrorFigures`` and ``AprioriMonitor``, which take blocks of
any size, and the error figures sample a ``LinearReference`` along one chain
per time grid, block by block.  Every row of every block, and so every
figure, must have the bits of the whole-grid computation (for the monitor,
of ``whole_run_monitor``'s formulas over one stacked trajectory), and the
memory of a member's error pass or of a monitor must not grow with its
step count.
"""

import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import p1_defaults, p2_defaults, preset_bundle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermowave import (AprioriMonitor, ErrorFigures, LinearReference, NewtonDivergedError,
                        StepConfig, SweepDivergedError, _lapack, apriori_monitor, apriori_ratios,
                        build_interpolants, convergence, cubic_nonlinearity, error_norms,
                        fine_reference, h_inner, iter_run, random_smooth, run, stepper, sweep,
                        v_norm_sq)
from thermowave.cli import main
from thermowave.diagnostics import BLOCK_VALUES
from thermowave.oracle import max_deviation

FIELDS = ("theta", "phi", "v")


class WholeGrid:
    """A reference with only ``sample`` (and ``sample_bar``), which
    ``error_norms`` samples over the whole grid at once."""

    def __init__(self, ref):
        self.sample = ref.sample
        if hasattr(ref, "sample_bar"):
            self.sample_bar = ref.sample_bar


@functools.lru_cache(maxsize=None)
def _linear(bc):
    bundle, nl = p1_defaults(n=23, bc=bc, m=0.7)
    return LinearReference(random_smooth(bundle.grid, 3), bundle, nl)


@functools.lru_cache(maxsize=None)
def _fine(bc):
    bundle, nl = p2_defaults(n=12, bc=bc)
    states = run(random_smooth(bundle.grid, 2), bundle, nl, 0.16, StepConfig(h=0.01)).states
    return build_interpolants(states)


def _cuts(size, split):
    """Block bounds of ``size`` rows: one block (None), blocks of ``split``
    rows (an int), or cuts at the given rows (a set)."""
    if split is None:
        inner = []
    elif isinstance(split, int):
        inner = list(range(split, size, split))
    else:
        inner = sorted(cut for cut in split if cut < size)
    return list(zip([0, *inner], [*inner, size]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(bc=st.sampled_from(["dirichlet", "neumann"]), steps=st.integers(1, 40),
       h=st.sampled_from([1.0 / 64, 0.01, 1.0 / 48, 0.3 / 7]),
       offset=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
       split=st.one_of(st.none(), st.integers(1, 7), st.sets(st.integers(1, 40))))
@example(bc="neumann", steps=9, h=0.01, offset=0.5, split=1)
@example(bc="dirichlet", steps=17, h=0.3 / 7, offset=0.25, split=4)
@example(bc="dirichlet", steps=12, h=1.0 / 48, offset=0.0, split=None)
@example(bc="neumann", steps=2, h=0.3 / 7, offset=0.75, split=1)
def test_blocked_reference_rows_equal_the_whole_grid_rows(bc, steps, h, offset, split):
    # a grid of nodes k h, or of the points a quarter, a half or three
    # quarters into each interval, whose spacing rounds off h; in one
    # block, in blocks of one row or of a size that does not divide it, or
    # cut anywhere
    times = np.array([k * h for k in range(steps + 1)])
    if offset:
        times = times[:-1] + offset * h
    bounds = _cuts(times.size, split)
    linear, fine = _linear(bc), _fine(bc)
    chain = linear.chain()
    samplers = [(linear.sample, lambda t: linear.sample(t, chain)),
                (fine.sample, lambda t: fine.sample(t, fine.chain()))]
    samplers += [(functools.partial(fine.sample_bar, side=side),) * 2 for side in (-1, +1)]
    for whole, blocked in samplers:
        want = whole(times)
        got = [blocked(times[a:b]) for a, b in bounds]
        for name in FIELDS:
            assert np.array_equal(np.concatenate([g[name] for g in got]), want[name]), name


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_long_non_dyadic_grid_is_one_chain_whole_or_in_blocks(monkeypatch, offset):
    # 20,001 nodes of h = 0.001 to T = 20, whose spacing drifts by about
    # eps * T, or the points a quarter into their intervals
    bundle, nl = p1_defaults(n=23, m=0.7)
    ref = LinearReference(random_smooth(bundle.grid, 3), bundle, nl)
    times = np.array([k * 0.001 for k in range(20001)])
    if offset:
        times = times[:-1] + offset * 0.001
    calls = []
    real = _lapack.expm
    monkeypatch.setattr(_lapack, "expm", lambda A: calls.append(A.shape) or real(A))
    want = ref.sample(times)
    assert len(calls) == 2  # the first time and the spacing
    chain = ref.chain()
    got = [ref.sample(times[a:b], chain) for a, b in _cuts(times.size, BLOCK_VALUES // 23)]
    for name in FIELDS:
        assert np.array_equal(np.concatenate([g[name] for g in got]), want[name]), name


def _member(n, bc="dirichlet", seed=5):
    bundle, nl = p1_defaults(n=n, bc=bc, m=1.0)
    init = random_smooth(bundle.grid, seed)
    return bundle, nl, init, LinearReference(init, bundle, nl)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_streamed_sweep_member_equals_the_whole_grid_report(bc):
    # at n = 64 a block holds 128 states: 129 and 257 are past one
    bundle, nl, init, ref = _member(64, bc)
    h_list = [1.0 / 128, 1.0 / 256]
    result = sweep(init, bundle, nl, T=1.0, h_list=h_list, reference=ref)
    for h, report in zip(h_list, result.reports):
        states = run(init, bundle, nl, 1.0, StepConfig(h=h)).states
        assert len(states) > BLOCK_VALUES // 64
        assert report == error_norms(states, ref, bundle)
        assert report == error_norms(states, WholeGrid(ref), bundle)


def test_streamed_member_against_a_fine_reference_equals_the_whole_grid_report():
    bundle, nl = p2_defaults(n=256)  # 32 states a block
    init = random_smooth(bundle.grid, 6)
    T, h = 0.125, 1.0 / 512
    ref = fine_reference(init, bundle, nl, T, h / 4)
    streamed = error_norms((s for s, _ in iter_run(init, bundle, nl, T, StepConfig(h=h))),
                           ref, bundle)
    states = run(init, bundle, nl, T, StepConfig(h=h)).states
    assert streamed == error_norms(states, WholeGrid(ref), bundle)


def _error_pass_peak(steps):
    bundle, nl, init, ref = _member(64)
    T = 0.25
    tracemalloc.start()
    try:
        trajectory = iter_run(init, bundle, nl, T, StepConfig(h=T / steps))
        error_norms((s for s, _ in trajectory), ref, bundle)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_error_pass_memory_does_not_grow_with_the_step_count():
    # both members span blocks of 128 states; a member of at most one
    # block (64 steps, say) holds fewer rows and peaks lower still
    small, large = _error_pass_peak(256), _error_pass_peak(2048)
    assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("failing", [1, 2])
def test_member_diverging_mid_stream_raises_with_the_other_reports(monkeypatch, failing):
    # n = 128: a block holds 64 states, and the failed step is past it
    bundle, nl, init, ref = _member(128)
    h_list = [1.0 / 64, 1.0 / 128, 1.0 / 256]
    full = sweep(init, bundle, nl, T=1.0, h_list=h_list, reference=ref)
    real_step = stepper.step

    def diverging(state, bundle, nonlin, cfg, plan=None):
        if cfg.h == h_list[failing] and state.t_index == 100:
            raise NewtonDivergedError(cfg.newton_max_iter, 1.0)
        return real_step(state, bundle, nonlin, cfg, plan)

    monkeypatch.setattr(stepper, "step", diverging)
    with pytest.raises(SweepDivergedError) as info:
        sweep(init, bundle, nl, T=1.0, h_list=h_list, reference=ref)
    assert info.value.h == h_list[failing]
    assert info.value.failure_index == 100
    assert isinstance(info.value.__cause__, NewtonDivergedError)
    assert info.value.partial == [r for i, r in enumerate(full.reports) if i != failing]


@pytest.mark.parametrize("failing,step", [(0, 40), (1, 100)])
def test_member_diverging_in_a_worker_raises_as_in_one_process(monkeypatch, failing, step):
    # with two processes this one runs h = 1/256 and a worker the other two
    bundle, nl, init, ref = _member(128)
    h_list = [1.0 / 64, 1.0 / 128, 1.0 / 256]
    real_step = stepper.step

    def diverging(state, bundle, nonlin, cfg, plan=None):
        if cfg.h == h_list[failing] and state.t_index == step:
            raise NewtonDivergedError(cfg.newton_max_iter, 1.0)
        return real_step(state, bundle, nonlin, cfg, plan)

    monkeypatch.setattr(stepper, "step", diverging)
    raised = []
    for count in (1, 2):
        monkeypatch.setattr(convergence, "usable_cpus", lambda: count)
        with pytest.raises(SweepDivergedError) as info:
            sweep(init, bundle, nl, T=1.0, h_list=h_list, reference=ref)
        raised.append(info.value)
    serial, split = raised
    assert (split.h, split.failure_index) == (serial.h, serial.failure_index) == \
        (h_list[failing], step)
    assert split.partial == serial.partial and len(split.partial) == 2
    assert type(split.__cause__) is type(serial.__cause__) is NewtonDivergedError
    assert str(split.__cause__) == str(serial.__cause__)
    assert str(split) == str(serial)


def whole_run_monitor(states, bundle, nonlin):
    """The a-priori monitor over one stacked trajectory: every field's rows
    at once, sups over t >= h."""
    grid = bundle.grid
    traj = build_interpolants(states)
    h = traj.h
    th, ph, vv, zz = (f.nodes[1:] for f in (traj.theta, traj.phi, traj.v, traj.z))
    dth = traj.theta.deltas()
    beta = nonlin.beta(ph)
    diffusion_th, coupling_th = bundle.diffusion.apply(th), bundle.coupling.apply(th)
    damping_v, stiffness_ph = bundle.damping.apply(vv), bundle.stiffness.apply(ph)

    out = {}
    out["v_sup_H2"] = float(np.max(h_inner(grid, vv, vv)))
    out["z_L2H2_h"] = h * float(np.sum(h * h_inner(grid, zz, zz)))
    out["damping_v_form_L2"] = float(np.sum(h * h_inner(grid, damping_v, vv)))
    out["phi_sup_V2"] = float(np.max(v_norm_sq(grid, ph)))
    out["v_L2V2_h"] = h * float(np.sum(h * v_norm_sq(grid, vv)))
    out["coupling_theta_form_sup"] = float(np.max(h_inner(grid, coupling_th, th)))
    out["coupling_dtheta_form_L2_h"] = h * float(np.sum(
        h_inner(grid, bundle.coupling.apply(dth), dth) / h))

    out["z_sup_H2"] = float(np.max(h_inner(grid, zz, zz)))
    out["damping_z_form_L2"] = float(np.sum(h * h_inner(grid, bundle.damping.apply(zz), zz)))
    out["v_sup_V2"] = float(np.max(v_norm_sq(grid, vv)))
    out["z_L2V2_h"] = h * float(np.sum(h * v_norm_sq(grid, zz)))

    out["beta_sup_H"] = float(np.max(np.sqrt(h_inner(grid, beta, beta))))

    out["dtheta_L2H2"] = float(np.sum(h_inner(grid, dth, dth) / h))
    out["dtheta_L2V2"] = float(np.sum(v_norm_sq(grid, dth) / h))
    out["diffusion_theta_sup_H2"] = float(np.max(h_inner(grid, diffusion_th, diffusion_th)))
    out["theta_sup_V2"] = float(np.max(v_norm_sq(grid, th)))

    out["coupling_theta_sup_H2"] = float(np.max(h_inner(grid, coupling_th, coupling_th)))
    out["damping_v_L2H2"] = float(np.sum(h * h_inner(grid, damping_v, damping_v)))
    out["stiffness_phi_L2H2"] = float(np.sum(h * h_inner(grid, stiffness_ph, stiffness_ph)))
    return out


def _bits(figures):
    """Keys and the exact bits of a monitor dict or an ``ErrorReport``."""
    if isinstance(figures, dict):
        return [(key, value.hex()) for key, value in figures.items()]
    return [value.hex() for value in (figures.h, *figures.as_tuple())]


def _pushed(figures, states, split):
    for a, b in _cuts(len(states), split):
        figures.add(states[a:b])
    return figures.report()


@functools.lru_cache(maxsize=None)
def _trajectory(kind, bc, steps):
    """A member's bundle, nonlinearity, states and reference: linear P1
    against its modal solution, or cubic P2 against ``_fine(bc)``."""
    if kind == "linear":
        ref = _linear(bc)
        bundle, nl = p1_defaults(n=23, bc=bc, m=0.7)
        h = 1.0 / 64
    else:
        ref = _fine(bc)
        bundle, nl = p2_defaults(n=12, bc=bc)
        h = 0.005
    init = random_smooth(bundle.grid, 3 if kind == "linear" else 2)
    return bundle, nl, run(init, bundle, nl, steps * h, StepConfig(h=h)).states, ref


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["linear", "fine"]), bc=st.sampled_from(["dirichlet", "neumann"]),
       steps=st.integers(1, 32),
       split=st.one_of(st.none(), st.integers(1, 7), st.sets(st.integers(1, 32))))
@example(kind="linear", bc="dirichlet", steps=9, split=1)
@example(kind="fine", bc="neumann", steps=17, split=4)
@example(kind="fine", bc="dirichlet", steps=1, split={1})
def test_pushed_blocks_give_the_one_call_figures(kind, bc, steps, split):
    # one block, blocks of one state or of a size that does not divide the
    # trajectory, or cuts anywhere
    bundle, nl, states, ref = _trajectory(kind, bc, steps)
    got = _pushed(ErrorFigures(ref, bundle), states, split)
    assert _bits(got) == _bits(error_norms(states, ref, bundle))
    monitor = _pushed(AprioriMonitor(bundle, nl), states, split)
    assert _bits(monitor) == _bits(whole_run_monitor(states, bundle, nl))


@pytest.mark.parametrize("preset", ["P1", "P2", "P3", "P4", "P5"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_streamed_monitor_equals_the_whole_run_formulas(preset, bc):
    # n = 300: a block holds 27 states, so 100 steps span four blocks
    bundle, nl = preset_bundle(preset, n=300, bc=bc), cubic_nonlinearity(1.0)
    init = random_smooth(bundle.grid, 4)
    states = run(init, bundle, nl, 0.25, StepConfig(h=1.0 / 400)).states
    streamed = apriori_monitor((s for s, _ in iter_run(init, bundle, nl, 0.25,
                                                       StepConfig(h=1.0 / 400))), bundle, nl)
    assert _bits(streamed) == _bits(whole_run_monitor(states, bundle, nl))


def _monitor_peak(T):
    bundle, nl = p2_defaults(n=64)
    init = random_smooth(bundle.grid, 1)
    tracemalloc.start()
    try:
        apriori_monitor((s for s, _ in iter_run(init, bundle, nl, T, StepConfig(h=1.0 / 512))),
                        bundle, nl)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monitor_memory_does_not_grow_with_the_step_count():
    # 128 and 1,024 steps; a block holds 128 states
    small, large = _monitor_peak(0.25), _monitor_peak(2.0)
    assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("steps", [2, 3, 64, 300])
def test_oracle_deviations_equal_the_whole_grid_rows(steps):
    bundle, nl, init, ref = _member(64)
    T = 0.5
    states = run(init, bundle, nl, T, StepConfig(h=T / steps)).states
    rows = []
    peak = max_deviation(iter(states), ref, rows.append)
    times = np.array([s.t_index * s.h for s in states])
    want = ref.sample(times)
    devs = [np.max(np.abs(np.stack([getattr(s, name) for s in states]) - want[name]), axis=1)
            for name in FIELDS]
    assert rows == np.column_stack([times, *devs]).tolist()
    assert peak == max(0.0, *(float(np.max(d)) for d in devs))


@pytest.mark.parametrize("call,message", [
    (lambda b, nl, s, ref: error_norms(iter([]), ref, b), "error_norms needs at least one state"),
    (lambda b, nl, s, ref: apriori_monitor(iter([]), b, nl),
     "apriori_monitor needs at least two states"),
    (lambda b, nl, s, ref: apriori_monitor(s[:1], b, nl),
     "apriori_monitor needs at least two states"),
    (lambda b, nl, s, ref: max_deviation(iter([]), ref, print),
     "max_deviation needs at least one state"),
    (lambda b, nl, s, ref: apriori_ratios([]),
     "apriori_ratios needs the monitors of at least one step size")],
    ids=["error_norms", "apriori_monitor-none", "apriori_monitor-one", "max_deviation",
         "apriori_ratios"])
def test_error_norms_of_no_states_is_a_value_error(call, message):
    bundle, nl, init, ref = _member(16)
    states = run(init, bundle, nl, 0.25, StepConfig(h=0.125)).states
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(bundle, nl, states, ref)


@pytest.mark.parametrize("command,cfg,message", [
    # (h eps)^2 overflows at the sweep's h = 1/32 only
    ("sweep", {"h_list": [1.0 / 32, 1.0 / 64], "epsilon": 6e155},
     "epsilon: h * |damping| = 1.88e+154 is too large; its square must be finite"),
    ("run", {"h": 1e160, "T": 1e160},
     "h: h * |damping| = 1e+160 is too large; its square must be finite"),
    # P3 damps with epsilon times the Laplacian, whose norm is 4 / dx^2
    ("energy-audit", {"preset": "P3", "h": 1.0 / 32, "epsilon": 1e153},
     "epsilon: h * |damping| = 7.81e+154 is too large; its square must be finite")],
    ids=["sweep-largest-h", "run-h", "P3-laplacian"])
def test_damping_beyond_the_float_range_exits_1(tmp_path, capsys, command, cfg, message):
    config = {"preset": "P2", "n_interior": 24, "T": 0.125,
              "beta": {"kind": "cubic", "scale": 1.0},
              "initial": {"profile": "random_smooth", "seed": 1}, **cfg}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()
