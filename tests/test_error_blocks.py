"""Block-streamed error figures, oracle deviations and reference rows.

``error_norms`` and ``oracle.max_deviation`` read a trajectory in the
blocks of ``diagnostics.iter_blocks`` and sample a ``LinearReference``
along one chain per time grid, block by block.  Every row of every block,
and so every figure, must have the bits of the whole-grid computation, and
the memory of a member's error pass must not grow with its step count.
"""

import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import p1_defaults, p2_defaults
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermowave import (LinearReference, NewtonDivergedError, StepConfig, SweepDivergedError,
                        _lapack, build_interpolants, error_norms, fine_reference,
                        iter_run, random_smooth, run, stepper, sweep)
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


def test_error_norms_of_no_states_is_a_value_error():
    bundle, _, _, ref = _member(16)
    with pytest.raises(ValueError, match="at least one state"):
        error_norms(iter([]), ref, bundle)


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
