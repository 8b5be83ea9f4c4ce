"""Streamed runs: ``iter_run`` and ``iter_ledger``, and the CLI's one pass.

``run`` and ``energy-audit`` write each state's rows as the stepper yields
it, and ``oracle-check`` keeps only the field rows of each state.  Their
files must equal, byte for byte, the files rendered from a collected
``run()`` result after the run, as the commands once wrote them, whether
the run completes or fails part-way; and their memory must not grow with
the number of steps, or for ``oracle-check`` must stay below the collected
run's.
"""

import contextlib
import io
import json
import pathlib
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import p2_defaults, preset_bundle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermowave
import thermowave.cli as cli
from thermowave import (LinearReference, NewtonDivergedError, StepAuditError, StepConfig,
                        build_interpolants, cubic_nonlinearity, energy_ledger, random_smooth, run,
                        stepper)

FIELDS = ("kinetic", "elastic", "thermal", "potential", "dissipation_b1", "dissipation_cross")


def _fmt(x):
    return repr(x) if isinstance(x, float) else str(x)


def _render_collected(command, raw, out):
    """The files of ``command`` rendered from a collected ``run()`` result,
    each table written whole once the run has ended; returns the run's
    failure."""
    resolved = cli.validate_config(raw)
    grid, bundle, nonlin, initial, cfg = cli.build_problem(resolved)
    meta = cli._json_meta(resolved, bundle, nonlin)
    config = json.dumps(meta["config"], sort_keys=True, separators=(",", ":"))
    header = [f"config: {config}"] + [f"{k}: {v!r}" for k, v in meta.items() if k != "config"]
    result = run(initial, bundle, nonlin, resolved["T"], cfg)
    ledger = energy_ledger(result.states, bundle, nonlin)
    h = cfg.h

    def write_csv(name, columns, rows):
        with open(out / name, "w") as f:
            f.write("".join(f"# {line}\n" for line in header) + ",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_fmt(x) for x in row) + "\n")

    entries = {"complete": result.complete, "failure_index": result.failure_index}
    if command == "run":
        write_csv("energy.csv", ["n", "t", *FIELDS, "identity_residual"],
                  [[n, n * h, *(getattr(e.record, f) for f in FIELDS), e.identity_residual]
                   for n, e in enumerate(ledger)])
        write_csv("steps.csv", ["n", "t", "newton_iters", "final_residual", "theta_residual",
                                "heat_residual", "wave_residual", "rhs_norm"],
                  [[i + 1, (i + 1) * h, r.newton_iters, r.final_residual, r.theta_residual,
                    r.heat_residual, r.wave_residual, r.rhs_norm]
                   for i, r in enumerate(result.reports)])
        stride, last = resolved["snapshot_stride"], len(result.states) - 1
        if stride > 0:
            write_csv("snapshots.csv", ["n", "t", "field"] + [f"x{i}" for i in range(grid.n_interior)],
                      [[s.t_index, s.t_index * h, field] + [float(x) for x in getattr(s, field)]
                       for s in result.states if s.t_index % stride == 0 or s.t_index == last
                       for field in ("theta", "phi", "v", "z")])
        entries["steps_taken"] = len(result.reports)
        summary = "run.json"
    elif command == "oracle-check":
        traj = build_interpolants(result.states)
        ref = LinearReference(initial, bundle, nonlin).sample(traj.times)
        devs = [np.max(np.abs(getattr(traj, name).nodes - ref[name]), axis=1)
                for name in ("theta", "phi", "v")]
        write_csv("oracle.csv", ["t", "theta_dev", "phi_dev", "v_dev"],
                  np.column_stack([traj.times, *devs]).tolist())
        entries["max_deviation"] = max(0.0, *(float(np.max(d)) for d in devs))
        summary = "oracle.json"
    else:
        pi_zero = nonlin.pi_kind == "zero"
        violations = []
        for n, (prev, cur) in enumerate(zip(ledger, ledger[1:]), start=1):
            rise = cur.record.lyapunov - prev.record.lyapunov
            if pi_zero and cur.record.lyapunov > prev.record.lyapunov + 1e-10 * (
                    1.0 + prev.record.total):
                violations.append([n, rise])
        write_csv("audit.csv", ["n", "t", "identity_residual", "lyapunov_value", "pi_source_term"],
                  [[i, i * h, e.identity_residual, e.record.lyapunov, e.pi_source]
                   for i, e in enumerate(ledger[1:], start=1)])
        entries.update(pi_zero=pi_zero,
                       max_identity_residual=max(e.identity_residual for e in ledger),
                       lyapunov_violations=violations,
                       lyapunov_mode="checked" if pi_zero else "monitor_only")
        summary = "audit.json"
    (out / summary).write_text(json.dumps({**meta, **entries}, sort_keys=True, indent=2,
                                          allow_nan=False) + "\n")
    return result.failure


def _failing_at(index, error):
    """``stepper.step`` made to raise ``error`` on the step from ``index``."""
    real = stepper.step

    def step(state, *args, **kwargs):
        if state.t_index == index:
            raise error
        return real(state, *args, **kwargs)

    return step


def _config(preset, bc, n, h_fraction, n_steps, pi_amp, seed, stride):
    if preset == "P1":
        raw = {"preset": "P1", "m": 1.0}
    else:
        raw = {"preset": preset, "beta": {"kind": "cubic", "scale": 1.0},
               "pi": {"kind": "scaled_sine", "amplitude": pi_amp} if pi_amp else {"kind": "zero"}}
    # random_smooth evaluates every entry of the n x n modal basis once, in
    # row blocks: single modes, one O(n) column each, on fine grids
    initial = ({"profile": "random_smooth", "seed": seed} if n <= 64 else
               {"profile": "single_mode", "mode": 1 + seed % 5, "theta_amp": 1.0,
                "phi_amp": 0.5, "v_amp": -0.25})
    raw.update(bc=bc, n_interior=n, initial=initial, snapshot_stride=stride, h=1.0, T=1.0)
    _, bundle, nonlin, _, _ = cli.build_problem(cli.validate_config(raw))
    h = h_fraction * min(bundle.h_threshold(nonlin.lipschitz_const), 1.0 / 16)
    raw.update(h=h, T=n_steps * h)
    return raw


def _patched_step(fail, n_steps):
    """A context in which the step ``fail`` names fails, if any."""
    if fail is None:
        return contextlib.nullcontext()
    index, kind = fail[0] % n_steps, fail[1]
    error = (NewtonDivergedError(3, 1.5) if kind == "newton" else
             StepAuditError(f"scheme residual audit failed at step {index}"))
    return mock.patch.object(stepper, "step", _failing_at(index, error))


# n = 1024 and 2048 put 8 and 4 states in a ledger block, so the streamed
# ledger carries across blocks; on the coarse grids one block holds the run
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@example("run", "P2", "dirichlet", 2048, 0.5, 20, 0.0, 1, 3, (13, "newton"))
@example("run", "P1", "neumann", 1024, 0.7, 20, 0.0, 2, 4, None)
@example("run", "P3", "dirichlet", 16, 0.3, 12, 0.5, 3, 4, (0, "newton"))
@example("energy-audit", "P4", "neumann", 1024, 0.5, 20, 0.5, 4, 0, (9, "audit"))
@example("energy-audit", "P5", "dirichlet", 1024, 0.1, 17, 0.0, 5, 0, None)
@example("energy-audit", "P2", "neumann", 40, 0.6, 9, 0.0, 6, 0, (0, "audit"))
@given(command=st.sampled_from(["run", "energy-audit"]),
       preset=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       n=st.sampled_from([3, 16, 40, 1024, 2048]),
       h_fraction=st.floats(min_value=0.05, max_value=0.9),
       n_steps=st.integers(min_value=1, max_value=20),
       pi_amp=st.sampled_from([0.0, 0.5]),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       stride=st.integers(min_value=0, max_value=4),
       fail=st.one_of(st.none(), st.tuples(st.integers(min_value=0, max_value=19),
                                           st.sampled_from(["newton", "audit"]))))
def test_streamed_files_equal_collected_rendering(command, preset, bc, n, h_fraction, n_steps,
                                                  pi_amp, seed, stride, fail):
    raw = _config(preset, bc, n, h_fraction, n_steps, pi_amp, seed, stride)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "config.json").write_text(json.dumps(raw))
        (tmp / "want").mkdir()
        with _patched_step(fail, n_steps):
            failure = _render_collected(command, raw, tmp / "want")
        err = io.StringIO()
        with _patched_step(fail, n_steps), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(tmp / "config.json"),
                             "--out", str(tmp / "got")])
        assert fail is None or failure is not None
        assert code == (0 if failure is None else 2)
        assert [line for line in err.getvalue().splitlines() if line.startswith("error:")] == (
            [] if failure is None else [f"error: {failure}"])
        want = sorted(p.name for p in (tmp / "want").iterdir())
        assert sorted(p.name for p in (tmp / "got").iterdir()) == want
        for name in want:
            assert (tmp / "got" / name).read_bytes() == (tmp / "want" / name).read_bytes(), name


def _traced_peak(tmp_path, command, n_steps, collected=False):
    """tracemalloc's peak over one CLI job of ``n_steps`` steps at n = 128;
    with ``collected``, over ``_render_collected`` of the same job."""
    h = 1.0 / 256
    raw = {"preset": "P2", "n_interior": 128, "h": h, "T": n_steps * h,
           "beta": {"kind": "cubic", "scale": 1.0},
           "initial": {"profile": "random_smooth", "seed": 1}}
    if command == "run":
        raw["snapshot_stride"] = 7
    if command == "oracle-check":
        del raw["beta"]
        raw.update(preset="P1", m=1.0)
    path = tmp_path / f"{command}-{n_steps}-{collected}.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / path.stem
    tracemalloc.start()
    try:
        if collected:
            out.mkdir()
            code = 2 if _render_collected(command, raw, out) else 0
        else:
            code = cli.main([command, "--config", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("command", ["run", "energy-audit"])
def test_cli_memory_does_not_grow_with_steps(tmp_path, command):
    # 64 and 512 steps: each state's four fields take 4 KiB at n = 128, so
    # keeping the trajectory would add about 2 MB; a 128-state ledger block
    # is held either way.  A first short job loads and caches what any job
    # needs once (the Laplacian spectrum and numpy.random among them).
    _traced_peak(tmp_path, command, 4)
    short, long = (_traced_peak(tmp_path, command, n) for n in (64, 512))
    assert long - short < 256 * 1024, (short, long)


def test_oracle_check_memory_stays_below_the_collected_run(tmp_path):
    # the stacking of each field lets its rows go, unless the run's states
    # hold them too: 513 states of four 1 KiB rows at n = 128, about 2 MiB
    # (collected, the peak is about 7.2 MiB; streamed, 5.2 MiB)
    _traced_peak(tmp_path, "oracle-check", 4)
    streamed = _traced_peak(tmp_path, "oracle-check", 512)
    collected = _traced_peak(tmp_path, "oracle-check", 512, collected=True)
    assert collected - streamed > 1024 * 1024, (streamed, collected)


@pytest.mark.parametrize("fail", [None, (0, "newton"), (5, "audit")])
def test_oracle_check_files_equal_collected_rendering(tmp_path, fail):
    raw = _config("P1", "neumann", 16, 0.5, 12, 0.0, 3, 0)
    (tmp_path / "config.json").write_text(json.dumps(raw))
    (tmp_path / "want").mkdir()
    with _patched_step(fail, 12):
        failure = _render_collected("oracle-check", raw, tmp_path / "want")
    err = io.StringIO()
    with _patched_step(fail, 12), contextlib.redirect_stderr(err):
        code = cli.main(["oracle-check", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "got")])
    assert code == (0 if fail is None else 2)
    assert [line for line in err.getvalue().splitlines() if line.startswith("error:")] == (
        [] if fail is None else [f"error: {failure}"])
    for name in ("oracle.csv", "oracle.json"):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    summary = json.loads((tmp_path / "got" / "oracle.json").read_text())
    assert summary["complete"] == (fail is None)
    assert summary["failure_index"] == (None if fail is None else fail[0])
    rows = (tmp_path / "got" / "oracle.csv").read_text().splitlines()
    assert len([row for row in rows if not row.startswith("#")]) == 2 + (
        12 if fail is None else fail[0])  # the column line and one row per state


def test_iter_run_yields_each_state_once_then_returns_failure():
    bundle, nl = p2_defaults(n=16)
    init, cfg = random_smooth(bundle.grid, 2), StepConfig(h=1 / 64)
    want = run(init, bundle, nl, 8 / 64, cfg)
    trajectory = thermowave.iter_run(init, bundle, nl, 8 / 64, cfg)
    pairs = []
    with pytest.raises(StopIteration) as end:
        while True:
            pairs.append(next(trajectory))
    assert end.value.value is None
    assert trajectory.failure is end.value.value and trajectory.last is pairs[-1][0]
    assert trajectory.last.t_index == 8
    assert [s.t_index for s, _ in pairs] == list(range(9))
    assert pairs[0][1] is None and [r for _, r in pairs[1:]] == want.reports
    assert pairs[0][0].z is pairs[1][0].z  # the backfilled acceleration
    for (state, _), kept in zip(pairs, want.states):
        for name in ("theta", "phi", "v", "z"):
            assert np.array_equal(getattr(state, name), getattr(kept, name))


@pytest.mark.parametrize("fail_at", [0, 3])
def test_iter_run_ends_with_the_failed_step(fail_at):
    bundle, nl = p2_defaults(n=16)
    init = random_smooth(bundle.grid, 2)
    with mock.patch.object(stepper, "step", _failing_at(fail_at, NewtonDivergedError(2, 1.0))):
        trajectory = thermowave.iter_run(init, bundle, nl, 8 / 64, StepConfig(h=1 / 64))
        states = []
        with pytest.raises(StopIteration) as end:
            while True:
                states.append(next(trajectory)[0])
    failure = end.value.value
    assert isinstance(failure, NewtonDivergedError) and str(failure).endswith(f"at step {fail_at}")
    assert trajectory.failure is failure and trajectory.last is states[-1]
    assert trajectory.last.t_index == fail_at
    assert [s.t_index for s in states] == list(range(fail_at + 1))
    # a run that never stepped keeps the initial acceleration, zero
    assert (fail_at > 0) == bool(np.any(states[0].z))


@pytest.mark.parametrize("fail_at", [None, 0, 3])
def test_trajectory_failure_index_is_that_of_the_run_result(fail_at):
    # one home for the failed step's index: the CLI, the fine reference and
    # the sweep's members read it from the trajectory
    bundle, nl = p2_defaults(n=16)
    init, cfg = random_smooth(bundle.grid, 2), StepConfig(h=1 / 64)
    failing = stepper.step if fail_at is None else _failing_at(
        fail_at, NewtonDivergedError(2, 1.0))
    with mock.patch.object(stepper, "step", failing):
        trajectory = thermowave.iter_run(init, bundle, nl, 8 / 64, cfg)
        for _ in trajectory:
            pass
        result = run(init, bundle, nl, 8 / 64, cfg)
    assert trajectory.failure_index == result.failure_index == fail_at


def test_iter_run_checks_its_data_when_called():
    bundle, nl = p2_defaults(n=16)
    theta, phi, v = random_smooth(bundle.grid, 2)
    with pytest.raises(ValueError, match="theta0"):
        thermowave.iter_run((theta[:-1], phi, v), bundle, nl, 0.5, StepConfig(h=0.25))
    with pytest.raises(ValueError, match="whole number"):
        thermowave.iter_run((theta, phi, v), bundle, nl, 0.5, StepConfig(h=0.3))


def test_iter_ledger_streams_the_ledger_of_a_generator():
    # n = 1024: 8 states in a block, so 21 states span 3 blocks
    bundle = preset_bundle("P4", n=1024, bc="neumann")
    nl = cubic_nonlinearity(1.0, "scaled_sine", 0.5)
    states = run(random_smooth(bundle.grid, 3), bundle, nl, T=20 / 256,
                 cfg=StepConfig(h=1 / 256)).states
    pulled = []

    def one_at_a_time():
        for state in states:
            pulled.append(state.t_index)
            yield state

    ledger = thermowave.iter_ledger(one_at_a_time(), bundle, nl)
    first = [next(ledger) for _ in range(8)]
    assert pulled == list(range(8))  # a block's entries come once it is full
    assert first + list(ledger) == energy_ledger(states, bundle, nl)


def test_build_interpolants_reads_any_iterable():
    bundle, nl = p2_defaults(n=16)
    states = run(random_smooth(bundle.grid, 2), bundle, nl, 8 / 64, StepConfig(h=1 / 64)).states
    streamed, listed = build_interpolants(iter(states)), build_interpolants(states)
    assert np.array_equal(streamed.times, listed.times)
    for name in ("theta", "phi", "v", "z"):
        assert np.array_equal(getattr(streamed, name).nodes, getattr(listed, name).nodes)
