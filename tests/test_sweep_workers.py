"""A sweep's members split over two processes.

With two or more usable CPUs ``sweep`` runs its finest member in the
calling process and every other member in one forked worker; with one it
forks nothing.  Either way it must return the ``SweepResult`` of the
one-process run and raise the same ``SweepDivergedError``; a member's
exception must reach the caller with its type and message; and no worker
may outlive the call, however it ends.  The package's exceptions cross the pipe by pickle.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from conftest import p1_defaults, p2_defaults

import thermowave.cli as cli
from thermowave import (LinearReference, NewtonDivergedError, ReferenceDivergedError,
                        ResolventAuditError, StepAuditError, SweepDivergedError, convergence,
                        random_smooth, stepper, sweep)

H_LIST = [1.0 / 8, 1.0 / 16, 1.0 / 32]  # 4, 8 and 16 steps to T = 0.5


def _cpus(monkeypatch, count):
    monkeypatch.setattr(convergence, "usable_cpus", lambda: count)


def _linear():
    bundle, nl = p1_defaults(n=16, m=1.0)
    return bundle, nl, random_smooth(bundle.grid, 5)


@pytest.mark.parametrize("exc", [
    NewtonDivergedError(25, 3.5e-12),
    NewtonDivergedError(1, 2.7e-8, 3.7e-9),
    NewtonDivergedError(2, 2.5e138, overflowed=True),
    StepAuditError("step 3: wave residual 1e-06 above 1e-09"),
    ResolventAuditError("resolvent residual nan"),
    ReferenceDivergedError(0.001, 7, NewtonDivergedError(0, float("inf"))),
    SweepDivergedError(0.25, 2, [convergence.ErrorReport(0.5, *range(7))],
                       StepAuditError("step 2: heat residual 1.0 above 1e-12")),
    cli.ConfigError(["h: must be positive", "T: must be finite"]),
])
def test_package_exceptions_pickle_whole(exc):
    if isinstance(exc, NewtonDivergedError):  # as a failed run renames it
        exc.args = (f"{exc} at step 4",)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert back.args == exc.args and str(back) == str(exc)
    assert vars(back) == vars(exc)
    cause = exc.__cause__
    assert type(back.__cause__) is type(cause)
    if cause is not None:
        assert back.__cause__.args == cause.args and vars(back.__cause__) == vars(cause)


def test_usable_cpus_is_one_once_a_second_thread_runs():
    # a fresh process with one BLAS thread runs one thread until it starts one
    probe = ("import os, threading, thermowave.convergence as c; before = c.usable_cpus(); "
             "threading.Thread(target=threading.Event().wait, daemon=True).start(); "
             "print(before == len(os.sched_getaffinity(0)), c.usable_cpus())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["True", "1"], proc.stderr


@pytest.mark.parametrize("problem", ["modal", "fine_step"])
def test_split_sweep_equals_the_one_process_sweep(monkeypatch, problem):
    if problem == "modal":
        bundle, nl, init = _linear()
        T, h_list = 0.5, H_LIST
    else:  # cubic P2 against a fine-step reference of 1,024 steps
        bundle, nl = p2_defaults(n=12)
        init, T, h_list = random_smooth(bundle.grid, 3), 0.25, [1.0 / 16, 1.0 / 32, 1.0 / 64]
    forks, real_fork = [], os.fork

    def counted_fork():
        forks[-1] += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    results = []
    for count in (1, 2, 4):
        _cpus(monkeypatch, count)
        forks.append(0)
        results.append(sweep(init, bundle, nl, T, h_list))
    assert forks == [0, 1, 1]  # one worker however many CPUs
    assert results[0].reference_kind == problem
    assert results[0] == results[1] == results[2]
    totals = [[float(r.total).hex() for r in result.reports] for result in results]
    assert totals[0] == totals[1] == totals[2]


@pytest.fixture
def reaped():
    """Fails a call that hangs for a minute, and checks afterwards that
    the test process has no child left, running or not."""
    def hung(signum, frame):
        raise TimeoutError("the sweep did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patch_step(monkeypatch, action):
    """``stepper.step`` calling ``action(state, cfg, in_worker)`` first."""
    parent, real = os.getpid(), stepper.step

    def patched(state, bundle, nonlin, cfg, plan=None):
        action(state, cfg, os.getpid() != parent)
        return real(state, bundle, nonlin, cfg, plan)

    monkeypatch.setattr(stepper, "step", patched)


def test_complete_split_sweep_reaps_its_worker(monkeypatch, reaped):
    bundle, nl, init = _linear()
    _cpus(monkeypatch, 2)
    assert len(sweep(init, bundle, nl, 0.5, H_LIST).reports) == 3


def test_diverged_split_sweep_reaps_its_worker(monkeypatch, reaped):
    bundle, nl, init = _linear()
    _cpus(monkeypatch, 2)

    def diverge(state, cfg, in_worker):
        if cfg.h == H_LIST[1] and state.t_index == 2:
            raise NewtonDivergedError(25, 1.0)

    _patch_step(monkeypatch, diverge)
    with pytest.raises(SweepDivergedError) as info:
        sweep(init, bundle, nl, 0.5, H_LIST)
    assert (info.value.h, info.value.failure_index) == (H_LIST[1], 2)
    assert [r.h for r in info.value.partial] == [H_LIST[0], H_LIST[2]]


def test_member_error_in_a_worker_is_raised_again(monkeypatch, reaped):
    bundle, nl, init = _linear()
    _cpus(monkeypatch, 2)

    def fail(state, cfg, in_worker):
        if in_worker and cfg.h == H_LIST[0]:
            raise ValueError(f"member h = {cfg.h} failed")

    _patch_step(monkeypatch, fail)
    with pytest.raises(ValueError, match=r"^member h = 0\.125 failed$"):
        sweep(init, bundle, nl, 0.5, H_LIST)


def test_worker_that_dies_mid_member_is_named(monkeypatch, reaped):
    bundle, nl, init = _linear()
    _cpus(monkeypatch, 2)

    def die(state, cfg, in_worker):
        if in_worker and cfg.h == H_LIST[0] and state.t_index == 2:
            os._exit(3)

    _patch_step(monkeypatch, die)
    with pytest.raises(RuntimeError, match=r"wait status 768 .* h = \[0\.125, 0\.0625\]$"):
        sweep(init, bundle, nl, 0.5, H_LIST)


def test_error_in_this_process_kills_the_running_worker(monkeypatch, reaped):
    bundle, nl, init = _linear()
    _cpus(monkeypatch, 2)

    def stall_or_fail(state, cfg, in_worker):
        if in_worker:
            time.sleep(30)
        elif cfg.h == H_LIST[2]:
            raise ValueError("this process's member failed")

    _patch_step(monkeypatch, stall_or_fail)
    start = time.monotonic()
    with pytest.raises(ValueError, match="this process's member failed"):
        sweep(init, bundle, nl, 0.5, H_LIST)
    assert time.monotonic() - start < 20


@pytest.mark.parametrize("count", [1, 2])
def test_reference_without_chain_raises_in_the_caller(monkeypatch, reaped, count):
    bundle, nl, init = _linear()
    _cpus(monkeypatch, count)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    with pytest.raises(AttributeError, match="'chain'") as info:
        sweep(init, bundle, nl, 0.5, H_LIST,
              reference=types.SimpleNamespace(sample=LinearReference(init, bundle, nl).sample))
    assert info.value.name == "chain"
    assert len(forks) == count - 1  # with two CPUs a worker ran, and is reaped


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs two usable CPUs")
def test_cli_sweep_bytes_do_not_depend_on_the_cpus(tmp_path):
    """A fresh ``thermowave sweep`` on one CPU and on two writes the same
    bytes; one BLAS thread, so that two CPUs do split the sweep."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cfg = {"preset": "P1", "n_interior": 32, "T": 0.5, "m": 1.0,
           "h_list": [1.0 / 2 ** k for k in range(3, 8)],
           "initial": {"profile": "random_smooth", "seed": 9}}
    cpath = tmp_path / "sweep.json"
    cpath.write_text(json.dumps(cfg))
    probe = "import thermowave.convergence as c; print(c.usable_cpus())"
    outputs = []
    first, second = sorted(os.sched_getaffinity(0))[:2]
    for cpus in ({first}, {first, second}):
        pin = lambda: os.sched_setaffinity(0, cpus)  # noqa: E731 (in the child)
        usable = subprocess.run([sys.executable, "-c", probe], env=env, preexec_fn=pin,
                                capture_output=True, text=True, timeout=60)
        assert usable.stdout.split() == [str(len(cpus))], usable.stderr
        out = tmp_path / f"cpus{len(cpus)}"
        proc = subprocess.run([sys.executable, "-m", "thermowave", "sweep", "--config",
                               str(cpath), "--out", str(out)], env=env, preexec_fn=pin,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "sweep.json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["complete"] is True
    assert np.isfinite(json.loads(outputs[0][1])["fitted_order"])
