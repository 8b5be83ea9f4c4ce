"""The modal basis in blocks.

The blocked transforms have the bits of the dense products ``B @ c`` and
``dx * (B.T @ u)`` on one BLAS thread (the dense product's own bits depend
on how a threaded BLAS splits it), a mode vector is one column of B, no
set-up path allocates an n x n array, and the modal reference's outputs
have the same bytes under 1, 2 and 4 BLAS threads.

Run as a script, the file checks the blocked transforms against the dense
products; ``test_blocked_transforms_equal_the_dense_products`` runs it in a
fresh process with one BLAS thread.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermowave import Grid1D, cli, inverse_modal_transform, modal_transform, mode_vector
from thermowave.oracle import _basis_block

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SIZES = (2, 7, 63, 64, 65, 255, 256, 1024, 2048)
BCS = ("dirichlet", "neumann")


@st.composite
def coefficient_vectors(draw, n):
    """Normal coefficients at any scale, with runs of zeros and subnormals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal(n) * 10.0 ** draw(st.integers(-300, 300))
    c[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    tiny = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    c[tiny] = rng.standard_normal(tiny.sum()) * 1e-310
    return c


def check_blocked_transforms(n, bc, max_examples):
    grid = Grid1D(n, bc)
    B = _basis_block(grid)

    @settings(max_examples=max_examples, deadline=None, database=None)
    @given(coefficient_vectors(n))
    def check(c):
        assert np.array_equal(inverse_modal_transform(grid, c), B @ c), (n, bc)
        assert np.array_equal(modal_transform(grid, c), grid.dx * (B.T @ c)), (n, bc)

    check()


def test_blocked_transforms_equal_the_dense_products():
    env = {**os.environ, **PINS, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["checked", str(len(SIZES) * len(BCS))]


@pytest.mark.parametrize("n", [2, 7, 64, 255, 1024, 2048])
@pytest.mark.parametrize("bc", BCS)
def test_mode_vector_is_the_dense_basis_column(n, bc):
    grid = Grid1D(n, bc)
    B = _basis_block(grid)
    lo = 1 if bc == "dirichlet" else 0
    for k in range(lo, n + lo, 37):
        e = np.zeros(n)
        e[k - lo] = 1.0
        assert np.array_equal(mode_vector(grid, k), B @ e), k


THREAD_JOBS = {
    "oracle-check": {"T": 1 / 32, "h": 1 / 256},
    "sweep": {"T": 1 / 8, "h_list": [1 / 32, 1 / 64]},
}


@pytest.mark.parametrize("command", list(THREAD_JOBS))
def test_modal_reference_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    # at n = 2049 a dense product with the basis runs threaded and the last
    # 64-row block holds 65 rows
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "preset": "P1", "bc": "dirichlet", "n_interior": 2049, "m": 1.0,
        "initial": {"profile": "random_smooth", "seed": 3}, **THREAD_JOBS[command]}))
    outputs = {}
    for threads in ("1", "2", "4"):
        out = tmp_path / threads
        env = {**os.environ, **{name: threads for name in PINS},
               "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-m", "thermowave", command, "--config",
                               str(config), "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["1"]) == 2
    assert outputs["2"] == outputs["1"] and outputs["4"] == outputs["1"]


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("initial", [{"profile": "random_smooth", "seed": 3},
                                     {"profile": "single_mode", "mode": 5}])
def test_set_up_allocates_far_less_than_one_n_by_n_array(initial):
    n = 4096  # one n x n array is 8 n^2 bytes = 128 MB
    raw = {"preset": "P2", "bc": "neumann", "n_interior": n, "T": 1 / 64, "h": 1 / 256,
           "beta": {"kind": "cubic", "scale": 1.0}, "initial": initial}
    peak = _peak_traced_bytes(lambda: cli.build_problem(cli.validate_config(raw)))
    assert peak < 8 * n * n / 16, peak


@pytest.mark.parametrize("command", ["run", "energy-audit"])
def test_an_8_step_job_at_n_8192_peaks_below_100_mb(tmp_path, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "preset": "P2", "bc": "dirichlet", "n_interior": 8192, "T": 8 / 1024, "h": 1 / 1024,
        "beta": {"kind": "cubic", "scale": 1.0},
        "initial": {"profile": "random_smooth", "seed": 1}}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    # VmHWM, the high-water mark of this process image alone: a child's
    # ru_maxrss starts at the RSS of the process that forked it
    code = ("from thermowave import cli; "
            f"code = cli.main({argv!r}); "
            "hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
            "print(code, *hwm)")
    env = {**os.environ, **PINS, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    exit_code, peak_kb = proc.stdout.split()
    assert exit_code == "0"
    assert int(peak_kb) / 1024 < 100, f"peak RSS {int(peak_kb) / 1024:.1f} MB"


if __name__ == "__main__":
    for n in SIZES:
        for bc in BCS:
            check_blocked_transforms(n, bc, max_examples=30 if n <= 256 else 8)
    print("checked", len(SIZES) * len(BCS))
