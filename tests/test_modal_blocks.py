"""The modal transforms: blocked below ``oracle.N0`` unknowns, FFTs from it up.

The blocked transforms have the bits of the dense products ``B @ c`` and
``dx * (B.T @ u)`` on one BLAS thread (the dense product's own bits depend
on how a threaded BLAS splits it); the FFT transforms stay within a stated
error bound of them.  A mode vector is one column of B, no set-up path
and no linear reference from ``N0`` up allocates an n x n array, the
modal reference's outputs have the same bytes under 1, 2 and 4 BLAS
threads, and a job at the unknowns limit runs in less than 100 MB.

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

from thermowave import (Grid1D, LinearReference, cli, inverse_modal_transform, modal_transform,
                        mode_vector)
from thermowave.oracle import N0, _basis_block

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SIZES = (2, 7, 63, 64, 65, 255, 256, 257, 511)  # blocked: all below N0
# FFT lengths 2(n + 1) = 1026, 2050, 4098 = 2 x 3 x 683 and 4100 (Dirichlet),
# 2n = 1024, 2048, 4096 and 4098 (Neumann)
FFT_SIZES = (N0, 1024, 2048, 2049)
BCS = ("dirichlet", "neumann")
U = np.finfo(float).eps / 2  # the unit roundoff
TINY = 2.0 ** -1074  # the smallest subnormal


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
    assert max(SIZES) < N0
    env = {**os.environ, **PINS, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["checked", str(len(SIZES) * len(BCS))]


def _extended_basis(grid):
    """B in extended precision (``np.longdouble``), each angle reduced to
    [0, 2 pi) as an exact integer multiple of pi / (n + 1) (Dirichlet) or
    pi / 2n (Neumann) before it is scaled, so every entry is within a few
    extended roundoffs of B.  ``_basis_block`` evaluates sin(k pi x) at
    arguments up to pi n, whose rounding alone moves an entry by up to
    about pi n U, far more than the FFT's error."""
    n = grid.n_interior
    j = np.arange(1, n + 1)
    pi = 4 * np.arctan(np.longdouble(1))
    if grid.bc == "dirichlet":
        B = (np.outer(j, j) % (2 * (n + 1))).astype(np.longdouble)
        B *= pi / (n + 1)
        np.sin(B, out=B)
    else:
        B = (np.outer(2 * j - 1, np.arange(n)) % (4 * n)).astype(np.longdouble)
        B *= pi / (2 * n)
        np.cos(B, out=B)
        B[:, 0] = np.sqrt(np.longdouble(0.5))
    B *= np.sqrt(np.longdouble(2))
    return B


def _norm(x):
    scale = np.max(np.abs(x))  # no overflow at 1e300, no underflow below 1e-154
    return scale * np.sqrt(np.sum(np.square(x / scale))) if scale else 0.0


def _fft_error_bound(grid, x, scale):
    """Bound on the largest entrywise difference between a transform of x
    by FFT and the extended-precision dense product, for an output ``scale``
    of 1 (synthesis) or dx (analysis).

    Each kernel is one FFT of length L (2(n + 1) or 2n) of an input whose
    2-norm is at most |x|_2, before or after twiddles of modulus at most
    sqrt(2), and it keeps part of the output.  A Cooley-Tukey FFT with
    twiddles accurate to about U has |y' - y|_2 <= log2(L) eta |y|_2 with
    eta about 7 U (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm. 24.2), and |y|_2 = sqrt(L) |x|_2 unnormalized; eta = 16 U
    covers pocketfft's mixed radices, the Bluestein convolution of lengths
    with the prime factor 683, the twiddles and the final scaling.  A
    subnormal result is rounded by up to TINY / 2 in absolute terms, not
    relative ones: each output sums L inputs through about 2L roundings,
    carried by factors of modulus at most 1, and 4 L TINY covers them.  The
    dense reference adds at most (n + 9) roundoffs of its own precision per
    term of sqrt(2) |x|_1, n from its sums and 9 from its entries; that
    term is negligible in extended precision and keeps the bound valid
    where ``np.longdouble`` is a double."""
    n = grid.n_interior
    L = 2 * (n + 1) if grid.bc == "dirichlet" else 2 * n
    u_ref = np.finfo(np.longdouble).eps / 2
    fft = 16 * U * np.log2(L) * np.sqrt(2 * L) * _norm(x)
    dense = u_ref * (n + 9) * np.sqrt(2) * np.sum(np.abs(x))
    return scale * (fft + dense) + 4 * L * TINY


@pytest.mark.parametrize("n", FFT_SIZES)
@pytest.mark.parametrize("bc", BCS)
def test_fft_transforms_are_within_their_error_bound_of_the_dense_products(n, bc):
    grid = Grid1D(n, bc)
    B = _extended_basis(grid)
    dx = np.longdouble(grid.dx)

    @settings(max_examples=10, deadline=None, database=None)
    @given(coefficient_vectors(n))
    def check(c):
        x = c.astype(np.longdouble)
        synthesis = np.max(np.abs(inverse_modal_transform(grid, c) - B @ x))
        assert synthesis <= _fft_error_bound(grid, c, 1.0), (n, bc)
        analysis = np.max(np.abs(modal_transform(grid, c) - dx * (B.T @ x)))
        assert analysis <= _fft_error_bound(grid, c, grid.dx), (n, bc)

    check()


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
@pytest.mark.parametrize("n", [257, 2049])
def test_modal_reference_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command, n):
    # at n = 257 the transforms are blocked and the last 64-row block holds
    # 65 rows; at n = 2049 they are FFTs, where a dense product with the
    # basis would run threaded
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "preset": "P1", "bc": "dirichlet", "n_interior": n, "m": 1.0,
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


def test_a_linear_reference_from_n0_up_allocates_far_less_than_one_n_by_n_array():
    n = 4096  # one n x n array is 8 n^2 bytes = 128 MB
    raw = {"preset": "P1", "bc": "neumann", "n_interior": n, "T": 1 / 64, "h": 1 / 256,
           "m": 1.0, "initial": {"profile": "random_smooth", "seed": 3}}
    _, bundle, nonlin, initial, _ = cli.build_problem(cli.validate_config(raw))

    def build_and_sample():
        LinearReference(initial, bundle, nonlin).sample([0.0, 1 / 256, 2 / 256])

    peak = _peak_traced_bytes(build_and_sample)
    assert peak < 8 * n * n / 16, peak


def _peak_rss_mb(tmp_path, command, raw):
    """Exit code and resident peak (MB) of one CLI job in a fresh process."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
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
    return exit_code, int(peak_kb) / 1024


@pytest.mark.parametrize("command", ["run", "energy-audit"])
def test_an_8_step_job_at_n_8192_peaks_below_100_mb(tmp_path, command):
    exit_code, peak = _peak_rss_mb(tmp_path, command, {
        "preset": "P2", "bc": "dirichlet", "n_interior": 8192, "T": 8 / 1024, "h": 1 / 1024,
        "beta": {"kind": "cubic", "scale": 1.0},
        "initial": {"profile": "random_smooth", "seed": 1}})
    assert exit_code == "0"
    assert peak < 100, f"peak RSS {peak:.1f} MB"


def test_an_8_step_oracle_check_at_the_unknowns_limit_peaks_below_100_mb(tmp_path):
    # the largest linear reference a command builds, with random_smooth data
    exit_code, peak = _peak_rss_mb(tmp_path, "oracle-check", {
        "preset": "P1", "bc": "dirichlet", "n_interior": cli.MAX_UNKNOWNS, "m": 1.0,
        "T": 8 / 1024, "h": 1 / 1024, "initial": {"profile": "random_smooth", "seed": 1}})
    assert exit_code == "0"
    assert peak < 100, f"peak RSS {peak:.1f} MB"


if __name__ == "__main__":
    for n in SIZES:
        for bc in BCS:
            check_blocked_transforms(n, bc, max_examples=30 if n <= 256 else 8)
    print("checked", len(SIZES) * len(BCS))
