"""The modal reference's matrix exponential against ``scipy.linalg.expm``.

``_lapack.expm`` runs SciPy's compiled Padé kernels, loaded without
importing ``scipy.linalg``, on each non-diagonal slice's view of one work
buffer, in index order, and then squares the slices in stacked rounds.
Every result must be the same bits as SciPy's, on every P1 generator batch
the reference takes and on batches that reach each branch: diagonal,
triangular (with and without squaring) and generic, mixed in one batch and
with s from 0 to 8 and more.  The kernels must run once per non-diagonal
slice, in index order, and a kernel failure must raise at the slice where
SciPy raises.  Without usable kernels it must be ``scipy.linalg.expm``
itself.
"""

import types

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg._matfuncs
from conftest import p1_defaults
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermowave import LinearReference, _lapack, random_smooth

# the step lengths of a halving sweep, their quarter and half points, t = 0
# (every slice diagonal) and a long time
H_LIST = [1.0 / 2 ** k for k in range(5, 10)]
TIMES = sorted({0.0, 2.0, *(f * h for h in H_LIST for f in (0.25, 0.5, 0.75, 1.0))})


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def branch(a):
    """The branch ``scipy.linalg.expm`` takes on the slice ``a``."""
    lower, upper = scipy.linalg.bandwidth(a)
    if lower == upper == 0:
        return "diagonal"
    if lower == 0:
        return "upper"
    return "lower" if upper == 0 else "generic"


@pytest.fixture
def pade_calls(monkeypatch):
    """The (slice, s) of each call of the Padé kernels, in order."""
    pick_pade_structure, pade_UV_calc = _lapack._pade_kernels()
    calls = []

    def pick(Am):
        a = Am[0].copy()
        m, s = pick_pade_structure(Am)
        calls.append((a, s))
        return m, s

    monkeypatch.setattr(_lapack, "_pade_kernels", lambda: (pick, pade_UV_calc))
    return calls


def test_p1_generator_batches_equal_scipy_expm(pade_calls):
    seen = set()
    for bc in ("dirichlet", "neumann"):
        for m in (0.0, 0.7):
            for n in (8, 256):
                bundle, nl = p1_defaults(n=n, bc=bc, m=m)
                gen = LinearReference(random_smooth(bundle.grid, 1), bundle, nl)._gen
                for t in TIMES:
                    batch = t * gen
                    del pade_calls[:]
                    assert_same_bits(_lapack.expm(batch), scipy.linalg.expm(batch))
                    branches = [branch(a) for a in batch]
                    seen.update(branches)
                    # the kernels see every slice but the diagonal ones, unchanged
                    kernel_slices = [a for a, kind in zip(batch, branches) if kind != "diagonal"]
                    assert len(pade_calls) == len(kernel_slices)
                    for (a, _), want in zip(pade_calls, kernel_slices):
                        assert np.array_equal(a, want)
    # every t = 0 batch is diagonal; the Neumann constant mode at m = 0 upper
    # triangular; the rest generic
    assert seen == {"diagonal", "upper", "generic"}


def test_triangular_slices_recompute_diagonals_at_each_squaring(pade_calls, monkeypatch):
    calls = []
    real = _lapack._exp_sinch
    monkeypatch.setattr(_lapack, "_exp_sinch", lambda x: calls.append(x) or real(x))
    upper = np.array([[-3.0, 40.0, 7.0], [0.0, -3.0, 5.0], [0.0, 0.0, 2.0]])
    batch = np.stack([upper, upper.T, 20.0 * upper, np.diag([1.0, -2.0, 3.0])])
    assert_same_bits(_lapack.expm(batch), scipy.linalg.expm(batch))
    squarings = [s for _, s in pade_calls]
    assert len(squarings) == 3 and min(squarings) > 0
    assert len(calls) == sum(squarings)


def test_mixed_batch_equals_scipy_expm_slice_by_slice(pade_calls, monkeypatch):
    """Generic slices from 1e-3 to 1e3 (s from 0 to 8 and more), upper and
    lower triangular slices that square, and diagonal slices, in one batch."""
    calls = []
    real = _lapack._exp_sinch
    monkeypatch.setattr(_lapack, "_exp_sinch", lambda x: calls.append(x) or real(x))
    rng = np.random.default_rng(24)
    skew = rng.standard_normal((3, 3))
    generic = skew - skew.T - np.eye(3)  # bounded exponentials at every scale
    upper = np.array([[-3.0, 40.0, 7.0], [0.0, -3.0, 5.0], [0.0, 0.0, 2.0]])
    diagonal = np.diag([1.0, -2.0, 3.0])
    batch = np.stack([diagonal, 1e-3 * generic, upper, 1e-1 * generic, 20.0 * upper.T,
                      generic, 0.0 * diagonal, 1e1 * generic, 20.0 * upper, 1e2 * generic,
                      upper.T, 1e3 * generic, -diagonal])
    assert_same_bits(_lapack.expm(batch), scipy.linalg.expm(batch))

    kinds = [branch(a) for a in batch]
    assert kinds.count("upper") == 2 and kinds.count("lower") == 2
    kernel_slices = [a for a, kind in zip(batch, kinds) if kind != "diagonal"]
    assert len(pade_calls) == len(kernel_slices)
    for (a, _), want in zip(pade_calls, kernel_slices):
        assert np.array_equal(a, want)
    kernel_kinds = [kind for kind in kinds if kind != "diagonal"]
    generic_s = [s for (_, s), kind in zip(pade_calls, kernel_kinds) if kind == "generic"]
    assert min(generic_s) == 0 and max(generic_s) >= 8
    triangular_s = [s for (_, s), kind in zip(pade_calls, kernel_kinds) if kind != "generic"]
    assert min(triangular_s) > 0
    assert len(calls) == sum(triangular_s)


def test_empty_and_non_finite_batches_equal_scipy_expm():
    empty = np.zeros((0, 3, 3))
    assert_same_bits(_lapack.expm(empty), scipy.linalg.expm(empty))
    generic = np.array([[-1.0, 2.0, 0.5], [0.3, -2.0, 1.0], [0.0, 4.0, -1.0]])
    for value in (np.inf, -np.inf, np.nan):
        for i, j in ((0, 0), (0, 2), (2, 0)):
            bad = generic.copy()
            bad[i, j] = value
            batch = np.stack([generic, bad, np.triu(bad), np.diag(np.diag(bad)), 8.0 * generic])
            with np.errstate(all="ignore"):
                assert_same_bits(_lapack.expm(batch), scipy.linalg.expm(batch))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@example(k=2, entries=[1.0] * 18, mask=[True, True, True, False, True, True, False, False, True]
         * 2, exponent=3.0)
@example(k=1, entries=[-1.0] * 9, mask=[True, False, False, True, True, False, True, True, True],
         exponent=2.0)
@given(k=st.integers(min_value=1, max_value=6),
       entries=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=54, max_size=54),
       mask=st.lists(st.booleans(), min_size=54, max_size=54),
       exponent=st.floats(min_value=-6.0, max_value=3.0))
def test_random_batches_equal_scipy_expm(k, entries, mask, exponent):
    """Random (k, 3, 3) batches with random zeros, scaled by 1e-6 to 1e3,
    so that every branch is reached and large scales square (s > 0)."""
    size = 9 * k
    batch = 10.0 ** exponent * np.where(mask[:size], entries[:size], 0.0).reshape(k, 3, 3)
    with np.errstate(all="ignore"):  # exp(1e3) overflows
        assert_same_bits(_lapack.expm(batch), scipy.linalg.expm(batch))


@pytest.mark.parametrize("m, info, error", [
    (-1, 0, MemoryError),  # pick_pade_structure failed to allocate
    (3, -11, MemoryError),  # pade_UV_calc failed to allocate
    (3, 2, RuntimeError),  # a LAPACK error inside pade_UV_calc
])
def test_kernel_failures_raise_as_scipy_does(monkeypatch, m, info, error):
    def pick(Am):
        return m, 0

    def uv(Am, m):
        return info

    monkeypatch.setattr(_lapack, "_pade_kernels", lambda: (pick, uv))
    monkeypatch.setattr(scipy.linalg._matfuncs, "pick_pade_structure", pick)
    monkeypatch.setattr(scipy.linalg._matfuncs, "pade_UV_calc", uv)
    batch = np.ones((2, 3, 3))
    with pytest.raises(error) as want:
        scipy.linalg.expm(batch)
    with pytest.raises(error) as got:
        _lapack.expm(batch)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("m, info, error", [
    (-1, 0, MemoryError),
    (3, -11, MemoryError),
    (3, 2, RuntimeError),
])
def test_kernel_failure_on_a_middle_slice_raises_there(monkeypatch, m, info, error):
    """Of five generic slices, the 3rd fails with the given code and the
    4th with another: the error must be the 3rd's, raised before the
    kernels see a later slice, as in scipy.linalg.expm."""
    pick_pade_structure, pade_UV_calc = _lapack._pade_kernels()
    seen = []

    def pick(Am):
        seen.append(int(Am[0, 0, 2]))
        if seen[-1] == 2:
            return m, 0
        if seen[-1] == 3:
            return -2, 0
        return pick_pade_structure(Am)

    def uv(Am, m):
        return info if int(Am[0, 0, 2]) == 2 else pade_UV_calc(Am, m)

    monkeypatch.setattr(_lapack, "_pade_kernels", lambda: (pick, uv))
    monkeypatch.setattr(scipy.linalg._matfuncs, "pick_pade_structure", pick)
    monkeypatch.setattr(scipy.linalg._matfuncs, "pade_UV_calc", uv)
    batch = np.ones((5, 3, 3))
    batch[:, 0, 2] = np.arange(5)  # each slice names itself to the kernels
    with pytest.raises(error) as want:
        scipy.linalg.expm(batch)
    assert seen == [0, 1, 2]
    del seen[:]
    with pytest.raises(error) as got:
        _lapack.expm(batch)
    assert str(got.value) == str(want.value)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("load", ["fails", "old_signature"])
def test_unusable_kernels_fall_back_to_scipy_expm(monkeypatch, load):
    real = _lapack._load_extension("_matfuncs_expm")

    def fails(name):
        raise ImportError("by-path loading refused")

    def old_signature(name):
        return types.SimpleNamespace(pick_pade_structure=real.pick_pade_structure,
                                     pade_UV_calc=lambda Am, n, m: 0)

    monkeypatch.setattr(_lapack, "_load_extension", {"fails": fails,
                                                     "old_signature": old_signature}[load])
    assert _lapack._pade_kernels.__wrapped__() is None

    calls = []
    scipy_expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or scipy_expm(a))
    monkeypatch.setattr(_lapack, "_pade_kernels", _lapack._pade_kernels.__wrapped__)
    batch = np.arange(18.0).reshape(2, 3, 3) / 10
    assert_same_bits(_lapack.expm(batch), scipy_expm(batch))
    assert len(calls) == 1 and calls[0] is batch

