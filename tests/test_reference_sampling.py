"""The modal reference samples each distinct quantity once, bitwise as before.

``PerMatrixReference`` keeps the straightforward algorithm the cached one
replaced: one ``expm`` per (mode, time) with no cache, one
``inverse_modal_transform`` per field and row, and seven ``sample`` calls
per ``error_norms`` (its ``sample_bar`` is the pointwise ``sample``, which
sends ``error_norms`` down the path that samples every quarter-point offset
anew).  Like the cached reference, it chains any two or more evenly spaced
times, but only within one ``sample`` call: its ``chain()`` is None.  Each
trajectory it is compared on fits in one ``iter_blocks`` block, so
``error_norms`` samples each of its time grids whole.  Every figure of the
cached reference must equal it exactly.
"""

import numpy as np
import pytest
import scipy.linalg
from conftest import p1_defaults

from thermowave import (LinearReference, StepConfig, _lapack, convergence, error_norms,
                        inverse_modal_transform, random_smooth, run, sweep)
from thermowave.diagnostics import BLOCK_VALUES

FIELDS = ("theta", "phi", "v")


class PerMatrixReference:
    def __init__(self, ref: LinearReference):
        self.grid = ref.grid
        self._gen, self._y0, self._initial = ref._gen, ref._y0, ref._initial

    def _expm_batch(self, t):
        return np.stack([scipy.linalg.expm(t * M) for M in self._gen])

    def _assemble(self, Y):
        return {name: inverse_modal_transform(self.grid, Y[:, j])
                for j, name in enumerate(FIELDS)}

    def at(self, t):
        Y = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
        fields = self._assemble(Y)
        if t == 0.0:
            fields = {k: v.copy() for k, v in self._initial.items()}
        return fields

    def acceleration(self, t):
        Y = np.einsum("kij,kj->ki", self._expm_batch(float(t)), self._y0)
        return inverse_modal_transform(self.grid, np.einsum("kij,kj->ki", self._gen, Y)[:, 2])

    def chain(self):
        return None

    def sample(self, times, chain=None):
        times = np.asarray(times, dtype=float)
        out = {name: np.empty((times.size, self.grid.n_interior)) for name in FIELDS}
        if times.size == 0:
            return out
        dt = np.diff(times)
        if times.size > 1 and np.allclose(dt, dt[0], rtol=1e-12, atol=1e-15):
            E = self._expm_batch(float(dt[0]))
            Y = np.einsum("kij,kj->ki", self._expm_batch(float(times[0])), self._y0)
            for i in range(times.size):
                fields = self._assemble(Y)
                for name in out:
                    out[name][i] = fields[name]
                if i + 1 < times.size:
                    Y = np.einsum("kij,kj->ki", E, Y)
        else:
            for i, t in enumerate(times):
                fields = self.at(float(t))
                for name in out:
                    out[name][i] = fields[name]
        for i in np.nonzero(times == 0.0)[0]:
            for name in out:
                out[name][i] = self._initial[name]
        return out

    def sample_bar(self, times, side=-1):
        return self.sample(times)


def _reference(bc, n=24, m=0.7, seed=3):
    bundle, nl = p1_defaults(n=n, bc=bc, m=m)
    return LinearReference(random_smooth(bundle.grid, seed), bundle, nl), bundle, nl


def _assert_same(got, want):
    for name in FIELDS:
        assert got[name].shape == want[name].shape
        assert np.array_equal(got[name], want[name]), name


TIMES = {
    "empty": [],
    "one": [0.3],
    "one-zero": [0.0],
    "two": [0.0, 0.125],
    "three-uniform": [0.0, 0.125, 0.25],
    "two-offset": [0.0625, 0.1875],
    "three-offset": [0.0625, 0.1875, 0.3125],
    "uniform": list(np.arange(9) * (1.0 / 64)),
    "non-uniform": [0.0, 0.01, 0.05, 0.3, 0.31, 1.0],
    "repeated": [0.1, 0.1, 0.2, 0.1],
}


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("key", list(TIMES))
def test_sample_matches_per_matrix_algorithm(bc, key):
    ref, _, _ = _reference(bc)
    old = PerMatrixReference(ref)
    _assert_same(ref.sample(TIMES[key]), old.sample(TIMES[key]))
    # a second pass is served from the exponential cache, unchanged
    _assert_same(ref.sample(TIMES[key]), old.sample(TIMES[key]))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_at_matches_per_matrix_algorithm(bc):
    ref, _, _ = _reference(bc, n=17)
    old = PerMatrixReference(ref)
    for t in (0.0, 1.0 / 3.0, 0.25, 2.0):
        snap, want = ref.at(t), old.at(t)
        for name in FIELDS:
            assert np.array_equal(getattr(snap, name), want[name])
        assert np.array_equal(snap.z, old.acceleration(t))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_error_norms_match_seven_sample_algorithm(bc, N):
    ref, bundle, nl = _reference(bc)
    h = 0.25 / N
    states = run(random_smooth(bundle.grid, 3), bundle, nl, T=0.25, cfg=StepConfig(h=h)).states
    assert len(states) <= BLOCK_VALUES // bundle.grid.n_interior  # one block
    assert error_norms(states, ref, bundle) == error_norms(states, PerMatrixReference(ref),
                                                           bundle)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_sweep_matches_seven_sample_algorithm(bc):
    """The first member has N = 2 steps, the second N = 4."""
    ref, bundle, nl = _reference(bc, n=20)
    init = random_smooth(bundle.grid, 3)
    h_list = [0.125, 0.0625, 0.03125, 0.015625]
    assert 0.25 / h_list[-1] + 1 <= BLOCK_VALUES // 20  # every member in one block
    got = sweep(init, bundle, nl, T=0.25, h_list=h_list)
    want = sweep(init, bundle, nl, T=0.25, h_list=h_list, reference=PerMatrixReference(ref))
    assert got.reports == want.reports
    assert (got.fitted_order, got.fitted_M) == (want.fitted_order, want.fitted_M)


def test_halving_sweep_takes_one_exponential_batch_per_distinct_time(monkeypatch):
    # the exponential cache is per process: counted here with every member
    # in this one
    monkeypatch.setattr(convergence, "usable_cpus", lambda: 1)
    n = 16
    shapes = []
    real = _lapack.expm

    def counted(A):
        shapes.append(np.shape(A))
        return real(A)

    monkeypatch.setattr(_lapack, "expm", counted)
    bundle, nl = p1_defaults(n=n, m=1.0)
    init = random_smooth(bundle.grid, 7)
    ref = LinearReference(init, bundle, nl)
    calls = []
    sample = ref.sample
    ref.sample = lambda times, chain=None, **kw: (calls.append(len(times))
                                                  or sample(times, chain, **kw))
    h_list = [1.0 / 2 ** k for k in range(5, 10)]
    sweep(init, bundle, nl, T=0.5, h_list=h_list, reference=ref)
    # t = 0, the five step lengths h, and h/2, h/4, 3h/4 of each member:
    # 1 + 7 powers of two + 5 three-quarter steps
    assert len(shapes) == 13
    assert all(shape == (n, 3, 3) for shape in shapes)
    # nodes, midpoints and the 1/4 and 3/4 points of each of the 5 members
    assert len(calls) == 4 * len(h_list)


@pytest.mark.parametrize("N", [1, 2])
def test_short_member_takes_four_samples(N):
    # a member of one or two steps samples its nodes, midpoints and 1/4
    # and 3/4 points along one chain each, as a longer one does
    ref, bundle, nl = _reference("dirichlet")
    calls = []
    sample = ref.sample
    ref.sample = lambda times, chain=None, **kw: (calls.append(len(times))
                                                  or sample(times, chain, **kw))
    states = run(random_smooth(bundle.grid, 3), bundle, nl, T=0.25,
                 cfg=StepConfig(h=0.25 / N)).states
    error_norms(states, ref, bundle)
    assert calls == [N + 1, N, N, N]


def test_exponential_cache_is_bounded():
    ref, _, _ = _reference("neumann", n=8)
    times = np.arange(ref.EXPM_CACHE_SIZE + 10) * 0.01 + 0.005
    ref.sample(times[np.argsort(-times)] ** 2)  # non-uniform: one exponential per time
    assert len(ref._expm) == ref.EXPM_CACHE_SIZE


@pytest.mark.parametrize("times", [[0.5, 0.25], [0.5, 0.375, 0.25], [0.25, 0.25, 0.25]],
                         ids=["decreasing-2", "decreasing-3", "constant"])
def test_grid_without_a_positive_step_takes_one_exponential_per_time(times):
    # exp(-dt G) of a decreasing grid overflows in the stiff modes; a grid
    # whose step is not positive is not chained
    bundle, nl = p1_defaults(n=64, m=1.0)
    ref = LinearReference(random_smooth(bundle.grid, 3), bundle, nl)
    with np.errstate(over="raise", invalid="raise"):
        got = ref.sample(times)
    for i, t in enumerate(times):
        want = ref.sample([t])
        for name in FIELDS:
            assert np.isfinite(got[name][i]).all(), (name, t)
            assert np.array_equal(got[name][i], want[name][0]), (name, t)


@pytest.mark.parametrize("blocks", [[[0.25, 0.5], [0.5, 0.75]], [[0.25, 0.5], [1.0]],
                                    [[0.5], [0.25]]],
                         ids=["repeated-time", "skipped-time", "backwards"])
def test_chain_rejects_a_block_that_does_not_continue_its_grid(blocks):
    # the chain advances one row per time, so a block that repeats,
    # skips or goes back from the grid's next time would sample the rows
    # of other times (or, going back, take exp(-dt G) and sample NaN)
    bundle, nl = p1_defaults(n=64, m=1.0)
    ref = LinearReference(random_smooth(bundle.grid, 3), bundle, nl)
    chain = ref.chain()
    first, second = blocks
    _assert_same(ref.sample(first, chain), ref.sample(first))
    with pytest.raises(ValueError, match="do not continue one increasing uniform grid"):
        ref.sample(second, chain)
