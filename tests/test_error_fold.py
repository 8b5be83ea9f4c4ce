"""The error fold does each piece of work once per block, bit for bit.

``ParentFigures`` keeps the fold that ``ErrorFigures._fold`` replaced: it
samples theta, phi and v at every point, forms each figure's differences
anew, evaluates both endpoints of every Simpson pair (12 form evaluations
per integral figure and block), applies coupling and diffusion separately
in e7, and pads the Dirichlet form's differences with ``np.diff``.  Every
figure of ``error_norms`` must have its bits, in blocks of any size, and
the new fold must do less: 10 synthesized field vectors per interval
instead of 12, and 9 evaluations of each integral form per block instead
of 12.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from conftest import preset_bundle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermowave import (DiscreteOperator, LinearReference, StepConfig, build_interpolants,
                        cubic_nonlinearity, diagnostics, error_norms, linear_reaction, oracle,
                        random_smooth, run)
from thermowave.convergence import ErrorReport
from thermowave.diagnostics import _Figures
from thermowave.operators import DIRICHLET, h_inner


def _gradient_inner(grid, u, w):
    pad = {"prepend": 0.0, "append": 0.0} if grid.bc == DIRICHLET else {}
    return (np.diff(u, **pad) * np.diff(w, **pad)).sum(axis=-1) / grid.dx


def _v_norm_sq(grid, u):
    return h_inner(grid, u, u) + _gradient_inner(grid, u, u)


class ParentFigures(_Figures):
    """The fold before it did each piece of work once."""

    def __init__(self, reference, bundle):
        super().__init__(("theta", "phi", "v"))
        grid = self.grid = bundle.grid
        self.reference, self._ref_last = reference, None
        chains = {w: reference.chain() for w in (None, 0.25, 0.5, 0.75)}
        self._sample = lambda times, w=None: reference.sample(times, chains[w])
        self._sup_forms = {"e1": ("v", lambda r: h_inner(grid, bundle.mass.apply(r), r)),
                           "e3": ("phi", lambda r: _v_norm_sq(grid, r)),
                           "e4": ("theta", lambda r: h_inner(grid, r, r)),
                           "e6": ("theta", lambda r: h_inner(grid, bundle.coupling.apply(r), r))}
        self._integral_forms = {
            "e2": ("v", lambda r: h_inner(grid, bundle.damping.apply(r), r)),
            "e5": ("theta", lambda r: _v_norm_sq(grid, r)),
            "e7": ("theta", lambda r: h_inner(grid, bundle.coupling.apply(r),
                                              bundle.diffusion.apply(r)))}

    def _interval_rows(self, lefts, ends):
        h, sample = self.h, self._sample
        mids = sample(lefts + 0.5 * h, 0.5)
        if hasattr(self.reference, "sample_bar"):
            return mids, [self.reference.sample_bar(lefts + w * h, side=(+1 if w == 0.0 else -1))
                          for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
        return mids, [{name: r[:-1] for name, r in ends.items()},
                      sample(lefts + 0.25 * h, 0.25), mids,
                      sample(lefts + 0.75 * h, 0.75), {name: r[1:] for name, r in ends.items()}]

    def _fold(self, rows, times, k):
        ref_n = self._sample(times[k:])
        for key, (name, q_rows) in self._sup_forms.items():
            self._sup(key, q_rows(rows[name][k:] - ref_n[name]))
        if len(times) > 1:
            ends = ref_n if k == 0 else {name: np.concatenate([self._ref_last[name][None], r])
                                         for name, r in ref_n.items()}
            ref_m, ref_q = self._interval_rows(times[:-1], ends)
            for key, (name, q_rows) in self._sup_forms.items():
                mids = 0.5 * (rows[name][:-1] + rows[name][1:])
                self._sup((key, "mid"), q_rows(mids - ref_m[name]))
            for key, (name, q_rows) in self._integral_forms.items():
                d = [rows[name][1:] - rq[name] for rq in ref_q]
                for quarter, (left, right) in enumerate(zip(d[:-1], d[1:])):
                    mid = 0.5 * (left + right)
                    self._integral((key, quarter), self.h / 4.0 / 6.0 * (
                        q_rows(left) + 4.0 * q_rows(mid) + q_rows(right)))
        self._ref_last = {name: r[-1] for name, r in ref_n.items()}

    def report(self):
        def sup(key):
            return math.sqrt(max(self._peak(key), self._peak((key, "mid")), 0.0))

        def integral(key):
            total = 0.0
            for quarter in range(4):
                total += self._total((key, quarter))
            return float(total)

        return ErrorReport(h=self.h, e1=sup("e1"), e2=math.sqrt(max(integral("e2"), 0.0)),
                           e3=sup("e3"), e4=sup("e4"), e5=math.sqrt(max(integral("e5"), 0.0)),
                           e6=sup("e6"), e7=integral("e7"))


def _bits(report):
    return [value.hex() for value in (report.h, *report.as_tuple())]


@functools.lru_cache(maxsize=None)
def _member(kind, bc, c, steps):
    """A linear P1 member against its modal solution, or a cubic P2 one
    against a fine-step run at a quarter of its step; coupling c^2 times
    the Laplacian applies as the unit diffusion at c = 1 alone."""
    if kind == "modal":
        bundle = preset_bundle("P1", n=17, bc=bc, sigma=1.0, c=c, gamma=2.0, m=0.7)
        nl, h = linear_reaction(-0.49), 1.0 / 64
    else:
        bundle = preset_bundle("P2", n=12, bc=bc, sigma=1.0, c=c, gamma=2.0, epsilon=1.0)
        nl, h = cubic_nonlinearity(1.0), 0.01
    init = random_smooth(bundle.grid, 3)
    T = steps * h
    states = run(init, bundle, nl, T, StepConfig(h=h)).states
    ref = (LinearReference(init, bundle, nl) if kind == "modal" else
           build_interpolants(run(init, bundle, nl, T, StepConfig(h=h / 4)).states))
    return bundle, states, ref


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["modal", "fine"]), bc=st.sampled_from(["dirichlet", "neumann"]),
       c=st.sampled_from([1.0, 2.0]), steps=st.integers(1, 24),
       block_values=st.integers(1, 600))
@example(kind="modal", bc="dirichlet", c=1.0, steps=9, block_values=17 * 4)
@example(kind="modal", bc="neumann", c=2.0, steps=1, block_values=1)
@example(kind="fine", bc="dirichlet", c=2.0, steps=24, block_values=12 * 5)
@example(kind="fine", bc="neumann", c=1.0, steps=3, block_values=8192)
def test_error_norms_have_the_bits_of_the_parent_fold(kind, bc, c, steps, block_values):
    # the states in blocks of max(1, block_values // n); the parent fold
    # takes the whole trajectory as one block
    bundle, states, ref = _member(kind, bc, c, steps)
    assert bundle.coupling.applies_as(bundle.diffusion) == (c == 1.0)
    want = ParentFigures(ref, bundle)
    want.add(states)
    with mock.patch.object(diagnostics, "BLOCK_VALUES", block_values):
        got = error_norms(iter(states), ref, bundle)
    assert _bits(got) == _bits(want.report())


def test_modal_member_synthesizes_ten_field_vectors_per_interval(monkeypatch):
    # theta, phi and v at the N + 1 nodes and N midpoints; theta and v
    # alone at the 1/4 and 3/4 points: 10 N + 3 vectors (12 N + 3 when
    # phi was synthesized there too)
    bundle, states, ref = _member("modal", "dirichlet", 1.0, 24)
    vectors = []
    real = oracle._synthesize

    def counted(grid, coeffs, basis=None):
        vectors.append(math.prod(np.shape(coeffs)[:-1]))
        return real(grid, coeffs, basis)

    monkeypatch.setattr(oracle, "_synthesize", counted)
    with mock.patch.object(diagnostics, "BLOCK_VALUES", 17 * 5):  # five blocks
        error_norms(iter(states), ref, bundle)
    assert sum(vectors) == 10 * 24 + 3


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("kind", ["modal", "fine"])
def test_each_integral_form_is_evaluated_nine_times_a_block(monkeypatch, kind, c):
    # e2 is the one figure that applies damping and e7 the one that
    # applies diffusion (and, with e6, coupling): five endpoint row sets and
    # four pair midpoints a block, where every Simpson pair's endpoints
    # were 12 evaluations; e7 applies diffusion not at all where coupling
    # applies as diffusion
    bundle, states, ref = _member(kind, "dirichlet", c, 24)
    n, per_block = bundle.grid.n_interior, 5
    blocks = -(-len(states) // per_block)
    calls = []
    real = DiscreteOperator.apply
    monkeypatch.setattr(DiscreteOperator, "apply",
                        lambda op, u: calls.append(op) or real(op, u))
    with mock.patch.object(diagnostics, "BLOCK_VALUES", n * per_block):
        error_norms(iter(states), ref, bundle)
    count = {name: sum(op is getattr(bundle, name) for op in calls)
             for name in ("mass", "damping", "coupling", "diffusion")}
    # sups: one node and one midpoint evaluation a block
    assert count == {"mass": 2 * blocks, "damping": 9 * blocks,
                     "coupling": (2 + 9) * blocks,
                     "diffusion": 0 if c == 1.0 else 9 * blocks}
