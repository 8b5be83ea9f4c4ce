"""The LAPACK routines of ``thermowave._lapack`` against SciPy's own route.

The package loads SciPy's Fortran LAPACK extension from its file, so that
no command imports ``scipy.linalg``.  These tests pin that the routines
and the eigenvalue helper give the bits of ``get_lapack_funcs`` and
``eigh_tridiagonal``, that the fallback through ``scipy.linalg`` gives the
same outputs, and that no command loads ``scipy.linalg``.
"""

import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from conftest import preset_bundle
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

import thermowave
from thermowave import DiscreteOperator, _lapack, assemble_laplacian, operators, stepper
from thermowave.operators import Grid1D, _lanczos_top_eigenvalue, coupling_relative_bound

SRC = os.path.dirname(os.path.dirname(os.path.abspath(thermowave.__file__)))
NAMES = ("pttrf", "pttrs", "gbtrf", "gbtrs", "stebz", "stevd")
SIZES = (1, 2, 64, 1024)


def scipy_routines(*names):
    return get_lapack_funcs(names, (np.zeros(1),))


def tridiagonal_system(rng, n):
    """A diagonally dominant tridiagonal system (d, e, b); for n = 1 the
    wrappers still take one off-diagonal entry, which LAPACK ignores."""
    e = rng.standard_normal(max(n - 1, 1))
    a = np.abs(e[: n - 1])
    d = 2.0 + np.abs(rng.standard_normal(n)) + np.r_[a, 0.0] + np.r_[0.0, a]
    return d, e, rng.standard_normal(n)


def banded_system(rng, n):
    """A diagonally dominant pentadiagonal system in gbtrf's 7-row layout
    (rows 0-1 the LU fill-in, rows 2-6 the bands), and a right-hand side."""
    ab = np.zeros((7, n), order="F")
    ab[2:] = rng.standard_normal((5, n))
    ab[4] = 5.0 + np.abs(ab[4]) + np.abs(ab[2:]).sum(axis=0)
    return ab, rng.standard_normal(n)


@pytest.mark.parametrize("n", SIZES)
def test_direct_pt_routines_equal_get_lapack_funcs(n):
    rng = np.random.default_rng(n)
    d, e, b = tridiagonal_system(rng, n)
    sp_pttrf, sp_pttrs = scipy_routines("pttrf", "pttrs")
    got, want = _lapack.pttrf(d, e), sp_pttrf(d, e)
    assert got[2] == want[2] == 0
    assert all(np.array_equal(g, w) for g, w in zip(got[:2], want[:2]))
    x, info = _lapack.pttrs(got[0], got[1], b)
    x_ref, info_ref = sp_pttrs(want[0], want[1], b)
    assert info == info_ref == 0
    assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("n", SIZES)
def test_direct_gb_routines_equal_get_lapack_funcs(n):
    rng = np.random.default_rng(100 + n)
    ab, b = banded_system(rng, n)
    sp_gbsv, sp_gbtrf, sp_gbtrs = scipy_routines("gbsv", "gbtrf", "gbtrs")
    want = sp_gbsv(2, 2, ab, b)
    assert want[3] == 0
    lu, piv, info = _lapack.gbtrf(ab, 2, 2)
    lu_ref, piv_ref, info_ref = sp_gbtrf(ab, 2, 2)
    assert info == info_ref == 0
    assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
    x, info = _lapack.gbtrs(lu, 2, 2, b, piv)
    x_ref, info_ref = sp_gbtrs(lu_ref, 2, 2, b, piv_ref)
    assert info == info_ref == 0
    assert np.array_equal(x, x_ref)
    assert np.array_equal(x, want[2])  # the bits of SciPy's one-call gbsv


def test_package_calls_the_lapack_module_routines():
    assert (operators._PTTRF, operators._PTTRS) == (_lapack.pttrf, _lapack.pttrs)
    assert (stepper._GBTRF, stepper._GBTRS) == (_lapack.gbtrf, _lapack.gbtrs)


# ----------------------------------------------------------------------
# eigenvalues


def reference_eigvals(d, e, lowest=False):
    """The eigh_tridiagonal calls the package made before it called the
    LAPACK drivers itself."""
    if lowest:
        return eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    return eigh_tridiagonal(d, e, eigvals_only=True)


def with_reference_eigvals(fn, *args):
    with mock.patch.object(operators, "tridiagonal_eigvals", reference_eigvals):
        return fn(*args)


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    d = scale * rng.standard_normal(n)
    e = scale * rng.standard_normal(n - 1)
    e[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0  # split blocks
    return d, e


@settings(max_examples=120, deadline=None)
@given(tridiagonals())
def test_eigenvalue_calls_equal_eigh_tridiagonal(de):
    d, e = de
    for lowest in (False, True):
        assert np.array_equal(_lapack.tridiagonal_eigvals(d, e, lowest),
                              reference_eigvals(d, e, lowest))
    n = d.size
    if n == 1:
        apply = lambda x: d * x  # noqa: E731
    else:
        op = DiscreteOperator(d, e)
        assert op.min_eigenvalue() == float(reference_eigvals(d, e, lowest=True)[0])
        apply = op.apply
        diffusion = assemble_laplacian(Grid1D(n, "neumann" if n % 2 else "dirichlet"), 1.0)
        assert (coupling_relative_bound(op, diffusion)
                == with_reference_eigvals(coupling_relative_bound, op, diffusion))
    assert (_lanczos_top_eigenvalue(apply, n)
            == with_reference_eigvals(_lanczos_top_eigenvalue, apply, n))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("P1", "P2", "P3", "P4", "P5")),
       st.sampled_from(("dirichlet", "neumann")), st.integers(2, 64))
def test_bundle_eigenvalue_bounds_equal_eigh_tridiagonal(preset, bc, n):
    bundle = preset_bundle(preset, n=n, bc=bc)
    for op in (bundle.mass, bundle.diffusion, bundle.damping, bundle.stiffness,
               bundle.coupling):
        assert op.min_eigenvalue() == float(reference_eigvals(op.diag, op.offdiag, True)[0])
        assert (coupling_relative_bound(op, bundle.diffusion)
                == with_reference_eigvals(coupling_relative_bound, op, bundle.diffusion))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["d", "e"])
def test_eigenvalues_of_non_finite_input_raise_value_error(bad, where):
    d, e = np.array([2.0, 1.0, 3.0]), np.array([0.5, -0.5])
    (d if where == "d" else e)[1] = bad
    for lowest in (False, True):
        with pytest.raises(ValueError):
            reference_eigvals(d, e, lowest)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.tridiagonal_eigvals(d, e, lowest)


def test_eigenvalues_reject_mismatched_bands():
    with pytest.raises(ValueError):
        reference_eigvals(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="one more element"):
        _lapack.tridiagonal_eigvals(np.ones(3), np.ones(3))


# ----------------------------------------------------------------------
# what each command imports, and the fallback

# Runs one CLI command in a fresh interpreter and reports which of the
# modules a `scipy.linalg` import brings (the package, and the array-API
# layer that makes most of its cost) were loaded after `import thermowave`,
# after validate_config and after the command, and whether the command
# loaded the exponential's kernels.  With "fallback" it first makes every
# by-path module load fail, so thermowave takes its routines from
# scipy.linalg; and it gives the kernels the signature of older SciPy's
# (`pade_UV_calc(Am, n, m)`), so the exponential is scipy.linalg.expm,
# whose calls it counts.
PROBE = """
import importlib.util, json, sys
mode, command, config, out = sys.argv[1:]
if mode == "fallback":
    def refuse(*args, **kwargs):
        raise ImportError("by-path loading refused")
    importlib.util.spec_from_file_location = refuse
from thermowave import _lapack, cli, operators, stepper
loaded = lambda: [m for m in ("scipy.linalg", "scipy._lib._array_api") if m in sys.modules]
seen = {"import": loaded(), "scipy_expm_calls": 0}
if mode == "fallback":
    import scipy.linalg, scipy.linalg._matfuncs_expm as kernels
    kernels.pade_UV_calc = lambda Am, n, m: 0
    scipy_expm = scipy.linalg.expm
    def counted(a):
        seen["scipy_expm_calls"] += 1
        return scipy_expm(a)
    scipy.linalg.expm = counted
with open(config) as f:
    cli.validate_config(json.load(f), need_h_list=command == "sweep",
                        need_linear=command == "oracle-check")
seen["validate"] = loaded()
seen["code"] = cli.main([command, "--config", config, "--out", out])
seen["job"] = loaded()
seen["kernels"] = "scipy.linalg._matfuncs_expm" in sys.modules
from scipy.linalg import get_lapack_funcs
names = %r
# the routines operators and stepper hold, as _PTTRF, _GBTRS, ...
called = [(name, getattr(mod, "_" + name.upper())) for mod in (operators, stepper)
          for name in names if hasattr(mod, "_" + name.upper())]
used = [getattr(_lapack, name) for name in names] + [fn for _, fn in called]
want = get_lapack_funcs(names + tuple(name for name, _ in called),
                        (__import__("numpy").zeros(1),))
seen["scipy_routines"] = len(called) == 4 and all(a is b for a, b in zip(used, want))
print(json.dumps(seen))
""" % (NAMES,)

P2_CUBIC = {"preset": "P2", "n_interior": 16, "T": 0.125, "h": 1.0 / 64,
            "beta": {"kind": "cubic", "scale": 1.0},
            "initial": {"profile": "random_smooth", "seed": 4, "decay": 2.0}}
P1_LINEAR = {"preset": "P1", "n_interior": 16, "T": 0.25, "m": 1.0,
             "initial": {"profile": "single_mode", "mode": 1, "theta_amp": 0.5,
                         "phi_amp": 0.5, "v_amp": 0.0}}
# each command with a config on which it builds the modal reference, if it can
CONFIGS = {"run": P2_CUBIC, "energy-audit": P2_CUBIC,
           "sweep": {**P1_LINEAR, "h_list": [1.0 / 16, 1.0 / 32, 1.0 / 64]},
           "oracle-check": {**P1_LINEAR, "h": 1.0 / 64}}


def probe(tmp_path, command, config, mode="direct"):
    path = tmp_path / f"{mode}-{command}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"{mode}-{command}"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, mode, command, str(path), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out


@pytest.mark.parametrize("command", list(CONFIGS))
def test_stepping_commands_never_import_scipy_linalg(tmp_path, command):
    seen, _ = probe(tmp_path, command, CONFIGS[command])
    assert seen["code"] == 0
    assert seen["import"] == seen["validate"] == seen["job"] == []
    # the kernels load on the first exponential: only the modal reference's
    assert seen["kernels"] == (command in ("sweep", "oracle-check"))
    assert seen["scipy_routines"]  # a later import of scipy.linalg reuses the module


def test_nonlinear_sweep_never_imports_scipy_linalg(tmp_path):
    config = {**P2_CUBIC, "h_list": [1.0 / 32, 1.0 / 64]}
    del config["h"]
    seen, _ = probe(tmp_path, "sweep", config)
    assert seen["code"] == 0
    assert seen["import"] == seen["validate"] == seen["job"] == []
    assert not seen["kernels"]


def test_fallback_takes_scipy_routines_and_writes_the_same_bytes(tmp_path):
    configs = {"run": {**P2_CUBIC, "snapshot_stride": 2},
               "sweep": CONFIGS["sweep"], "oracle-check": CONFIGS["oracle-check"]}
    for command, config in configs.items():
        direct, direct_out = probe(tmp_path, command, config)
        fallback, fallback_out = probe(tmp_path, command, config, mode="fallback")
        assert not direct["import"]
        assert fallback["import"]  # the routines came through scipy.linalg
        assert fallback["scipy_routines"] and fallback["code"] == direct["code"] == 0
        # the exponentials came from scipy.linalg.expm
        assert (fallback["scipy_expm_calls"] > 0) == (command != "run")
        names = sorted(os.listdir(direct_out))
        assert names == sorted(os.listdir(fallback_out))
        assert {"run": "snapshots.csv", "sweep": "sweep.csv",
                "oracle-check": "oracle.csv"}[command] in names
        for name in names:
            assert (direct_out / name).read_bytes() == (fallback_out / name).read_bytes(), name
