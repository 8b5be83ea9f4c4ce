"""The LAPACK routines of the per-step linear algebra, without ``scipy.linalg``.

Stepping calls six double-precision LAPACK routines: ``pttrf``/``pttrs``
for the heat resolvent, ``gbtrf``/``gbtrs`` for the Newton Jacobian, and
``stebz``/``stevd`` for the eigenvalue bounds of a bundle.  All six are in
SciPy's Fortran extension ``scipy.linalg._flapack``, but importing the
``scipy.linalg`` package that holds it costs more than the rest of the
package together.  So the extension is loaded from its file
under its own module name and registered in ``sys.modules``; a later
``import scipy.linalg`` (the modal reference's ``expm``) reuses that very
module object.  Should the direct load fail for any reason, the routines
come from ``scipy.linalg.get_lapack_funcs``.  Either way they are the same
Fortran wrappers, called on the same arrays, so results are the same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy
from numpy.linalg import LinAlgError

_FLAPACK = "scipy.linalg._flapack"
_NAMES = ("pttrf", "pttrs", "gbtrf", "gbtrs", "stebz", "stevd")


def _load_flapack():
    """``scipy.linalg._flapack`` loaded from its file, or the module already
    imported under that name."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    paths = [os.path.join(directory, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no {_FLAPACK} extension in {directory}")
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_FLAPACK]
        raise
    return module


def _routines() -> list:
    try:
        flapack = _load_flapack()
        return [getattr(flapack, "d" + name) for name in _NAMES]
    except Exception:  # any failure: the standard import gives the same routines
        from scipy.linalg import get_lapack_funcs
        return get_lapack_funcs(_NAMES, (np.zeros(1),))


pttrf, pttrs, gbtrf, gbtrs, stebz, stevd = _routines()


def _check_lapack_info(info: int, routine: str, failure: str) -> None:
    """Raise as SciPy's LAPACK wrappers do: ``LinAlgError(failure)`` when
    the routine reports a numerical failure (info > 0), ``ValueError`` for
    an illegal argument (info < 0)."""
    if info > 0:
        raise LinAlgError(failure.format(info=info))
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {routine}")


def tridiagonal_eigvals(d, e, lowest: bool = False) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``; with ``lowest``, only the smallest.

    The bits of ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)``,
    and with ``lowest`` of its ``select="i", select_range=(0, 0)`` form: the
    same drivers (``stevd`` for all eigenvalues, ``stebz`` for one), the
    same checks (finite input, ``e`` one shorter than ``d``) and the same
    1x1 shortcut.
    """
    d = np.asarray_chkfinite(d, dtype=float)
    e = np.asarray_chkfinite(e, dtype=float)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if d.size == 1:
        return d[:1].copy()
    if lowest:
        # range 2 selects by index; il = iu = 1 is the smallest (Fortran
        # indexing); tol 0 means eps * |T|_1; "E" orders the whole matrix
        m, w, _, _, info = stebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
        _check_lapack_info(info, "stebz", "stebz did not converge (LAPACK info={info})")
        return w[:m]
    w, _, info = stevd(d, e, compute_v=0)
    _check_lapack_info(info, "stevd", "stevd did not converge (LAPACK info={info})")
    return w
