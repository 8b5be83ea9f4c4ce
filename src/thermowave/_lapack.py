"""SciPy's compiled linear algebra, without importing ``scipy.linalg``.

Stepping calls six double-precision LAPACK routines: ``pttrf``/``pttrs``
for the heat resolvent, ``gbtrf``/``gbtrs`` for the Newton Jacobian, and
``stebz``/``stevd`` for the eigenvalue bounds of a bundle.  All six are in
SciPy's Fortran extension ``scipy.linalg._flapack``.  The modal reference's
matrix exponential runs on the two Padé kernels of SciPy's extension
``scipy.linalg._matfuncs_expm``.  Importing the ``scipy.linalg`` package
that holds both costs more than the rest of the package together.  So each
extension is loaded from its file under its own module name and registered
in ``sys.modules``: ``_flapack`` on import, ``_matfuncs_expm`` on the first
exponential.  The file is found through ``importlib.util.find_spec``, so
not even SciPy's package ``__init__`` runs.  Should the direct load fail
for any reason, the routines come from ``scipy.linalg.get_lapack_funcs``
and the exponential from ``scipy.linalg.expm``.  Either way the same
compiled code runs on the same arrays, so results are the same bits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

_NAMES = ("pttrf", "pttrs", "gbtrf", "gbtrs", "stebz", "stevd")


def _load_extension(name: str):
    """The extension ``scipy.linalg.<name>`` loaded from its file, or the
    module already imported under that name."""
    fullname = "scipy.linalg." + name
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")  # its location: its __init__ does not run
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("no scipy package")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    paths = [os.path.join(directory, name + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no {fullname} extension in {directory}")
    spec = importlib.util.spec_from_file_location(fullname, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[fullname]
        raise
    return module


def _routines() -> list:
    try:
        flapack = _load_extension("_flapack")
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


@functools.cache
def _pade_kernels():
    """SciPy's ``pick_pade_structure`` and ``pade_UV_calc``, loaded on the
    first call; None when they cannot be loaded or do not take the arguments
    ``scipy.linalg.expm`` passes them in SciPy 1.17 (older SciPy's
    ``pade_UV_calc`` took ``(Am, n, m)``)."""
    try:
        kernels = _load_extension("_matfuncs_expm")
        pick_pade_structure, pade_UV_calc = kernels.pick_pade_structure, kernels.pade_UV_calc
        Am = np.zeros((5, 2, 2))
        Am[0, 0, 1] = 1.0  # nilpotent: exp is I + A, exactly
        m, _ = pick_pade_structure(Am)
        if pade_UV_calc(Am, m) != 0 or not np.array_equal(Am[0], [[1.0, 1.0], [0.0, 1.0]]):
            return None
    except Exception:  # any failure: scipy.linalg.expm runs the same kernels
        return None
    return pick_pade_structure, pade_UV_calc


def _exp_sinch(x):
    """Higham's formula (10.42) for the first off-diagonal of the
    exponential of a bidiagonal matrix, as ``scipy.linalg.expm`` has it."""
    lexp_diff = np.diff(np.exp(x))
    l_diff = np.diff(x)
    mask_z = l_diff == 0.
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:-1][mask_z])
    return lexp_diff


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of each slice of a float64 stack ``(k, n, n)``,
    n >= 2, with the bits of ``scipy.linalg.expm(a)``.

    SciPy's kernels run Al-Mohy & Higham's scaling-and-squaring Padé
    algorithm (SIAM J. Matrix Anal. Appl. 31(3), 2009), with the arithmetic
    of ``scipy.linalg.expm`` in SciPy 1.17 on every slice.  The diagonal
    slices are the exponentials of their diagonals, all in one operation.
    The others are copied once into one ``(k, 5, n, n)`` work buffer, and
    the kernels scale each slice's view by 2**-s and approximate it, slice
    by slice in index order.  Squaring round r then squares every slice
    with s > r in one stacked product; a triangular slice has its diagonal
    and first off-diagonal recomputed in closed form after each of its
    squarings, and keeps exact zeros in its other triangle.  It raises as
    SciPy does, at the same slice.  Without the kernels it is
    ``scipy.linalg.expm`` itself.
    """
    kernels = _pade_kernels()
    if kernels is None:
        from scipy.linalg import expm as scipy_expm
        return scipy_expm(a)
    pick_pade_structure, pade_UV_calc = kernels
    n = a.shape[-1]
    # the lower and upper bandwidth of every slice, as scipy.linalg.bandwidth
    offset = np.subtract.outer(np.arange(n), np.arange(n))  # i - j
    nonzero = a != 0
    lower = np.where(nonzero, offset, 0).max(axis=(1, 2))
    upper = np.where(nonzero, -offset, 0).max(axis=(1, 2))
    diagonal = (lower == 0) & (upper == 0)
    general = np.flatnonzero(~diagonal)
    eA = np.zeros(a.shape)
    np.einsum("kii->ki", eA)[diagonal] = np.exp(np.einsum("kii->ki", a)[diagonal])

    # the kernels overwrite each slice's view, scaled by 2**-s when s > 0
    work = np.empty((len(general), 5, n, n))
    work[:, 0] = a[general]
    squarings = []
    for Am in work:
        m, s = pick_pade_structure(Am)
        if m < 0:
            raise MemoryError("scipy.linalg.expm could not allocate sufficient"
                              " memory while trying to compute the Pade "
                              f"structure (error code {m}).")
        info = pade_UV_calc(Am, m)
        if info != 0:
            if info <= -11:  # failed mallocs; LAPACK's own codes are > -7
                raise MemoryError("scipy.linalg.expm could not allocate "
                                  "sufficient memory while trying to compute the "
                                  f"exponential (error code {info}).")
            raise RuntimeError("scipy.linalg.expm got an internal LAPACK "
                               "error during the exponential computation "
                               f"(error code {info})")
        squarings.append(s)
    eAk = work[:, 0]

    # Code Fragment 2.1 of Al-Mohy & Higham on each triangular slice that
    # squares: its s, diagonal and first off-diagonal, and writable views of
    # both in its result
    upper_triangular, lower_triangular = lower[general] == 0, upper[general] == 0
    fragments = []
    for j in np.flatnonzero(upper_triangular | lower_triangular).tolist():
        s, aw, eAw = squarings[j], a[general[j]], eAk[j]
        if s != 0:
            diag_aw = np.diag(aw)
            np.einsum("ii->i", eAw)[:] = np.exp(diag_aw * 2**(-s))
            if upper_triangular[j]:
                sd, exp_sd = np.diag(aw, k=1), np.einsum("ii->i", eAw[:-1, 1:])
            else:
                sd, exp_sd = np.diag(aw, k=-1), np.einsum("ii->i", eAw[1:, :-1])
            fragments.append((s, diag_aw, sd, np.einsum("ii->i", eAw), exp_sd))

    # round r squares every slice with s > r; a triangular slice then has
    # its two diagonals at the exponent i = s - 1 - r of scipy.linalg.expm
    s_k = np.array(squarings, dtype=int)
    for r in range(s_k.max(initial=0)):
        squaring = np.flatnonzero(s_k > r)
        eAr = eAk[squaring]
        eAk[squaring] = eAr @ eAr
        for s, diag_aw, sd, exp_diag, exp_sd in fragments:
            if s > r:
                i = s - 1 - r
                exp_diag[:] = np.exp(diag_aw * 2.**(-i))
                exp_sd[:] = _exp_sinch(diag_aw * (2.**(-i))) * (sd * 2**(-i))

    # a triangular slice keeps exact zeros in its other triangle
    eAk[upper_triangular] = np.triu(eAk[upper_triangular])
    eAk[lower_triangular] = np.tril(eAk[lower_triangular])
    eA[general] = eAk
    return eA
