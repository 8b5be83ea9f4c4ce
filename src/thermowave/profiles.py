"""Named initial-data profiles.

All profiles respect the grid's boundary condition (they are synthesized
from Laplacian eigenvectors), so temperature data lies in the domain of the
diffusion operator and the startup estimates of the scheme apply.
"""

from __future__ import annotations

import numpy as np

from .operators import Grid1D, _mode_numbers
from .oracle import _basis_block, _synthesize


def zero_profile(grid: Grid1D):
    n = grid.n_interior
    return np.zeros(n), np.zeros(n), np.zeros(n)


def mode_vector(grid: Grid1D, k: int) -> np.ndarray:
    """The k-th orthonormal eigenvector of the grid Laplacian.

    Dirichlet modes are indexed k = 1..n, Neumann modes k = 0..n-1 (the
    zero mode is the constant).  One column of the basis, built in O(n).
    """
    modes = _mode_numbers(grid)
    lo, hi = int(modes[0]), int(modes[-1])
    if not lo <= k <= hi:
        raise ValueError(f"mode index {k} out of range [{lo}, {hi}]")
    return _basis_block(grid, cols=slice(k - lo, k - lo + 1))[:, 0]


def single_mode(grid: Grid1D, k: int, theta_amp: float, phi_amp: float,
                v_amp: float):
    e = mode_vector(grid, k)
    return theta_amp * e, phi_amp * e, v_amp * e


def random_smooth(grid: Grid1D, seed: int, decay: float = 2.0,
                  amplitude: float = 1.0):
    """Spectrally decaying random data; reproducible for a fixed seed."""
    if not decay >= 0:
        raise ValueError(f"decay must be nonnegative, got {decay}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    n = grid.n_interior
    rng = np.random.default_rng(seed)
    weights = (1.0 + np.arange(n)) ** (-float(decay))
    coeffs = [amplitude * rng.standard_normal(n) * weights for _ in range(3)]
    return tuple(_synthesize(grid, coeffs))


def make_initial(grid: Grid1D, desc: dict):
    """Dispatch a profile description to its builder (config-file entry);
    data that overflow the float range are a ValueError."""
    profile = desc.get("profile")
    if profile == "zero":
        return zero_profile(grid)
    if profile not in ("single_mode", "random_smooth"):
        raise ValueError("profile must be one of ('zero', 'single_mode', 'random_smooth'), "
                         f"got {profile!r}")
    required = "mode" if profile == "single_mode" else "seed"
    if required not in desc:
        raise ValueError(f"{required} is required by the {profile} profile")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if profile == "single_mode":
            fields = single_mode(grid, int(desc["mode"]),
                                 float(desc.get("theta_amp", 1.0)),
                                 float(desc.get("phi_amp", 1.0)),
                                 float(desc.get("v_amp", 0.0)))
        else:
            fields = random_smooth(grid, int(desc["seed"]),
                                   float(desc.get("decay", 2.0)),
                                   float(desc.get("amplitude", 1.0)))
    if not all(np.isfinite(u).all() for u in fields):
        raise ValueError(f"the {profile} profile overflows to non-finite data; "
                         "its amplitudes are too large")
    return fields
