import numpy as np
import pytest

from thermowave import (Grid1D, Nonlinearity, ProblemPreset, StepConfig,
                        build_bundle, cubic_nonlinearity, diagnostics,
                        linear_reaction, zero_nonlinearity)


def preset_bundle(name, n=32, bc="dirichlet", **kwargs):
    preset = ProblemPreset(name, bc=bc, **kwargs)
    return build_bundle(preset, Grid1D(n, bc))


def p1_defaults(n=64, bc="dirichlet", m=0.0):
    """Linear thermoacoustic bundle (sigma = c = 1, gamma = 2) plus the
    matching nonlinearity (pi = -m^2 r)."""
    bundle = preset_bundle("P1", n=n, bc=bc, sigma=1.0, c=1.0, gamma=2.0, m=m)
    return bundle, linear_reaction(-m * m)


def p2_defaults(n=64, bc="dirichlet", epsilon=1.0, beta_scale=1.0):
    bundle = preset_bundle("P2", n=n, bc=bc, sigma=1.0, c=1.0, gamma=2.0,
                           epsilon=epsilon)
    return bundle, cubic_nonlinearity(beta_scale)


def all_preset_bundles(n=32):
    out = []
    for bc in ("dirichlet", "neumann"):
        for name in ("P1", "P2", "P3", "P4", "P5"):
            out.append((name, bc, preset_bundle(name, n=n, bc=bc)))
    return out


def dirichlet_sine(grid, k):
    return np.sqrt(2.0) * np.sin(k * np.pi * grid.x)


@pytest.fixture
def energy_calls(monkeypatch):
    """List that grows by one for every state whose energy forms the
    diagnostics evaluate in the test (the rows of the rowwise ledger)."""
    calls = []
    real = diagnostics._ledger_rows

    def counted(states, *args, **kwargs):
        calls.extend([1] * len(states))
        return real(states, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "_ledger_rows", counted)
    return calls
