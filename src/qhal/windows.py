"""Named analysis windows used by the command line tools.

The gaussian-like window is the L-periodization of exp(-pi t^2 / L),
normalized to unit energy.  It is usable at every L: whether its lattice
translates form a Riesz sequence is a property of the lattice, decided by
the analysis's Riesz gate (the symbol's zero set, ``NotRieszError``), not
when the window is built.  At even L its STFT with itself vanishes exactly
at (L/2, n) and (m, L/2) for odd m and n; the gate refuses a lattice only
when some whole coset of its adjoint lies in that set.
"""

from __future__ import annotations

import numpy as np

from .phase_space import check_dimension

__all__ = [
    "gaussian_window",
    "delta_window",
    "ones_window",
    "random_window",
    "named_window",
]

# periodization tail: exp(-pi L (j + t/L)^2) is negligible past a few wraps
_WRAPS = 8


def gaussian_window(L: int, verify: bool = True) -> np.ndarray:
    """Periodized discrete Gaussian with unit norm.

    ``verify`` is kept so that callers passing it keep working, and changes
    nothing: no window check can stand in for the Riesz gate, because
    whether the translates of g tensor g are Riesz depends on the lattice.
    """
    L = check_dimension(L)
    t = np.arange(L, dtype=np.float64)
    j = np.arange(-_WRAPS, _WRAPS + 1)
    vals = np.exp(-np.pi * (t + L * j[:, None]) ** 2 / L).sum(axis=0)
    return (vals / np.linalg.norm(vals)).astype(np.complex128)


def delta_window(L: int) -> np.ndarray:
    L = check_dimension(L)
    window = np.zeros(L, dtype=np.complex128)
    window[0] = 1.0
    return window


def ones_window(L: int) -> np.ndarray:
    L = check_dimension(L)
    return np.full(L, 1.0 / np.sqrt(L), dtype=np.complex128)


def random_window(L: int, seed: int = 0) -> np.ndarray:
    L = check_dimension(L)
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    return vec / np.linalg.norm(vec)


def named_window(name: str, L: int, seed: int = 0) -> np.ndarray:
    """Window by CLI name: gauss, delta, ones or rand."""
    table = {
        "gauss": lambda: gaussian_window(L),
        "delta": lambda: delta_window(L),
        "ones": lambda: ones_window(L),
        "rand": lambda: random_window(L, seed),
    }
    try:
        build = table[name]
    except KeyError:
        raise ValueError(f"unknown window {name!r}; expected one of {sorted(table)}")
    return build()
