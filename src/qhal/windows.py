"""Named analysis windows used by the command line tools.

The gaussian-like window is the L-periodization of exp(-pi t^2 / L),
normalized to unit energy.  Its short-time Fourier transform with itself
has no zero samples for the dimensions used here; this is checked when
the window is built rather than assumed.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateWindowError
from .phase_space import check_dimension
from .transforms import stft

__all__ = [
    "gaussian_window",
    "delta_window",
    "ones_window",
    "random_window",
    "named_window",
]

# periodization tail: exp(-pi L (j + t/L)^2) is negligible past a few wraps
_WRAPS = 8

_STFT_FLOOR = 1e-8


def gaussian_window(L: int, verify: bool = True) -> np.ndarray:
    """Periodized discrete Gaussian with unit norm.

    With verify=True the full STFT against itself is computed and every
    sample checked against a relative floor, so downstream frame
    computations cannot silently divide by a structural zero.
    """
    L = check_dimension(L)
    t = np.arange(L, dtype=np.float64)
    j = np.arange(-_WRAPS, _WRAPS + 1)
    vals = np.exp(-np.pi * (t + L * j[:, None]) ** 2 / L).sum(axis=0)
    window = (vals / np.linalg.norm(vals)).astype(np.complex128)
    if verify:
        amb = np.abs(stft(window, window))
        if amb.min() <= _STFT_FLOOR * amb.max():
            raise DegenerateWindowError(
                f"gaussian window at L={L} has near-zero STFT samples"
            )
    return window


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
