"""Time-frequency shifts and the basic operator calculus on C^L.

Signals are 1-d complex arrays of length L, operators are dense (L, L)
complex matrices.  The time-frequency shift attached to a phase-space
point z = (m, n) acts by

    (pi(z) psi)(t) = exp(2 pi i n t / L) * psi(t - m mod L),

so pi(z) pi(z') = exp(-2 pi i n' m / L) pi(z + z') and the L**2 shifts,
scaled by 1/sqrt(L), form an orthonormal basis of Hilbert-Schmidt space.
"""

from __future__ import annotations

import numpy as np

from .errors import BadExponentError, DimensionMismatchError, NonFiniteError
from .phase_space import check_dimension, reduce_point

__all__ = [
    "tf_shift",
    "translate",
    "parity_conjugate",
    "rank_one",
    "hs_inner",
    "hs_norm",
    "schatten_norm",
    "operator_rank",
    "as_operator",
    "as_signal",
    "random_operator",
    "random_signal",
]

RANK_RTOL = 1e-12


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} has NaN or infinite entries")
    return arr


def _ramp(n: int, L: int) -> np.ndarray:
    """exp(2 pi i n t / L) for t = 0..L-1, the exponent reduced mod L first."""
    return np.exp(2j * np.pi * ((n * np.arange(L)) % L) / L)


def as_signal(psi, L: int | None = None) -> np.ndarray:
    """Coerce to a complex length-L vector."""
    vec = np.asarray(psi, dtype=np.complex128)
    if vec.ndim != 1:
        raise DimensionMismatchError(f"signal must be 1-d, got shape {vec.shape}")
    if L is not None and vec.shape[0] != L:
        raise DimensionMismatchError(f"signal has length {vec.shape[0]}, expected {L}")
    check_dimension(vec.shape[0])
    return _finite(vec, "signal")


def as_operator(S, L: int | None = None) -> np.ndarray:
    """Coerce to a complex (L, L) matrix."""
    mat = np.asarray(S, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"operator must be square, got shape {mat.shape}")
    if L is not None and mat.shape[0] != L:
        raise DimensionMismatchError(f"operator is {mat.shape[0]} x {mat.shape[0]}, expected L={L}")
    check_dimension(mat.shape[0])
    return _finite(mat, "operator")


def tf_shift(z, L: int) -> np.ndarray:
    """The unitary time-frequency shift pi(z) as a dense matrix."""
    L = check_dimension(L)
    m, n = reduce_point(z, L)
    t = np.arange(L)
    mat = np.zeros((L, L), dtype=np.complex128)
    mat[t, (t - m) % L] = _ramp(n, L)
    return mat


def translate(S, z) -> np.ndarray:
    """Conjugation by a shift: pi(z) S pi(z)*.

    Entrywise the result is exp(2 pi i n (t - t') / L) * S[t - m, t' - m],
    which a double roll plus a phase ramp computes in O(L^2).
    """
    S = as_operator(S)
    L = S.shape[0]
    m, n = reduce_point(z, L)
    rolled = np.roll(np.roll(S, m, axis=0), m, axis=1)
    ramp = _ramp(n, L)
    return rolled * np.outer(ramp, ramp.conj())


def parity_conjugate(S) -> np.ndarray:
    """Conjugation by the parity unitary (P psi)(t) = psi(-t mod L)."""
    S = as_operator(S)
    L = S.shape[0]
    rev = (-np.arange(L)) % L
    return S[np.ix_(rev, rev)]


def rank_one(xi, phi) -> np.ndarray:
    """The operator (xi tensor phi): psi -> <psi, phi> xi."""
    xi = as_signal(xi)
    phi = as_signal(phi, L=xi.shape[0])
    return np.outer(xi, phi.conj())


def hs_inner(S, T) -> complex:
    """Hilbert-Schmidt inner product trace(S T*), antilinear in T."""
    S = as_operator(S)
    T = as_operator(T, L=S.shape[0])
    return complex(np.vdot(T, S))


def hs_norm(S) -> float:
    return float(np.linalg.norm(as_operator(S)))


def schatten_norm(S, p: float = 2) -> float:
    """Schatten p-norm from the singular values; p in [1, inf]."""
    if p != np.inf and (not np.isreal(p) or p < 1):
        raise BadExponentError(f"Schatten exponent must lie in [1, inf], got {p}")
    sing = np.linalg.svd(as_operator(S), compute_uv=False)
    if p == np.inf:
        return float(sing[0]) if sing.size else 0.0
    return float(np.sum(sing ** p) ** (1.0 / p))


def operator_rank(S, rtol: float = RANK_RTOL) -> int:
    """Numerical rank: singular values above rtol times the largest."""
    sing = np.linalg.svd(as_operator(S), compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int(np.count_nonzero(sing > rtol * sing[0]))


def random_operator(L: int, rng: np.random.Generator) -> np.ndarray:
    L = check_dimension(L)
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def random_signal(L: int, rng: np.random.Generator) -> np.ndarray:
    L = check_dimension(L)
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)
