"""Transforms between operators, phase-space grids and lattice sequences.

Two FFT kernels carry the convolutions and the analysis: the spreading
function V(S)(m, n) = trace(pi(m, n)* S), one L x L FFT over the gathered
diagonals of S (``_spreading``, inverted by ``_unspreading``), and the
symplectic Fourier series, one N-point FFT on the (L / a) x (L / b) grid of
lattice points with a twiddle for the shear c.  The diagonal index and the
integer chirp are built once per L, the twiddle and its conjugate once per
lattice, all cached and read-only.  Each analysis docstring states its L x L
FFT budget.

Normalizations are chosen once and used everywhere:

* ``symplectic_dft`` carries 1/L and is exactly involutive;
* ``fourier_wigner`` carries no prefactor and sends the identity operator
  to L * delta_0; its inverse carries 1/L;
* ``symplectic_fourier_series`` is the character sum over the lattice,
  L times the symplectic DFT of the sequence placed on the grid; its
  inverse divides by the number of cosets;
* ``periodize`` multiplies by kappa = N_lattice / L, which makes the
  finite Poisson summation formula hold with constant exactly 1.

The Fourier-Wigner transform is FW(S)(m, n) = exp(2 pi i h m n / L) V(S)(m, n),
where h = (L + 1) / 2 inverts 2 mod L.  This needs L odd; even L raises
EvenDimensionError rather than silently picking a square root of a
character.  Only the FW functions carry this restriction: the convolutions
and the analysis use V and the integer chirp exp(2 pi i m n / L) and work at
every L.  Integer phase exponents are reduced mod L before scaling.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EvenDimensionError, LatticeMismatchError
from .operators import _finite, as_operator, as_signal, rank_one
from .phase_space import (
    Lattice, LatticeSequence, QuotientFunction, adjoint_lattice, check_dimension,
    quotient_reps,
)

__all__ = [
    "half_mod", "stft", "spectrogram_samples", "symplectic_dft", "fourier_wigner",
    "inverse_fourier_wigner", "weyl_symbol", "symplectic_fourier_series",
    "inverse_symplectic_fourier_series", "periodize", "lift_quotient_function",
    "as_phase_function",
]


def half_mod(L: int) -> int:
    """The inverse of 2 mod L, i.e. (L + 1) / 2 for odd L."""
    L = check_dimension(L)
    if L % 2 == 0:
        raise EvenDimensionError(f"2 is not invertible mod L={L}")
    return (L + 1) // 2


def as_phase_function(f, L: int | None = None) -> np.ndarray:
    """Coerce to a finite complex (L, L) grid indexed [time, frequency]."""
    grid = np.asarray(f, dtype=np.complex128)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise LatticeMismatchError(f"phase function must be square, got {grid.shape}")
    if L is not None and grid.shape[0] != L:
        raise LatticeMismatchError(f"phase function is {grid.shape}, expected L={L}")
    return _finite(grid, "phase function")


@functools.lru_cache(maxsize=4)
def _chirp(L: int, k: int) -> np.ndarray:
    """exp(2 pi i (k m n mod L) / L) over the grid, from the L roots; read-only."""
    a = np.arange(L)
    chirp = np.exp(2j * np.pi * a / L)[(k * (np.outer(a, a) % L)) % L]
    chirp.flags.writeable = False
    return chirp


@functools.lru_cache(maxsize=4)
def _diagonal_index(L: int) -> np.ndarray:
    """Flat index with S.ravel()[idx][m, a] = S[a, a - m]; cached and read-only."""
    a = np.arange(L)
    idx = a * L + (a - a[:, None]) % L
    idx.flags.writeable = False
    return idx


def _diagonals(S: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The gathered diagonals D[m, a] = S[a, a - m], m in ``rows``; all rows permute S."""
    return S.ravel().take(_diagonal_index(S.shape[0])[rows])


def _undiagonals(D: np.ndarray) -> np.ndarray:
    """The operator whose gathered diagonals are D."""
    L = D.shape[0]
    S = np.empty(L * L, dtype=np.complex128)
    S[_diagonal_index(L)] = D
    return S.reshape(L, L)


def _spreading(S: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of V(S)(m, n) = trace(pi(m, n)* S) = sum_a exp(-2 pi i n a / L)
    S[a, a - m]: row m is the FFT of diagonal m, run in place on the gather."""
    D = _diagonals(S, rows)
    return np.fft.fft(D, axis=1, out=D)


def _unspreading(V: np.ndarray) -> np.ndarray:
    """The operator whose spreading function is V."""
    return _undiagonals(np.fft.ifft(V, axis=1))


def stft(psi, phi) -> np.ndarray:
    """Short-time Fourier transform V_phi(psi)(m, n) = <psi, pi(m, n) phi>,
    the spreading function of the rank-one operator psi tensor phi."""
    return _spreading(rank_one(psi, phi))


def spectrogram_samples(xi, phi, lattice: Lattice) -> LatticeSequence:
    """|V_phi(xi)|^2 sampled on the lattice; values are real nonnegative."""
    xi = as_signal(xi, L=lattice.L)
    full = np.abs(stft(xi, phi)) ** 2
    return LatticeSequence(lattice, full[lattice.coords])


def symplectic_dft(f) -> np.ndarray:
    """F(z) = (1/L) sum_w f(w) exp(-2 pi i sigma(z, w) / L); involutive."""
    f = as_phase_function(f)
    return np.fft.fft(np.fft.ifft(f, axis=1), axis=0).T


def fourier_wigner(S) -> np.ndarray:
    """Spreading function times the half chirp exp(2 pi i h m n / L)."""
    S = as_operator(S)
    L = S.shape[0]
    return _chirp(L, half_mod(L)) * _spreading(S)


def inverse_fourier_wigner(F) -> np.ndarray:
    """Reassemble an operator: S = (1/L) sum_z conj-phase F(z) pi(z)."""
    F = as_phase_function(F)
    L = F.shape[0]
    return _unspreading(np.conj(_chirp(L, half_mod(L))) * F)


def weyl_symbol(S) -> np.ndarray:
    """Symplectic DFT of the Fourier-Wigner transform."""
    return symplectic_dft(fourier_wigner(S))


@functools.lru_cache(maxsize=16)
def _shear_twiddle(lattice: Lattice, sign: int = 1) -> np.ndarray:
    """exp(sign 2 pi i (i c mod b) m / L) for i < L / a (rows), m < L / b;
    read-only.  The series takes sign 1, its inverse -1, each cached."""
    L, P, Q = lattice.L, lattice.L // lattice.a, lattice.L // lattice.b
    shift = np.arange(P) * lattice.c % lattice.b
    twiddle = np.exp(sign * 2j * np.pi * (np.outer(shift, np.arange(Q)) % L) / L)
    twiddle.flags.writeable = False
    return twiddle


def symplectic_fourier_series(c: LatticeSequence) -> QuotientFunction:
    """sum_lambda c(lambda) exp(2 pi i sigma(lambda, z) / L), one value per
    coset of the adjoint.  For lambda = (i a, (i c mod b) + k b) and z = (m, n)
    in the adjoint's box, m < L / b and n < L / a, the character factors into
    an FFT over k, the shear twiddle and an FFT over i."""
    lat = c.lattice
    P, Q = lat.L // lat.a, lat.L // lat.b
    inner = np.fft.ifft(c.values.reshape(P, Q), axis=1, norm="forward")  # unscaled
    inner *= _shear_twiddle(lat)
    quotient = quotient_reps(adjoint_lattice(lat))
    return QuotientFunction(quotient, np.fft.fft(inner, axis=0).T.ravel())


def inverse_symplectic_fourier_series(
    F: QuotientFunction, lattice: Lattice
) -> LatticeSequence:
    """Recover lattice coefficients; divides by the number of cosets."""
    adj = adjoint_lattice(lattice)
    if F.quotient.lattice != adj:
        raise LatticeMismatchError(
            "quotient function lives on "
            f"{F.quotient.lattice!r}, expected the adjoint {adj!r}"
        )
    P, Q = lattice.L // lattice.a, lattice.L // lattice.b
    inner = np.fft.ifft(F.values.reshape(Q, P), axis=1).T
    inner *= _shear_twiddle(lattice, -1)
    values = np.fft.fft(inner, axis=1, norm="forward")  # the 1 / Q of the inverse
    return LatticeSequence(lattice, values.ravel())


def _periodize(f: np.ndarray, subgroup: Lattice) -> QuotientFunction:
    """``periodize`` without the finiteness scan, for grids computed inside
    the library; QuotientFunction refuses non-finite coset sums.

    With m = i a + r and n = k b + j, the point (m, n) lies in the box coset
    (r, (j - i c) mod b).  One matrix-vector product per row sums over k on
    the float view that real and complex grids share, carrying kappa; row
    block i then moves by its shear (none when c = 0) and the blocks add.
    """
    L, a, c, b = subgroup.L, subgroup.a, subgroup.c, subgroup.b
    P, Q = L // a, L // b
    parts = np.ascontiguousarray(f).view(np.float64).reshape(L, Q, -1)
    folded = (np.full(Q, L / subgroup.size) @ parts).view(f.dtype)
    if c:  # row i a + r holds box column j at (j + i c) mod b
        shift = (np.arange(P)[:, None, None] * c + np.arange(b)) % b
        folded = folded.take(np.arange(L).reshape(P, a, 1) * b + shift)
    sums = folded.reshape(P, a * b).sum(axis=0)
    return QuotientFunction(quotient_reps(subgroup), sums)


def periodize(f, subgroup: Lattice) -> QuotientFunction:
    """Sum a grid over subgroup translates, scaled by kappa = L / |subgroup|."""
    return _periodize(as_phase_function(f, L=subgroup.L), subgroup)


def lift_quotient_function(F: QuotientFunction) -> np.ndarray:
    """Unfold coset values to the full (L, L) grid, building no index table.

    Row m = i a + r holds box[r, (n - i c) mod b] at column n: the window of
    length L at (-i c) mod b into box row r tiled along the columns.  On a
    product subgroup (c = 0) every row block is the box itself, so a
    broadcast copy fills the grid without the tiling and the windows'
    gather, whose fixed cost exceeds the copy at small L.  The result owns
    its memory, so products with it can reuse it in place.
    """
    sub = F.quotient.lattice
    L, a, c, b = sub.L, sub.a, sub.c, sub.b
    box = F.values.reshape(a, b)
    if c == 0:
        out = np.empty((L, L), dtype=np.complex128)
        out.reshape(L // a, a, L // b, b)[...] = box[:, None, :]
        return out
    windows = sliding_window_view(np.tile(box, (1, L // b + 1)).ravel(), L)
    starts = -np.arange(L // a)[:, None] * c % b + np.arange(a) * (L + b)
    return windows[starts.ravel()]  # row r of the tiling starts at r (L + b)
