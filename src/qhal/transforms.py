"""Transforms between operators, phase-space grids and lattice sequences.

Two FFT kernels carry everything here and in the convolutions: the
spreading function V(S)(m, n) = trace(pi(m, n)* S), one FFT over the
gathered diagonals of S (``_spreading``, inverted by ``_unspreading``),
and ``symplectic_dft``, one inverse and one forward FFT.

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
character.  Integer phase exponents are reduced mod L before scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import EvenDimensionError, LatticeMismatchError
from .operators import _finite, as_operator, as_signal, rank_one
from .phase_space import (
    Lattice,
    LatticeSequence,
    QuotientFunction,
    adjoint_lattice,
    check_dimension,
    quotient_reps,
)

__all__ = [
    "half_mod",
    "stft",
    "spectrogram_samples",
    "symplectic_dft",
    "fourier_wigner",
    "inverse_fourier_wigner",
    "weyl_symbol",
    "symplectic_fourier_series",
    "inverse_symplectic_fourier_series",
    "periodize",
    "lift_quotient_function",
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


def _chirp(L: int, k: int) -> np.ndarray:
    """exp(2 pi i (k m n mod L) / L) over the grid, gathered from the L roots."""
    a = np.arange(L)
    return np.exp(2j * np.pi * a / L)[(k * (np.outer(a, a) % L)) % L]


def _diagonals(L: int):
    """Index pair with S[_diagonals(L)][m, a] = S[a, a - m]."""
    a = np.arange(L)
    return a, (a - a[:, None]) % L


def _spreading(S: np.ndarray) -> np.ndarray:
    """V(S)(m, n) = trace(pi(m, n)* S) = sum_a exp(-2 pi i n a / L) S[a, a - m]."""
    return np.fft.fft(S[_diagonals(S.shape[0])], axis=1)


def _unspreading(V: np.ndarray) -> np.ndarray:
    """The operator whose spreading function is V."""
    S = np.empty_like(V)
    S[_diagonals(V.shape[0])] = np.fft.ifft(V, axis=1)
    return S


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


def _series_grid(c: LatticeSequence) -> np.ndarray:
    """The symplectic Fourier series of c on the full, adjoint-periodic grid."""
    L = c.lattice.L
    grid = np.zeros((L, L), dtype=np.complex128)
    grid[c.lattice.coords] = c.values
    return L * symplectic_dft(grid)


def symplectic_fourier_series(c: LatticeSequence) -> QuotientFunction:
    """sum_lambda c(lambda) exp(2 pi i sigma(lambda, z) / L), one value per
    coset of the adjoint."""
    quotient = quotient_reps(adjoint_lattice(c.lattice))
    return QuotientFunction(quotient, _series_grid(c)[quotient.coords])


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
    grid = symplectic_dft(lift_quotient_function(F)) / lattice.L
    return LatticeSequence(lattice, grid[lattice.coords])


def periodize(f, subgroup: Lattice) -> QuotientFunction:
    """Sum a grid over subgroup translates, scaled by kappa = L / |subgroup|."""
    f = as_phase_function(f, L=subgroup.L)
    quotient = quotient_reps(subgroup)
    cosets = quotient.coset_of.ravel()
    sums = np.bincount(cosets, f.real.ravel(), quotient.size) + 1j * np.bincount(
        cosets, f.imag.ravel(), quotient.size
    )
    return QuotientFunction(quotient, sums * (subgroup.L / subgroup.size))


def lift_quotient_function(F: QuotientFunction) -> np.ndarray:
    """Unfold coset values to the full (L, L) grid."""
    return F.values[F.quotient.coset_of]
