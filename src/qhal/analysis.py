"""Diagnostics and inversion built on the Fourier side of the convolutions.

Everything here runs on the spreading function V(S) and the integer chirp
chi(m, n) = exp(2 pi i m n / L), so it holds at every L (at odd L, |FW| = |V|
and the half chirp squares to chi).  Central object: the symbol of S on Lambda,

    F(coset) = periodize(|V(S)|^2, adjoint)

is real and nonnegative, and its values over the cosets of the adjoint
lattice are exactly the eigenvalues of the Gram matrix of the translates
alpha_lambda(S), a convolution on Lambda that its characters diagonalize
(its kernel S conv checked(S*) has the symbol as its series, as
V(checked(S*)) = conj(chi V(S))), so the sorted symbol is the Gram spectrum.
The translates form a Riesz sequence precisely when the symbol has no zeros.
Dividing by it yields the biorthogonal generator and the orthogonal
projection onto the span, which serves both best approximation and exact
mask recovery.  The projection's cross-checks are direct sums on the
gathered diagonals and share no FFT with it.

Finiteness is decided by passes the requests make anyway: the coset sums of
the symbol and the cross term, which a NaN or inf entry reaches through the
FFT (NaN x 0 is NaN), and the divide's diagonal energies of S and Parseval
sum of T.  The operands are scanned only when these are not finite.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .convolutions import op_op_conv, seq_op_conv, synthesis_map
from .errors import (
    DivisionByZeroError, FullLatticeError, NonFiniteError, NotRieszError,
    SupportViolationError,
)
from .operators import RANK_RTOL, _coerce_operator, _finite, as_operator, random_operator
from .phase_space import (
    Lattice, LatticeSequence, PhasePoint, QuotientFunction, adjoint_lattice, quotient_reps,
)
from .transforms import (
    _chirp, _diagonal_index, _diagonals, _periodize, _spreading, _undiagonals,
    _unspreading, inverse_symplectic_fourier_series, lift_quotient_function,
)

__all__ = [
    "ZERO_TOL", "RieszReport", "ApproxReport", "MaskRecovery", "TauberianReport",
    "riesz_report", "biorthogonal_generator", "best_approximation",
    "recover_mask", "tauberian_diagnostics", "nonassociativity_witness",
    "underspread_divide",
]

# a symbol value counts as zero up to this multiple of the symbol maximum
ZERO_TOL = 1e-10

SUPPORT_RTOL = 1e-12

# the divide's bounds on |V| are widened by this factor against the rounding
# of the FFT and of the sums of squares, so no bound falls below a computed
# value; a verdict inside the margin costs the full transform, not a bit of A
_SLACK = 1 + 1e-6
# a square below the smallest normal float may round to a subnormal or to
# zero, so the bounds add n times it to a sum of n squares: they then hold
# at any scale of the operator
_TINY = float(np.finfo(np.float64).tiny)


def _checked_star(S: np.ndarray) -> np.ndarray:
    """conj(S[-j, -i]) at (i, j): S reversed and rolled by one is S[-i, -j]."""
    return np.conj(np.roll(S[::-1, ::-1], 1, axis=(0, 1)).T)


@contextmanager
def _operands(lattice: Lattice, *operands):
    """The operands, coerced but not scanned, for passes up to the coset sums.
    Non-finite values flow there quietly; when the sums are refused, a NaN or
    inf entry is refused as by ``as_operator``, else the sums' refusal stands."""
    mats = [_coerce_operator(X, L=lattice.L) for X in operands]
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            yield mats
    except NonFiniteError:
        for X in mats:
            _finite(X, "operator")
        raise


def _check_tol(zero_tol) -> None:
    if not 0 <= zero_tol < np.inf:  # NaN, inf or < 0 turns the zero test off
        raise ValueError(f"zero_tol must be a finite real >= 0, got {zero_tol!r}")


def _symbol(VS: np.ndarray, lattice: Lattice, zero_tol: float):
    """The symbol of the generator with V(S) = VS, and its zero cosets."""
    _check_tol(zero_tol)
    squares = np.square(VS.real)  # |V(S)|^2 with no square root; the imaginary
    step = max(1, 2**16 // lattice.L)  # parts go in blocks of <= 2**16 values
    for i in range(0, lattice.L, step):
        squares[i : i + step] += np.square(VS.imag[i : i + step])
    symbol = _periodize(squares, adjoint_lattice(lattice))
    vals = symbol.values.real  # exactly nonnegative, so zero_tol=0 flags exact zeros
    zero = vals <= zero_tol * vals.max()
    rows, cols = symbol.quotient.coords
    return symbol, tuple(zip(rows[zero].tolist(), cols[zero].tolist()))


def _riesz_symbol(VS: np.ndarray, lattice: Lattice, zero_tol: float):
    """The symbol, refusing generators whose translates are not Riesz."""
    symbol, zero = _symbol(VS, lattice, zero_tol)
    if zero:
        raise NotRieszError(
            f"symbol vanishes on {len(zero)} cosets; no biorthogonal generator exists"
        )
    return symbol


def _project(cross: np.ndarray, VS: np.ndarray, symbol: QuotientFunction):
    """The series periodize(V(T) conj(V(S))) / symbol of the mask of the
    projection of T onto the span, from cross = conj(V(T)), which it
    overwrites; the approximant's spreading function is its lift times V(S)."""
    sums = _periodize(np.multiply(cross, VS, out=cross), symbol.quotient.lattice)
    return QuotientFunction(sums.quotient, np.conj(sums.values) / symbol.values)


def _roots(L: int) -> np.ndarray:
    """exp(-2 pi i t / L) for t < L; index it with integer exponents mod L."""
    return np.exp(-2j * np.pi * np.arange(L) / L)


def _sampled_inner_products(
    DX: np.ndarray, DS: np.ndarray, lattice: Lattice
) -> np.ndarray:
    """<X, alpha_lambda(S)> at the lattice points on the first two basis rows,
    lambda = (i a, s_i + k b) with s_i = i c mod b, for i < min(2, L / a),
    from the gathered diagonals DX of X and DS of S, without an FFT.

    Diagonal d of alpha_lambda(S) is exp(2 pi i n d / L) DS[d, a - m], so the
    value is sum_d exp(-2 pi i n d / L) corr[d], where corr[d] = sum_a DX[d, a]
    conj(DS[d, a - m]) is a row dot: O(L^2) per row.  Past the shear phase
    exp(-2 pi i s_i d / L) the character depends on d mod L / b only, so corr
    folds to L / b values and an (L / b)^2 table of roots ends the row.
    """
    L, b, Q = lattice.L, lattice.b, lattice.L // lattice.b
    shifts = (0, lattice.a)[: min(2, L // lattice.a)]
    corr = np.array([  # a - m wraps below a = m
        np.vecdot(DS[:, : L - m], DX[:, m:]) + np.vecdot(DS[:, L - m :], DX[:, :m])
        for m in shifts
    ])
    roots, d, k = _roots(L), np.arange(L), np.arange(Q)
    shear = np.arange(len(shifts))[:, None] * lattice.c % b
    folded = (corr * roots[shear * d % L]).reshape(-1, b, Q).sum(axis=1)
    return (folded @ roots[np.outer(k, k) * b % L]).ravel()


def _synthesis_row(mask: LatticeSequence, S: np.ndarray) -> np.ndarray:
    """Row 0 of mask conv S, summed directly over all N lattice points.

    (c conv S)[0, j] = sum_lambda c(lambda) exp(-2 pi i n j / L) S[-m, j - m].
    With lambda = (p a, s_p + k b), s_p = p c mod b, the sum over k is a
    product with an (L / b)^2 table, as exp(-2 pi i k b j / L) depends on
    j mod L / b only; the shear phase exp(-2 pi i s_p j / L), where c != 0,
    and a gather of S finish it: O(N L), no FFT.
    """
    lat = mask.lattice
    L, P, Q = lat.L, lat.L // lat.a, lat.L // lat.b
    roots, j, k, p = _roots(L), np.arange(L), np.arange(Q), np.arange(P)[:, None]
    inner = np.tile(mask.values.reshape(P, Q) @ roots[np.outer(k, k) * lat.b % L], lat.b)
    if lat.c:
        inner *= roots[p * lat.c % lat.b * j % L]
    m = p * lat.a
    return np.einsum("pj,pj->j", inner, S[-m % L, (j - m) % L])


@dataclass(eq=False)
class RieszReport:
    """``gram_eigenvalues`` ascend, as ``np.linalg.eigvalsh`` gives them."""

    lattice: Lattice
    symbol: QuotientFunction
    lower: float
    upper: float
    zero_cosets: tuple[PhasePoint, ...]
    gram_eigenvalues: np.ndarray

    @property
    def is_riesz(self) -> bool:
        return len(self.zero_cosets) == 0


def riesz_report(S, lattice: Lattice, zero_tol: float = ZERO_TOL) -> RieszReport:
    """Frame-theoretic health check of the lattice translates of S.

    The bounds are the extremes of the symbol.  The Gram matrix convolves
    by g = S conv checked(S*) on the lattice, so its eigenvalues are the
    series of g, periodize(chi V(S) V(checked(S*))).  As V(checked(S*)) =
    conj(chi V(S)) pointwise, that is periodize(|V(S)|^2), the symbol: the
    eigenvalues (ascending, as from eigvalsh) are its sorted values.  FFT
    budget: 1 of size L x L (V(S)); no series.
    """
    with _operands(lattice, S) as (S,):
        symbol, zero = _symbol(_spreading(S), lattice, zero_tol)
    eigs = np.sort(symbol.values.real)
    return RieszReport(
        lattice=lattice,
        symbol=symbol,
        lower=float(eigs[0]),
        upper=float(eigs[-1]),
        zero_cosets=zero,
        gram_eigenvalues=eigs,
    )


def biorthogonal_generator(
    S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> np.ndarray:
    """The operator R with (S conv R)(lambda) = delta_0(lambda).

    R = b conv checked(S*), where the series of b inverts the symbol, so
    V(R) = conj(chi V(S)) / symbol; requires the translates of S to be Riesz.
    """
    with _operands(lattice, S) as (S,):
        VS = _spreading(S)
        symbol = _riesz_symbol(VS, lattice, zero_tol)
    chi = _chirp(lattice.L, 1)
    return _unspreading(np.conj(chi * VS) / lift_quotient_function(symbol))


@dataclass(eq=False)
class ApproxReport:
    """The projection of T onto the span and two cross-checks that share no
    FFT with it.

    ``orthogonality_defect`` is max |<T - approximant, alpha_lambda(S)>| over
    the lattice points on the first two basis rows (the normal equations,
    sampled).  ``mask_agreement`` is max_j |approximant[0, j] - (mask conv
    S)[0, j]|, with row 0 of the synthesis summed directly over all N points,
    so a wrong value anywhere in the mask shows.  The full forms over all
    points are ``op_op_conv(T - approximant, checked(S*))`` and
    ``op_op_conv(T, biorthogonal_generator(S))`` against the mask.
    """

    mask: LatticeSequence
    approximant: np.ndarray
    residual_hs: float
    orthogonality_defect: float
    mask_agreement: float


def best_approximation(
    T, S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> ApproxReport:
    """Best HS approximation of T from the span of the translates of S.

    The mask's series is periodize(V(T) conj V(S)) / symbol, and the
    approximant's diagonals are the inverse FFT of its lift times V(S).  The
    cross-checks run on the gathered diagonals: O(L^2) for the sampled normal
    equations, O(N L) for the synthesized row.  FFT budget: 3 of size L x L
    (V(S), V(T) and the approximant), none in the checks; the series runs on
    N points.
    """
    with _operands(lattice, T, S) as (T, S):
        DS, DT = _diagonals(S), _diagonals(T)
        VS = np.fft.fft(DS, axis=1)
        symbol = _riesz_symbol(VS, lattice, zero_tol)
        VT = np.fft.fft(DT, axis=1)
        ratio = _project(np.conj(VT, out=VT), VS, symbol)
    del VT  # each del frees an L x L array before the next one is allocated
    mask = inverse_symplectic_fourier_series(ratio, lattice)
    # the inverse FFT's 1/L rides on the N coset values, and it runs in place
    fit = lift_quotient_function(QuotientFunction(ratio.quotient, ratio.values / lattice.L))
    fit *= VS
    del VS
    np.fft.ifft(fit, axis=1, norm="forward", out=fit)  # the approximant's diagonals
    residual = np.subtract(DT, fit, out=DT)  # the diagonals of T - approximant
    approximant = _undiagonals(fit)
    del fit
    defect = _sampled_inner_products(residual, DS, lattice)
    return ApproxReport(
        mask=mask,
        approximant=approximant,
        residual_hs=float(np.sqrt(np.vdot(residual, residual).real)),
        orthogonality_defect=float(np.max(np.abs(defect))),
        mask_agreement=float(np.max(np.abs(approximant[0] - _synthesis_row(mask, S)))),
    )


@dataclass(eq=False)
class MaskRecovery:
    mask: LatticeSequence
    residual_hs: float


def recover_mask(G, S, lattice: Lattice, zero_tol: float = ZERO_TOL) -> MaskRecovery:
    """Invert c -> c conv S on its range; the residual flags outside input.

    For G = c conv S the recovered mask equals c exactly; for general G
    the result is the mask of the best approximant and residual_hs
    measures the distance of G to the module span, by Parseval
    ||V(G) - lift(series) V(S)|| / sqrt(L), so the approximant is never
    formed.  FFT budget: 2 of size L x L; the series runs on N points.
    """
    with _operands(lattice, G, S) as (G, S):
        VG, VS = _spreading(G), _spreading(S)
        symbol = _riesz_symbol(VS, lattice, zero_tol)
        ratio = _project(np.conj(VG), VS, symbol)
    fit = lift_quotient_function(ratio)
    VG -= np.multiply(fit, VS, out=fit)
    return MaskRecovery(
        mask=inverse_symplectic_fourier_series(ratio, lattice),
        residual_hs=float(np.sqrt(np.vdot(VG, VG).real / lattice.L)),
    )


@dataclass(eq=False)
class TauberianReport:
    lattice: Lattice
    lower: float
    upper: float
    zero_cosets: tuple[PhasePoint, ...]
    synthesis_rank: int
    kernel_dim: int

    @property
    def injective(self) -> bool:
        return self.kernel_dim == 0

    @property
    def consistent(self) -> bool:
        return self.kernel_dim == len(self.zero_cosets)


def tauberian_diagnostics(
    S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> TauberianReport:
    """Cross-check the equivalent degeneracy certificates.

    Zero set of the symbol, kernel of the dense synthesis map and the
    Riesz lower bound must tell one consistent story; kernel_dim always
    equals the number of zero cosets.
    """
    riesz = riesz_report(S, lattice, zero_tol)
    sing = np.linalg.svd(synthesis_map(S, lattice).matrix, compute_uv=False)
    rank = int(np.count_nonzero(sing > RANK_RTOL * sing.max(initial=0.0)))
    return TauberianReport(
        lattice=lattice,
        lower=riesz.lower,
        upper=riesz.upper,
        zero_cosets=riesz.zero_cosets,
        synthesis_rank=rank,
        kernel_dim=lattice.size - rank,
    )


def nonassociativity_witness(
    S, lattice: Lattice, seed: int = 0, zero_tol: float = ZERO_TOL
):
    """An operator T outside the module span, certifying non-associativity.

    With R biorthogonal to S one has S conv R = delta and hence
    T conv (R conv S) = T, while (T conv R) conv S projects T onto the
    span.  Returns (T, deviation) with deviation = ||(T conv R) conv S - T||,
    which equals ||T|| by construction.
    """
    S = as_operator(S, L=lattice.L)
    if lattice.is_full:
        raise FullLatticeError(
            "translates of a Riesz generator over the full group span "
            "everything; no witness exists"
        )
    R = biorthogonal_generator(S, lattice, zero_tol=zero_tol)
    rng = np.random.default_rng(seed)
    for _ in range(16):
        T0 = random_operator(lattice.L, rng)
        T = T0 - seq_op_conv(op_op_conv(T0, R, lattice), S)
        if np.linalg.norm(T) > 1e-8 * np.linalg.norm(T0):
            break
    else:  # pragma: no cover - the span is a proper subspace
        raise NotRieszError("failed to find a vector outside the module span")
    return T, float(np.linalg.norm(seq_op_conv(op_op_conv(T, R, lattice), S) - T))


def _off_rows_bound(X: np.ndarray, rows: np.ndarray) -> float:
    """A bound on |V(X)| off the rows ``rows``: max_n |V(X)(m, n)| <=
    sqrt(L) ||diag_m(X)||_2 by Cauchy-Schwarz, so sqrt(L) times the largest
    energy of the other diagonals, gathered in row blocks of <= 2**16 values.
    It refuses NaN or inf entries; finite ones that overflow bound nothing."""
    L = X.shape[0]
    energy = np.empty(L)
    step = max(1, 2**16 // L)
    with np.errstate(over="ignore"):
        for i in range(0, L, step):
            block = _diagonals(X, slice(i, i + step)).view(np.float64)
            energy[i : i + step] = np.vecdot(block, block)
    if not np.isfinite(energy).all():
        _finite(X, "operator")
    energy[rows] = 0.0
    return _SLACK * math.sqrt(L * (float(energy.max()) + 2 * L * _TINY))


def underspread_divide(
    S, T, lattice: Lattice, domain, zero_tol: float = ZERO_TOL
) -> np.ndarray:
    """Solve S = (S conv T) conv A for A when S is underspread.

    domain must hit each adjoint coset at most once (true for any subset
    of a fundamental domain), V(S) must be supported inside it and V(T)
    must not vanish on it.  The divider has spreading function
    conj(chi) / (kappa V(T)) on the domain and zero outside, kappa = N / L.

    Only the rows of V(S) and V(T) that meet the domain are transformed;
    two bounds decide the other rows.  Support: off those rows |V(S)| is at
    most sqrt(L) times the largest off-domain diagonal norm of S, so the
    check passes there when that is <= SUPPORT_RTOL times the peak of the
    transformed rows.  Zero threshold: max |V(T)| lies between the peak of
    the transformed rows and sqrt(L) ||T||_HS (Parseval), so a divisor value
    is decided when it sits below tol times the first or above tol times the
    second.  When a bound leaves a verdict open, all L rows of that operand
    are transformed, so every verdict and every bit of A is what the full
    transforms give.  FFT budget: none of size L x L when the bounds decide,
    only the domain's rows of V(S), V(T) and V(A); all L rows of V(S) or
    V(T) when its bound is open.  Non-finite entries are refused before any.
    """
    L = lattice.L
    S = _coerce_operator(S, L=L)
    T = _coerce_operator(T, L=L)
    _check_tol(zero_tol)
    kinds = set(map(type, itertools.chain.from_iterable(domain)))
    if any(k is bool or not issubclass(k, (int, np.integer)) for k in kinds):
        raise ValueError(f"domain coordinates must be integers, got {domain!r}")
    rows, cols = np.asarray(domain, dtype=np.int64).reshape(-1, 2).T % L
    cosets = quotient_reps(adjoint_lattice(lattice)).locate(rows, cols)
    if np.bincount(cosets).max(initial=0) > 1:
        raise ValueError(
            "domain meets some adjoint coset twice; not part of a fundamental domain"
        )
    used = np.flatnonzero(np.bincount(rows, minlength=L))  # V(A) is zero on other rows
    row = used.searchsorted(rows)

    off_rows = _off_rows_bound(S, used)
    hs2 = float(np.vdot(T, T).real) + 2 * L * L * _TINY
    if not math.isfinite(hs2):  # NaN or infinite entries, or an overflow
        _finite(T, "operator")
    ceiling = _SLACK * math.sqrt(L * hs2)  # >= max |V(T)|, by Parseval

    # domain point k lies in row spill_rows[k] of spill: the rows of V(S) that
    # meet the domain, or all of them when the bound leaves the check open
    spill, spill_rows = np.abs(_spreading(S, used)), row
    peak = max(spill.max(initial=0.0), 1e-300)
    if off_rows > SUPPORT_RTOL * peak:
        spill, spill_rows = np.abs(_spreading(S)), rows
        peak = max(spill.max(), 1e-300)
    spill[spill_rows, cols] = 0.0
    if spill.max() > SUPPORT_RTOL * peak:
        raise SupportViolationError(
            "spreading support of S exceeds the declared domain"
        )
    VT = _spreading(T, used)
    divisor = VT[row, cols]
    size, top = np.abs(divisor), float(np.abs(VT).max(initial=0.0))
    if np.any((size > zero_tol * top) & ~(size > zero_tol * ceiling)):
        VT = _spreading(T)  # open: the true max |V(T)| decides
        divisor = VT[rows, cols]
        size, top = np.abs(divisor), float(np.abs(VT).max())
    vanishing = np.flatnonzero(size <= zero_tol * top)
    if vanishing.size:
        i = vanishing[0]
        raise DivisionByZeroError(
            f"spreading function of divisor vanishes at {(int(rows[i]), int(cols[i]))}"
        )
    VA = np.zeros((used.size, L), dtype=np.complex128)
    chi = np.exp(2j * np.pi * (rows * cols % L) / L)
    VA[row, cols] = np.conj(chi) / ((lattice.size / L) * divisor)
    A = np.zeros(L * L, dtype=np.complex128)
    A[_diagonal_index(L)[used]] = np.fft.ifft(VA, axis=1)  # _unspreading on those rows
    return A.reshape(L, L)
