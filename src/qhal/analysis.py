"""Diagnostics and inversion built on the Fourier side of the convolutions.

Central object: for a generator S and lattice Lambda, the symbol

    F(coset) = periodize(|FW(S)|^2, adjoint)

is real and nonnegative, and its values over the cosets of the adjoint
lattice are exactly the eigenvalues of the Gram matrix of the translates
alpha_lambda(S).  The translates form a Riesz sequence precisely when the
symbol has no zeros.  Dividing by it then yields the biorthogonal
generator and the orthogonal projection onto the span, which serves both
best approximation and exact mask recovery.  Only ``riesz_report`` builds
the dense Gram matrix, whose eigenvalues check the symbol independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolutions import op_op_conv, seq_op_conv, synthesis_map
from .errors import (
    DivisionByZeroError,
    FullLatticeError,
    NotRieszError,
    SupportViolationError,
)
from .operators import (
    RANK_RTOL,
    as_operator,
    hs_norm,
    parity_conjugate,
    random_operator,
)
from .phase_space import (
    Lattice,
    LatticeSequence,
    PhasePoint,
    QuotientFunction,
    adjoint_lattice,
    quotient_reps,
)
from .transforms import (
    fourier_wigner,
    inverse_fourier_wigner,
    inverse_symplectic_fourier_series,
    lift_quotient_function,
    periodize,
)

__all__ = [
    "ZERO_TOL",
    "RieszReport",
    "ApproxReport",
    "MaskRecovery",
    "TauberianReport",
    "gram_matrix",
    "riesz_report",
    "biorthogonal_generator",
    "best_approximation",
    "recover_mask",
    "tauberian_diagnostics",
    "nonassociativity_witness",
    "underspread_divide",
]

# a symbol value counts as zero up to this multiple of the symbol maximum
ZERO_TOL = 1e-10

SUPPORT_RTOL = 1e-12


def _checked_star(S: np.ndarray) -> np.ndarray:
    """Parity conjugate of the adjoint; the two conjugations commute."""
    return parity_conjugate(np.conj(S.T))


def _symbol(FS: np.ndarray, lattice: Lattice, zero_tol: float):
    """The symbol of the generator with FW(S) = FS, and its zero cosets."""
    symbol = periodize(np.abs(FS) ** 2, adjoint_lattice(lattice))
    vals = symbol.values.real  # exactly nonnegative, so zero_tol=0 flags exact zeros
    zero = vals <= zero_tol * vals.max()
    rows, cols = symbol.quotient.coords
    return symbol, tuple(zip(rows[zero].tolist(), cols[zero].tolist()))


def _riesz_symbol(FS: np.ndarray, lattice: Lattice, zero_tol: float):
    """The symbol, refusing generators whose translates are not Riesz."""
    symbol, zero = _symbol(FS, lattice, zero_tol)
    if zero:
        raise NotRieszError(
            f"symbol vanishes on {len(zero)} cosets; "
            "no biorthogonal generator exists"
        )
    return symbol


def _dual(FS: np.ndarray, symbol: QuotientFunction) -> np.ndarray:
    """The biorthogonal generator: FW(R) = conj(FW(S)) / symbol."""
    return inverse_fourier_wigner(np.conj(FS) / lift_quotient_function(symbol))


def _project(T: np.ndarray, FS: np.ndarray, symbol: QuotientFunction, lattice):
    """Mask and approximant of the orthogonal projection of T onto the span.

    The mask's series is periodize(FW(T) conj(FW(S))) / symbol, and the
    approximant's Fourier-Wigner transform is that series times FW(S).
    """
    cross = periodize(fourier_wigner(T) * np.conj(FS), symbol.quotient.lattice)
    ratio = QuotientFunction(cross.quotient, cross.values / symbol.values)
    mask = inverse_symplectic_fourier_series(ratio, lattice)
    approximant = inverse_fourier_wigner(lift_quotient_function(ratio) * FS)
    return mask, approximant


def gram_matrix(S, lattice: Lattice) -> np.ndarray:
    """Gram matrix of the lattice translates of S in HS inner product.

    Entry (i, j) is <alpha_j S, alpha_i S> = (S conv checked(S*))(p_i - p_j),
    so the matrix is constant along lattice differences.  It is gathered
    from a 2 x 2 tiling of the grid, where p_i - p_j + (L, L) needs no
    reduction mod L; the N x N flat index is int32 (4 L^2 fits), half the
    size of a default index array.
    """
    S = as_operator(S, L=lattice.L)
    L = lattice.L
    h = op_op_conv(S, _checked_star(S), lattice)
    rows, cols = lattice.coords
    grid = np.zeros((L, L), dtype=np.complex128)
    grid[rows, cols] = h.values
    flat = (rows * (2 * L) + cols).astype(np.int32)
    index = np.subtract.outer(flat, flat)
    index += (2 * L + 1) * L
    return np.tile(grid, (2, 2)).ravel()[index]


@dataclass(eq=False)
class RieszReport:
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

    The bounds are the extremes of the symbol.  Eigenvalues come from an
    independent dense eigendecomposition of the Gram matrix.
    """
    S = as_operator(S, L=lattice.L)
    symbol, zero = _symbol(fourier_wigner(S), lattice, zero_tol)
    vals = symbol.values.real
    return RieszReport(
        lattice=lattice,
        symbol=symbol,
        lower=float(vals.min()),
        upper=float(vals.max()),
        zero_cosets=zero,
        gram_eigenvalues=np.linalg.eigvalsh(gram_matrix(S, lattice)),
    )


def biorthogonal_generator(
    S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> np.ndarray:
    """The operator R with (S conv R)(lambda) = delta_0(lambda).

    R = b conv checked(S*), where the series of b inverts the symbol;
    requires the translates of S to be Riesz.
    """
    FS = fourier_wigner(as_operator(S, L=lattice.L))
    return _dual(FS, _riesz_symbol(FS, lattice, zero_tol))


@dataclass(eq=False)
class ApproxReport:
    """``mask`` comes from the projection; ``fourier_mask`` is the same mask
    computed independently as T conv R, with R the biorthogonal generator."""

    mask: LatticeSequence
    fourier_mask: LatticeSequence
    approximant: np.ndarray
    residual_hs: float
    orthogonality_defect: float

    @property
    def mask_agreement(self) -> float:
        return float(np.max(np.abs(self.mask.values - self.fourier_mask.values)))


def best_approximation(
    T, S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> ApproxReport:
    """Best HS approximation of T from the span of the translates of S.

    The symbol is computed once; it gives both the projection and the
    biorthogonal generator R of the cross-check T conv R.
    """
    T = as_operator(T, L=lattice.L)
    S = as_operator(S, L=lattice.L)
    FS = fourier_wigner(S)
    symbol = _riesz_symbol(FS, lattice, zero_tol)
    mask, approximant = _project(T, FS, symbol, lattice)
    residual = T - approximant
    defect = float(
        np.max(np.abs(op_op_conv(residual, _checked_star(S), lattice).values))
    )
    return ApproxReport(
        mask=mask,
        fourier_mask=op_op_conv(T, _dual(FS, symbol), lattice),
        approximant=approximant,
        residual_hs=hs_norm(residual),
        orthogonality_defect=defect,
    )


@dataclass(eq=False)
class MaskRecovery:
    mask: LatticeSequence
    residual_hs: float


def recover_mask(
    G, S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> MaskRecovery:
    """Invert c -> c conv S on its range; the residual flags outside input.

    For G = c conv S the recovered mask equals c exactly; for general G
    the result is the mask of the best approximant and residual_hs
    measures the distance of G to the module span.
    """
    G = as_operator(G, L=lattice.L)
    FS = fourier_wigner(as_operator(S, L=lattice.L))
    symbol = _riesz_symbol(FS, lattice, zero_tol)
    mask, approximant = _project(G, FS, symbol, lattice)
    return MaskRecovery(mask=mask, residual_hs=hs_norm(G - approximant))


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
        return (
            self.kernel_dim == len(self.zero_cosets)
            and self.injective == (len(self.zero_cosets) == 0)
        )


def tauberian_diagnostics(
    S, lattice: Lattice, zero_tol: float = ZERO_TOL
) -> TauberianReport:
    """Cross-check the equivalent degeneracy certificates.

    Zero set of the symbol, kernel of the dense synthesis map and the
    Riesz lower bound must tell one consistent story; kernel_dim always
    equals the number of zero cosets.
    """
    S = as_operator(S, L=lattice.L)
    symbol, zero = _symbol(fourier_wigner(S), lattice, zero_tol)
    sing = np.linalg.svd(synthesis_map(S, lattice).matrix, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(sing > RANK_RTOL * sing[0]))
    return TauberianReport(
        lattice=lattice,
        lower=float(symbol.values.real.min()),
        upper=float(symbol.values.real.max()),
        zero_cosets=zero,
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
        projected = seq_op_conv(op_op_conv(T0, R, lattice), S)
        T = T0 - projected
        if hs_norm(T) > 1e-8 * hs_norm(T0):
            break
    else:  # pragma: no cover - the span is a proper subspace
        raise NotRieszError("failed to find a vector outside the module span")
    deviation = hs_norm(seq_op_conv(op_op_conv(T, R, lattice), S) - T)
    return T, deviation


def underspread_divide(
    S, T, lattice: Lattice, domain, zero_tol: float = ZERO_TOL
) -> np.ndarray:
    """Solve S = (S conv T) conv A for A when S is underspread.

    domain must hit each adjoint coset at most once (true for any subset
    of a fundamental domain), FW(S) must be supported inside it and FW(T)
    must not vanish on it.  The divider has Fourier-Wigner transform
    (1/kappa) / FW(T) on the domain and zero outside, kappa = N / L.
    """
    S = as_operator(S, L=lattice.L)
    T = as_operator(T, L=lattice.L)
    L = lattice.L
    rows, cols = np.asarray(domain, dtype=np.int64).reshape(-1, 2).T % L
    cosets = quotient_reps(adjoint_lattice(lattice)).coset_of[rows, cols]
    if np.unique(cosets).size != cosets.size:
        raise ValueError(
            "domain meets some adjoint coset twice; not part of a fundamental domain"
        )

    FS = fourier_wigner(S)
    FT = fourier_wigner(T)
    inside = np.zeros((L, L), dtype=bool)
    inside[rows, cols] = True
    spill = np.abs(FS)[~inside]
    if spill.size and spill.max() > SUPPORT_RTOL * max(np.abs(FS).max(), 1e-300):
        raise SupportViolationError(
            "spreading support of S exceeds the declared domain"
        )
    divisor = FT[rows, cols]
    vanishing = np.flatnonzero(np.abs(divisor) <= zero_tol * float(np.abs(FT).max()))
    if vanishing.size:
        i = vanishing[0]
        raise DivisionByZeroError(
            f"spreading function of divisor vanishes at {(int(rows[i]), int(cols[i]))}"
        )
    FA = np.zeros((L, L), dtype=np.complex128)
    FA[rows, cols] = 1.0 / ((lattice.size / L) * divisor)
    return inverse_fourier_wigner(FA)
