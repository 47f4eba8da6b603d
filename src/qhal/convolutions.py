"""Lattice convolutions mixing sequences and operators.

For a lattice Lambda in Z_L x Z_L with translation alpha_lambda(S) =
pi(lambda) S pi(lambda)*:

* sequence * operator:  c conv S = sum_lambda c(lambda) alpha_lambda(S),
  an operator;
* operator * operator:  (S conv T)(lambda) = trace(S alpha_lambda(T')),
  a sequence, where T' is the parity conjugate of T;
* sequence * sequence:  ordinary group convolution on Lambda.

All three are computed on the Fourier side, through the modulation law
and Poisson summation; the sums over translates are kept as test oracles.

The mixed operations form a module structure: c conv (S conv T) equals
(c conv S) conv T, and (c conv d) conv T equals c conv (d conv T).  A
bracketing with two operators on the outside fails in general; see
``qhal.analysis.nonassociativity_witness``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LatticeMismatchError
from .operators import as_operator, as_signal, rank_one, translate
from .phase_space import Lattice, LatticeSequence, QuotientFunction
from .transforms import (
    _chirp,
    _periodize,
    _spreading,
    _unspreading,
    adjoint_lattice,
    fourier_wigner,
    inverse_symplectic_fourier_series,
    lift_quotient_function,
    symplectic_fourier_series,
)

__all__ = [
    "seq_op_conv",
    "op_op_conv",
    "seq_seq_conv",
    "gabor_multiplier",
    "SynthesisMap",
    "synthesis_map",
    "fw_of_seq_op_conv",
    "fs_of_op_op_conv",
    "mixed_associativity_defect",
    "module_associativity_defect",
]


def seq_op_conv(c: LatticeSequence, S) -> np.ndarray:
    """sum_lambda c(lambda) alpha_lambda(S); V(c conv S) = series(c) V(S)."""
    S = as_operator(S, L=c.lattice.L)
    lifted = lift_quotient_function(symplectic_fourier_series(c))
    return _unspreading(lifted * _spreading(S))


def op_op_conv(S, T, lattice: Lattice) -> LatticeSequence:
    """(S conv T)(lambda) = trace(S alpha_lambda(parity_conjugate(T))).

    Commutative in (S, T); restricting a larger lattice gives the same
    values at shared points.  Its series is the product of the spreading
    functions times the chirp exp(2 pi i m n / L), periodized over the
    adjoint; this holds for even L too.
    """
    S = as_operator(S, L=lattice.L)
    T = as_operator(T, L=lattice.L)
    product = _chirp(lattice.L, 1) * _spreading(S) * _spreading(T)
    return inverse_symplectic_fourier_series(
        _periodize(product, adjoint_lattice(lattice)), lattice
    )


def seq_seq_conv(c: LatticeSequence, d: LatticeSequence) -> LatticeSequence:
    """Group convolution on the lattice: (c conv d)(mu) = sum c(nu) d(mu - nu).

    Computed as the inverse series of the product of the two series.
    """
    if d.lattice != c.lattice:
        raise LatticeMismatchError("sequences live on different lattices")
    F = symplectic_fourier_series(c)
    G = symplectic_fourier_series(d)
    return inverse_symplectic_fourier_series(
        QuotientFunction(F.quotient, F.values * G.values), c.lattice
    )


def gabor_multiplier(mask: LatticeSequence, phi, xi=None) -> np.ndarray:
    """Mask times translated rank-one atoms: mask conv (xi tensor phi).

    phi is the analysis window, xi the synthesis window (defaults to phi).
    The result acts by psi -> sum mask(lam) <psi, pi(lam) phi> pi(lam) xi.
    """
    phi = as_signal(phi, L=mask.lattice.L)
    xi = phi if xi is None else as_signal(xi, L=mask.lattice.L)
    return seq_op_conv(mask, rank_one(xi, phi))


@dataclass(eq=False)
class SynthesisMap:
    """Dense matrix of the map c -> c conv S, columns vec(alpha_lambda(S))."""

    lattice: Lattice
    generator: np.ndarray
    matrix: np.ndarray


def synthesis_map(S, lattice: Lattice) -> SynthesisMap:
    S = as_operator(S, L=lattice.L)
    cols = [translate(S, point).reshape(-1) for point in lattice.points]
    return SynthesisMap(lattice, S, np.column_stack(cols))


def fw_of_seq_op_conv(c: LatticeSequence, S) -> np.ndarray:
    """Fourier-Wigner of c conv S via the modulation law.

    Equals the lifted symplectic Fourier series of c times the
    Fourier-Wigner transform of S, with no extra constant.
    """
    S = as_operator(S, L=c.lattice.L)
    lifted = lift_quotient_function(symplectic_fourier_series(c))
    return lifted * fourier_wigner(S)


def fs_of_op_op_conv(S, T, lattice: Lattice):
    """Symplectic Fourier series of S conv T via periodization.

    Equals the product of the two Fourier-Wigner transforms periodized
    over the adjoint lattice.
    """
    S = as_operator(S, L=lattice.L)
    T = as_operator(T, L=lattice.L)
    product = fourier_wigner(S) * fourier_wigner(T)
    return _periodize(product, adjoint_lattice(lattice))


def mixed_associativity_defect(c: LatticeSequence, S, T) -> float:
    """max |c conv (S conv T) - (c conv S) conv T| over the lattice."""
    lat = c.lattice
    left = seq_seq_conv(c, op_op_conv(S, T, lat))
    right = op_op_conv(seq_op_conv(c, S), T, lat)
    return float(np.max(np.abs(left.values - right.values)))


def module_associativity_defect(c: LatticeSequence, d: LatticeSequence, T) -> float:
    """max entry of |(c conv d) conv T - c conv (d conv T)|."""
    left = seq_op_conv(seq_seq_conv(c, d), T)
    right = seq_op_conv(c, seq_op_conv(d, T))
    return float(np.max(np.abs(left - right)))
