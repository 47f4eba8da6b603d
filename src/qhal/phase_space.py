"""The finite phase space Z_L x Z_L, its lattice subgroups and quotients.

Points are ``(m, n)`` integer pairs reduced mod L, and the symplectic form
is sigma((m, n), (m', n')) = (n * m' - m * n') mod L.  A lattice is any
subgroup H of Z_L x Z_L.  It is stored by its canonical basis: H is
generated by (a, c) and (0, b) for exactly one triple with a | L, b | L,
0 <= c < b and b | (L / a) c (Hampejs, Holighaus, Toth & Wiesmeyr,
"Representing and counting the subgroups of the group Z_m x Z_n", 2014).
Points, positions, the adjoint lattice (sizes satisfy N * N_adjoint = L**2)
and the quotient transversal all follow in closed form.

Sequences indexed by a lattice and functions on a quotient Z_L^2 / H are
small array-carrying records defined here so the transform and convolution
modules can share them without import cycles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .errors import (
    LatticeMismatchError,
    NonDivisorError,
    NonFiniteError,
    NotSeparableError,
    ParityError,
)

PhasePoint = tuple[int, int]

__all__ = [
    "PhasePoint",
    "Lattice",
    "QuotientIndex",
    "LatticeSequence",
    "QuotientFunction",
    "check_dimension",
    "reduce_point",
    "symplectic_form",
    "make_separable_lattice",
    "make_general_lattice",
    "adjoint_lattice",
    "quotient_reps",
    "fundamental_domain",
    "separable_profile",
    "delta_sequence",
    "ones_sequence",
    "random_sequence",
    "shift_sequence",
]


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_dimension(L: int) -> int:
    """Validate an ambient dimension and return it as a plain int."""
    if not _is_int(L):
        raise ValueError(f"dimension must be an integer, got {L!r}")
    if L < 2:
        raise ValueError(f"dimension must be at least 2, got {L}")
    return int(L)


def reduce_point(z, L: int) -> PhasePoint:
    """Canonical representative of a phase-space point, coordinates in [0, L)."""
    m, n = z
    return (int(m) % L, int(n) % L)


def symplectic_form(z, w, L: int) -> int:
    """sigma(z, w) = (z_freq * w_time - z_time * w_freq) mod L."""
    return (z[1] * w[0] - z[0] * w[1]) % L


@dataclass(frozen=True)
class Lattice:
    """The subgroup of Z_L x Z_L generated by (a, c) and (0, b).

    Its points are (i a, (i c mod b) + k b) for i < L / a and k < L / b, in
    this order, which is also their sorted order.  ``coords`` holds them as
    two int arrays, the tuple ``points`` is built on first use, and
    ``locate(m, n)`` gives membership and position.  Equality and hashing
    use ``(L, a, c, b)`` only; the stored generator list is a convenience
    for serialization and may differ between equal lattices.
    """

    L: int
    a: int
    c: int
    b: int
    generators: tuple[PhasePoint, ...] = field(compare=False)

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column arrays of the points, in point order."""
        i, k = np.divmod(np.arange(self.size), self.L // self.b)
        coords = np.stack([i * self.a, i * self.c % self.b + k * self.b])
        coords.flags.writeable = False
        return tuple(coords)

    @cached_property
    def points(self) -> tuple[PhasePoint, ...]:
        return tuple(zip(*np.array(self.coords).tolist()))

    @property
    def size(self) -> int:
        return (self.L // self.a) * (self.L // self.b)

    @property
    def covolume(self) -> Fraction:
        return Fraction(self.L * self.L, self.size)

    @property
    def is_full(self) -> bool:
        return self.size == self.L * self.L

    def locate(self, m, n):
        """(inside, position) of (m, n) in [0, L), as ints or int arrays.

        Inside iff m = i a and n = i c mod b; the position is i (L / b) + n // b.
        """
        i, r = divmod(m, self.a)
        inside = (r == 0) & ((n - i * self.c) % self.b == 0)
        return inside, i * (self.L // self.b) + n // self.b

    def contains(self, z) -> bool:
        return bool(self.locate(*reduce_point(z, self.L))[0])

    def __repr__(self) -> str:  # keep reprs short; point lists get long
        gens = ";".join(f"{m},{n}" for m, n in self.generators)
        return f"Lattice(L={self.L}, size={self.size}, gens={gens})"


def _lattice(gens: tuple[PhasePoint, ...], L: int) -> Lattice:
    """The canonical basis of the subgroup generated by gens (reduced mod L).

    From the rows (L, 0), (0, L), Euclid's algorithm on the first column of
    (a, c) and each (x, y) leaves (gcd(a, x), .) and a multiple of (0, 1).
    """
    a, c, b = L, 0, L
    for x, y in gens:
        while x:
            q = a // x
            (a, c), (x, y) = (x, y), (a - q * x, c - q * y)
        b = gcd(b, y)
    return Lattice(L=L, a=a, c=c % b, b=b, generators=gens)


def make_separable_lattice(a: int, b: int, L: int) -> Lattice:
    """The product lattice aZ x bZ, the case c = 0; both steps must divide L."""
    L = check_dimension(L)
    for step in (a, b):
        if not _is_int(step) or step < 1:
            raise ValueError(f"lattice step must be a positive integer, got {step!r}")
        if L % step != 0:
            raise NonDivisorError(f"step {step} does not divide L={L}")
    return _lattice(((int(a) % L, 0), (0, int(b) % L)), L)


def make_general_lattice(gens, L: int) -> Lattice:
    """The subgroup generated by an arbitrary list of integer points."""
    L = check_dimension(L)
    gens = tuple(gens)
    if not all(_is_int(x) for g in gens for x in g):
        raise ValueError(f"generator coordinates must be integers, got {gens!r}")
    return _lattice(tuple(reduce_point(g, L) for g in gens) or ((0, 0),), L)


@functools.lru_cache(maxsize=32)
def adjoint_lattice(lattice: Lattice) -> Lattice:
    """Points whose symplectic character is trivial on the whole lattice.

    Pairing with (0, b) forces m = j L / b, then pairing with (a, c) forces
    n = j (L / a) c / b mod L / a.  Generators: (0, L / a), (L / b, c').
    """
    L, a, b = lattice.L, lattice.L // lattice.b, lattice.L // lattice.a
    c = (L // lattice.a) * lattice.c // lattice.b % b
    gens = tuple(g for g, step in (((0, b), b), ((a, c), a)) if step < L)
    return Lattice(L=L, a=a, c=c, b=b, generators=gens or ((0, 0),))


@dataclass(frozen=True, eq=False)
class QuotientIndex:
    """The box transversal {0..a-1} x {0..b-1} of Z_L x Z_L modulo a subgroup.

    ``locate(m, n)`` is the position in the row-major box of the coset
    through ``(m, n)``.  ``coords`` holds the box as two int arrays; the
    tuple ``reps`` is built on first use.
    """

    lattice: Lattice

    @property
    def size(self) -> int:
        return self.lattice.a * self.lattice.b

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        coords = np.stack(np.divmod(np.arange(self.size), self.lattice.b))
        coords.flags.writeable = False
        return tuple(coords)

    @cached_property
    def reps(self) -> tuple[PhasePoint, ...]:
        return tuple(zip(*np.array(self.coords).tolist()))

    def locate(self, m, n):
        """Box position of the coset of (m, n) in [0, size), ints or int arrays:
        minus floor(m / a) (a, c) then mod (0, b) lands in the box."""
        a, c, b = self.lattice.a, self.lattice.c, self.lattice.b
        return (m % a) * b + (n - (m // a) * c) % b

    def coset_index(self, z) -> int:
        return int(self.locate(*reduce_point(z, self.lattice.L)))


@functools.lru_cache(maxsize=16)
def quotient_reps(subgroup: Lattice) -> QuotientIndex:
    """The box transversal of Z_L x Z_L modulo the subgroup; each box point
    comes first in its coset in row-major order."""
    return QuotientIndex(lattice=subgroup)


def separable_profile(lattice: Lattice):
    """Return (a, b) if the lattice equals aZ x bZ, else None."""
    return (lattice.a, lattice.b) if lattice.c == 0 else None


def fundamental_domain(
    subgroup: Lattice, centered: bool = False
) -> tuple[PhasePoint, ...]:
    """A box transversal for Z_L x Z_L modulo a separable subgroup aZ x bZ.

    The anchored box is {0..a-1} x {0..b-1}; the centered box spans
    {-(a//2)..a//2} x {-(b//2)..b//2} and needs both sides odd.
    """
    profile = separable_profile(subgroup)
    if profile is None:
        raise NotSeparableError(
            f"{subgroup!r} is not a product lattice; no box transversal exists"
        )
    a, b = profile
    if centered and (a % 2 == 0 or b % 2 == 0):
        raise ParityError(f"centered box needs odd side lengths, got {a} x {b}")
    h, k, L = a // 2 * centered, b // 2 * centered, subgroup.L
    return tuple(((i - h) % L, (j - k) % L) for i in range(a) for j in range(b))


def _values(values, size: int, what: str) -> np.ndarray:
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (size,):
        raise LatticeMismatchError(f"expected {size} values, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise NonFiniteError(f"{what} has NaN or infinite values")
    return vals


@dataclass(eq=False)
class LatticeSequence:
    """Complex values attached to the points of a lattice, in point order."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _values(self.values, self.lattice.size, "sequence")

    def value_at(self, z) -> complex:
        key = reduce_point(z, self.lattice.L)
        inside, position = self.lattice.locate(*key)
        if not inside:
            raise LatticeMismatchError(f"point {key} is not in {self.lattice!r}")
        return complex(self.values[position])


@dataclass(eq=False)
class QuotientFunction:
    """Complex values on the cosets of a subgroup, in transversal order."""

    quotient: QuotientIndex
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _values(self.values, self.quotient.size, "quotient function")

    def value_at(self, z) -> complex:
        return complex(self.values[self.quotient.coset_index(z)])


def delta_sequence(lattice: Lattice) -> LatticeSequence:
    vals = np.zeros(lattice.size, dtype=np.complex128)
    vals[0] = 1.0  # the origin is the first point
    return LatticeSequence(lattice, vals)


def ones_sequence(lattice: Lattice) -> LatticeSequence:
    return LatticeSequence(lattice, np.ones(lattice.size, dtype=np.complex128))


def random_sequence(lattice: Lattice, rng: np.random.Generator) -> LatticeSequence:
    vals = rng.standard_normal(lattice.size) + 1j * rng.standard_normal(lattice.size)
    return LatticeSequence(lattice, vals)


def shift_sequence(c: LatticeSequence, z) -> LatticeSequence:
    """Translate a sequence by a lattice point: result(mu) = c(mu - z)."""
    lat = c.lattice
    shift = reduce_point(z, lat.L)
    if not lat.contains(shift):
        raise LatticeMismatchError(f"shift {shift} is not in {lat!r}")
    rows, cols = lat.coords
    _, source = lat.locate((rows - shift[0]) % lat.L, (cols - shift[1]) % lat.L)
    return LatticeSequence(lat, c.values[source])
