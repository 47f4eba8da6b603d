"""The finite phase space Z_L x Z_L, its lattice subgroups and quotients.

Points are plain ``(m, n)`` integer tuples reduced mod L.  The symplectic
form is

    sigma((m, n), (m', n')) = (n * m' - m * n') mod L,

and a lattice is any subgroup of Z_L x Z_L.  The adjoint lattice of a
subgroup collects the points at which every character attached to the
subgroup is trivial; sizes always satisfy N * N_adjoint = L**2.

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


def check_dimension(L: int) -> int:
    """Validate an ambient dimension and return it as a plain int."""
    if isinstance(L, bool) or not isinstance(L, (int, np.integer)):
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
    """A subgroup of Z_L x Z_L with a fixed, sorted point enumeration.

    Equality and hashing use ``(L, points)`` only; the stored generator
    list is a convenience for serialization and may differ between equal
    lattices.
    """

    L: int
    points: tuple[PhasePoint, ...]
    generators: tuple[PhasePoint, ...] = field(compare=False)

    @cached_property
    def index(self) -> dict[PhasePoint, int]:
        return {z: i for i, z in enumerate(self.points)}

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def covolume(self) -> Fraction:
        return Fraction(self.L * self.L, self.size)

    @property
    def is_full(self) -> bool:
        return self.size == self.L * self.L

    def contains(self, z) -> bool:
        return reduce_point(z, self.L) in self.index

    def __repr__(self) -> str:  # keep reprs short; point lists get long
        gens = ";".join(f"{m},{n}" for m, n in self.generators)
        return f"Lattice(L={self.L}, size={self.size}, gens={gens})"


def _closure(gens: tuple[PhasePoint, ...], L: int) -> set[PhasePoint]:
    points = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = ((base[0] + g[0]) % L, (base[1] + g[1]) % L)
            if nxt not in points:
                points.add(nxt)
                frontier.append(nxt)
    return points


def _small_generating_set(points: list[PhasePoint], L: int) -> tuple[PhasePoint, ...]:
    chosen: list[PhasePoint] = []
    span = {(0, 0)}
    for p in points:
        if p not in span:
            chosen.append(p)
            span = _closure(tuple(chosen), L)
    return tuple(chosen) if chosen else ((0, 0),)


def make_separable_lattice(a: int, b: int, L: int) -> Lattice:
    """The product lattice aZ x bZ; both steps must divide L."""
    L = check_dimension(L)
    for step in (a, b):
        if not isinstance(step, (int, np.integer)) or step < 1:
            raise ValueError(f"lattice step must be a positive integer, got {step!r}")
        if L % step != 0:
            raise NonDivisorError(f"step {step} does not divide L={L}")
    points = tuple(
        sorted((a * i % L, b * j % L) for i in range(L // a) for j in range(L // b))
    )
    return Lattice(L=L, points=points, generators=((a % L, 0), (0, b % L)))


def make_general_lattice(gens, L: int) -> Lattice:
    """The subgroup generated by an arbitrary list of points."""
    L = check_dimension(L)
    reduced = tuple(reduce_point(g, L) for g in gens)
    if not reduced:
        reduced = ((0, 0),)
    points = tuple(sorted(_closure(reduced, L)))
    return Lattice(L=L, points=points, generators=reduced)


@functools.lru_cache(maxsize=None)
def adjoint_lattice(lattice: Lattice) -> Lattice:
    """Points whose symplectic character is trivial on the whole lattice.

    Bilinearity of sigma means annihilating the generators suffices.
    """
    L = lattice.L
    gens = lattice.generators
    points = [
        (m, n)
        for m in range(L)
        for n in range(L)
        if all(symplectic_form((m, n), g, L) == 0 for g in gens)
    ]
    return Lattice(
        L=L, points=tuple(points), generators=_small_generating_set(points, L)
    )


@dataclass(frozen=True, eq=False)
class QuotientIndex:
    """An explicit transversal of Z_L x Z_L modulo a subgroup.

    ``coset_of[m, n]`` is the position in ``reps`` of the coset through
    ``(m, n)``, so reducing a point costs one array lookup.
    """

    lattice: Lattice
    reps: tuple[PhasePoint, ...]
    coset_of: np.ndarray

    @property
    def size(self) -> int:
        return len(self.reps)

    def coset_index(self, z) -> int:
        m, n = reduce_point(z, self.lattice.L)
        return int(self.coset_of[m, n])


@functools.lru_cache(maxsize=None)
def quotient_reps(subgroup: Lattice) -> QuotientIndex:
    """Row-major-first transversal of Z_L x Z_L modulo the given subgroup."""
    L = subgroup.L
    coset_of = np.full((L, L), -1, dtype=np.int64)
    reps: list[PhasePoint] = []
    for m in range(L):
        for n in range(L):
            if coset_of[m, n] >= 0:
                continue
            idx = len(reps)
            reps.append((m, n))
            for hm, hn in subgroup.points:
                coset_of[(m + hm) % L, (n + hn) % L] = idx
    return QuotientIndex(lattice=subgroup, reps=tuple(reps), coset_of=coset_of)


def separable_profile(lattice: Lattice):
    """Return (a, b) if the lattice equals aZ x bZ, else None."""
    L = lattice.L
    a = functools.reduce(gcd, (m for m, _ in lattice.points), L)
    b = functools.reduce(gcd, (n for _, n in lattice.points), L)
    if lattice.size * a * b == L * L:
        return (a, b)
    return None


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
    if centered:
        if a % 2 == 0 or b % 2 == 0:
            raise ParityError(
                f"centered box needs odd side lengths, got {a} x {b}"
            )
        rows = range(-(a // 2), a // 2 + 1)
        cols = range(-(b // 2), b // 2 + 1)
    else:
        rows = range(a)
        cols = range(b)
    L = subgroup.L
    return tuple((i % L, j % L) for i in rows for j in cols)


@dataclass(eq=False)
class LatticeSequence:
    """Complex values attached to the points of a lattice, in point order."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.lattice.size,):
            raise LatticeMismatchError(
                f"expected {self.lattice.size} values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteError("sequence has NaN or infinite values")
        self.values = vals

    def value_at(self, z) -> complex:
        key = reduce_point(z, self.lattice.L)
        try:
            return complex(self.values[self.lattice.index[key]])
        except KeyError:
            raise LatticeMismatchError(f"point {key} is not in {self.lattice!r}")

    def copy(self) -> "LatticeSequence":
        return LatticeSequence(self.lattice, self.values.copy())


@dataclass(eq=False)
class QuotientFunction:
    """Complex values on the cosets of a subgroup, in transversal order."""

    quotient: QuotientIndex
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.quotient.size,):
            raise LatticeMismatchError(
                f"expected {self.quotient.size} values, got shape {vals.shape}"
            )
        self.values = vals

    def value_at(self, z) -> complex:
        return complex(self.values[self.quotient.coset_index(z)])


def delta_sequence(lattice: Lattice) -> LatticeSequence:
    vals = np.zeros(lattice.size, dtype=np.complex128)
    vals[lattice.index[(0, 0)]] = 1.0
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
    if shift not in lat.index:
        raise LatticeMismatchError(f"shift {shift} is not in {lat!r}")
    vals = np.empty_like(c.values)
    for i, (m, n) in enumerate(lat.points):
        target = ((m + shift[0]) % lat.L, (n + shift[1]) % lat.L)
        vals[lat.index[target]] = c.values[i]
    return LatticeSequence(lat, vals)
