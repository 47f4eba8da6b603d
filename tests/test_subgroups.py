"""Every subgroup of Z_L x Z_L for small L, checked against the loop oracles.

Each subgroup of Z_L x Z_L is generated by (a, c) and (0, b) for exactly
one triple with a | L, b | L, 0 <= c < b and b | (L / a) c (Hampejs,
Holighaus, Toth & Wiesmeyr, "Representing and counting the subgroups of the
group Z_m x Z_n", 2014).  Their number is sum_{d1, d2 | L} gcd(d1, d2).
The sweep enumerates the triples, checks the count and compares the
lattice structure on every subgroup with L <= 16, and the series,
periodization and convolutions on every subgroup with L <= 9, with the
slow transcriptions in ``reference.py``.
"""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest

from qhal import (
    adjoint_lattice,
    inverse_symplectic_fourier_series,
    make_general_lattice,
    op_op_conv,
    periodize,
    quotient_reps,
    random_sequence,
    riesz_report,
    separable_profile,
    seq_op_conv,
    seq_seq_conv,
    symplectic_fourier_series,
    tauberian_diagnostics,
)
from qhal.operators import random_operator

import reference as ref

# number of subgroups of Z_L x Z_L for L = 2..16
COUNTS = dict(
    zip(range(2, 17), (5, 6, 15, 8, 30, 10, 37, 23, 40, 14, 90, 16, 50, 48, 83))
)


def divisors(L):
    return [d for d in range(1, L + 1) if L % d == 0]


def triples(L):
    """All (a, c, b) with a | L, b | L, 0 <= c < b and b | (L / a) c."""
    return [
        (a, c, b)
        for a in divisors(L)
        for b in divisors(L)
        for c in range(b)
        if (L // a) * c % b == 0
    ]


def generators(a, c, b, L):
    return ((a % L, c), (0, b % L))


@pytest.mark.parametrize("L", range(2, 17))
def test_subgroup_count_matches_formula(L):
    found = triples(L)
    want = sum(gcd(d1, d2) for d1 in divisors(L) for d2 in divisors(L))
    assert len(found) == want == COUNTS[L]
    closures = {frozenset(ref.closure_slow(generators(*t, L), L)) for t in found}
    assert len(closures) == len(found)


@pytest.mark.parametrize("L", range(2, 17))
def test_lattice_structure_matches_oracles(L):
    grid = [(m, n) for m in range(L) for n in range(L)]
    for a, c, b in triples(L):
        gens = generators(a, c, b, L)
        lat = make_general_lattice(gens, L)
        points = sorted(ref.closure_slow(gens, L))
        assert list(lat.points) == points, (a, c, b)
        assert lat.index == {p: i for i, p in enumerate(points)}
        members = set(points)
        assert [lat.contains(z) for z in grid] == [z in members for z in grid]
        assert separable_profile(lat) == ((a, b) if c == 0 else None)

        adj = adjoint_lattice(lat)
        adj_points = ref.adjoint_points_slow(points, L)
        assert list(adj.points) == adj_points, (a, c, b)
        assert adj.generators == ref.generating_set_slow(adj_points, L)
        assert lat.size * adj.size == L * L
        assert adjoint_lattice(adj) == lat

        reps, coset_of = ref.quotient_slow(points, L)
        q = quotient_reps(lat)
        assert q.reps == reps, (a, c, b)
        assert np.array_equal(q.coset_of, coset_of)


@pytest.mark.parametrize("L", range(2, 10))
def test_fourier_side_matches_oracles(L):
    rng = np.random.default_rng(L)
    for a, c, b in triples(L):
        lat = make_general_lattice(generators(a, c, b, L), L)
        adj = adjoint_lattice(lat)
        cs, ds = random_sequence(lat, rng), random_sequence(lat, rng)
        S, T = random_operator(L, rng), random_operator(L, rng)

        F = symplectic_fourier_series(cs)
        want = ref.series_slow(lat.points, cs.values, F.quotient.reps, L)
        assert np.allclose(F.values, want, atol=1e-11), (a, c, b)
        back = inverse_symplectic_fourier_series(F, lat)
        assert np.allclose(back.values, cs.values, atol=1e-12), (a, c, b)

        f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        out = periodize(f, adj)
        want = ref.periodize_slow(f, adj.points, out.quotient.reps, L)
        assert np.allclose(out.values, want, atol=1e-11), (a, c, b)

        want = ref.seq_op_conv_slow(lat.points, cs.values, S, L)
        assert np.allclose(seq_op_conv(cs, S), want, atol=1e-11), (a, c, b)
        want = ref.op_op_conv_slow(S, T, lat.points, L)
        assert np.allclose(op_op_conv(S, T, lat).values, want, atol=1e-11), (a, c, b)
        want = ref.seq_seq_conv_slow(lat.points, cs.values, ds.values, L)
        assert np.allclose(seq_seq_conv(cs, ds).values, want, atol=1e-11), (a, c, b)

        if L % 2:
            report = riesz_report(S, lat)
            eigs = np.sort(report.gram_eigenvalues)
            vals = np.sort(report.symbol.values.real)
            assert np.max(np.abs(eigs - vals)) < 1e-9 * max(1.0, vals.max())
            assert tauberian_diagnostics(S, lat).consistent, (a, c, b)


def test_basis_from_random_generators():
    rng = np.random.default_rng(2014)
    for _ in range(300):
        L = int(rng.integers(2, 40))
        count = int(rng.integers(1, 4))
        gens = [tuple(rng.integers(-2 * L, 2 * L, 2).tolist()) for _ in range(count)]
        lat = make_general_lattice(gens, L)
        want = sorted(ref.closure_slow([(m % L, n % L) for m, n in gens], L))
        assert list(lat.points) == want, (L, gens)
        assert lat == make_general_lattice(generators(lat.a, lat.c, lat.b, L), L)
