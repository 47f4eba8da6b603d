"""Every subgroup of Z_L x Z_L for small L, checked against the loop oracles.

Each subgroup of Z_L x Z_L is generated by (a, c) and (0, b) for exactly
one triple with a | L, b | L, 0 <= c < b and b | (L / a) c (Hampejs,
Holighaus, Toth & Wiesmeyr, "Representing and counting the subgroups of the
group Z_m x Z_n", 2014).  Their number is sum_{d1, d2 | L} gcd(d1, d2).
The sweep enumerates the triples, checks the count and compares the
lattice structure on every subgroup with L <= 16, and the series,
periodization, convolutions and analysis on every subgroup with L <= 9
(even L included), with the slow transcriptions in ``reference.py``, dense
least squares and the dense Gram eigendecomposition.  The FFT-free approx
cross-checks are compared there with the full ``op_op_conv`` and
``seq_op_conv`` forms.
"""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest

from qhal import (
    QuotientFunction,
    adjoint_lattice,
    best_approximation,
    biorthogonal_generator,
    delta_sequence,
    hs_norm,
    inverse_symplectic_fourier_series,
    lift_quotient_function,
    make_general_lattice,
    make_separable_lattice,
    nonassociativity_witness,
    op_op_conv,
    periodize,
    quotient_reps,
    random_sequence,
    recover_mask,
    riesz_report,
    separable_profile,
    seq_op_conv,
    seq_seq_conv,
    symplectic_fourier_series,
    synthesis_map,
    tauberian_diagnostics,
    tf_shift,
    underspread_divide,
)
from qhal.analysis import ZERO_TOL, _checked_star, _sampled_inner_products, _synthesis_row
from qhal.operators import random_operator
from qhal.transforms import _diagonals, _periodize

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
        inside, position = lat.locate(*np.array(points).T)
        assert inside.all() and position.tolist() == list(range(lat.size))
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
        assert np.array_equal(q.locate(*np.indices((L, L))), coset_of)
        assert [q.coset_index(z) for z in grid] == coset_of.ravel().tolist()
        values = np.arange(q.size) * (1 - 2j)  # one distinct value per coset
        lifted = lift_quotient_function(QuotientFunction(q, values))
        assert np.array_equal(lifted, values[coset_of]), (a, c, b)
        assert lifted.flags.owndata  # so products with it can reuse it in place


def assert_sampled_checks_match_full_forms(T, S, lat, approx):
    """The sampled normal equations equal op_op_conv(T - approximant,
    checked(S*)) on the first two basis rows of points, the synthesized row
    equals row 0 of seq_op_conv(mask, S), both to 1e-12 relative to the
    norms, and the report's fields are their maxima."""
    L = lat.L
    residual = T - approx.approximant
    sampled = _sampled_inner_products(_diagonals(residual), _diagonals(S), lat)
    assert sampled.size == min(2, L // lat.a) * (L // lat.b)
    full = op_op_conv(residual, _checked_star(S), lat).values[: sampled.size]
    scale = hs_norm(residual) * hs_norm(S)
    assert np.max(np.abs(sampled - full)) <= 1e-12 * scale, lat
    row = _synthesis_row(approx.mask, S)
    scale = np.linalg.norm(approx.mask.values) * hs_norm(S)
    assert np.max(np.abs(row - seq_op_conv(approx.mask, S)[0])) <= 1e-12 * scale, lat
    assert np.isclose(approx.orthogonality_defect, np.max(np.abs(sampled)), rtol=1e-9)
    assert approx.mask_agreement == np.max(np.abs(approx.approximant[0] - row))
    assert np.isclose(approx.residual_hs, hs_norm(residual), rtol=1e-12)


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

        report = riesz_report(S, lat)
        eigs = np.sort(report.gram_eigenvalues)
        vals = np.sort(report.symbol.values.real)
        assert np.max(np.abs(eigs - vals)) < 1e-9 * max(1.0, vals.max())
        D = synthesis_map(S, lat).matrix
        dense = np.linalg.eigvalsh(D.conj().T @ D)
        dev = np.max(np.abs(report.gram_eigenvalues - dense))
        assert dev < 1e-12 * report.upper, (a, c, b)
        assert tauberian_diagnostics(S, lat).consistent, (a, c, b)

        lsq = np.linalg.lstsq(D, T.reshape(-1), rcond=None)[0]
        approx = best_approximation(T, S, lat)
        assert np.allclose(approx.mask.values, lsq, atol=1e-11), (a, c, b)
        assert np.allclose(approx.approximant.reshape(-1), D @ lsq, atol=1e-11)
        assert_sampled_checks_match_full_forms(T, S, lat, approx)
        got = recover_mask(seq_op_conv(cs, S), S, lat).mask
        assert np.allclose(got.values, cs.values, atol=1e-11), (a, c, b)
        R = biorthogonal_generator(S, lat)
        want = delta_sequence(lat).values
        assert np.allclose(op_op_conv(S, R, lat).values, want, atol=1e-11), (a, c, b)
        if not lat.is_full:
            W, deviation = nonassociativity_witness(S, lat, seed=L)
            h = ref.op_op_conv_slow(W, R, lat.points, L)
            back = ref.seq_op_conv_slow(lat.points, h, S, L)
            assert np.allclose(back, 0.0, atol=1e-11), (a, c, b)
            assert np.isclose(deviation, hs_norm(W), rtol=1e-9), (a, c, b)

        # S with V(S)(z) = g(z) on a few coset representatives of the
        # adjoint, since V(pi(z)) = L delta_z
        domain = quotient_reps(adj).reps[:3]
        Su = sum(complex(*rng.standard_normal(2)) * tf_shift(z, L) for z in domain) / L
        A = underspread_divide(Su, T, lat, domain)
        h = ref.op_op_conv_slow(Su, T, lat.points, L)
        rebuilt = ref.seq_op_conv_slow(lat.points, h, A, L)
        assert hs_norm(rebuilt - Su) < 1e-11 * hs_norm(Su), (a, c, b)


@pytest.mark.parametrize("L", range(2, 10))
def test_divide_matches_full_transform_oracle(L):
    """On every subgroup, underspread_divide gives the full-transform
    divide's A bit for bit, or its refusal with the same class and message:
    generators on a few adjoint coset representatives or spread everywhere,
    random, identity and zero divisors, and zero_tol = 0."""
    rng = np.random.default_rng(300 + L)
    for a, c, b in triples(L):
        lat = make_general_lattice(generators(a, c, b, L), L)
        domain = quotient_reps(adjoint_lattice(lat)).reps[:3]
        Su = sum(complex(*rng.standard_normal(2)) * tf_shift(z, L) for z in domain) / L
        zero = np.zeros((L, L), dtype=np.complex128)
        ops = (Su, random_operator(L, rng), zero)
        divisors = (random_operator(L, rng), np.eye(L, dtype=np.complex128), zero)
        for S in ops:
            for T in divisors:
                for tol in (ZERO_TOL, 0.0):
                    want = ref.outcome(
                        lambda: ref.underspread_divide_full(S, T, lat.size, domain, tol)
                    )
                    got = ref.outcome(lambda: underspread_divide(S, T, lat, domain, tol))
                    np.testing.assert_equal(got, want, err_msg=str((a, c, b)))


def test_gram_spectrum_matches_dense_eigvalsh_at_L105():
    lat = make_separable_lattice(3, 5, 105)  # N = 735
    S = random_operator(105, np.random.default_rng(105))
    report = riesz_report(S, lat)
    M = synthesis_map(S, lat).matrix
    dense = np.linalg.eigvalsh(M.conj().T @ M)
    assert report.gram_eigenvalues.shape == (735,)
    assert np.max(np.abs(report.gram_eigenvalues - dense)) < 1e-12 * report.upper


def test_sampled_checks_match_full_forms_at_L225():
    lat = make_general_lattice([(15, 1)], 225)  # a = b = 15, shear c = 1
    rng = np.random.default_rng(225)
    S, T = random_operator(225, rng), random_operator(225, rng)
    assert_sampled_checks_match_full_forms(T, S, lat, best_approximation(T, S, lat))


@pytest.mark.parametrize(
    "lat",
    [make_separable_lattice(3, 5, 105), make_general_lattice([(15, 1)], 225)],
    ids=repr,
)
def test_fourier_side_matches_oracles_at_benchmark_sizes(lat):
    """The benchmark's lattices: the coset fold against the loop oracle on
    the adjoint, for a complex grid and for the real nonnegative grid of a
    symbol, to 1e-12 relative to sum |f|; the sampled approx checks against
    their full forms; and an exact recover round trip."""
    L = lat.L
    adj = adjoint_lattice(lat)
    reps = quotient_reps(adj).reps
    rng = np.random.default_rng(L)
    f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    for grid, out in ((f, periodize(f, adj)), (np.abs(f) ** 2, _periodize(np.abs(f) ** 2, adj))):
        want = ref.periodize_slow(grid, adj.points, reps, L)
        assert np.max(np.abs(out.values - want)) <= 1e-12 * np.abs(grid).sum(), lat

    S, T = random_operator(L, rng), random_operator(L, rng)
    assert_sampled_checks_match_full_forms(T, S, lat, best_approximation(T, S, lat))
    c = random_sequence(lat, rng)
    G = seq_op_conv(c, S)
    got = recover_mask(G, S, lat)
    assert np.max(np.abs(got.mask.values - c.values)) <= 1e-12 * np.abs(c.values).max()
    assert got.residual_hs <= 1e-12 * hs_norm(G), got.residual_hs


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
