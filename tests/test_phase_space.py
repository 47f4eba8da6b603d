"""Phase-space structure: symplectic form, lattices, adjoints, quotients."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    Lattice,
    LatticeSequence,
    NonDivisorError,
    NonFiniteError,
    NotSeparableError,
    ParityError,
    LatticeMismatchError,
    QuotientFunction,
    adjoint_lattice,
    delta_sequence,
    fundamental_domain,
    make_general_lattice,
    make_separable_lattice,
    ones_sequence,
    quotient_reps,
    random_sequence,
    reduce_point,
    separable_profile,
    shift_sequence,
    symplectic_form,
)
from qhal.phase_space import check_dimension

import reference as ref


def divisors(L):
    return [d for d in range(1, L + 1) if L % d == 0]


def all_separable(L):
    return [make_separable_lattice(a, b, L) for a in divisors(L) for b in divisors(L)]


# -- symplectic form ---------------------------------------------------------


def test_symplectic_form_zero_argument():
    for m in range(7):
        for n in range(7):
            assert symplectic_form((0, 0), (m, n), 7) == 0


def test_symplectic_form_known_values():
    assert symplectic_form((1, 0), (0, 1), 7) == 6
    assert symplectic_form((2, 3), (4, 5), 15) == 2


def test_symplectic_form_antisymmetry_exhaustive():
    L = 5
    for zm in range(L):
        for zn in range(L):
            for wm in range(L):
                for wn in range(L):
                    s = symplectic_form((zm, zn), (wm, wn), L)
                    t = symplectic_form((wm, wn), (zm, zn), L)
                    assert (s + t) % L == 0


def test_symplectic_form_bilinear():
    rng = np.random.default_rng(11)
    L = 13
    for _ in range(50):
        z, w, u = (tuple(rng.integers(0, L, 2)) for _ in range(3))
        zw = ((z[0] + w[0]) % L, (z[1] + w[1]) % L)
        assert symplectic_form(zw, u, L) == (
            symplectic_form(z, u, L) + symplectic_form(w, u, L)
        ) % L


def test_reduce_point_and_dimension_guard():
    assert reduce_point((-1, 10), 7) == (6, 3)
    assert check_dimension(9) == 9
    with pytest.raises(ValueError):
        check_dimension(1)
    with pytest.raises(ValueError):
        check_dimension(2.5)
    with pytest.raises(ValueError):
        make_separable_lattice(True, 5, 5)
    with pytest.raises(ValueError):
        make_general_lattice([(1.5, 0)], 5)
    with pytest.raises(ValueError):
        make_general_lattice([("1", 0)], 5)


# -- lattice constructors ----------------------------------------------------


def test_separable_full_group():
    lat = make_separable_lattice(1, 1, 5)
    assert lat.size == 25
    assert lat.covolume == 1
    assert lat.is_full


def test_separable_three_by_three_in_fifteen():
    lat = make_separable_lattice(3, 3, 15)
    assert lat.size == 25
    assert lat.covolume == 9
    assert set(lat.points) == {(3 * j % 15, 3 * k % 15) for j in range(5) for k in range(5)}


def test_separable_trivial_subgroup():
    lat = make_separable_lattice(9, 9, 9)
    assert lat.points == ((0, 0),)
    assert lat.covolume == 81


def test_separable_rejects_non_divisor():
    with pytest.raises(NonDivisorError):
        make_separable_lattice(2, 3, 15)
    with pytest.raises(NonDivisorError):
        make_separable_lattice(3, 4, 15)


def test_general_lattice_trivial():
    lat = make_general_lattice([(0, 0)], 7)
    assert lat.points == ((0, 0),)


def test_general_lattice_diagonal():
    lat = make_general_lattice([(1, 1)], 4)
    assert set(lat.points) == {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert lat.size == 4


def test_general_lattice_two_generators():
    lat = make_general_lattice([(2, 0), (0, 2)], 6)
    assert lat.size == 9
    assert set(lat.points) == {(m, n) for m in (0, 2, 4) for n in (0, 2, 4)}


def test_lattice_closure_under_addition():
    for lat in (
        make_general_lattice([(1, 2)], 5),
        make_general_lattice([(2, 1), (0, 3)], 6),
        make_separable_lattice(3, 5, 15),
    ):
        pts = set(lat.points)
        assert (0, 0) in pts
        for p in pts:
            for q in pts:
                assert ((p[0] + q[0]) % lat.L, (p[1] + q[1]) % lat.L) in pts


def test_lattice_equality_ignores_generator_choice():
    a = make_separable_lattice(3, 3, 9)
    b = make_general_lattice([(0, 3), (3, 0), (3, 3)], 9)
    assert a == b
    assert hash(a) == hash(b)


def test_lattice_caches_are_bounded_and_keyed_on_the_basis():
    assert adjoint_lattice.cache_info().maxsize is not None
    assert quotient_reps.cache_info().maxsize is not None
    one = make_separable_lattice(3, 3, 9)
    two = make_general_lattice([(0, 3), (3, 0), (3, 3)], 9)
    assert (one.a, one.c, one.b) == (two.a, two.c, two.b) == (3, 0, 3)
    assert quotient_reps(one) is quotient_reps(two)


def test_separable_profile():
    assert separable_profile(make_separable_lattice(3, 5, 15)) == (3, 5)
    assert separable_profile(make_separable_lattice(1, 1, 4)) == (1, 1)
    assert separable_profile(make_general_lattice([(1, 1)], 4)) is None


# -- adjoint lattices --------------------------------------------------------


def test_adjoint_of_full_group_is_trivial():
    lat = make_separable_lattice(1, 1, 5)
    assert adjoint_lattice(lat).points == ((0, 0),)


def test_adjoint_known_separable_cases():
    adj = adjoint_lattice(make_separable_lattice(3, 3, 15))
    assert adj == make_separable_lattice(5, 5, 15)
    self_adj = adjoint_lattice(make_separable_lattice(3, 5, 15))
    assert self_adj == make_separable_lattice(3, 5, 15)


def test_adjoint_matches_bruteforce_and_size_product():
    for L in range(2, 21):
        for lat in all_separable(L):
            adj = adjoint_lattice(lat)
            assert lat.size * adj.size == L * L
            assert set(adj.points) == set(ref.adjoint_points_slow(lat.points, L))


def test_adjoint_general_lattices():
    for lat in (
        make_general_lattice([(1, 1)], 4),
        make_general_lattice([(1, 2)], 5),
        make_general_lattice([(2, 1)], 6),
    ):
        adj = adjoint_lattice(lat)
        assert lat.size * adj.size == lat.L * lat.L
        assert set(adj.points) == set(ref.adjoint_points_slow(lat.points, lat.L))


def test_adjoint_is_an_involution():
    for lat in (
        make_separable_lattice(3, 5, 15),
        make_separable_lattice(5, 5, 15),
        make_general_lattice([(1, 1)], 4),
        make_general_lattice([(1, 3)], 9),
    ):
        assert adjoint_lattice(adjoint_lattice(lat)) == lat


def test_character_sum_detects_adjoint_membership():
    for lat in (make_separable_lattice(3, 3, 9), make_separable_lattice(3, 5, 15)):
        L = lat.L
        adj = adjoint_lattice(lat)
        for um in range(L):
            for un in range(L):
                total = sum(
                    np.exp(2j * np.pi * symplectic_form(p, (um, un), L) / L)
                    for p in lat.points
                )
                want = lat.size if adj.contains((um, un)) else 0.0
                assert abs(total - want) < 1e-9


# -- quotients and fundamental domains ---------------------------------------


def test_quotient_of_full_group():
    q = quotient_reps(make_separable_lattice(1, 1, 5))
    assert q.reps == ((0, 0),)


def test_quotient_of_trivial_subgroup():
    q = quotient_reps(make_separable_lattice(3, 3, 3))
    assert len(q.reps) == 9
    assert set(q.reps) == {(m, n) for m in range(3) for n in range(3)}


def test_quotient_five_by_five():
    q = quotient_reps(make_separable_lattice(5, 5, 15))
    assert set(q.reps) == {(m, n) for m in range(5) for n in range(5)}
    assert len(q.reps) == 25


def test_quotient_transversal_property():
    for sub in (
        make_separable_lattice(3, 3, 9),
        make_separable_lattice(5, 3, 15),
        make_general_lattice([(1, 1)], 4),
    ):
        q = quotient_reps(sub)
        L = sub.L
        assert len(q.reps) * sub.size == L * L
        for zm in range(L):
            for zn in range(L):
                rep = q.reps[q.coset_index((zm, zn))]
                assert sub.contains(((zm - rep[0]) % L, (zn - rep[1]) % L))


def test_fundamental_domain_extreme_subgroups():
    # quotient by the full group has one coset; quotient by the trivial
    # subgroup leaves every point in its own coset
    dom = fundamental_domain(make_separable_lattice(1, 1, 9))
    assert set(dom) == {(0, 0)}
    dom = fundamental_domain(make_separable_lattice(9, 9, 9))
    assert len(set(dom)) == 81


def test_fundamental_domain_centered_box():
    dom = fundamental_domain(make_separable_lattice(5, 5, 15), centered=True)
    want = {(m % 15, n % 15) for m in range(-2, 3) for n in range(-2, 3)}
    assert set(dom) == want


def test_fundamental_domain_anchored_box():
    dom = fundamental_domain(make_separable_lattice(3, 3, 9))
    assert set(dom) == {(m, n) for m in range(3) for n in range(3)}


def test_fundamental_domain_covers_each_coset_once():
    for sub, centered in (
        (make_separable_lattice(3, 3, 9), False),
        (make_separable_lattice(3, 3, 9), True),
        (make_separable_lattice(5, 5, 15), True),
        (make_separable_lattice(3, 5, 15), True),
    ):
        dom = fundamental_domain(sub, centered=centered)
        q = quotient_reps(sub)
        hit = sorted(q.coset_index(z) for z in dom)
        assert hit == list(range(len(q.reps)))


def test_fundamental_domain_rejects_bad_requests():
    with pytest.raises(NotSeparableError):
        fundamental_domain(make_general_lattice([(1, 1)], 4))
    with pytest.raises(ParityError):
        fundamental_domain(make_separable_lattice(2, 2, 6), centered=True)


# -- lattice sequences -------------------------------------------------------


def test_delta_and_ones_sequences():
    lat = make_separable_lattice(3, 3, 9)
    d = delta_sequence(lat)
    assert d.value_at((0, 0)) == 1
    assert sum(abs(v) for v in d.values) == 1
    assert np.all(ones_sequence(lat).values == 1)


def test_sequence_value_at_reduces_mod_L():
    lat = make_separable_lattice(3, 3, 9)
    rng = np.random.default_rng(5)
    c = random_sequence(lat, rng)
    assert c.value_at((3, 6)) == c.value_at((12, -3))
    with pytest.raises(LatticeMismatchError):
        c.value_at((1, 0))


def test_sequence_length_is_checked():
    lat = make_separable_lattice(3, 3, 9)
    with pytest.raises(LatticeMismatchError):
        LatticeSequence(lat, np.ones(4))


def test_sequence_rejects_non_finite_values():
    lat = make_separable_lattice(3, 3, 9)
    vals = np.zeros(lat.size, dtype=np.complex128)
    vals[4] = np.nan
    with pytest.raises(NonFiniteError):
        LatticeSequence(lat, vals)
    vals[4] = np.inf
    with pytest.raises(NonFiniteError):
        LatticeSequence(lat, vals)
    q = quotient_reps(lat)
    with pytest.raises(NonFiniteError):
        QuotientFunction(q, np.full(q.size, np.nan))


def test_shift_sequence_moves_values():
    lat = make_separable_lattice(3, 3, 9)
    rng = np.random.default_rng(7)
    c = random_sequence(lat, rng)
    s = shift_sequence(c, (3, 6))
    for m, n in lat.points:
        assert s.value_at((m, n)) == c.value_at(((m - 3) % 9, (n - 6) % 9))
    with pytest.raises(LatticeMismatchError):
        shift_sequence(c, (1, 1))


def test_lattice_repr_is_compact():
    lat = make_separable_lattice(3, 5, 15)
    text = repr(lat)
    assert "L=15" in text and "size=15" in text
