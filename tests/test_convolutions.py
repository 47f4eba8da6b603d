"""Lattice convolutions, Gabor multipliers, synthesis maps, Fourier identities."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    DimensionMismatchError,
    LatticeMismatchError,
    LatticeSequence,
    adjoint_lattice,
    delta_sequence,
    fourier_wigner,
    fs_of_op_op_conv,
    fw_of_seq_op_conv,
    gabor_multiplier,
    hs_inner,
    lift_quotient_function,
    make_general_lattice,
    make_separable_lattice,
    mixed_associativity_defect,
    module_associativity_defect,
    ones_sequence,
    op_op_conv,
    parity_conjugate,
    periodize,
    random_sequence,
    rank_one,
    schatten_norm,
    seq_op_conv,
    seq_seq_conv,
    shift_sequence,
    spectrogram_samples,
    stft,
    symplectic_fourier_series,
    synthesis_map,
    tf_shift,
    translate,
)
from qhal.operators import random_operator, random_signal

import reference as ref


# separable, general and even-L lattices for the oracle comparisons
ORACLE_LATTICES = (
    make_separable_lattice(3, 5, 15),
    make_general_lattice([(3, 1)], 15),
    make_general_lattice([(1, 2)], 15),
    make_separable_lattice(2, 4, 8),
    make_general_lattice([(2, 3)], 12),
)


def basis_vector(t, L):
    e = np.zeros(L, dtype=np.complex128)
    e[t] = 1.0
    return e


def parity_vector(phi):
    L = len(phi)
    return phi[(-np.arange(L)) % L]


def checked_star(S):
    return parity_conjugate(np.conj(S.T))


# -- sequence * operator -----------------------------------------------------


def test_seq_op_conv_delta_mask():
    rng = np.random.default_rng(60)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    assert np.allclose(seq_op_conv(delta_sequence(lat), S), S, atol=1e-13)


def test_seq_op_conv_matches_bruteforce():
    rng = np.random.default_rng(61)
    for lat in ORACLE_LATTICES:
        c = random_sequence(lat, rng)
        S = random_operator(lat.L, rng)
        want = ref.seq_op_conv_slow(lat.points, c.values, S, lat.L)
        assert np.allclose(seq_op_conv(c, S), want, atol=1e-11), lat


def test_seq_op_conv_tight_frame_box_window():
    # the lattice translates of this window tile, so summing all
    # projections gives the identity with scalar N * ||phi||^2 / L = 1
    L = 9
    lat = make_separable_lattice(3, 3, L)
    phi = np.zeros(L, dtype=np.complex128)
    phi[:3] = 1.0 / np.sqrt(3.0)
    frame_op = seq_op_conv(ones_sequence(lat), rank_one(phi, phi))
    assert np.max(np.abs(frame_op - np.eye(L))) < 1e-11


def test_seq_op_conv_tight_frame_flat_window_dense_lattice():
    L = 9
    lat = make_separable_lattice(3, 1, L)
    phi = np.ones(L, dtype=np.complex128) / 3.0
    frame_op = seq_op_conv(ones_sequence(lat), rank_one(phi, phi))
    scalar = lat.size * np.linalg.norm(phi) ** 2 / L
    assert np.isclose(scalar, 3.0)
    assert np.max(np.abs(frame_op - scalar * np.eye(L))) < 1e-11


def test_flat_window_is_not_tight_on_square_lattice():
    # the same flat window on the 3Z x 3Z lattice has frame operator far
    # from every scalar multiple of the identity
    L = 9
    lat = make_separable_lattice(3, 3, L)
    phi = np.ones(L, dtype=np.complex128) / 3.0
    frame_op = seq_op_conv(ones_sequence(lat), rank_one(phi, phi))
    scalar = np.trace(frame_op) / L
    assert np.max(np.abs(frame_op - scalar * np.eye(L))) > 0.5


def test_seq_op_conv_trace_norm_bound():
    rng = np.random.default_rng(62)
    lat = make_separable_lattice(3, 3, 9)
    for _ in range(5):
        c = random_sequence(lat, rng)
        S = random_operator(9, rng)
        ell1 = np.sum(np.abs(c.values))
        for p in (1, 2, np.inf):
            assert schatten_norm(seq_op_conv(c, S), p) <= ell1 * schatten_norm(S, p) + 1e-9


def test_seq_op_conv_commutes_with_lattice_translation():
    rng = np.random.default_rng(63)
    lat = make_separable_lattice(3, 3, 9)
    c = random_sequence(lat, rng)
    S = random_operator(9, rng)
    for lam in ((3, 0), (0, 6), (6, 3)):
        lhs = seq_op_conv(shift_sequence(c, lam), S)
        rhs = translate(seq_op_conv(c, S), lam)
        assert np.allclose(lhs, rhs, atol=1e-11)


def test_seq_op_conv_bilinear():
    rng = np.random.default_rng(64)
    lat = make_separable_lattice(3, 3, 9)
    c, d = random_sequence(lat, rng), random_sequence(lat, rng)
    S, T = random_operator(9, rng), random_operator(9, rng)
    a = 1.5 - 0.5j
    lhs = seq_op_conv(LatticeSequence(lat, c.values + a * d.values), S)
    assert np.allclose(lhs, seq_op_conv(c, S) + a * seq_op_conv(d, S), atol=1e-11)
    lhs = seq_op_conv(c, S + a * T)
    assert np.allclose(lhs, seq_op_conv(c, S) + a * seq_op_conv(c, T), atol=1e-11)


def test_seq_op_conv_checks_dimension():
    lat = make_separable_lattice(3, 3, 9)
    with pytest.raises(DimensionMismatchError):
        seq_op_conv(delta_sequence(lat), np.eye(5))


# -- operator * operator -----------------------------------------------------


def test_op_op_conv_value_at_zero():
    rng = np.random.default_rng(65)
    lat = make_separable_lattice(3, 3, 9)
    S, T = random_operator(9, rng), random_operator(9, rng)
    h = op_op_conv(S, T, lat)
    assert np.isclose(h.value_at((0, 0)), np.trace(S @ parity_conjugate(T)))


def test_op_op_conv_matches_bruteforce():
    rng = np.random.default_rng(66)
    for lat in ORACLE_LATTICES:
        S, T = random_operator(lat.L, rng), random_operator(lat.L, rng)
        h = op_op_conv(S, T, lat)
        want = ref.op_op_conv_slow(S, T, lat.points, lat.L)
        assert np.allclose(h.values, want, atol=1e-11), lat


def test_op_op_conv_commutative():
    rng = np.random.default_rng(67)
    lat = make_separable_lattice(3, 3, 9)
    S, T = random_operator(9, rng), random_operator(9, rng)
    lhs = op_op_conv(S, T, lat)
    rhs = op_op_conv(T, S, lat)
    assert np.allclose(lhs.values, rhs.values, atol=1e-11)


def test_op_op_conv_rank_one_is_stft_product():
    rng = np.random.default_rng(68)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    xi1, xi2 = random_signal(L, rng), random_signal(L, rng)
    phi1, phi2 = random_signal(L, rng), random_signal(L, rng)
    got = op_op_conv(
        rank_one(xi1, xi2),
        rank_one(parity_vector(phi1), parity_vector(phi2)),
        lat,
    )
    V1 = stft(xi1, phi2)
    V2 = stft(xi2, phi1)
    for p, v in zip(lat.points, got.values):
        assert abs(v - V1[p] * np.conj(V2[p])) < 1e-11


def test_op_op_conv_lower_symbol():
    rng = np.random.default_rng(69)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    S = random_operator(L, rng)
    phi1, phi2 = random_signal(L, rng), random_signal(L, rng)
    got = op_op_conv(S, rank_one(parity_vector(phi1), parity_vector(phi2)), lat)
    for p, v in zip(lat.points, got.values):
        U = tf_shift(p, L)
        want = np.vdot(U @ phi2, S @ (U @ phi1))
        assert abs(v - want) < 1e-11


def test_op_op_conv_restriction_consistency():
    rng = np.random.default_rng(70)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    full = make_separable_lattice(1, 1, L)
    S, T = random_operator(L, rng), random_operator(L, rng)
    on_lattice = op_op_conv(S, T, lat)
    on_full = op_op_conv(S, T, full)
    for p in lat.points:
        assert abs(on_lattice.value_at(p) - on_full.value_at(p)) < 1e-11


def test_adjoint_relation_exhaustive():
    rng = np.random.default_rng(71)
    for L, a, b in ((5, 1, 5), (9, 3, 3)):
        lat = make_separable_lattice(a, b, L)
        S, T = random_operator(L, rng), random_operator(L, rng)
        h = op_op_conv(T, checked_star(S), lat)
        for p in lat.points:
            assert abs(hs_inner(T, translate(S, p)) - h.value_at(p)) < 1e-11


def test_duality_bracket():
    rng = np.random.default_rng(72)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    c = random_sequence(lat, rng)
    S, R = random_operator(L, rng), random_operator(L, rng)
    lhs = hs_inner(seq_op_conv(c, S), R)
    d = op_op_conv(R, checked_star(S), lat)
    rhs = np.sum(c.values * np.conj(d.values))
    assert abs(lhs - rhs) < 1e-11


# -- sequence * sequence -----------------------------------------------------


def test_seq_seq_conv_delta_is_unit():
    rng = np.random.default_rng(73)
    lat = make_separable_lattice(3, 3, 9)
    c = random_sequence(lat, rng)
    out = seq_seq_conv(c, delta_sequence(lat))
    assert np.allclose(out.values, c.values, atol=1e-13)


def test_seq_seq_conv_of_deltas_adds_points():
    lat = make_separable_lattice(3, 3, 9)
    mu, nu = (3, 6), (6, 6)
    dmu = LatticeSequence(lat, np.zeros(lat.size, dtype=np.complex128))
    dmu.values[lat.index[mu]] = 1.0
    dnu = LatticeSequence(lat, np.zeros(lat.size, dtype=np.complex128))
    dnu.values[lat.index[nu]] = 1.0
    out = seq_seq_conv(dmu, dnu)
    target = ((mu[0] + nu[0]) % 9, (mu[1] + nu[1]) % 9)
    for p in lat.points:
        assert abs(out.value_at(p) - (1.0 if p == target else 0.0)) < 1e-13


def test_seq_seq_conv_commutative_associative():
    rng = np.random.default_rng(74)
    lat = make_separable_lattice(3, 3, 9)
    c, d, e = (random_sequence(lat, rng) for _ in range(3))
    assert np.allclose(seq_seq_conv(c, d).values, seq_seq_conv(d, c).values, atol=1e-12)
    lhs = seq_seq_conv(seq_seq_conv(c, d), e)
    rhs = seq_seq_conv(c, seq_seq_conv(d, e))
    assert np.allclose(lhs.values, rhs.values, atol=1e-11)


def test_seq_seq_conv_matches_bruteforce():
    rng = np.random.default_rng(75)
    for lat in ORACLE_LATTICES:
        c, d = random_sequence(lat, rng), random_sequence(lat, rng)
        want = ref.seq_seq_conv_slow(lat.points, c.values, d.values, lat.L)
        assert np.allclose(seq_seq_conv(c, d).values, want, atol=1e-11), lat


def test_seq_seq_conv_checks_lattice():
    rng = np.random.default_rng(76)
    c = random_sequence(make_separable_lattice(3, 3, 9), rng)
    d = random_sequence(make_separable_lattice(3, 1, 9), rng)
    with pytest.raises(LatticeMismatchError):
        seq_seq_conv(c, d)


# -- Gabor multipliers -------------------------------------------------------


def test_gabor_multiplier_delta_mask_is_rank_one():
    rng = np.random.default_rng(77)
    lat = make_separable_lattice(3, 3, 9)
    phi, xi = random_signal(9, rng), random_signal(9, rng)
    G = gabor_multiplier(delta_sequence(lat), phi, xi)
    assert np.allclose(G, rank_one(xi, phi), atol=1e-13)


def test_gabor_multiplier_matrix_equals_action():
    rng = np.random.default_rng(78)
    L = 15
    lat = make_separable_lattice(3, 5, L)
    m = random_sequence(lat, rng)
    phi, xi = random_signal(L, rng), random_signal(L, rng)
    G = gabor_multiplier(m, phi, xi)
    for _ in range(10):
        psi = random_signal(L, rng)
        V = stft(psi, phi)
        acted = np.zeros(L, dtype=np.complex128)
        for p, mv in zip(lat.points, m.values):
            acted += mv * V[p] * (tf_shift(p, L) @ xi)
        assert np.max(np.abs(G @ psi - acted)) < 1e-11


def test_gabor_multiplier_real_mask_self_adjoint():
    rng = np.random.default_rng(79)
    lat = make_separable_lattice(3, 3, 9)
    m = LatticeSequence(lat, rng.standard_normal(lat.size).astype(np.complex128))
    phi = random_signal(9, rng)
    G = gabor_multiplier(m, phi)
    assert np.max(np.abs(G - G.conj().T)) < 1e-12


def test_gabor_multiplier_reproduces_spectrogram_diagonal():
    rng = np.random.default_rng(80)
    lat = make_separable_lattice(3, 3, 9)
    xi, phi = random_signal(9, rng), random_signal(9, rng)
    samples = spectrogram_samples(xi, phi, lat)
    direct = op_op_conv(rank_one(xi, xi), checked_star(rank_one(phi, phi)), lat)
    assert np.allclose(samples.values, direct.values, atol=1e-11)


# -- associativity -----------------------------------------------------------


def test_associativity_delta_mask_reduces_to_plain_convolution():
    rng = np.random.default_rng(81)
    lat = make_separable_lattice(3, 3, 9)
    S, T = random_operator(9, rng), random_operator(9, rng)
    d = delta_sequence(lat)
    lhs = op_op_conv(seq_op_conv(d, S), T, lat)
    rhs = seq_seq_conv(d, op_op_conv(S, T, lat))
    base = op_op_conv(S, T, lat)
    assert np.allclose(lhs.values, base.values, atol=1e-12)
    assert np.allclose(rhs.values, base.values, atol=1e-12)


def test_mixed_associativity_random():
    rng = np.random.default_rng(82)
    lat = make_separable_lattice(3, 3, 9)
    c = random_sequence(lat, rng)
    S, T = random_operator(9, rng), random_operator(9, rng)
    lhs = op_op_conv(seq_op_conv(c, S), T, lat)
    rhs = seq_seq_conv(c, op_op_conv(S, T, lat))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11
    assert mixed_associativity_defect(c, S, T) < 1e-11


def test_module_associativity_random():
    rng = np.random.default_rng(83)
    lat = make_separable_lattice(5, 5, 15)
    c, d = random_sequence(lat, rng), random_sequence(lat, rng)
    T = random_operator(15, rng)
    lhs = seq_op_conv(seq_seq_conv(c, d), T)
    rhs = seq_op_conv(c, seq_op_conv(d, T))
    assert np.max(np.abs(lhs - rhs)) < 1e-11
    assert module_associativity_defect(c, d, T) < 1e-11


# -- synthesis map -----------------------------------------------------------


def test_synthesis_map_columns_are_translates():
    rng = np.random.default_rng(84)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    D = synthesis_map(S, lat)
    assert D.matrix.shape == (81, lat.size)
    for j, p in enumerate(lat.points):
        assert np.allclose(D.matrix[:, j], translate(S, p).reshape(-1), atol=1e-13)


def test_synthesis_map_applies_like_seq_op_conv():
    rng = np.random.default_rng(85)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    c = random_sequence(lat, rng)
    via_matrix = (synthesis_map(S, lat).matrix @ c.values).reshape(9, 9)
    assert np.allclose(via_matrix, seq_op_conv(c, S), atol=1e-11)


# -- Fourier identity providers ----------------------------------------------


def test_fw_of_seq_op_conv_delta_mask():
    rng = np.random.default_rng(86)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    assert np.allclose(fw_of_seq_op_conv(delta_sequence(lat), S), fourier_wigner(S), atol=1e-12)


def test_fw_of_seq_op_conv_matches_direct_path():
    rng = np.random.default_rng(87)
    lat = make_separable_lattice(3, 3, 9)
    c = random_sequence(lat, rng)
    S = random_operator(9, rng)
    lhs = fw_of_seq_op_conv(c, S)
    rhs = fourier_wigner(seq_op_conv(c, S))
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_fw_of_seq_op_conv_full_lattice_ones_mask():
    # summing all translates collapses the spreading support to the
    # origin, leaving L^2 tr(S) at (0, 0)
    rng = np.random.default_rng(88)
    L = 9
    lat = make_separable_lattice(1, 1, L)
    S = random_operator(L, rng)
    grid = fw_of_seq_op_conv(ones_sequence(lat), S)
    want = np.zeros((L, L), dtype=np.complex128)
    want[0, 0] = L * L * np.trace(S)
    assert np.max(np.abs(grid - want)) < 1e-9


def test_fs_of_op_op_conv_identity_on_full_lattice():
    L = 5
    lat = make_separable_lattice(1, 1, L)
    F = fs_of_op_op_conv(np.eye(L), np.eye(L), lat)
    for rep, val in zip(F.quotient.reps, F.values):
        want = L**3 if rep == (0, 0) else 0.0
        assert abs(val - want) < 1e-10


def test_fs_of_op_op_conv_equals_series_of_convolution():
    rng = np.random.default_rng(89)
    lat = make_separable_lattice(3, 5, 15)
    S, T = random_operator(15, rng), random_operator(15, rng)
    lhs = fs_of_op_op_conv(S, T, lat)
    rhs = symplectic_fourier_series(op_op_conv(S, T, lat))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9


def test_fs_of_op_op_conv_is_periodized_product():
    rng = np.random.default_rng(90)
    lat = make_separable_lattice(3, 3, 9)
    S, T = random_operator(9, rng), random_operator(9, rng)
    lhs = fs_of_op_op_conv(S, T, lat)
    rhs = periodize(fourier_wigner(S) * fourier_wigner(T), adjoint_lattice(lat))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_fundamental_identity_of_gabor_analysis():
    rng = np.random.default_rng(91)
    L = 15
    lat = make_separable_lattice(3, 5, L)
    adj = adjoint_lattice(lat)
    kappa = lat.size / L
    for _ in range(5):
        xi1, xi2 = random_signal(L, rng), random_signal(L, rng)
        phi1, phi2 = random_signal(L, rng), random_signal(L, rng)
        lhs = sum(
            stft(xi1, phi2)[p] * np.conj(stft(xi2, phi1)[p]) for p in lat.points
        )
        rhs = kappa * sum(
            stft(xi1, xi2)[p] * np.conj(stft(phi2, phi1)[p]) for p in adj.points
        )
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_fs_of_op_op_conv_gram_symbol_is_nonnegative():
    rng = np.random.default_rng(92)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    F = fs_of_op_op_conv(S, checked_star(S), lat)
    assert np.max(np.abs(F.values.imag)) < 1e-10
    assert F.values.real.min() > -1e-10


def test_lifted_quotient_product_structure():
    rng = np.random.default_rng(93)
    lat = make_separable_lattice(3, 3, 9)
    c = random_sequence(lat, rng)
    S = random_operator(9, rng)
    grid = lift_quotient_function(symplectic_fourier_series(c))
    assert np.allclose(grid * fourier_wigner(S), fw_of_seq_op_conv(c, S), atol=1e-11)
