"""Dense operators: shifts, translation, parity, traces, Schatten norms."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    NonFiniteError,
    BadExponentError,
    DimensionMismatchError,
    hs_inner,
    hs_norm,
    operator_rank,
    parity_conjugate,
    rank_one,
    schatten_norm,
    tf_shift,
    translate,
    weyl_symbol,
)
from qhal.operators import as_operator, as_signal, random_operator, random_signal

import reference as ref


def basis_vector(t, L):
    e = np.zeros(L, dtype=np.complex128)
    e[t] = 1.0
    return e


# -- time-frequency shifts ---------------------------------------------------


def test_tf_shift_zero_is_identity():
    assert np.array_equal(tf_shift((0, 0), 6), np.eye(6))


def test_tf_shift_pure_translation():
    U = tf_shift((1, 0), 3)
    assert np.allclose(U @ basis_vector(0, 3), basis_vector(1, 3))
    assert np.allclose(U @ basis_vector(2, 3), basis_vector(0, 3))


def test_tf_shift_matches_bruteforce():
    rng = np.random.default_rng(3)
    for L in (2, 3, 5, 8, 9):
        for _ in range(5):
            m, n = rng.integers(0, L, 2)
            assert np.allclose(tf_shift((m, n), L), ref.shift_matrix(m, n, L), atol=1e-14)


def test_tf_shift_unitary():
    for L in (3, 4, 7):
        for m in range(L):
            for n in range(L):
                U = tf_shift((m, n), L)
                assert np.allclose(U @ U.conj().T, np.eye(L), atol=1e-13)


def test_tf_shift_commutation_phase_example():
    L = 5
    lhs = tf_shift((1, 0), L) @ tf_shift((0, 1), L)
    rhs = np.exp(-2j * np.pi / L) * tf_shift((1, 1), L)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_tf_shift_composition_law_exhaustive():
    L = 5
    for zm in range(L):
        for zn in range(L):
            for wm in range(L):
                for wn in range(L):
                    lhs = tf_shift((zm, zn), L) @ tf_shift((wm, wn), L)
                    phase = np.exp(-2j * np.pi * wn * zm / L)
                    rhs = phase * tf_shift(((zm + wm) % L, (zn + wn) % L), L)
                    assert np.allclose(lhs, rhs, atol=1e-12)


# -- operator translation ----------------------------------------------------


def test_translate_by_zero_is_identity_map():
    rng = np.random.default_rng(0)
    S = random_operator(7, rng)
    assert np.array_equal(translate(S, (0, 0)), S)


def test_translate_fixes_identity():
    for z in ((1, 0), (0, 1), (2, 5)):
        assert np.allclose(translate(np.eye(7), z), np.eye(7), atol=1e-13)


def test_translate_rank_one_example():
    out = translate(rank_one(basis_vector(0, 3), basis_vector(0, 3)), (1, 0))
    want = rank_one(basis_vector(1, 3), basis_vector(1, 3))
    assert np.allclose(out, want, atol=1e-13)


def test_translate_is_conjugation_by_shift():
    rng = np.random.default_rng(21)
    for L in (5, 9):
        S = random_operator(L, rng)
        for _ in range(6):
            m, n = rng.integers(0, L, 2)
            U = tf_shift((m, n), L)
            assert np.allclose(translate(S, (m, n)), U @ S @ U.conj().T, atol=1e-12)
            assert np.allclose(translate(S, (m, n)), ref.translate_slow(S, m, n, L), atol=1e-12)


def test_translate_group_law():
    rng = np.random.default_rng(8)
    L = 9
    S = random_operator(L, rng)
    for _ in range(10):
        z, w = (tuple(rng.integers(0, L, 2)) for _ in range(2))
        lhs = translate(translate(S, w), z)
        rhs = translate(S, ((z[0] + w[0]) % L, (z[1] + w[1]) % L))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_translate_schatten_isometry_and_star_homomorphism():
    rng = np.random.default_rng(13)
    L = 8
    S = random_operator(L, rng)
    for z in ((1, 2), (5, 7), (3, 0)):
        T = translate(S, z)
        for p in (1, 2, np.inf):
            assert abs(schatten_norm(T, p) - schatten_norm(S, p)) < 1e-10
        assert np.allclose(translate(S.conj().T, z), T.conj().T, atol=1e-12)


# -- parity conjugation ------------------------------------------------------


def test_parity_fixes_identity():
    assert np.allclose(parity_conjugate(np.eye(5)), np.eye(5))


def test_parity_is_involutive():
    rng = np.random.default_rng(2)
    S = random_operator(6, rng)
    assert np.allclose(parity_conjugate(parity_conjugate(S)), S, atol=1e-14)


def test_parity_reverses_shifts():
    L = 5
    out = parity_conjugate(tf_shift((1, 2), L))
    want = tf_shift((-1 % L, -2 % L), L)
    assert np.allclose(out, want, atol=1e-13)


def test_parity_commutes_with_adjoint():
    rng = np.random.default_rng(4)
    S = random_operator(7, rng)
    assert np.allclose(
        parity_conjugate(S.conj().T), parity_conjugate(S).conj().T, atol=1e-14
    )


def test_parity_matches_bruteforce():
    rng = np.random.default_rng(6)
    for L in (3, 4, 7):
        S = random_operator(L, rng)
        assert np.allclose(parity_conjugate(S), ref.parity_slow(S, L), atol=1e-14)


# -- rank-one operators and the HS structure ---------------------------------


def test_rank_one_matrix_example():
    out = rank_one(basis_vector(0, 2), basis_vector(0, 2))
    assert np.array_equal(out, np.array([[1, 0], [0, 0]]))


def test_rank_one_trace_is_inner_product():
    xi = np.array([1, 1j, 0], dtype=np.complex128)
    phi = np.array([0, 1, 1], dtype=np.complex128)
    assert np.isclose(np.trace(rank_one(xi, phi)), 1j)


def test_rank_one_projector_is_psd():
    rng = np.random.default_rng(9)
    xi = random_signal(6, rng)
    eigs = np.linalg.eigvalsh(rank_one(xi, xi))
    assert eigs.min() >= -1e-12


def test_hs_inner_identity():
    for L in (3, 5, 8):
        assert hs_inner(np.eye(L), np.eye(L)) == L


def test_hs_inner_shift_orthogonality_all_pairs():
    L = 5
    for zm in range(L):
        for zn in range(L):
            U = tf_shift((zm, zn), L)
            for wm in range(L):
                for wn in range(L):
                    val = hs_inner(U, tf_shift((wm, wn), L))
                    want = L if (zm, zn) == (wm, wn) else 0.0
                    assert abs(val - want) < 1e-12


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(10)
    S, T = random_operator(6, rng), random_operator(6, rng)
    assert np.isclose(hs_inner(S, T), np.conj(hs_inner(T, S)))
    assert hs_inner(S, S).real > 0
    assert abs(hs_inner(S, S).imag) < 1e-12


def test_shift_basis_is_orthonormal_after_scaling():
    for L in range(2, 8):
        shifts = [tf_shift((m, n), L) / np.sqrt(L) for m in range(L) for n in range(L)]
        gram = np.array([[hs_inner(A, B) for B in shifts] for A in shifts])
        assert np.allclose(gram, np.eye(L * L), atol=1e-12)


# -- Schatten norms ----------------------------------------------------------


def test_schatten_identity_trace_norm():
    assert np.isclose(schatten_norm(np.eye(6), 1), 6.0)


def test_schatten_rank_one_all_exponents():
    rng = np.random.default_rng(12)
    xi, phi = random_signal(7, rng), random_signal(7, rng)
    want = np.linalg.norm(xi) * np.linalg.norm(phi)
    for p in (1, 1.5, 2, 3, np.inf):
        assert abs(schatten_norm(rank_one(xi, phi), p) - want) < 1e-10


def test_schatten_two_is_hs_norm():
    rng = np.random.default_rng(14)
    S = random_operator(9, rng)
    assert np.isclose(schatten_norm(S, 2) ** 2, hs_inner(S, S).real)
    assert np.isclose(hs_norm(S), schatten_norm(S, 2))


def test_schatten_monotone_in_exponent():
    rng = np.random.default_rng(15)
    S = random_operator(8, rng)
    ps = (1, 1.5, 2, 4, 8, np.inf)
    norms = [schatten_norm(S, p) for p in ps]
    for lo, hi in zip(norms, norms[1:]):
        assert lo >= hi - 1e-12


def test_schatten_rejects_small_exponent():
    with pytest.raises(BadExponentError):
        schatten_norm(np.eye(3), 0.5)


def test_singular_values_match_eigenvalues_of_gram():
    rng = np.random.default_rng(16)
    S = random_operator(7, rng)
    sing = np.linalg.svd(S, compute_uv=False)
    eig = np.sqrt(np.maximum(np.linalg.eigvalsh(S.conj().T @ S), 0.0))[::-1]
    assert np.allclose(sing, eig, rtol=1e-9)


def test_operator_rank():
    rng = np.random.default_rng(17)
    xi, phi = random_signal(6, rng), random_signal(6, rng)
    assert operator_rank(rank_one(xi, phi)) == 1
    assert operator_rank(np.zeros((6, 6))) == 0
    assert operator_rank(random_operator(6, rng)) == 6


# -- Weyl symbols ------------------------------------------------------------


def test_weyl_symbol_of_identity_is_constant_one():
    for L in (5, 9):
        assert np.allclose(weyl_symbol(np.eye(L)), np.ones((L, L)), atol=1e-12)


def test_weyl_symbol_translation_covariance():
    rng = np.random.default_rng(18)
    L = 9
    S = random_operator(L, rng)
    lam = (3, 6)
    shifted = weyl_symbol(translate(S, lam))
    rolled = np.roll(weyl_symbol(S), lam, axis=(0, 1))
    assert np.allclose(shifted, rolled, atol=1e-11)


def test_weyl_transform_preserves_hs_inner_up_to_scale():
    rng = np.random.default_rng(19)
    for L in (5, 9):
        S, T = random_operator(L, rng), random_operator(L, rng)
        lhs = hs_inner(S, T)
        rhs = np.sum(weyl_symbol(S) * np.conj(weyl_symbol(T))) / L
        assert abs(lhs - rhs) < 1e-10


# -- input adapters ----------------------------------------------------------


def test_as_operator_checks_shape():
    with pytest.raises(DimensionMismatchError):
        as_operator(np.ones((3, 4)))
    with pytest.raises(DimensionMismatchError):
        as_operator(np.ones((3, 3)), L=4)
    assert as_operator(np.eye(3)).dtype == np.complex128


def test_as_signal_checks_shape():
    with pytest.raises(DimensionMismatchError):
        as_signal(np.ones((3, 3)))
    with pytest.raises(DimensionMismatchError):
        as_signal(np.ones(3), L=5)
    assert as_signal([1, 2, 3]).dtype == np.complex128


def test_adapters_reject_non_finite_entries():
    S = np.eye(3, dtype=np.complex128)
    S[1, 2] = np.nan
    with pytest.raises(NonFiniteError):
        as_operator(S)
    with pytest.raises(NonFiniteError):
        as_signal([1.0, np.inf, 0.0])
    with pytest.raises(NonFiniteError):
        as_signal([1.0, complex(0.0, -np.inf), 0.0])


def test_rank_one_checks_lengths():
    with pytest.raises(DimensionMismatchError):
        rank_one(np.ones(3), np.ones(4))


def test_hs_inner_checks_dims():
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.eye(3), np.eye(4))
