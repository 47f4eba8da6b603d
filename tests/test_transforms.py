"""Fourier-type maps: STFT, symplectic DFT, Fourier-Wigner, series, periodization."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    EvenDimensionError,
    LatticeMismatchError,
    LatticeSequence,
    QuotientFunction,
    adjoint_lattice,
    delta_sequence,
    fourier_wigner,
    half_mod,
    inverse_fourier_wigner,
    inverse_symplectic_fourier_series,
    lift_quotient_function,
    make_general_lattice,
    make_separable_lattice,
    ones_sequence,
    op_op_conv,
    parity_conjugate,
    periodize,
    quotient_reps,
    random_sequence,
    rank_one,
    seq_seq_conv,
    spectrogram_samples,
    stft,
    symplectic_dft,
    symplectic_form,
    symplectic_fourier_series,
    tf_shift,
    translate,
)
from qhal.operators import hs_inner, random_operator, random_signal

import reference as ref


# separable, general and even-L lattices for the oracle comparisons
ORACLE_LATTICES = (
    make_separable_lattice(5, 3, 15),
    make_general_lattice([(3, 1)], 15),
    make_general_lattice([(1, 2)], 15),
    make_separable_lattice(2, 4, 8),
    make_general_lattice([(2, 3)], 12),
)


def basis_vector(t, L):
    e = np.zeros(L, dtype=np.complex128)
    e[t] = 1.0
    return e


def character_grid(lam, L):
    """chi_lam(z) = exp(2 pi i sigma(lam, z) / L) over the full grid."""
    out = np.empty((L, L), dtype=np.complex128)
    for m in range(L):
        for n in range(L):
            out[m, n] = np.exp(2j * np.pi * symplectic_form(lam, (m, n), L) / L)
    return out


# -- half phase --------------------------------------------------------------


def test_half_mod_inverts_two():
    for L in (3, 5, 9, 15):
        assert (2 * half_mod(L)) % L == 1


def test_half_mod_rejects_even():
    with pytest.raises(EvenDimensionError):
        half_mod(4)


# -- STFT and spectrograms ---------------------------------------------------


def test_stft_delta_window_table():
    V = stft(basis_vector(0, 3), basis_vector(0, 3))
    for m in range(3):
        for n in range(3):
            assert abs(V[m, n] - (1.0 if m == 0 else 0.0)) < 1e-14


def test_stft_at_origin_is_inner_product():
    rng = np.random.default_rng(30)
    psi, phi = random_signal(7, rng), random_signal(7, rng)
    assert np.isclose(stft(psi, phi)[0, 0], np.vdot(phi, psi))


def test_stft_matches_bruteforce():
    rng = np.random.default_rng(31)
    for L in (3, 5, 8):
        psi, phi = random_signal(L, rng), random_signal(L, rng)
        assert np.allclose(stft(psi, phi), ref.stft_slow(psi, phi, L), atol=1e-12)


def test_moyal_identity():
    rng = np.random.default_rng(32)
    L = 7
    psi1, psi2 = random_signal(L, rng), random_signal(L, rng)
    phi1, phi2 = random_signal(L, rng), random_signal(L, rng)
    lhs = np.sum(stft(psi1, phi1) * np.conj(stft(psi2, phi2)))
    rhs = L * np.vdot(psi2, psi1) * np.conj(np.vdot(phi2, phi1))
    assert abs(lhs - rhs) < 1e-10


def test_spectrogram_samples_delta_case():
    lat = make_separable_lattice(3, 3, 9)
    e0 = basis_vector(0, 9)
    samples = spectrogram_samples(e0, e0, lat)
    for m, n in lat.points:
        want = 1.0 if m == 0 else 0.0
        assert abs(samples.value_at((m, n)) - want) < 1e-13


def test_spectrogram_samples_nonnegative():
    rng = np.random.default_rng(33)
    lat = make_separable_lattice(3, 5, 15)
    xi, phi = random_signal(15, rng), random_signal(15, rng)
    samples = spectrogram_samples(xi, phi, lat)
    assert np.all(np.abs(samples.values.imag) < 1e-12)
    assert np.all(samples.values.real >= 0)


def test_spectrogram_samples_equal_rank_one_convolution():
    rng = np.random.default_rng(34)
    lat = make_separable_lattice(3, 3, 9)
    xi, phi = random_signal(9, rng), random_signal(9, rng)
    direct = spectrogram_samples(xi, phi, lat)
    via_conv = op_op_conv(
        rank_one(xi, xi), parity_conjugate(rank_one(phi, phi)), lat
    )
    assert np.allclose(direct.values, via_conv.values, atol=1e-11)


# -- symplectic DFT ----------------------------------------------------------


def test_symplectic_dft_of_point_mass():
    L = 5
    f = np.zeros((L, L), dtype=np.complex128)
    f[0, 0] = 1.0
    assert np.allclose(symplectic_dft(f), np.full((L, L), 1.0 / L), atol=1e-13)


def test_symplectic_dft_of_constant():
    L = 5
    out = symplectic_dft(np.ones((L, L), dtype=np.complex128))
    want = np.zeros((L, L))
    want[0, 0] = L
    assert np.allclose(out, want, atol=1e-12)


def test_symplectic_dft_involution():
    rng = np.random.default_rng(35)
    L = 9
    f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    assert np.max(np.abs(symplectic_dft(symplectic_dft(f)) - f)) < 1e-12


def test_symplectic_dft_matches_bruteforce():
    rng = np.random.default_rng(36)
    for L in (3, 4, 5):
        f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        assert np.allclose(symplectic_dft(f), ref.symplectic_dft_slow(f, L), atol=1e-12)


def test_symplectic_dft_plancherel():
    rng = np.random.default_rng(37)
    L = 7
    f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    assert np.isclose(np.sum(np.abs(symplectic_dft(f)) ** 2), np.sum(np.abs(f) ** 2))


# -- Fourier-Wigner transform ------------------------------------------------


def test_fourier_wigner_of_identity():
    L = 5
    want = np.zeros((L, L))
    want[0, 0] = L
    assert np.allclose(fourier_wigner(np.eye(L)), want, atol=1e-12)


def test_fourier_wigner_rank_one_delta_case():
    F = fourier_wigner(rank_one(basis_vector(0, 3), basis_vector(0, 3)))
    for m in range(3):
        for n in range(3):
            assert abs(F[m, n] - (1.0 if m == 0 else 0.0)) < 1e-13


def test_fourier_wigner_rejects_even_dimension():
    with pytest.raises(EvenDimensionError):
        fourier_wigner(np.eye(4))
    with pytest.raises(EvenDimensionError):
        inverse_fourier_wigner(np.zeros((4, 4)))


def test_fourier_wigner_matches_bruteforce():
    rng = np.random.default_rng(38)
    for L in (3, 5, 9):
        S = random_operator(L, rng)
        assert np.allclose(fourier_wigner(S), ref.fourier_wigner_slow(S, L), atol=1e-11)


def test_fourier_wigner_modulation_law_example():
    rng = np.random.default_rng(39)
    L = 5
    S = random_operator(L, rng)
    lam = (2, 3)
    lhs = fourier_wigner(translate(S, lam))
    rhs = character_grid(lam, L) * fourier_wigner(S)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_fourier_wigner_modulation_law_exhaustive():
    rng = np.random.default_rng(40)
    for L in (3, 5, 7, 9):
        S = random_operator(L, rng)
        F = fourier_wigner(S)
        for lm in range(L):
            for ln in range(L):
                lhs = fourier_wigner(translate(S, (lm, ln)))
                assert np.max(np.abs(lhs - character_grid((lm, ln), L) * F)) < 1e-11


def test_fourier_wigner_conjugation_law():
    rng = np.random.default_rng(41)
    L = 9
    S = random_operator(L, rng)
    lhs = fourier_wigner(parity_conjugate(S.conj().T))
    assert np.allclose(lhs, np.conj(fourier_wigner(S)), atol=1e-12)


def test_fourier_wigner_of_rank_one_is_phased_stft():
    rng = np.random.default_rng(42)
    L = 7
    s = half_mod(L)
    psi, phi = random_signal(L, rng), random_signal(L, rng)
    F = fourier_wigner(rank_one(psi, phi))
    V = stft(psi, phi)
    mn = np.outer(np.arange(L), np.arange(L))
    phase = np.exp(2j * np.pi * s * mn / L)
    assert np.allclose(F, phase * V, atol=1e-12)


def test_fourier_wigner_plancherel():
    rng = np.random.default_rng(43)
    for L in (5, 9):
        S, T = random_operator(L, rng), random_operator(L, rng)
        lhs = hs_inner(S, T)
        rhs = np.sum(fourier_wigner(S) * np.conj(fourier_wigner(T))) / L
        assert abs(lhs - rhs) < 1e-10


def test_inverse_fourier_wigner_of_point_mass():
    L = 7
    F = np.zeros((L, L), dtype=np.complex128)
    F[0, 0] = L
    assert np.allclose(inverse_fourier_wigner(F), np.eye(L), atol=1e-12)


def test_fourier_wigner_round_trip():
    rng = np.random.default_rng(44)
    for L in (5, 9, 15):
        S = random_operator(L, rng)
        assert np.max(np.abs(inverse_fourier_wigner(fourier_wigner(S)) - S)) < 1e-11
        F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        assert np.max(np.abs(fourier_wigner(inverse_fourier_wigner(F)) - F)) < 1e-11


def test_phases_are_reduced_mod_L_at_large_L():
    # FW(pi(z)) is the point mass L exp(2 pi i (h m n mod L) / L) at z;
    # forming the angle from the unreduced product h m n (about 6e6 here)
    # loses about 1e-11
    L = 225
    h = half_mod(L)
    for m, n in ((224, 223), (113, 200)):
        want = np.zeros((L, L), dtype=np.complex128)
        want[m, n] = L * np.exp(2j * np.pi * ((h * m * n) % L) / L)
        shift = tf_shift((m, n), L)
        assert np.max(np.abs(fourier_wigner(shift) - want)) < 1e-13 * L
        assert np.max(np.abs(inverse_fourier_wigner(want) - shift)) < 1e-13


def test_inverse_fourier_wigner_matches_bruteforce():
    rng = np.random.default_rng(45)
    L = 5
    F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    assert np.allclose(
        inverse_fourier_wigner(F), ref.inverse_fourier_wigner_slow(F, L), atol=1e-12
    )


def test_inverse_fourier_wigner_linear():
    rng = np.random.default_rng(46)
    L = 9
    F = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    G = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    a, b = 2.0 - 1j, 0.5 + 3j
    lhs = inverse_fourier_wigner(a * F + b * G)
    rhs = a * inverse_fourier_wigner(F) + b * inverse_fourier_wigner(G)
    assert np.allclose(lhs, rhs, atol=1e-11)


# -- symplectic Fourier series over a lattice --------------------------------


def test_series_of_delta_is_constant_one():
    lat = make_separable_lattice(3, 3, 9)
    F = symplectic_fourier_series(delta_sequence(lat))
    assert np.allclose(F.values, 1.0, atol=1e-13)


def test_series_of_ones_is_point_mass():
    lat = make_separable_lattice(3, 3, 9)
    F = symplectic_fourier_series(ones_sequence(lat))
    for rep, val in zip(F.quotient.reps, F.values):
        want = lat.size if rep == (0, 0) else 0.0
        assert abs(val - want) < 1e-11


def test_series_convolution_theorem():
    rng = np.random.default_rng(47)
    lat = make_separable_lattice(3, 3, 9)
    c, d = random_sequence(lat, rng), random_sequence(lat, rng)
    lhs = symplectic_fourier_series(seq_seq_conv(c, d))
    rhs = symplectic_fourier_series(c).values * symplectic_fourier_series(d).values
    assert np.allclose(lhs.values, rhs, atol=1e-11)


def test_series_matches_bruteforce():
    rng = np.random.default_rng(48)
    for lat in ORACLE_LATTICES:
        c = random_sequence(lat, rng)
        F = symplectic_fourier_series(c)
        want = ref.series_slow(lat.points, c.values, F.quotient.reps, lat.L)
        assert np.allclose(F.values, want, atol=1e-11), lat
        back = inverse_symplectic_fourier_series(F, lat)
        assert np.allclose(back.values, c.values, atol=1e-12), lat


@pytest.mark.parametrize(
    "lat",
    [
        make_general_lattice([(3, 1)], 45),
        make_separable_lattice(3, 5, 105),
        make_general_lattice([(15, 1)], 225),
        make_general_lattice([(2, 3)], 12),
    ],
    ids=repr,
)
def test_series_at_scale_matches_placed_grid_dft(lat):
    """The N-point series kernel against L * symplectic_dft of the sequence
    placed on the grid, its inverse against the lifted DFT / L, and the
    round trip, all to 1e-12 relative."""
    rng = np.random.default_rng(52)
    L = lat.L
    c = random_sequence(lat, rng)
    F = symplectic_fourier_series(c)
    grid = np.zeros((L, L), dtype=np.complex128)
    grid[lat.coords] = c.values
    want = L * symplectic_dft(grid)[F.quotient.coords]
    assert np.max(np.abs(F.values - want)) < 1e-12 * np.max(np.abs(want))
    G = QuotientFunction(F.quotient, random_sequence(lat, rng).values)
    back = inverse_symplectic_fourier_series(G, lat)
    want = symplectic_dft(lift_quotient_function(G))[lat.coords] / L
    assert np.max(np.abs(back.values - want)) < 1e-12 * np.max(np.abs(want))
    back = inverse_symplectic_fourier_series(F, lat)
    assert np.max(np.abs(back.values - c.values)) < 1e-12 * np.max(np.abs(c.values))


def test_series_well_defined_on_cosets():
    # re-evaluating the character sum at a different coset representative
    # must give the same value
    rng = np.random.default_rng(49)
    lat = make_separable_lattice(3, 3, 9)
    adj = adjoint_lattice(lat)
    c = random_sequence(lat, rng)
    F = symplectic_fourier_series(c)
    for rep, val in zip(F.quotient.reps, F.values):
        for lam in adj.points[:3]:
            other = ((rep[0] + lam[0]) % 9, (rep[1] + lam[1]) % 9)
            resum = ref.series_slow(lat.points, c.values, [other], 9)[0]
            assert abs(resum - val) < 1e-11


def test_inverse_series_of_constant_is_delta():
    lat = make_separable_lattice(3, 5, 15)
    F = QuotientFunction(
        quotient_reps(adjoint_lattice(lat)), np.ones(lat.size, dtype=np.complex128)
    )
    c = inverse_symplectic_fourier_series(F, lat)
    for p, v in zip(lat.points, c.values):
        want = 1.0 if p == (0, 0) else 0.0
        assert abs(v - want) < 1e-12


def test_series_round_trip():
    rng = np.random.default_rng(50)
    lat = make_separable_lattice(5, 3, 15)
    c = random_sequence(lat, rng)
    back = inverse_symplectic_fourier_series(symplectic_fourier_series(c), lat)
    assert np.max(np.abs(back.values - c.values)) < 1e-12


def test_inverse_series_real_even_symbol_gives_hermitian_sequence():
    rng = np.random.default_rng(51)
    lat = make_separable_lattice(3, 3, 9)
    q = quotient_reps(adjoint_lattice(lat))
    vals = rng.standard_normal(len(q.reps))
    # symmetrize: F(-z) = F(z), keeping values real
    sym = vals.copy()
    for i, (m, n) in enumerate(q.reps):
        j = q.coset_index(((-m) % 9, (-n) % 9))
        sym[i] = 0.5 * (vals[i] + vals[j])
    for i, (m, n) in enumerate(q.reps):
        j = q.coset_index(((-m) % 9, (-n) % 9))
        assert np.isclose(sym[i], sym[j])
    c = inverse_symplectic_fourier_series(
        QuotientFunction(q, sym.astype(np.complex128)), lat
    )
    for m, n in lat.points:
        assert abs(c.value_at(((-m) % 9, (-n) % 9)) - np.conj(c.value_at((m, n)))) < 1e-12


def test_inverse_series_checks_quotient():
    lat = make_separable_lattice(3, 3, 9)
    other = make_separable_lattice(1, 1, 9)
    F = QuotientFunction(
        quotient_reps(adjoint_lattice(other)),
        np.ones(other.size, dtype=np.complex128),
    )
    with pytest.raises(LatticeMismatchError):
        inverse_symplectic_fourier_series(F, lat)


# -- periodization -----------------------------------------------------------


def test_periodize_over_trivial_adjoint_scales_by_L():
    # the adjoint of the full lattice is trivial, so each coset holds one
    # point and only the covolume factor L remains
    L = 5
    rng = np.random.default_rng(52)
    f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    out = periodize(f, make_separable_lattice(L, L, L))
    for rep, val in zip(out.quotient.reps, out.values):
        assert abs(val - L * f[rep]) < 1e-12


def test_periodize_of_constant():
    L = 15
    sub = make_separable_lattice(5, 5, L)
    lat = adjoint_lattice(sub)  # 3Z x 3Z, kappa = 25/15
    out = periodize(np.ones((L, L), dtype=np.complex128), sub)
    kappa = lat.size / L
    assert np.allclose(out.values, kappa * sub.size, atol=1e-11)


def test_periodize_matches_bruteforce():
    rng = np.random.default_rng(53)
    for lat in ORACLE_LATTICES:
        L = lat.L
        sub = adjoint_lattice(lat)
        f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        out = periodize(f, sub)
        want = ref.periodize_slow(f, sub.points, out.quotient.reps, L)
        assert np.allclose(out.values, want, atol=1e-11), lat


def test_poisson_summation_exact():
    # periodization of f over the adjoint equals the series of the
    # symplectic transform sampled on the lattice, with constant one
    rng = np.random.default_rng(54)
    for L, a, b in ((15, 3, 5), (9, 3, 3), (15, 5, 5)):
        lat = make_separable_lattice(a, b, L)
        sub = adjoint_lattice(lat)
        f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        lhs = periodize(f, sub)
        Fs = symplectic_dft(f)
        samples = LatticeSequence(lat, np.array([Fs[p] for p in lat.points]))
        rhs = symplectic_fourier_series(samples)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_lift_quotient_function_is_periodic():
    rng = np.random.default_rng(55)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    sub = adjoint_lattice(lat)
    c = random_sequence(lat, rng)
    F = symplectic_fourier_series(c)
    grid = lift_quotient_function(F)
    assert grid.shape == (L, L)
    for m in range(L):
        for n in range(L):
            assert grid[m, n] == F.value_at((m, n))
    for lam in sub.points:
        rolled = np.roll(grid, lam, axis=(0, 1))
        assert np.allclose(rolled, grid, atol=1e-13)
