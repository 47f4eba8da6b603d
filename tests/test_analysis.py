"""Structural diagnostics: Riesz bounds, duals, approximation, division."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    DivisionByZeroError,
    FullLatticeError,
    NonFiniteError,
    LatticeSequence,
    NotRieszError,
    QuotientFunction,
    SupportViolationError,
    adjoint_lattice,
    best_approximation,
    biorthogonal_generator,
    delta_sequence,
    fundamental_domain,
    gaussian_window,
    hs_inner,
    hs_norm,
    inverse_fourier_wigner,
    inverse_symplectic_fourier_series,
    make_general_lattice,
    make_separable_lattice,
    nonassociativity_witness,
    op_op_conv,
    quotient_reps,
    random_sequence,
    rank_one,
    recover_mask,
    riesz_report,
    schatten_norm,
    seq_op_conv,
    symplectic_fourier_series,
    synthesis_map,
    tauberian_diagnostics,
    tf_shift,
    translate,
    underspread_divide,
)
from qhal.analysis import SUPPORT_RTOL, ZERO_TOL, _checked_star
from qhal.operators import random_operator, random_signal
from qhal.transforms import _chirp, _spreading, _unspreading

import reference as ref


def rank_k_operator(L, k, rng):
    S = np.zeros((L, L), dtype=np.complex128)
    for _ in range(k):
        S += rank_one(random_signal(L, rng), random_signal(L, rng))
    return S


# -- Riesz reports -----------------------------------------------------------


def test_riesz_identity_on_full_lattice():
    L = 5
    lat = make_separable_lattice(1, 1, L)
    report = riesz_report(np.eye(L), lat)
    assert not report.is_riesz
    assert abs(report.lower) < 1e-10
    assert np.isclose(report.upper, L**3)
    assert len(report.zero_cosets) == L * L - 1
    eigs = np.sort(report.gram_eigenvalues)
    assert np.allclose(eigs[:-1], 0.0, atol=1e-9)
    assert np.isclose(eigs[-1], L**3)


def test_zero_tolerance_still_flags_exact_zeros():
    L = 5
    lat = make_separable_lattice(1, 1, L)
    report = riesz_report(np.eye(L), lat, zero_tol=0.0)
    assert len(report.zero_cosets) == L * L - 1
    with pytest.raises(NotRieszError):
        best_approximation(np.eye(L), np.eye(L), lat, zero_tol=0.0)


def test_invalid_zero_tolerance_is_rejected():
    L = 9
    lat = make_separable_lattice(3, 3, L)
    S = random_operator(L, np.random.default_rng(140))
    for tol in (np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match="zero_tol"):
            riesz_report(S, lat, zero_tol=tol)
        with pytest.raises(ValueError, match="zero_tol"):
            best_approximation(S, S, lat, zero_tol=tol)
        with pytest.raises(ValueError, match="zero_tol"):
            underspread_divide(S, S, lat, [(0, 0)], zero_tol=tol)


def test_chirp_builds_per_request(monkeypatch):
    """Analysis asks for the integer chirp only in op_op_conv and in the dual,
    never the half chirp: riesz 0 (its Gram spectrum is the symbol), approx
    0, recover 0, divide 0, biorthogonal 1.  The chirp is cached per L, so
    these are lookups, not builds."""
    import qhal.analysis
    import qhal.convolutions
    import qhal.transforms

    calls = []
    chirp = qhal.transforms._chirp

    def counting(L, k):
        calls.append(k)
        return chirp(L, k)

    for module in (qhal.transforms, qhal.convolutions, qhal.analysis):
        monkeypatch.setattr(module, "_chirp", counting)
    rng = np.random.default_rng(141)
    lattices = (make_separable_lattice(2, 4, 8), make_general_lattice([(3, 1)], 9))
    for lat in lattices:
        L = lat.L
        S, T = random_operator(L, rng), random_operator(L, rng)
        G = seq_op_conv(random_sequence(lat, rng), S)
        Su = tf_shift((0, 0), L)
        requests = (
            lambda: riesz_report(S, lat),
            lambda: best_approximation(T, S, lat),
            lambda: recover_mask(G, S, lat),
            lambda: underspread_divide(Su, T, lat, [(0, 0)]),
            lambda: biorthogonal_generator(S, lat),
        )
        counts = []
        for request in requests:
            start = len(calls)
            request()
            counts.append(len(calls) - start)
        assert counts == [0, 0, 0, 0, 1], L
    assert set(calls) == {1}


def test_riesz_gaussian_projector_is_riesz():
    L = 9
    lat = make_separable_lattice(3, 3, L)
    g = gaussian_window(L)
    report = riesz_report(rank_one(g, g), lat)
    assert report.is_riesz
    assert report.lower > 0
    assert report.upper >= report.lower


def test_riesz_report_bounds_are_symbol_extremes():
    rng = np.random.default_rng(100)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    report = riesz_report(S, lat)
    vals = report.symbol.values.real
    assert np.isclose(report.lower, vals.min())
    assert np.isclose(report.upper, vals.max())
    assert np.max(np.abs(report.symbol.values.imag)) < 1e-10


def test_riesz_scaling_homogeneity():
    rng = np.random.default_rng(101)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    one = riesz_report(S, lat)
    two = riesz_report(2.0 * S, lat)
    assert np.allclose(two.symbol.values, 4.0 * one.symbol.values, atol=1e-9)
    assert two.zero_cosets == one.zero_cosets
    assert np.isclose(two.lower, 4.0 * one.lower)
    assert np.isclose(two.upper, 4.0 * one.upper)


def test_gram_eigenvalues_match_symbol_multiset():
    rng = np.random.default_rng(102)
    for L, a, b in ((9, 3, 3), (15, 3, 5), (15, 5, 5)):
        lat = make_separable_lattice(a, b, L)
        S = random_operator(L, rng)
        report = riesz_report(S, lat)
        M = synthesis_map(S, lat).matrix  # the translates, not through the symbol
        eigs = np.linalg.eigvalsh(M.conj().T @ M)
        vals = np.sort(report.symbol.values.real)
        assert np.max(np.abs(eigs - vals)) < 1e-9 * max(1.0, vals.max())
        assert np.array_equal(report.gram_eigenvalues, vals)


def test_riesz_spectrum_at_L225_needs_no_dense_gram(monkeypatch):
    """N = 2025: the spectrum comes from the characters, so no N x N
    eigendecomposition runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram route taken")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    lat = make_separable_lattice(5, 5, 225)
    S = random_operator(225, np.random.default_rng(225))
    eigs = riesz_report(S, lat).gram_eigenvalues
    assert eigs.shape == (lat.size,)
    assert np.all(np.diff(eigs) >= 0)
    # trace(G) / N = g(0) = ||S||_HS^2
    assert abs(eigs.mean() - hs_norm(S) ** 2) < 1e-12 * hs_norm(S) ** 2


@pytest.mark.parametrize(
    "L, separable, shear",
    [
        (8, (2, 4), (2, 1)),
        (9, (3, 3), (3, 1)),
        (12, (2, 3), (2, 3)),
        (15, (3, 5), (3, 1)),
    ],
)
def test_checked_star_spreads_to_conjugate_chirp_times_spreading(L, separable, shear):
    """V(checked(S*)) = conj(chi V(S)) pointwise, so the series of the Gram
    kernel S conv checked(S*), periodize(chi V(S) V(checked(S*))), is the
    symbol periodize(|V(S)|^2): the reason riesz_report takes its spectrum
    from the symbol."""
    S = random_operator(L, np.random.default_rng(150 + L))
    VS = _spreading(S)
    want = np.conj(_chirp(L, 1) * VS)
    deviation = np.max(np.abs(_spreading(_checked_star(S)) - want))
    assert deviation <= 1e-13 * np.abs(VS).max()
    sheared = make_general_lattice([shear], L)
    assert sheared.c != 0
    for lat in (make_separable_lattice(*separable, L), sheared):
        kernel = op_op_conv(S, _checked_star(S), lat)
        series = symplectic_fourier_series(kernel).values
        symbol = riesz_report(S, lat).symbol.values
        assert np.max(np.abs(series - symbol)) <= 1e-13 * symbol.real.max(), lat


def _masked_coset_operator(L, lattice, hole, rng):
    """A generator whose spreading function vanishes on one adjoint coset."""
    grid = np.exp(1j * rng.uniform(0, 2 * np.pi, (L, L))) * (1.0 + rng.random((L, L)))
    rows, cols = adjoint_lattice(lattice).coords
    grid[(rows + hole[0]) % L, (cols + hole[1]) % L] = 0.0
    return _unspreading(grid)


@pytest.mark.parametrize(
    "case", ["3Z x 5Z at L = 105", "gens=15,1 at L = 225", "masked"]
)
def test_gram_eigenvalues_match_the_series_of_the_gram_kernel(case):
    """The sorted symbol equals the route riesz_report no longer takes: the
    series of S conv checked(S*) through op_op_conv, to 1e-12 of B."""
    rng = np.random.default_rng(151)
    if case == "masked":
        lat = make_separable_lattice(3, 5, 15)
        S = _masked_coset_operator(15, lat, (1, 2), rng)
    elif case.startswith("3Z"):
        lat = make_separable_lattice(3, 5, 105)
        S = random_operator(105, rng)
    else:
        lat = make_general_lattice([(15, 1)], 225)
        S = random_operator(225, rng)
    report = riesz_report(S, lat)
    kernel = op_op_conv(S, _checked_star(S), lat)
    oracle = np.sort(symplectic_fourier_series(kernel).values.real)
    assert np.max(np.abs(report.gram_eigenvalues - oracle)) <= 1e-12 * report.upper
    assert len(report.zero_cosets) == (case == "masked")


def test_gram_matrix_is_translation_invariant_hermitian():
    """G = M* M over the translates, the columns of M, is the convolution
    kernel S conv checked(S*) read at the lattice differences."""
    rng = np.random.default_rng(103)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    M = synthesis_map(S, lat).matrix
    G = M.conj().T @ M
    assert np.allclose(G, G.conj().T, atol=1e-11)
    h = op_op_conv(S, _checked_star(S), lat)
    for i, p in enumerate(lat.points):
        for j, q in enumerate(lat.points):
            diff = ((p[0] - q[0]) % 9, (p[1] - q[1]) % 9)
            assert abs(G[i, j] - h.value_at(diff)) < 1e-12


def test_gram_matrix_general_lattice_matches_translates():
    """On a sheared lattice the columns of the synthesis matrix M are the
    translates, so M* M is their Gram matrix."""
    rng = np.random.default_rng(130)
    L = 15
    lat = make_general_lattice([(3, 1)], L)
    S = random_operator(L, rng)
    translates = [ref.translate_slow(S, m, n, L).reshape(-1) for m, n in lat.points]
    M = synthesis_map(S, lat).matrix
    assert np.max(np.abs(M - np.transpose(translates))) < 1e-13 * hs_norm(S)


def test_riesz_rejects_non_finite_generator():
    lat = make_separable_lattice(3, 3, 9)
    S = np.eye(9, dtype=np.complex128)
    S[2, 5] = np.nan
    with pytest.raises(NonFiniteError):
        riesz_report(S, lat)
    with pytest.raises(NonFiniteError):
        best_approximation(np.eye(9), S, lat)


def test_riesz_positivity_matches_gram_rank():
    rng = np.random.default_rng(104)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    report = riesz_report(S, lat)
    M = synthesis_map(S, lat).matrix
    G = M.conj().T @ M
    nonsingular = np.linalg.matrix_rank(G, tol=1e-9) == lat.size
    assert report.is_riesz == (report.lower > 0) == nonsingular


# -- biorthogonal generator --------------------------------------------------


def test_biorthogonal_one_point_lattice():
    rng = np.random.default_rng(105)
    L = 7
    lat = make_separable_lattice(L, L, L)
    S = random_operator(L, rng)
    report = riesz_report(S, lat)
    assert len(report.symbol.values) == 1
    assert np.isclose(report.symbol.values[0], hs_norm(S) ** 2)
    R = biorthogonal_generator(S, lat)
    assert np.allclose(R, _checked_star(S) / hs_norm(S) ** 2, atol=1e-12)
    assert np.isclose(op_op_conv(S, R, lat).values[0], 1.0)


def test_biorthogonality_deltas():
    rng = np.random.default_rng(106)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    R = biorthogonal_generator(S, lat)
    deltas = op_op_conv(S, R, lat)
    want = delta_sequence(lat)
    assert np.max(np.abs(deltas.values - want.values)) < 1e-10


def test_biorthogonal_series_coefficients_are_hermitian():
    rng = np.random.default_rng(107)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    report = riesz_report(S, lat)
    inv = QuotientFunction(report.symbol.quotient, 1.0 / report.symbol.values)
    b = inverse_symplectic_fourier_series(inv, lat)
    for m, n in lat.points:
        assert abs(b.value_at(((-m) % 9, (-n) % 9)) - np.conj(b.value_at((m, n)))) < 1e-12
    R = biorthogonal_generator(S, lat)
    assert np.allclose(R, seq_op_conv(b, _checked_star(S)), atol=1e-11)


def test_reconstruction_on_module_span():
    rng = np.random.default_rng(108)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    R = biorthogonal_generator(S, lat)
    for _ in range(5):
        c = random_sequence(lat, rng)
        T = seq_op_conv(c, S)
        back = seq_op_conv(op_op_conv(T, R, lat), S)
        assert np.max(np.abs(back - T)) < 1e-10


def test_biorthogonal_refuses_degenerate_generators():
    lat = make_separable_lattice(1, 1, 5)
    with pytest.raises(NotRieszError):
        biorthogonal_generator(np.eye(5), lat)
    with pytest.raises(NotRieszError):
        biorthogonal_generator(np.zeros((5, 5)), make_separable_lattice(5, 5, 5))


# -- best approximation ------------------------------------------------------


def test_best_approximation_recovers_exact_mask():
    rng = np.random.default_rng(109)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    c0 = random_sequence(lat, rng)
    report = best_approximation(seq_op_conv(c0, S), S, lat)
    assert np.max(np.abs(report.mask.values - c0.values)) < 1e-10
    assert report.residual_hs < 1e-10
    assert report.mask_agreement < 1e-9


def test_best_approximation_orthogonal_target_gives_zero_mask():
    rng = np.random.default_rng(110)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    T0 = random_operator(9, rng)
    first = best_approximation(T0, S, lat)
    T_perp = T0 - first.approximant
    second = best_approximation(T_perp, S, lat)
    assert np.max(np.abs(second.mask.values)) < 1e-10
    assert np.isclose(second.residual_hs, hs_norm(T_perp), atol=1e-10)


def test_best_approximation_matches_least_squares():
    rng = np.random.default_rng(111)
    L = 15
    lat = make_separable_lattice(3, 5, L)
    S = rank_k_operator(L, 3, rng)
    assert riesz_report(S, lat).is_riesz
    T = random_operator(L, rng)
    report = best_approximation(T, S, lat)
    D = synthesis_map(S, lat).matrix
    lsq = np.linalg.lstsq(D, T.reshape(-1), rcond=None)[0]
    assert np.max(np.abs(report.mask.values - lsq)) < 1e-9
    assert report.mask_agreement < 1e-9
    assert report.orthogonality_defect < 1e-9


def test_best_approximation_general_lattice_matches_least_squares():
    rng = np.random.default_rng(131)
    L = 15
    lat = make_general_lattice([(1, 2)], L)
    S = rank_k_operator(L, 3, rng)
    assert riesz_report(S, lat).is_riesz
    T = random_operator(L, rng)
    report = best_approximation(T, S, lat)
    D = synthesis_map(S, lat).matrix
    lsq = np.linalg.lstsq(D, T.reshape(-1), rcond=None)[0]
    assert np.max(np.abs(report.mask.values - lsq)) < 1e-9
    assert np.max(np.abs(report.approximant.reshape(-1) - D @ lsq)) < 1e-9
    assert report.mask_agreement < 1e-9
    assert report.orthogonality_defect < 1e-9


def test_best_approximation_residual_orthogonal_to_translates():
    rng = np.random.default_rng(112)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    T = random_operator(9, rng)
    report = best_approximation(T, S, lat)
    residual = T - report.approximant
    worst = max(
        abs(hs_inner(residual, translate(S, p))) for p in lat.points
    )
    assert worst < 1e-9
    assert report.orthogonality_defect < 1e-9


def test_best_approximation_is_idempotent():
    rng = np.random.default_rng(113)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    T = random_operator(9, rng)
    first = best_approximation(T, S, lat)
    second = best_approximation(first.approximant, S, lat)
    assert np.max(np.abs(second.mask.values - first.mask.values)) < 1e-10
    assert second.residual_hs < 1e-10


@pytest.mark.parametrize(
    "lat",
    [make_general_lattice([(3, 1)], 9), make_separable_lattice(2, 4, 8)],
    ids=repr,
)
@pytest.mark.parametrize("where", ["first", "last"])
def test_approx_checks_catch_a_wrong_mask_or_ratio(lat, where, monkeypatch):
    """A 1e-6 error in one mask value moves mask_agreement; one in the
    approximant's ratio on one coset moves both fields past 1e-9."""
    import qhal.analysis

    rng = np.random.default_rng(117)
    S, T = random_operator(lat.L, rng), random_operator(lat.L, rng)
    clean = best_approximation(T, S, lat)
    assert clean.mask_agreement < 1e-12 and clean.orthogonality_defect < 1e-12
    index = 0 if where == "first" else -1

    def bump(values):
        values = values.copy()
        values[index] += 1e-6
        return values

    series = qhal.analysis.inverse_symplectic_fourier_series
    with monkeypatch.context() as m:
        m.setattr(
            qhal.analysis,
            "inverse_symplectic_fourier_series",
            lambda F, lat: LatticeSequence(lat, bump(series(F, lat).values)),
        )
        report = best_approximation(T, S, lat)
    assert report.mask_agreement > 1e-9
    assert report.orthogonality_defect < 1e-12  # the approximant is untouched

    lift = qhal.analysis.lift_quotient_function  # only the approximant lifts
    with monkeypatch.context() as m:
        m.setattr(
            qhal.analysis,
            "lift_quotient_function",
            lambda F: lift(QuotientFunction(F.quotient, bump(F.values))),
        )
        report = best_approximation(T, S, lat)
    assert report.mask_agreement > 1e-9
    assert report.orthogonality_defect > 1e-9


# -- mask recovery -----------------------------------------------------------


def test_recover_mask_of_generator_is_delta():
    rng = np.random.default_rng(114)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    out = recover_mask(S, S, lat)
    want = delta_sequence(lat)
    assert np.max(np.abs(out.mask.values - want.values)) < 1e-10
    assert out.residual_hs < 1e-9


def test_recover_mask_round_trip():
    rng = np.random.default_rng(115)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    for _ in range(5):
        c = random_sequence(lat, rng)
        out = recover_mask(seq_op_conv(c, S), S, lat)
        assert np.max(np.abs(out.mask.values - c.values)) < 1e-10
        assert out.residual_hs < 1e-9


def test_recover_mask_reports_out_of_model_defect():
    rng = np.random.default_rng(116)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    c = random_sequence(lat, rng)
    noise = 1e-3 * random_operator(9, rng)
    G = seq_op_conv(c, S) + noise
    out = recover_mask(G, S, lat)
    report = best_approximation(G, S, lat)
    assert np.max(np.abs(out.mask.values - report.mask.values)) < 1e-11
    assert np.isclose(out.residual_hs, report.residual_hs, atol=1e-11)
    assert out.residual_hs <= hs_norm(noise) + 1e-11


# -- Tauberian diagnostics ---------------------------------------------------


def test_tauberian_zero_operator():
    lat = make_separable_lattice(3, 3, 9)
    report = tauberian_diagnostics(np.zeros((9, 9)), lat)
    assert report.synthesis_rank == 0
    assert report.kernel_dim == lat.size
    assert len(report.zero_cosets) == lat.size
    assert not report.injective
    assert report.consistent


def test_tauberian_riesz_generator_is_injective():
    rng = np.random.default_rng(117)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    report = tauberian_diagnostics(S, lat)
    assert report.injective
    assert report.kernel_dim == 0
    assert report.zero_cosets == ()
    assert report.consistent
    assert report.synthesis_rank == lat.size <= 81


def test_tauberian_single_masked_coset():
    # kill the spreading function on exactly one adjoint coset; the
    # synthesis map then loses exactly one dimension
    rng = np.random.default_rng(118)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    adj = adjoint_lattice(lat)
    grid = np.exp(1j * rng.uniform(0, 2 * np.pi, (L, L))) * (1.0 + rng.random((L, L)))
    hole = (1, 2)
    for lam in adj.points:
        grid[(hole[0] + lam[0]) % L, (hole[1] + lam[1]) % L] = 0.0
    S = inverse_fourier_wigner(grid)
    report = tauberian_diagnostics(S, lat)
    assert report.kernel_dim == 1
    assert len(report.zero_cosets) == 1
    assert report.consistent
    q = quotient_reps(adj)
    assert q.coset_index(report.zero_cosets[0]) == q.coset_index(hole)


def test_tauberian_rank_never_exceeds_lattice_size():
    rng = np.random.default_rng(119)
    for L, a, b in ((9, 3, 3), (15, 5, 5)):
        lat = make_separable_lattice(a, b, L)
        S = random_operator(L, rng)
        report = tauberian_diagnostics(S, lat)
        assert report.synthesis_rank <= min(lat.size, L * L)


# -- non-associativity witness -----------------------------------------------


def test_nonassociativity_witness_leaves_span():
    rng = np.random.default_rng(120)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    S = rank_k_operator(L, 2, rng)
    assert riesz_report(S, lat).is_riesz
    T, deviation = nonassociativity_witness(S, lat, seed=1)
    assert deviation >= 0.5 * hs_norm(T)
    assert np.isclose(deviation, hs_norm(T), rtol=1e-9)
    report = best_approximation(T, S, lat)
    assert np.isclose(deviation, hs_norm(T - report.approximant), rtol=1e-8)


def test_nonassociativity_control_case_in_span():
    rng = np.random.default_rng(121)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    R = biorthogonal_generator(S, lat)
    T = seq_op_conv(random_sequence(lat, rng), S)
    back = seq_op_conv(op_op_conv(T, R, lat), S)
    assert hs_norm(back - T) < 1e-10


def test_nonassociativity_witness_needs_proper_lattice():
    rng = np.random.default_rng(122)
    with pytest.raises(FullLatticeError):
        nonassociativity_witness(random_operator(5, rng), make_separable_lattice(1, 1, 5))


# -- underspread division ----------------------------------------------------


def bounded_spreading_operator(L, rng):
    """An operator whose spreading function has modulus in [1/2, 3/2]."""
    mags = 0.5 + rng.random((L, L))
    grid = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, (L, L)))
    return inverse_fourier_wigner(grid)


def test_underspread_divide_single_coefficient():
    rng = np.random.default_rng(123)
    L = 9
    lat = make_separable_lattice(3, 3, L)
    grid = np.zeros((L, L), dtype=np.complex128)
    grid[0, 0] = 2.0 - 1.5j
    S = inverse_fourier_wigner(grid)
    T = bounded_spreading_operator(L, rng)
    A = underspread_divide(S, T, lat, [(0, 0)])
    rebuilt = seq_op_conv(op_op_conv(S, T, lat), A)
    assert hs_norm(rebuilt - S) < 1e-11 * hs_norm(S)


def test_underspread_divide_centered_box():
    rng = np.random.default_rng(124)
    L = 15
    lat = make_separable_lattice(3, 3, L)  # adjoint 5Z x 5Z
    domain = fundamental_domain(adjoint_lattice(lat), centered=True)
    grid = np.zeros((L, L), dtype=np.complex128)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            grid[m % L, n % L] = rng.standard_normal() + 1j * rng.standard_normal()
    S = inverse_fourier_wigner(grid)
    T = bounded_spreading_operator(L, rng)
    A = underspread_divide(S, T, lat, domain)
    rebuilt = seq_op_conv(op_op_conv(S, T, lat), A)
    assert hs_norm(rebuilt - S) < 1e-9 * hs_norm(S)


def test_underspread_divide_rejects_wide_support():
    rng = np.random.default_rng(125)
    L = 15
    lat = make_separable_lattice(3, 3, L)
    domain = fundamental_domain(adjoint_lattice(lat), centered=True)
    S = random_operator(L, rng)  # spreading support is the whole grid
    T = bounded_spreading_operator(L, rng)
    with pytest.raises(SupportViolationError):
        underspread_divide(S, T, lat, domain)


def test_underspread_divide_rejects_vanishing_divisor():
    rng = np.random.default_rng(126)
    L = 15
    lat = make_separable_lattice(3, 3, L)
    domain = fundamental_domain(adjoint_lattice(lat), centered=True)
    grid = np.zeros((L, L), dtype=np.complex128)
    grid[0, 0] = 1.0
    S = inverse_fourier_wigner(grid)
    with pytest.raises(DivisionByZeroError):
        underspread_divide(S, np.eye(L), lat, domain)


def test_underspread_divide_rejects_duplicate_cosets():
    rng = np.random.default_rng(127)
    L = 15
    lat = make_separable_lattice(3, 3, L)
    grid = np.zeros((L, L), dtype=np.complex128)
    grid[0, 0] = 1.0
    S = inverse_fourier_wigner(grid)
    T = bounded_spreading_operator(L, rng)
    with pytest.raises(ValueError):
        underspread_divide(S, T, lat, [(0, 0), (5, 0)])


def test_underspread_divide_rejects_non_integer_domain():
    rng = np.random.default_rng(142)
    L = 15
    lat = make_separable_lattice(3, 3, L)
    S = tf_shift((0, 0), L)
    T = bounded_spreading_operator(L, rng)
    for domain in ([(0.5, 0)], [(True, 0)], [(0, "1")]):
        with pytest.raises(ValueError, match="integers"):
            underspread_divide(S, T, lat, domain)


# -- underspread division against the full-transform oracle ------------------


@pytest.fixture
def full_rows(monkeypatch):
    """One flag per forward FFT: whether it ran over all L rows."""
    ran = []
    fft = np.fft.fft

    def recording(a, *args, **kwargs):
        ran.append(np.shape(a)[0] == np.shape(a)[-1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recording)
    return ran


def assert_divide_matches_oracle(S, T, lat, domain, zero_tol=ZERO_TOL):
    """underspread_divide returns the full-transform oracle's A bit for bit,
    or raises its refusal with the same class and message; returns the
    refusal's class or None."""
    want = ref.outcome(lambda: ref.underspread_divide_full(S, T, lat.size, domain, zero_tol))
    got = ref.outcome(lambda: underspread_divide(S, T, lat, domain, zero_tol=zero_tol))
    np.testing.assert_equal(got, want)
    return want[0] if isinstance(want, tuple) else None


def box(L, h1, h2):
    return [(i % L, j % L) for i in range(-h1, h1 + 1) for j in range(-h2, h2 + 1)]


def spread_on(L, values):
    """The operator whose spreading function is ``values`` ({point: value})."""
    grid = np.zeros((L, L), dtype=np.complex128)
    for z, v in values.items():
        grid[z] = v
    return _unspreading(grid)


def bump_divisor(L):
    d = np.minimum(np.arange(L), L - np.arange(L)).astype(float)
    return inverse_fourier_wigner(0.25 + np.exp(-np.pi * (d[:, None] ** 2 + d**2) / L))


@pytest.mark.parametrize(
    "spec",
    [(105, (3, 5), (2, 2)), (225, (15, 1), (3, 3)), (1001, (7, 13), (3, 3))],
    ids=["dense_lattice", "general_lattice", "L1001"],
)
def test_underspread_divide_matches_full_transforms(spec, full_rows):
    """The benchmark's lattices and L = 1001: the bounds decide for box
    generators with bump, Gaussian and random divisors, so no forward FFT
    runs over all rows, and A is bit-equal to the full-transform divide's; a
    wide-support S is refused as there."""
    L, (a, b), half = spec
    lat = make_separable_lattice(a, b, L) if b != 1 else make_general_lattice([(a, b)], L)
    rng = np.random.default_rng(L)
    domain = box(L, *half)
    S = spread_on(L, {z: complex(*rng.standard_normal(2)) for z in box(L, 1, 1)})
    g = gaussian_window(L, verify=False)
    for T in (bump_divisor(L), rank_one(g, g), random_operator(L, rng)):
        del full_rows[:]
        underspread_divide(S, T, lat, domain)
        assert full_rows and not any(full_rows)
        assert assert_divide_matches_oracle(S, T, lat, domain) is None
    refusal = assert_divide_matches_oracle(random_operator(L, rng), T, lat, domain)
    assert refusal is SupportViolationError


def test_underspread_divide_band_cases_match_full_transforms(full_rows):
    """Cases at the edges of the two bounds, each with the forward FFTs it
    runs (V(S) rows, then V(T) rows, and all rows of one where its bound is
    open) and the oracle's A or refusal."""
    L = 15
    lat = make_separable_lattice(3, 3, L)  # adjoint 5Z x 5Z
    domain = box(L, 2, 2)
    rng = np.random.default_rng(143)
    inside = {z: complex(*rng.standard_normal(2)) for z in domain}
    peak = max(abs(v) for v in inside.values())
    T = bounded_spreading_operator(L, rng)

    def spill(factor, flat=False):
        """S plus an off-domain row of V(S) at factor times the support
        threshold: one point, or every point of the row."""
        extra = {(7, n): factor * SUPPORT_RTOL * peak for n in (range(L) if flat else [3])}
        return spread_on(L, {**inside, **extra})

    S = spread_on(L, inside)
    # V(T) = 1 but for one domain value d: tol max|V(T)| < d <= tol sqrt(L) ||T||
    ones = {(m, n): 1.0 for m in range(L) for n in range(L)}
    banded = spread_on(L, {**ones, (1, 1): 5 * ZERO_TOL})
    # the domain rows of V(T) peak at 1 and another row at 1e3, so the same
    # kind of value vanishes once every row is read
    hidden = spread_on(L, {**ones, (1, 1): 5 * ZERO_TOL, (7, 7): 1e3})
    zero = np.zeros((L, L), dtype=np.complex128)
    rows, S_all, T_all = (False, False), (False, True, False), (False, False, True)
    cases = {  # S, T, zero_tol, the forward FFTs (True: all L rows), refusal
        "spill 0.5x, one point": (spill(0.5), T, ZERO_TOL, rows, None),
        "spill 2x, one point": (spill(2.0), T, ZERO_TOL, (False, True), SupportViolationError),
        "spill 0.5x, whole row": (spill(0.5, True), T, ZERO_TOL, S_all, None),
        "divisor in the band": (S, banded, ZERO_TOL, T_all, None),
        "divisor vanishes off the rows' peak": (S, hidden, ZERO_TOL, T_all, DivisionByZeroError),
        "zero_tol=0": (S, T, 0.0, rows, None),
        "zero_tol=0, exact zero": (S, np.eye(L), 0.0, rows, DivisionByZeroError),
        "S = 0": (zero, T, ZERO_TOL, S_all, None),  # the underflow margin opens it
        "T = 0": (S, zero, ZERO_TOL, rows, DivisionByZeroError),
        # squares that underflow or overflow open the bounds
        "spill 2x, scaled by 1e-165": (
            1e-165 * spill(2.0), T, ZERO_TOL, (False, True), SupportViolationError
        ),
        "divisor vanishes, scaled by 1e-165": (
            S, 1e-165 * hidden, ZERO_TOL, T_all, DivisionByZeroError
        ),
        "spill 2x, scaled by 1e160": (
            1e160 * spill(2.0), T, ZERO_TOL, (False, True), SupportViolationError
        ),
        "divisor vanishes, scaled by 1e160": (
            S, 1e160 * hidden, ZERO_TOL, T_all, DivisionByZeroError
        ),
        # every row is off an empty domain: S != 0 is refused, S = 0 gives A = 0
        "empty domain": (S, T, ZERO_TOL, (False, True), SupportViolationError),
        "empty domain, S = 0": (zero, T, ZERO_TOL, S_all, None),
    }
    for name, (S_, T_, tol, full, refusal) in cases.items():
        dom = [] if name.startswith("empty domain") else domain
        del full_rows[:]
        ref.outcome(lambda: underspread_divide(S_, T_, lat, dom, zero_tol=tol))
        assert tuple(full_rows) == full, name
        assert assert_divide_matches_oracle(S_, T_, lat, dom, tol) is refusal, name


# -- non-finite operands -----------------------------------------------------


def non_finite_cases():
    """Each request on valid operands at L = 15 over 3Z x 5Z, as a call and
    its operands; the divide's domain is the 3 x 3 box around 0."""
    L = 15
    lat = make_separable_lattice(3, 5, L)
    rng = np.random.default_rng(144)
    S, T = random_operator(L, rng), random_operator(L, rng)
    G = seq_op_conv(random_sequence(lat, rng), S)
    U = spread_on(L, {z: complex(*rng.standard_normal(2)) for z in box(L, 1, 1)})
    V = bounded_spreading_operator(L, rng)
    return {
        "riesz": (lambda S: riesz_report(S, lat), (S,)),
        "biorthogonal": (lambda S: biorthogonal_generator(S, lat), (S,)),
        "approx": (lambda T, S: best_approximation(T, S, lat), (T, S)),
        "recover": (lambda G, S: recover_mask(G, S, lat), (G, S)),
        "divide": (lambda S, T: underspread_divide(S, T, lat, box(L, 1, 1)), (U, V)),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "name, k",
    [("riesz", 0), ("biorthogonal", 0), ("approx", 0), ("approx", 1),
     ("recover", 0), ("recover", 1), ("divide", 0), ("divide", 1)],
)
def test_non_finite_operand_is_refused(name, k, value, full_rows):
    """No request scans its operands first: one NaN or +inf entry reaches the
    coset sums through the FFT, or the divide's energy or Parseval pass, and
    is refused as by as_operator, with no RuntimeWarning on the way.  Entry
    (4, 11) lies on diagonal 8, a row of V that the divide never transforms,
    so only its passes over all of each operand see it, before any FFT."""
    call, operands = non_finite_cases()[name]
    bad = [np.array(X) for X in operands]
    bad[k][4, 11] = value
    del full_rows[:]
    with pytest.raises(NonFiniteError, match="^operator has NaN or infinite entries$"):
        call(*bad)
    if name == "divide":
        assert full_rows == []


def test_degenerate_generator_is_refused_before_a_non_finite_target():
    """The symbol comes before the cross term, so a NaN in T or G with a
    generator whose translates are not Riesz gives NotRieszError."""
    cases = non_finite_cases()
    call_approx, (T, _) = cases["approx"]
    call_recover, (G, _) = cases["recover"]
    T, G = np.array(T), np.array(G)
    T[4, 11] = G[4, 11] = np.nan
    zero = np.zeros_like(T)
    with pytest.raises(NotRieszError):
        call_approx(T, zero)
    with pytest.raises(NotRieszError):
        call_recover(G, zero)


def test_overflow_of_finite_entries_keeps_the_coset_sums_refusal():
    """Entries of 1e200 are finite, so the rescan passes them and the coset
    sums' own refusal stands; no overflow warning reaches the caller."""
    cases = non_finite_cases()
    for name in ("riesz", "biorthogonal", "approx", "recover"):
        call, operands = cases[name]
        with pytest.raises(NonFiniteError, match="^quotient function has NaN"):
            call(*operands[:-1], 1e200 * operands[-1])


def test_underspread_divide_with_huge_finite_entries_matches_full_transforms(full_rows):
    """Entries of 1e200 overflow the diagonal energies of S or the Parseval
    sum of T, and the rescan passes them as finite.  The energies that
    overflow are the domain's rows of S, which the support bound leaves out,
    so only those rows are transformed; T's infinite sum opens its bound, so
    all rows of V(T) are.  A is the oracle's bit for bit."""
    call, (S, T) = non_finite_cases()["divide"]
    lat = make_separable_lattice(3, 5, 15)
    domain = box(15, 1, 1)
    for S_, T_, full in [(1e200 * S, T, (False, False)), (S, 1e200 * T, (False, False, True))]:
        del full_rows[:]
        call(S_, T_)
        assert tuple(full_rows) == full
        assert assert_divide_matches_oracle(S_, T_, lat, domain) is None


# -- norm equivalence bands --------------------------------------------------


def test_module_norm_bands():
    rng = np.random.default_rng(128)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    report = riesz_report(S, lat)
    lo, hi = np.sqrt(report.lower), np.sqrt(report.upper)
    ratios_one = []
    ratios_inf = []
    for _ in range(100):
        c = random_sequence(lat, rng)
        G = seq_op_conv(c, S)
        r2 = hs_norm(G) / np.linalg.norm(c.values)
        assert lo - 1e-9 <= r2 <= hi + 1e-9
        ratios_one.append(schatten_norm(G, 1) / np.sum(np.abs(c.values)))
        ratios_inf.append(schatten_norm(G, np.inf) / np.max(np.abs(c.values)))
    assert min(ratios_one) > 0
    assert min(ratios_inf) > 0
    assert max(ratios_one) < np.inf
    assert max(ratios_inf) < np.inf


def test_recover_mask_identity_on_delta_basis():
    rng = np.random.default_rng(129)
    lat = make_separable_lattice(3, 3, 9)
    S = random_operator(9, rng)
    for k in range(lat.size):
        vals = np.zeros(lat.size, dtype=np.complex128)
        vals[k] = 1.0
        c = LatticeSequence(lat, vals)
        out = recover_mask(seq_op_conv(c, S), S, lat)
        assert np.max(np.abs(out.mask.values - vals)) < 1e-10
