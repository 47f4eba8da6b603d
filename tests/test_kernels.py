"""The FFT kernels under the public API: memory layouts, FFT budgets per
request, the per-L constant caches, overflow inside internal grids and the
traced memory of one request."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qhal import (
    LatticeSequence,
    NonFiniteError,
    QuotientFunction,
    QuotientIndex,
    adjoint_lattice,
    best_approximation,
    biorthogonal_generator,
    fourier_wigner,
    fs_of_op_op_conv,
    fw_of_seq_op_conv,
    gaussian_window,
    gram_matrix,
    inverse_fourier_wigner,
    inverse_symplectic_fourier_series,
    make_general_lattice,
    make_separable_lattice,
    mixed_associativity_defect,
    module_associativity_defect,
    nonassociativity_witness,
    op_op_conv,
    periodize,
    quotient_reps,
    random_sequence,
    recover_mask,
    riesz_report,
    seq_op_conv,
    symplectic_dft,
    symplectic_fourier_series,
    synthesis_map,
    tauberian_diagnostics,
    underspread_divide,
    weyl_symbol,
)
from qhal.analysis import (
    SUPPORT_RTOL, _checked_star, _sampled_inner_products, _synthesis_row
)
from qhal.operators import parity_conjugate, random_operator
from qhal.phase_space import Lattice
from qhal.transforms import (
    _chirp, _diagonal_index, _diagonals, _shear_twiddle, _unspreading
)

# sheared, N = 9 points, N != L^2; its adjoint box is 3 x 3
LAT = make_general_lattice([(3, 1)], 9)
DOMAIN = [(0, 0), (0, 1), (1, 0)]


def _underspread(L, rng):
    grid = np.zeros((L, L), dtype=np.complex128)
    for m, n in DOMAIN:
        grid[m, n] = complex(*rng.standard_normal(2))
    return inverse_fourier_wigner(grid)


LAYOUTS = {
    "fortran": np.asfortranarray,
    "transposed": lambda S: np.ascontiguousarray(S.T).T,
    "negative": lambda S: np.ascontiguousarray(S[::-1, ::-1])[::-1, ::-1],
}

# each call takes operators S, T and U, with U underspread on DOMAIN
_rng = np.random.default_rng(230)
_c, _d = random_sequence(LAT, _rng), random_sequence(LAT, _rng)
CALLS = {
    "fourier_wigner": lambda S, T, U: fourier_wigner(S),
    "inverse_fourier_wigner": lambda S, T, U: inverse_fourier_wigner(S),
    "weyl_symbol": lambda S, T, U: weyl_symbol(S),
    "symplectic_dft": lambda S, T, U: symplectic_dft(S),
    "periodize": lambda S, T, U: periodize(S, LAT),
    "seq_op_conv": lambda S, T, U: seq_op_conv(_c, S),
    "op_op_conv": lambda S, T, U: op_op_conv(S, T, LAT),
    "synthesis_map": lambda S, T, U: synthesis_map(S, LAT),
    "fw_of_seq_op_conv": lambda S, T, U: fw_of_seq_op_conv(_c, S),
    "fs_of_op_op_conv": lambda S, T, U: fs_of_op_op_conv(S, T, LAT),
    "mixed_associativity_defect": lambda S, T, U: mixed_associativity_defect(_c, S, T),
    "module_associativity_defect": lambda S, T, U: module_associativity_defect(_c, _d, S),
    "gram_matrix": lambda S, T, U: gram_matrix(S, LAT),
    "riesz_report": lambda S, T, U: riesz_report(S, LAT),
    "biorthogonal_generator": lambda S, T, U: biorthogonal_generator(S, LAT),
    "best_approximation": lambda S, T, U: best_approximation(T, S, LAT),
    "recover_mask": lambda S, T, U: recover_mask(T, S, LAT),
    "tauberian_diagnostics": lambda S, T, U: tauberian_diagnostics(S, LAT),
    "nonassociativity_witness": lambda S, T, U: nonassociativity_witness(S, LAT),
    "underspread_divide": lambda S, T, U: underspread_divide(U, T, LAT, DOMAIN),
}


def _arrays(result):
    """Every number a result carries, as a list of arrays."""
    if isinstance(result, (LatticeSequence, QuotientFunction)):
        return [result.values]
    if isinstance(result, Lattice):
        return []
    if dataclasses.is_dataclass(result):
        return [a for f in dataclasses.fields(result) for a in _arrays(getattr(result, f.name))]
    if isinstance(result, tuple):
        return [a for item in result for a in _arrays(item)]
    return [np.asarray(result)]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_layouts_give_the_c_order_result(name, layout):
    rng = np.random.default_rng(231)
    ops = (random_operator(LAT.L, rng), random_operator(LAT.L, rng))
    ops += (_underspread(LAT.L, rng),)
    want = _arrays(CALLS[name](*ops))
    moved = [LAYOUTS[layout](A) for A in ops]
    for A, B in zip(ops, moved):
        assert np.array_equal(A, B) and not B.flags.c_contiguous
    got = _arrays(CALLS[name](*moved))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("layout", ["c"] + sorted(LAYOUTS))
@pytest.mark.parametrize("L", [8, 9])
def test_checked_star_gather_is_bit_equal(layout, L):
    S = random_operator(L, np.random.default_rng(236))
    moved = LAYOUTS.get(layout, np.ascontiguousarray)(S)
    np.testing.assert_array_equal(_checked_star(moved), parity_conjugate(np.conj(S.T)))


# -- FFT budget ----------------------------------------------------------------


@pytest.fixture
def fft_shapes(monkeypatch):
    """Input shapes of every np.fft.fft / np.fft.ifft call, in call order."""
    shapes = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counting(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return shapes


@pytest.mark.parametrize(
    "lattice",
    [LAT, make_separable_lattice(2, 4, 8), make_general_lattice([(15, 1)], 225)],
    ids=repr,
)
def test_fft_budget_per_request(lattice, fft_shapes):
    """L x L FFTs per request as the docstrings state; the series FFTs
    touch only N-point arrays (2 per series: approx and recover run one,
    riesz none, since its Gram spectrum is the symbol), no other FFT runs,
    and the divide transforms only the rows that meet its domain unless a
    bound leaves a verdict open."""
    L, N = lattice.L, lattice.size
    rng = np.random.default_rng(232)
    S, T = random_operator(L, rng), random_operator(L, rng)
    G = seq_op_conv(random_sequence(lattice, rng), S)
    U = np.eye(L, dtype=np.complex128)  # V(U) = L delta_0
    requests = {
        "riesz_report": (lambda: riesz_report(S, lattice), 1, 0),
        "best_approximation": (lambda: best_approximation(T, S, lattice), 3, 2),
        "recover_mask": (lambda: recover_mask(G, S, lattice), 2, 2),
    }
    for name, (request, budget, series) in requests.items():
        del fft_shapes[:]
        request()
        full = [s for s in fft_shapes if s == (L, L)]
        assert len(full) == budget, name
        assert all(int(np.prod(s)) == N for s in fft_shapes if s != (L, L)), name
        assert len(fft_shapes) == budget + series, name
    # the approx cross-checks run no FFT of any size
    report = best_approximation(T, S, lattice)
    del fft_shapes[:]
    _sampled_inner_products(_diagonals(T - report.approximant), _diagonals(S), lattice)
    _synthesis_row(report.mask, S)
    assert fft_shapes == []
    # the one row of V(U), V(T) and V(A) that meets the domain: U and T are
    # decided off it by their bounds, so divide runs no L x L FFT
    del fft_shapes[:]
    underspread_divide(U, T, lattice, [(0, 0)])
    assert fft_shapes == [(1, L), (1, L), (1, L)]
    # a flat spill along another row of V(U) at half the support threshold
    # passes, but its row bound sqrt(L) times as large leaves the verdict open,
    # so only then do all rows of V(U) run
    spill = np.zeros((L, L), dtype=np.complex128)
    spill[1] = 0.5 * SUPPORT_RTOL * L
    spilled = U + _unspreading(spill)
    del fft_shapes[:]
    underspread_divide(spilled, T, lattice, [(0, 0)])
    assert fft_shapes == [(1, L), (L, L), (1, L), (1, L)]


@pytest.mark.parametrize(
    "lattice",
    [LAT, make_separable_lattice(3, 5, 105), make_general_lattice([(2, 3)], 12)],
    ids=repr,
)
def test_series_uses_only_lattice_size_ffts(lattice, fft_shapes):
    c = random_sequence(lattice, np.random.default_rng(233))
    inverse_symplectic_fourier_series(symplectic_fourier_series(c), lattice)
    assert len(fft_shapes) == 4
    assert all(int(np.prod(s)) == lattice.size for s in fft_shapes)


@pytest.mark.parametrize("L", [9, 26, 4096])
def test_gaussian_window_runs_no_fft(L, fft_shapes):
    """The default build is the wrap sum alone: no FFT, and at L = 4096 a
    traced peak under 2 MB (an STFT check would hold two 256 MB grids)."""
    tracemalloc.start()
    try:
        gaussian_window(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fft_shapes == []
    assert peak < 2 * 2**20, peak


# -- per-L constants -------------------------------------------------------------


def test_constant_caches_are_bounded_read_only_and_hit():
    caches = (_chirp, _diagonal_index, _shear_twiddle)
    for cached in caches:
        assert cached.cache_info().maxsize is not None
    L = LAT.L
    for arr in (_chirp(L, 1), _diagonal_index(L), _shear_twiddle(LAT)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    rng = np.random.default_rng(234)
    S, T = random_operator(L, rng), random_operator(L, rng)
    _shear_twiddle.cache_clear()
    best_approximation(T, S, LAT)
    assert _shear_twiddle.cache_info().misses == 1  # one build for the mask's series
    before = [f.cache_info().misses for f in caches]
    best_approximation(T, S, LAT)
    assert [f.cache_info().misses for f in caches] == before


# -- overflow inside internal grids ------------------------------------------------


def test_overflowed_internal_grid_is_refused():
    """|V(S)|^2 overflows for entries of 1e200; the unscanned internal grid
    still ends in NonFiniteError through the coset sums."""
    rng = np.random.default_rng(235)
    S = 1e200 * random_operator(LAT.L, rng)
    T = random_operator(LAT.L, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            riesz_report(S, LAT)
        with pytest.raises(NonFiniteError):
            best_approximation(T, S, LAT)


# -- memory at L = 1001 ------------------------------------------------------------


def test_traced_memory_at_L1001(monkeypatch):
    """7Z x 13Z at L = 1001 (N = 11011), after a warm-up call builds the per-L
    constants: riesz traces at most 2.25 complex L x L arrays beyond its input
    (V(S) and the diagonals it comes from; the second route through
    checked(S*) traced 4.5).  No riesz, approx, recover or divide call reads
    the L x L coset table, and the quotient cache keeps no L x L array."""
    L = 1001
    lat = make_separable_lattice(7, 13, L)
    rng = np.random.default_rng(1001)
    S, T = random_operator(L, rng), random_operator(L, rng)
    G = seq_op_conv(random_sequence(lat, rng), S)
    box = [(i % L, j % L) for i in range(-3, 4) for j in range(-3, 4)]
    spread = np.zeros((L, L), dtype=np.complex128)
    spread[tuple(np.array(box[::2]).T)] = rng.standard_normal(len(box[::2]))
    U = _unspreading(spread)  # underspread on the box
    requests = {
        "riesz_report": lambda: riesz_report(S, lat),
        "best_approximation": lambda: best_approximation(T, S, lat),
        "recover_mask": lambda: recover_mask(G, S, lat),
        "underspread_divide": lambda: underspread_divide(U, T, lat, box),
    }
    for request in requests.values():
        request()

    def refuse(self):
        raise AssertionError("L x L coset table built")

    monkeypatch.setattr(QuotientIndex, "coset_of", property(refuse))
    quotient_reps.cache_clear()
    array = 16 * L * L
    peaks = {}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for name, request in requests.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            request()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / array
        retained = (tracemalloc.get_traced_memory()[0] - start) / array
    finally:
        tracemalloc.stop()
    assert peaks["riesz_report"] <= 2.25, peaks
    # the lift's result owns its memory, so products and the inverse FFT reuse
    # it, and approx frees V(T) and V(S) once read: 4.17 and 3.17 measured
    assert peaks["best_approximation"] <= 4.25, peaks
    assert peaks["recover_mask"] <= 3.25, peaks
    # the returned A, the row blocks of diagonals and the 7 rows of V(S), V(T)
    # and V(A): 1.03 measured (two full spreading functions traced 2.52)
    assert peaks["underspread_divide"] <= 1.25, peaks
    assert retained < 0.05, retained  # the rebuilt quotient entries are small
    for quotient in (quotient_reps(lat), quotient_reps(adjoint_lattice(lat))):
        assert all(np.size(v) < L * L for v in vars(quotient).values())
