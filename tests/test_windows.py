"""Named windows: normalization, the wrap loop, and the Gaussian's STFT and
Riesz symbol against their closed forms at every L."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    delta_window,
    gaussian_window,
    make_general_lattice,
    make_separable_lattice,
    named_window,
    ones_window,
    random_window,
    rank_one,
    riesz_report,
    stft,
)

import reference as ref


def test_gaussian_window_is_normalized_and_positive():
    for L in (9, 15):
        w = gaussian_window(L)
        assert np.isclose(np.linalg.norm(w), 1.0)
        assert np.all(w.real > 0)
        assert np.all(w.imag == 0)
        # periodization makes the window symmetric about zero
        assert np.allclose(w, w[(-np.arange(L)) % L], atol=1e-12)


def test_gaussian_window_matches_the_wrap_loop_bit_for_bit():
    for L in (2, 3, 9, 26, 105, 1024):
        w = gaussian_window(L)
        assert w.dtype == np.complex128
        assert w.tobytes() == ref.gaussian_window_slow(L).tobytes(), L


def test_gaussian_window_stft_has_no_zero_samples():
    for L in (9, 15):
        amb = np.abs(stft(gaussian_window(L), gaussian_window(L)))
        assert amb.min() > 1e-8 * amb.max()


@pytest.mark.parametrize("L", [9, 15, 26, 45, 225, 1001, 1024])
def test_gaussian_stft_matches_its_closed_form(L):
    g = gaussian_window(L)
    V = stft(g, g)
    assert np.abs(V - ref.gaussian_stft_closed_form(L)).max() <= 1e-13 * np.abs(V).max()


@pytest.mark.parametrize(
    "lattice",
    [
        make_separable_lattice(3, 5, 45),
        make_general_lattice([(3, 1)], 45),
        make_separable_lattice(3, 5, 105),
        make_general_lattice([(15, 1)], 225),
        make_separable_lattice(7, 13, 1001),
        make_separable_lattice(16, 16, 1024),
    ],
    ids=repr,
)
def test_gaussian_riesz_symbol_matches_its_closed_form(lattice):
    """The Riesz gate accepts the Gaussian past L = 26, and its symbol is the
    closed-form |stft|^2 summed over the adjoint cosets.  A is compared
    relative to itself: B/A reaches 2.4e8 at L = 1001 on 7Z x 13Z."""
    L = lattice.L
    g = gaussian_window(L)
    report = riesz_report(rank_one(g, g), lattice)
    squares = np.abs(ref.gaussian_stft_closed_form(L)) ** 2
    symbol = ref.adjoint_coset_sums(squares, lattice.generators, report.symbol.quotient.coords, L)
    lower, upper = symbol.real.min(), symbol.real.max()
    assert np.abs(report.symbol.values - symbol).max() <= 1e-13 * upper
    assert abs(report.upper - upper) <= 1e-13 * upper
    assert abs(report.lower - lower) <= 1e-11 * lower
    assert report.is_riesz


@pytest.mark.parametrize("L", [8, 10, 12, 16, 26])
def test_gaussian_stft_zeros_at_even_L(L):
    """At even L, |stft(g, g)| vanishes on (L/2, n) for odd n and (m, L/2)
    for odd m, and nowhere else, in the library and in the closed form."""
    half, odd = L // 2, np.arange(1, L, 2)
    zeros = np.zeros((L, L), dtype=bool)
    zeros[half, odd] = zeros[odd, half] = True
    g = gaussian_window(L)
    for V in (stft(g, g), ref.gaussian_stft_closed_form(L)):
        amb = np.abs(V)
        assert amb[zeros].max() <= 1e-15 * amb.max(), L
        assert amb[~zeros].min() >= 1e-9 * amb.max(), L


def test_other_named_windows():
    assert np.array_equal(delta_window(5), np.eye(5)[0])
    assert np.isclose(np.linalg.norm(ones_window(7)), 1.0)
    assert np.isclose(np.linalg.norm(random_window(7, seed=3)), 1.0)
    assert np.array_equal(random_window(7, seed=3), random_window(7, seed=3))
    assert not np.array_equal(random_window(7, seed=3), random_window(7, seed=4))


def test_named_window_lookup():
    assert np.array_equal(named_window("delta", 5), delta_window(5))
    assert np.array_equal(named_window("rand", 5, seed=2), random_window(5, seed=2))
    with pytest.raises(ValueError):
        named_window("boxcar", 5)
