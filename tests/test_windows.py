"""Named windows: normalization and the nonvanishing-STFT guarantee."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    delta_window,
    gaussian_window,
    named_window,
    ones_window,
    random_window,
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
    # verify=False: the STFT floor refuses even L and L >= 26
    for L in (2, 3, 9, 26, 105, 1024):
        w = gaussian_window(L, verify=False)
        assert w.dtype == np.complex128
        assert w.tobytes() == ref.gaussian_window_slow(L).tobytes(), L


def test_gaussian_window_stft_has_no_zero_samples():
    for L in (9, 15):
        amb = np.abs(stft(gaussian_window(L), gaussian_window(L)))
        assert amb.min() > 1e-8 * amb.max()


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
