"""Text formats: exact round-trips and malformed-input rejection."""

from __future__ import annotations

import numpy as np
import pytest

from qhal import (
    FormatError,
    LatticeSequence,
    QuotientFunction,
    adjoint_lattice,
    make_general_lattice,
    make_separable_lattice,
    quotient_reps,
    random_sequence,
)
from qhal.io import (
    dumps_lattice,
    dumps_operator,
    dumps_phase_function,
    dumps_quotient_function,
    dumps_sequence,
    dumps_signal,
    format_float,
    load_text,
    loads_lattice,
    loads_operator,
    loads_phase_function,
    loads_quotient_function,
    loads_sequence,
    loads_signal,
    save_text,
)
from qhal.operators import random_operator, random_signal


# -- float formatting --------------------------------------------------------


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(140)
    for x in rng.standard_normal(200):
        assert float(format_float(x)) == x
    assert float(format_float(1 / 3)) == 1 / 3
    assert format_float(1.0) == "1"


# -- lattice records ---------------------------------------------------------


def test_lattice_record_layout():
    text = dumps_lattice(make_separable_lattice(3, 3, 9))
    assert text == "LATTICE v1\nL=9\ngens=3,0;0,3\n"


def test_lattice_round_trip():
    for lat in (
        make_separable_lattice(3, 5, 15),
        make_separable_lattice(1, 1, 4),
        make_general_lattice([(1, 1)], 4),
        make_general_lattice([(2, 1), (0, 3)], 6),
    ):
        assert loads_lattice(dumps_lattice(lat)) == lat


def test_lattice_loads_handwritten_record():
    lat = loads_lattice("LATTICE v1\nL=6\ngens=2,0;0,2\n")
    assert lat.L == 6
    assert lat.size == 9


def test_lattice_rejects_malformed_records():
    with pytest.raises(FormatError):
        loads_lattice("")
    with pytest.raises(FormatError):
        loads_lattice("LATTICE v2\nL=6\ngens=1,1\n")
    with pytest.raises(FormatError):
        loads_lattice("LATTICE v1\nM=6\ngens=1,1\n")
    with pytest.raises(FormatError):
        loads_lattice("LATTICE v1\nL=6\ngens=1,1,1\n")
    with pytest.raises(FormatError):
        loads_lattice("LATTICE v1\nL=six\ngens=1,1\n")


# -- operators and signals ---------------------------------------------------


def test_operator_header_and_round_trip():
    rng = np.random.default_rng(141)
    S = random_operator(5, rng)
    text = dumps_operator(S)
    assert text.splitlines()[0] == "QHAL-OP v1 L=5"
    assert len(text.splitlines()) == 26
    back = loads_operator(text)
    assert np.array_equal(back, S)


def test_signal_round_trip():
    rng = np.random.default_rng(142)
    psi = random_signal(7, rng)
    text = dumps_signal(psi)
    assert text.splitlines()[0] == "QHAL-SIG v1 L=7"
    assert np.array_equal(loads_signal(text), psi)


def test_operator_rejects_malformed_input():
    with pytest.raises(FormatError):
        loads_operator("QHAL-OP v1 L=2\n1 0\n")
    with pytest.raises(FormatError):
        loads_operator("QHAL-SIG v1 L=2\n1 0\n0 0\n0 0\n1 0\n")
    with pytest.raises(FormatError):
        loads_operator("QHAL-OP v1 L=2\n1 0\n0 0\n0 0\nbad 0\n")


def test_loaders_reject_non_finite_floats():
    for token in ("nan", "inf", "-inf", "NaN", "Infinity"):
        with pytest.raises(FormatError):
            loads_operator(f"QHAL-OP v1 L=2\n1 0\n0 0\n0 {token}\n1 0\n")
        with pytest.raises(FormatError):
            loads_signal(f"QHAL-SIG v1 L=2\n{token} 0\n1 0\n")


def test_headers_reject_degenerate_dimensions():
    for L in (0, 1, -3):
        with pytest.raises(FormatError):
            loads_operator(f"QHAL-OP v1 L={L}")
        with pytest.raises(FormatError):
            loads_signal(f"QHAL-SIG v1 L={L}\n1 0\n")


# -- phase functions ---------------------------------------------------------


def test_phase_function_round_trip():
    rng = np.random.default_rng(143)
    f = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    text = dumps_phase_function(f)
    assert text.splitlines()[0] == "QHAL-PF v1 L=5"
    assert np.array_equal(loads_phase_function(text), f)


def test_phase_function_rejects_missing_and_duplicate_points():
    good = dumps_phase_function(np.ones((2, 2), dtype=np.complex128))
    lines = good.splitlines()
    with pytest.raises(FormatError):
        loads_phase_function("\n".join(lines[:-1]) + "\n")
    dup = lines[:-1] + [lines[-2]]
    with pytest.raises(FormatError):
        loads_phase_function("\n".join(dup) + "\n")


# -- quotient functions ------------------------------------------------------


def test_quotient_function_round_trip():
    rng = np.random.default_rng(144)
    lat = make_separable_lattice(3, 3, 9)
    q = quotient_reps(adjoint_lattice(lat))
    vals = rng.standard_normal(len(q.reps)) + 1j * rng.standard_normal(len(q.reps))
    F = QuotientFunction(q, vals)
    back = loads_quotient_function(dumps_quotient_function(F))
    assert back.quotient.lattice == q.lattice
    assert np.array_equal(back.values, vals)


def test_quotient_function_accepts_any_representatives():
    # points may name a coset by any member, not only the stored rep
    lat = make_separable_lattice(3, 3, 9)
    q = quotient_reps(adjoint_lattice(lat))
    F = QuotientFunction(q, np.arange(9, dtype=np.complex128))
    text = dumps_quotient_function(F)
    shifted = text.replace("\n0 0 0 0\n", "\n3 3 0 0\n")
    back = loads_quotient_function(shifted)
    assert np.array_equal(back.values, F.values)


def test_quotient_function_rejects_duplicate_cosets():
    lat = make_separable_lattice(3, 3, 9)
    q = quotient_reps(adjoint_lattice(lat))
    F = QuotientFunction(q, np.arange(9, dtype=np.complex128))
    text = dumps_quotient_function(F)
    # (3, 3) lands in the coset of (0, 0), which is already present
    clash = text.replace("\n0 1 1 0\n", "\n3 3 1 0\n")
    with pytest.raises(FormatError):
        loads_quotient_function(clash)


# -- lattice sequences -------------------------------------------------------


def test_sequence_round_trip():
    rng = np.random.default_rng(145)
    lat = make_separable_lattice(3, 5, 15)
    c = random_sequence(lat, rng)
    text = dumps_sequence(c)
    assert text.splitlines()[0] == "QHAL-SEQ v1"
    back = loads_sequence(text)
    assert back.lattice == lat
    assert np.array_equal(back.values, c.values)


def test_sequence_rejects_points_off_the_lattice():
    lat = make_separable_lattice(3, 3, 9)
    c = LatticeSequence(lat, np.zeros(lat.size, dtype=np.complex128))
    text = dumps_sequence(c)
    with pytest.raises(FormatError):
        loads_sequence(text.replace("\n0 3 0 0\n", "\n0 1 0 0\n"))
    with pytest.raises(FormatError):
        loads_sequence(text.replace("\n0 3 0 0\n", "\n0 0 0 0\n"))


def test_sequence_rejects_wrong_count():
    lat = make_separable_lattice(3, 3, 9)
    c = LatticeSequence(lat, np.zeros(lat.size, dtype=np.complex128))
    lines = dumps_sequence(c).splitlines()
    with pytest.raises(FormatError):
        loads_sequence("\n".join(lines[:-1]) + "\n")


def test_sequence_rejects_nan_values():
    # NaN marks a missing entry inside the loader, so a NaN value would
    # otherwise slip past the duplicate check
    lat = make_separable_lattice(3, 3, 9)
    c = LatticeSequence(lat, np.zeros(lat.size, dtype=np.complex128))
    text = dumps_sequence(c)
    with pytest.raises(FormatError):
        loads_sequence(text.replace("\n0 3 0 0\n", "\n0 3 nan 0\n"))
    with pytest.raises(FormatError):
        loads_sequence(
            text.replace("\n0 3 0 0\n", "\n0 3 nan 0\n").replace(
                "\n0 6 0 0\n", "\n0 3 1 0\n"
            )
        )


# -- file round-trips --------------------------------------------------------


def test_save_and_load_text(tmp_path):
    rng = np.random.default_rng(146)
    S = random_operator(9, rng)
    path = tmp_path / "op.txt"
    save_text(path, dumps_operator(S))
    assert np.array_equal(loads_operator(load_text(path)), S)


def test_empty_input_is_rejected():
    for loads in (loads_operator, loads_signal, loads_phase_function, loads_sequence):
        with pytest.raises(FormatError):
            loads("")
