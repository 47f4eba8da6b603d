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

import reference as ref


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
    # the message names the offending token
    for token in ("nan", "inf", "-inf", "NaN", "Infinity"):
        with pytest.raises(FormatError, match=f"'{token}'"):
            loads_operator(f"QHAL-OP v1 L=2\n1 0\n0 0\n0 {token}\n1 0\n")
        with pytest.raises(FormatError, match=f"'{token}'"):
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


# -- the table codec against the per-line oracle -----------------------------


SPECIAL = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3)
CODEC_LATTICES = {
    2: make_separable_lattice(1, 2, 2),
    9: make_general_lattice([(3, 1)], 9),
    15: make_separable_lattice(3, 5, 15),
    45: make_general_lattice([(15, 1)], 45),
}


def planted(size, rng):
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    floats = values.view(np.float64)
    k = min(len(SPECIAL), floats.size)
    floats[:k] = SPECIAL[:k]
    floats[-k:] = SPECIAL[::-1][:k]
    return values


def assert_bits_equal(a, b):
    """Equal as float64 bit patterns, so -0.0 and 0.0 differ."""
    assert a.dtype == b.dtype == np.complex128 and a.shape == b.shape
    bits = [np.ascontiguousarray(x).view(np.float64).view(np.uint64) for x in (a, b)]
    assert np.array_equal(*bits)


def codec_cases(L):
    """(dumps, loads, object, header, points, slots) per v1 body format.

    Points and slots come from the oracle's own point sets: the lattice is
    closure_slow sorted, and the quotient transversal is quotient_slow's.
    """
    rng = np.random.default_rng(L)
    lat = CODEC_LATTICES[L]
    sub = adjoint_lattice(lat)
    lat_points = sorted(ref.closure_slow(lat.generators, L))
    reps, coset_of = ref.quotient_slow(sorted(ref.closure_slow(sub.generators, L)), L)
    grid = [(m, n) for m in range(L) for n in range(L)]
    qf = QuotientFunction(quotient_reps(sub), planted(len(reps), rng))
    return {
        "op": (dumps_operator, loads_operator, planted(L * L, rng).reshape(L, L),
               f"QHAL-OP v1 L={L}\n", None, None),
        "sig": (dumps_signal, loads_signal, planted(L, rng),
                f"QHAL-SIG v1 L={L}\n", None, None),
        "pf": (dumps_phase_function, loads_phase_function,
               planted(L * L, rng).reshape(L, L), f"QHAL-PF v1 L={L}\n",
               grid, {z: i for i, z in enumerate(grid)}),
        "qf": (dumps_quotient_function, loads_quotient_function, qf,
               f"QHAL-QF v1 L={L}\n" + dumps_lattice(sub), reps,
               {z: int(coset_of[z]) for z in grid}),
        "seq": (dumps_sequence, loads_sequence,
                LatticeSequence(lat, planted(lat.size, rng)),
                "QHAL-SEQ v1\n" + dumps_lattice(lat), lat_points,
                {z: i for i, z in enumerate(lat_points)}),
    }


def values_of(obj):
    return obj.values if hasattr(obj, "values") else obj


def split_text(text, header):
    lines = text.splitlines()
    k = header.count("\n")
    return lines[:k], lines[k:]


@pytest.mark.parametrize("L", sorted(CODEC_LATTICES))
def test_writers_match_the_per_line_oracle_byte_for_byte(L):
    for name, (dumps, _, obj, header, points, _) in codec_cases(L).items():
        expected = header + ref.write_rows_slow(values_of(obj).ravel(), points)
        assert dumps(obj) == expected, name


@pytest.mark.parametrize("L", sorted(CODEC_LATTICES))
def test_readers_match_the_per_line_oracle_bit_for_bit(L):
    rng = np.random.default_rng(1000 + L)
    for name, (dumps, loads, obj, header, _, slots) in codec_cases(L).items():
        head, body = split_text(dumps(obj), header)
        if slots is not None:
            # any order, any representative: shift indices by multiples of L
            body = [body[i] for i in rng.permutation(len(body))]
            shifts = rng.integers(-2, 3, size=(len(body), 2)) * L
            body = [
                f"{int(m) + dm} {int(n) + dn} {re} {im}"
                for (m, n, re, im), (dm, dn) in zip(map(str.split, body), shifts)
            ]
        back = values_of(loads("\n".join(head + body) + "\n"))
        expected = ref.read_rows_slow(body, L, slots)
        assert_bits_equal(back.ravel(), expected)
        assert_bits_equal(back.ravel(), values_of(obj).ravel())


def corrupted_bodies(body, L, indexed):
    """(label, body, per-line reader took it) triples the reader must refuse."""
    mid = len(body) // 2
    row = body[mid].split()
    index, floats = row[:-2], row[-2:]

    def swap(line):
        return body[:mid] + [line] + body[mid + 1 :]

    yield "blank line added", body[:mid] + [""] + body[mid:], False
    yield "blank line for a row", swap(""), False
    yield "narrow row", swap(" ".join(index + floats[:1])), False
    yield "wide row", swap(" ".join(index + floats + ["0"])), False
    for bad in ("0x10", "1e400", "nan", "-inf"):
        yield f"float {bad}", swap(" ".join(index + [bad, floats[1]])), False
    if indexed:
        m = int(row[0])
        # each bad index names the row's own point, so nothing else is wrong;
        # Python's int() took underscores and integers beyond int64
        for bad, took in (
            (f"{m}.0", False),
            (f"0x{m:x}", False),
            (str(m + L * 2**63), True),
            (f"0_{m}", True),
        ):
            yield f"index {bad}", swap(" ".join([bad] + row[1:])), took
        yield "duplicate row", swap(body[mid - 1]), False
        yield "missing row", body[:mid] + body[mid + 1 :], False


@pytest.mark.parametrize("L", (2, 9))
def test_readers_refuse_corrupted_tables(L):
    for name, (dumps, loads, obj, header, _, slots) in codec_cases(L).items():
        head, body = split_text(dumps(obj), header)
        line = len(head) + len(body) // 2 + 1  # the file line each corruption hits
        for label, bad, took in corrupted_bodies(body, L, slots is not None):
            with pytest.raises(FormatError) as refusal:
                loads("\n".join(head + bad) + "\n")
            message = str(refusal.value)  # a row too few or many: where the table starts
            named = message.startswith(f"line {line}: ")
            assert named or f"rows from line {len(head) + 1}," in message, (name, label)
            if took:
                ref.read_rows_slow(bad, L, slots)
            else:
                with pytest.raises(ValueError):
                    ref.read_rows_slow(bad, L, slots)


def test_table_refusals_name_the_file_line():
    """loadtxt numbers a bad float's row from 0 and a short row's from 1, both
    without the header; each refusal names the file line instead."""
    L = 9
    lines = dumps_phase_function(random_operator(L, np.random.default_rng(9))).splitlines()
    m, n, real, imag = lines[41].split()  # file line 42
    for broken in (f"{m} {n} 0x10 {imag}", f"{m} {n} {real}"):
        text = "\n".join(lines[:41] + [broken] + lines[42:]) + "\n"
        for leading in ("", "\n \n"):  # blank lines before the header count too
            with pytest.raises(FormatError, match=f"^line {42 + leading.count(chr(10))}: "):
                loads_phase_function(leading + text)


def test_lattice_records_refuse_small_dimensions_and_trailing_lines():
    with pytest.raises(FormatError):
        loads_lattice("LATTICE v1\nL=1\ngens=0,0\n")
    with pytest.raises(FormatError):
        loads_sequence("QHAL-SEQ v1\nLATTICE v1\nL=1\ngens=0,0\n0 0 1 0\n")
    with pytest.raises(FormatError):
        loads_lattice("LATTICE v1\nL=4\ngens=1,0;0,1\njunk")
    assert loads_lattice("LATTICE v1\nL=4\ngens=1,0;0,1\n").size == 16
