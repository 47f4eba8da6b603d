"""Plain-text serialization for operators, signals, grids and sequences.

All formats are line oriented, ASCII, with floats printed as ``%.17g`` so
a write/read round trip is bit exact:

* ``LATTICE v1``: header, ``L=<int>``, ``gens=<m>,<n>;<m>,<n>;...``
* ``QHAL-OP v1 L=<int>``: L*L lines ``<re> <im>``, row major
* ``QHAL-SIG v1 L=<int>``: L lines ``<re> <im>``
* ``QHAL-PF v1 L=<int>``: L*L lines ``<m> <n> <re> <im>``
* ``QHAL-QF v1 L=<int>``: embedded lattice record of the quotiented
  subgroup, then one ``<m> <n> <re> <im>`` line per coset
* ``QHAL-SEQ v1``: embedded lattice record, then one line per point

Each body is one table, read by ``np.loadtxt`` and written by ``%`` formatting.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import FormatError
from .operators import as_operator, as_signal
from .phase_space import (
    Lattice, LatticeSequence, QuotientFunction, make_general_lattice, quotient_reps
)
from .transforms import as_phase_function

__all__ = [
    "format_float",
    "dumps_lattice",
    "loads_lattice",
    "dumps_operator",
    "loads_operator",
    "dumps_signal",
    "loads_signal",
    "dumps_phase_function",
    "loads_phase_function",
    "dumps_quotient_function",
    "loads_quotient_function",
    "dumps_sequence",
    "loads_sequence",
    "save_text",
    "load_text",
]

_PAIR = np.dtype([("re", "<f8"), ("im", "<f8")])
_INDEXED = np.dtype([("m", "<i8"), ("n", "<i8"), ("z", _PAIR)])


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def save_text(path: str | os.PathLike, text: str) -> None:
    Path(path).write_text(text, encoding="ascii", newline="\n")


def load_text(path: str | os.PathLike) -> str:
    return Path(path).read_text(encoding="ascii")


def _lines(text: str) -> tuple[list[str], int]:
    """The stripped lines of text, and the file line number of the first."""
    body = text.strip()
    if not body:
        raise FormatError("empty input")
    first = text[: text.index(body[0])].count("\n") + 1  # blank lines before it
    return [line.strip() for line in body.splitlines()], first


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad integer {token!r}")


def _parse_dimension(field: str) -> int:
    """The L of an 'L=<int>' field; L must be at least 2."""
    L = _parse_int(field[2:]) if field.startswith("L=") else 0
    if L < 2:
        raise FormatError(f"expected L=<int> with L at least 2, got {field!r}")
    return L


def _parse_header(text: str, magic: str) -> tuple[int, list[str], int]:
    """L from the '<magic> v1 L=<int>' header line, the lines after it and the
    file line number of the first of them."""
    lines, first = _lines(text)
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != magic or parts[1] != "v1":
        raise FormatError(f"expected '{magic} v1 L=<int>' header, got {lines[0]!r}")
    return _parse_dimension(parts[2]), lines[1:], first + 1


# -- tables ------------------------------------------------------------------


def _read_table(lines: list[str], rows: int, first: int, place=None, L=0) -> np.ndarray:
    """``rows`` complex values from '<re> <im>' rows, in order; with ``place``,
    from '<m> <n> <re> <im>' rows put in slot place(m % L, n % L), each once.
    ``first`` is the file line number of lines[0]; refusals name file lines."""
    if len(lines) != rows:
        raise FormatError(f"expected {rows} rows from line {first}, found {len(lines)}")
    if "" in lines:  # loadtxt would skip it
        raise FormatError(f"line {first + lines.index('')}: blank line inside the table")
    dtype = _INDEXED if place else _PAIR
    try:
        table = np.loadtxt(lines, dtype, comments=None, ndmin=1)
    except ValueError as exc:  # drop numpy's row number and its hint about usecols
        message = re.sub(r" at row \d+", "", str(exc).split(";")[0])
        raise FormatError(f"line {first + _refused(lines, dtype)}: {message}") from None
    # the (re, im) record is laid out as one complex128, so -0.0 survives
    values = (table if place is None else table["z"]).view(np.complex128)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        token = next(t for t in lines[bad[0]].split()[-2:] if not np.isfinite(float(t)))
        raise FormatError(f"line {first + bad[0]}: non-finite float {token!r}")
    if place is None:
        return values
    slots = place(table["m"] % L, table["n"] % L)
    if (np.bincount(slots, minlength=rows)[:rows] != 1).any():
        later = np.ones(rows, dtype=bool)  # rows whose slot an earlier row took
        later[np.unique(slots, return_index=True)[1]] = False
        line = first + np.flatnonzero(later | (slots >= rows))[0]
        raise FormatError(f"line {line}: row repeated or off the record")
    out = np.empty(rows, dtype=np.complex128)
    out[slots] = values
    return out


def _refused(lines: list[str], dtype) -> int:
    """The first row loadtxt refuses, by bisection: its own row numbers skip
    the header and count from 0 or 1."""
    lo, hi = 0, len(lines)  # the row is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], dtype, comments=None)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _write_table(values: np.ndarray, *coords: np.ndarray) -> str:
    """One row per value, led by its integer coordinates, which ride in the
    float64 table (exact below 2**53); ``%.17g`` is ``format_float``."""
    table = np.column_stack([*coords, values.real, values.imag])
    row = "%d " * len(coords) + "%.17g %.17g\n"
    blocks = np.array_split(table, len(table) // 4096 + 1)  # few floats alive at once
    return "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


# -- lattice records ---------------------------------------------------------


def dumps_lattice(lattice: Lattice) -> str:
    gens = ";".join(f"{m},{n}" for m, n in lattice.generators)
    return f"LATTICE v1\nL={lattice.L}\ngens={gens}\n"


def _parse_gens(body: str) -> list[tuple[int, int]]:
    """Generators written as 'm,n;m,n;...'; empty chunks are skipped."""
    gens = []
    for chunk in body.split(";"):
        if not chunk:
            continue
        coords = chunk.split(",")
        if len(coords) != 2:
            raise FormatError(f"bad generator {chunk!r}")
        gens.append((_parse_int(coords[0]), _parse_int(coords[1])))
    return gens


def _parse_lattice_lines(lines: list[str]) -> Lattice:
    if len(lines) != 3 or lines[0] != "LATTICE v1":
        raise FormatError("expected a three-line 'LATTICE v1' record")
    if not lines[2].startswith("gens="):
        raise FormatError(f"expected gens=..., got {lines[2]!r}")
    return make_general_lattice(_parse_gens(lines[2][5:]), _parse_dimension(lines[1]))


def loads_lattice(text: str) -> Lattice:
    return _parse_lattice_lines(_lines(text)[0])


# -- operators, signals, grids and sequences ---------------------------------


def dumps_operator(S) -> str:
    S = as_operator(S)
    return f"QHAL-OP v1 L={S.shape[0]}\n" + _write_table(S.ravel())


def loads_operator(text: str) -> np.ndarray:
    L, lines, first = _parse_header(text, "QHAL-OP")
    return _read_table(lines, L * L, first).reshape(L, L)


def dumps_signal(psi) -> str:
    psi = as_signal(psi)
    return f"QHAL-SIG v1 L={psi.shape[0]}\n" + _write_table(psi)


def loads_signal(text: str) -> np.ndarray:
    L, lines, first = _parse_header(text, "QHAL-SIG")
    return _read_table(lines, L, first)


def dumps_phase_function(f) -> str:
    f = as_phase_function(f)
    m, n = np.divmod(np.arange(f.size), f.shape[0])
    return f"QHAL-PF v1 L={f.shape[0]}\n" + _write_table(f.ravel(), m, n)


def loads_phase_function(text: str) -> np.ndarray:
    L, lines, first = _parse_header(text, "QHAL-PF")
    return _read_table(lines, L * L, first, lambda m, n: m * L + n, L).reshape(L, L)


def dumps_quotient_function(F: QuotientFunction) -> str:
    head = f"QHAL-QF v1 L={F.quotient.lattice.L}\n" + dumps_lattice(F.quotient.lattice)
    return head + _write_table(F.values, *F.quotient.coords)


def loads_quotient_function(text: str) -> QuotientFunction:
    L, lines, first = _parse_header(text, "QHAL-QF")
    subgroup = _parse_lattice_lines(lines[:3])
    if subgroup.L != L:
        raise FormatError("header dimension disagrees with lattice record")
    q = quotient_reps(subgroup)
    return QuotientFunction(q, _read_table(lines[3:], q.size, first + 3, q.locate, L))


def dumps_sequence(c: LatticeSequence) -> str:
    head = "QHAL-SEQ v1\n" + dumps_lattice(c.lattice)
    return head + _write_table(c.values, *c.lattice.coords)


def loads_sequence(text: str) -> LatticeSequence:
    lines, first = _lines(text)
    if lines[0] != "QHAL-SEQ v1":
        raise FormatError("expected 'QHAL-SEQ v1' header")
    lat = _parse_lattice_lines(lines[1:4])
    # locate gives (inside, slot); a row off the lattice goes to slot N
    place = lambda m, n: np.where(*lat.locate(m, n), lat.size)
    return LatticeSequence(lat, _read_table(lines[4:], lat.size, first + 4, place, lat.L))
