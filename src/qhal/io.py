"""Plain-text serialization for operators, signals, grids and sequences.

All formats are line oriented, ASCII, with floats printed to 17
significant digits so a write/read round trip is bit exact:

* ``LATTICE v1``: header, ``L=<int>``, ``gens=<m>,<n>;<m>,<n>;...``
* ``QHAL-OP v1 L=<int>``: L*L lines ``<re> <im>``, row major
* ``QHAL-SIG v1 L=<int>``: L lines ``<re> <im>``
* ``QHAL-PF v1 L=<int>``: L*L lines ``<m> <n> <re> <im>``
* ``QHAL-QF v1 L=<int>``: embedded lattice record of the quotiented
  subgroup, then one ``<m> <n> <re> <im>`` line per coset
* ``QHAL-SEQ v1``: embedded lattice record, then one line per point
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import FormatError
from .operators import as_operator, as_signal
from .phase_space import (
    Lattice,
    LatticeSequence,
    QuotientFunction,
    make_general_lattice,
    quotient_reps,
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


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _complex_pair(z: complex) -> str:
    return f"{format_float(z.real)} {format_float(z.imag)}"


def save_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)


def load_text(path: str | os.PathLike) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _lines(text: str) -> list[str]:
    lines = [line.strip() for line in text.strip().splitlines()]
    if not lines:
        raise FormatError("empty input")
    return lines


def _parse_header(line: str, magic: str) -> int:
    parts = line.split()
    if len(parts) != 3 or parts[0] != magic or parts[1] != "v1":
        raise FormatError(f"expected '{magic} v1 L=<int>' header, got {line!r}")
    if not parts[2].startswith("L="):
        raise FormatError(f"missing L= field in header {line!r}")
    try:
        L = int(parts[2][2:])
    except ValueError:
        raise FormatError(f"bad dimension in header {line!r}")
    if L < 2:
        raise FormatError(f"dimension must be at least 2 in header {line!r}")
    return L


def _parse_float(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"bad float {token!r}")
    if not math.isfinite(value):
        raise FormatError(f"non-finite float {token!r}")
    return value


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad integer {token!r}")


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
    if len(lines) < 3 or lines[0] != "LATTICE v1":
        raise FormatError("expected a 'LATTICE v1' record")
    if not lines[1].startswith("L="):
        raise FormatError(f"expected L=<int>, got {lines[1]!r}")
    L = _parse_int(lines[1][2:])
    if not lines[2].startswith("gens="):
        raise FormatError(f"expected gens=..., got {lines[2]!r}")
    return make_general_lattice(_parse_gens(lines[2][5:]), L)


def loads_lattice(text: str) -> Lattice:
    return _parse_lattice_lines(_lines(text))


# -- dense operators and signals ---------------------------------------------


def dumps_operator(S) -> str:
    S = as_operator(S)
    L = S.shape[0]
    rows = [f"QHAL-OP v1 L={L}"]
    rows.extend(_complex_pair(z) for z in S.reshape(-1))
    return "\n".join(rows) + "\n"


def loads_operator(text: str) -> np.ndarray:
    lines = _lines(text)
    L = _parse_header(lines[0], "QHAL-OP")
    if len(lines) != 1 + L * L:
        raise FormatError(f"expected {L * L} entries, found {len(lines) - 1}")
    flat = np.empty(L * L, dtype=np.complex128)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<re> <im>', got {line!r}")
        flat[i] = complex(_parse_float(parts[0]), _parse_float(parts[1]))
    return flat.reshape(L, L)


def dumps_signal(psi) -> str:
    psi = as_signal(psi)
    rows = [f"QHAL-SIG v1 L={psi.shape[0]}"]
    rows.extend(_complex_pair(z) for z in psi)
    return "\n".join(rows) + "\n"


def loads_signal(text: str) -> np.ndarray:
    lines = _lines(text)
    L = _parse_header(lines[0], "QHAL-SIG")
    if len(lines) != 1 + L:
        raise FormatError(f"expected {L} entries, found {len(lines) - 1}")
    out = np.empty(L, dtype=np.complex128)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<re> <im>', got {line!r}")
        out[i] = complex(_parse_float(parts[0]), _parse_float(parts[1]))
    return out


# -- phase-space grids -------------------------------------------------------


def dumps_phase_function(f) -> str:
    f = as_phase_function(f)
    L = f.shape[0]
    rows = [f"QHAL-PF v1 L={L}"]
    for m in range(L):
        for n in range(L):
            rows.append(f"{m} {n} {_complex_pair(f[m, n])}")
    return "\n".join(rows) + "\n"


def loads_phase_function(text: str) -> np.ndarray:
    lines = _lines(text)
    L = _parse_header(lines[0], "QHAL-PF")
    if len(lines) != 1 + L * L:
        raise FormatError(f"expected {L * L} entries, found {len(lines) - 1}")
    out = np.full((L, L), np.nan, dtype=np.complex128)
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"expected '<m> <n> <re> <im>', got {line!r}")
        m = _parse_int(parts[0]) % L
        n = _parse_int(parts[1]) % L
        out[m, n] = complex(_parse_float(parts[2]), _parse_float(parts[3]))
    if np.isnan(out).any():
        raise FormatError("grid entries missing or duplicated")
    return out


def dumps_quotient_function(F: QuotientFunction) -> str:
    head = f"QHAL-QF v1 L={F.quotient.lattice.L}\n"
    head += dumps_lattice(F.quotient.lattice)
    rows = [
        f"{m} {n} {_complex_pair(v)}"
        for (m, n), v in zip(F.quotient.reps, F.values)
    ]
    return head + "\n".join(rows) + "\n"


def loads_quotient_function(text: str) -> QuotientFunction:
    lines = _lines(text)
    L = _parse_header(lines[0], "QHAL-QF")
    subgroup = _parse_lattice_lines(lines[1:4])
    if subgroup.L != L:
        raise FormatError("header dimension disagrees with lattice record")
    quotient = quotient_reps(subgroup)
    body = lines[4:]
    if len(body) != quotient.size:
        raise FormatError(f"expected {quotient.size} cosets, found {len(body)}")
    vals = np.full(quotient.size, np.nan, dtype=np.complex128)
    for line in body:
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"expected '<m> <n> <re> <im>', got {line!r}")
        idx = quotient.coset_index((_parse_int(parts[0]), _parse_int(parts[1])))
        if not np.isnan(vals[idx].real):
            raise FormatError("two lines land in the same coset")
        vals[idx] = complex(_parse_float(parts[2]), _parse_float(parts[3]))
    return QuotientFunction(quotient, vals)


def dumps_sequence(c: LatticeSequence) -> str:
    head = "QHAL-SEQ v1\n" + dumps_lattice(c.lattice)
    rows = [
        f"{m} {n} {_complex_pair(v)}" for (m, n), v in zip(c.lattice.points, c.values)
    ]
    return head + "\n".join(rows) + "\n"


def loads_sequence(text: str) -> LatticeSequence:
    lines = _lines(text)
    if not lines or lines[0] != "QHAL-SEQ v1":
        raise FormatError("expected 'QHAL-SEQ v1' header")
    lattice = _parse_lattice_lines(lines[1:4])
    body = lines[4:]
    if len(body) != lattice.size:
        raise FormatError(f"expected {lattice.size} points, found {len(body)}")
    vals = np.full(lattice.size, np.nan, dtype=np.complex128)
    for line in body:
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"expected '<m> <n> <re> <im>', got {line!r}")
        point = (_parse_int(parts[0]) % lattice.L, _parse_int(parts[1]) % lattice.L)
        if point not in lattice.index:
            raise FormatError(f"point {point} is outside the lattice record")
        idx = lattice.index[point]
        if not np.isnan(vals[idx].real):
            raise FormatError(f"duplicate value for point {point}")
        vals[idx] = complex(_parse_float(parts[2]), _parse_float(parts[3]))
    return LatticeSequence(lattice, vals)
