"""Command line front door.

Subcommands: riesz, approx, recover, divide, suite, gen.  All reports are
emitted as JSON with a fixed field order and floats printed to 17
significant digits, so identical configuration and seed give
byte-identical output.  Exit codes: 0 success, 1 configuration or input
errors, 2 degenerate analysis results (failed Riesz condition, violated
division preconditions, failed suite checks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import io as qio
from .analysis import (
    ZERO_TOL,
    best_approximation,
    recover_mask,
    riesz_report,
    underspread_divide,
)
from .convolutions import gabor_multiplier, op_op_conv, seq_op_conv
from .errors import (
    DivisionByZeroError,
    FullLatticeError,
    NotRieszError,
    QhalError,
    SupportViolationError,
)
from .operators import hs_norm, rank_one
from .phase_space import (
    Lattice,
    LatticeSequence,
    adjoint_lattice,
    delta_sequence,
    make_general_lattice,
    make_separable_lattice,
    ones_sequence,
    random_sequence,
)
from .suite import STANDARD_CASES, bump_divisor, run_case
from .transforms import inverse_fourier_wigner
from .windows import named_window

DEGENERATE = (NotRieszError, SupportViolationError, DivisionByZeroError, FullLatticeError)


# -- deterministic JSON ------------------------------------------------------


def render_json(obj) -> str:
    """Fixed-order JSON with 17-significant-digit floats."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return qio.format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + render_json(v) for k, v in obj.items()
        ) + "}"
    raise TypeError(f"cannot render {type(obj)!r}")


def _emit(args, doc) -> None:
    text = render_json(doc) + "\n"
    sys.stdout.write(text)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)


# -- config parsing ----------------------------------------------------------


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("QHAL_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise QhalError(f"QHAL_TOL is not a float: {env!r}")
    return ZERO_TOL


def parse_lattice_spec(spec: str, L: int) -> Lattice:
    """Either 'a,b' for aZ x bZ or 'gens=m,n;m,n;...'."""
    if spec.startswith("gens="):
        return make_general_lattice(qio._parse_gens(spec[5:]), L)
    parts = spec.split(",")
    if len(parts) != 2:
        raise QhalError(f"lattice spec must be 'a,b' or 'gens=...', got {spec!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise QhalError(f"lattice steps must be integers, got {spec!r}")
    return make_separable_lattice(a, b, L)


def _build_window(spec: str, L: int, seed: int) -> np.ndarray:
    if spec.startswith("file:"):
        return qio.loads_signal(qio.load_text(spec[5:]))
    return named_window(spec, L, seed=seed)


def _build_mask(spec: str, lattice: Lattice, seed: int) -> LatticeSequence:
    if spec.startswith("file:"):
        mask = qio.loads_sequence(qio.load_text(spec[5:]))
        if mask.lattice != lattice:
            raise QhalError("mask file lattice disagrees with --lattice")
        return mask
    if spec == "delta":
        return delta_sequence(lattice)
    if spec == "ones":
        return ones_sequence(lattice)
    if spec == "rand":
        return random_sequence(lattice, np.random.default_rng([seed, 23]))
    raise QhalError(f"unknown mask spec {spec!r}")


def _build_operator(spec: str, L: int, lattice, seed: int) -> np.ndarray:
    """Operator specs: identity | rank1:W1,W2 | randomrank:K | random |
    underspread:H1,H2 | bump | gabor:MASK,W | file:PATH."""
    if spec == "identity":
        return np.eye(L, dtype=np.complex128)
    if spec.startswith("file:"):
        return qio.loads_operator(qio.load_text(spec[5:]))
    if spec.startswith("rank1:"):
        names = spec[6:].split(",")
        if len(names) != 2:
            raise QhalError(f"rank1 spec needs two windows, got {spec!r}")
        xi = _build_window(names[0], L, seed)
        phi = _build_window(names[1], L, seed)
        return rank_one(xi, phi)
    if spec.startswith("randomrank:"):
        k = int(spec.split(":", 1)[1])
        if not 1 <= k <= L:
            raise QhalError(f"rank must be in [1, {L}], got {k}")
        rng = np.random.default_rng([seed, 31])
        out = np.zeros((L, L), dtype=np.complex128)
        for _ in range(k):
            u = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            out += np.outer(u, v.conj())
        return out
    if spec == "random":
        rng = np.random.default_rng([seed, 37])
        return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    if spec.startswith("underspread:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise QhalError(f"underspread spec needs 'h1,h2', got {spec!r}")
        h1, h2 = int(parts[0]), int(parts[1])
        rng = np.random.default_rng([seed, 41])
        grid = np.zeros((L, L), dtype=np.complex128)
        for i in range(-h1, h1 + 1):
            for j in range(-h2, h2 + 1):
                grid[i % L, j % L] = complex(
                    rng.standard_normal(), rng.standard_normal()
                )
        return inverse_fourier_wigner(grid)
    if spec == "bump":
        return bump_divisor(L)
    if spec.startswith("gabor:"):
        parts = spec[6:].split(",")
        if len(parts) != 2:
            raise QhalError(f"gabor spec needs 'mask,window', got {spec!r}")
        if lattice is None:
            raise QhalError("gabor operator spec needs --lattice")
        mask = _build_mask(parts[0], lattice, seed)
        window = _build_window(parts[1], L, seed)
        return gabor_multiplier(mask, window)
    raise QhalError(f"unknown operator spec {spec!r}")


def _parse_domain(spec: str, L: int) -> list[tuple[int, int]]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise QhalError(f"domain spec must be 'h1,h2', got {spec!r}")
    h1, h2 = int(parts[0]), int(parts[1])
    if h1 < 0 or h2 < 0:
        raise QhalError("domain half-widths must be nonnegative")
    return [
        (i % L, j % L)
        for i in range(-h1, h1 + 1)
        for j in range(-h2, h2 + 1)
    ]


def _lattice_doc(lattice: Lattice) -> dict:
    return {
        "L": lattice.L,
        "gens": [list(g) for g in lattice.generators],
        "size": lattice.size,
    }


def _head(args, command: str, lattice: Lattice, tol: float) -> dict:
    return {
        "qhal_report": 1,
        "command": command,
        "seed": args.seed,
        "tol": tol,
        "L": lattice.L,
        "lattice": _lattice_doc(lattice),
        "adjoint": _lattice_doc(adjoint_lattice(lattice)),
    }


# -- subcommands -------------------------------------------------------------


def cmd_riesz(args) -> int:
    tol = _resolve_tol(args)
    lattice = parse_lattice_spec(args.lattice, args.L)
    S = _build_operator(args.op, args.L, lattice, args.seed)
    report = riesz_report(S, lattice, zero_tol=tol)
    doc = _head(args, "riesz", lattice, tol)
    doc["A"] = report.lower
    doc["B"] = report.upper
    doc["zero_cosets"] = [list(z) for z in report.zero_cosets]
    doc["gram_eigenvalues"] = [float(v) for v in report.gram_eigenvalues]
    _emit(args, doc)
    return 0 if report.is_riesz else 2


def cmd_approx(args) -> int:
    tol = _resolve_tol(args)
    lattice = parse_lattice_spec(args.lattice, args.L)
    S = _build_operator(args.op, args.L, lattice, args.seed)
    T = _build_operator(args.target, args.L, lattice, args.seed + 1)
    report = best_approximation(T, S, lattice, zero_tol=tol)
    if args.out:
        qio.save_text(args.out, qio.dumps_sequence(report.mask))
    doc = _head(args, "approx", lattice, tol)
    doc["residual_hs"] = report.residual_hs
    doc["orthogonality_defect"] = report.orthogonality_defect
    doc["mask_agreement"] = report.mask_agreement
    doc["target_norm"] = hs_norm(T)
    doc["mask_file"] = args.out
    _emit(args, doc)
    return 0


def cmd_recover(args) -> int:
    tol = _resolve_tol(args)
    lattice = parse_lattice_spec(args.lattice, args.L)
    S = _build_operator(args.op, args.L, lattice, args.seed)
    G = _build_operator(args.target, args.L, lattice, args.seed + 1)
    result = recover_mask(G, S, lattice, zero_tol=tol)
    if args.out:
        qio.save_text(args.out, qio.dumps_sequence(result.mask))
    doc = _head(args, "recover", lattice, tol)
    doc["residual_hs"] = result.residual_hs
    doc["mask_file"] = args.out
    _emit(args, doc)
    return 0


def cmd_divide(args) -> int:
    tol = _resolve_tol(args)
    lattice = parse_lattice_spec(args.lattice, args.L)
    S = _build_operator(args.op, args.L, lattice, args.seed)
    T = _build_operator(args.divisor, args.L, lattice, args.seed + 1)
    domain = _parse_domain(args.domain, args.L)
    A = underspread_divide(S, T, lattice, domain, zero_tol=tol)
    recon = seq_op_conv(op_op_conv(S, T, lattice), A)
    err = hs_norm(recon - S) / max(hs_norm(S), 1e-300)
    if args.out:
        qio.save_text(args.out, qio.dumps_operator(A))
    doc = _head(args, "divide", lattice, tol)
    doc["domain"] = [list(z) for z in domain]
    doc["reconstruction_error"] = err
    doc["out_file"] = args.out
    _emit(args, doc)
    return 0


def cmd_suite(args) -> int:
    tol = _resolve_tol(args)
    if args.cases:
        cases = []
        for chunk in args.cases.split(";"):
            dim, steps = chunk.split(":")
            a, b = steps.split(",")
            cases.append((int(dim), int(a), int(b)))
    else:
        cases = list(STANDARD_CASES)
    started = time.monotonic()
    case_docs = []
    failures = 0
    for L, a, b in cases:
        results = run_case(L, a, b, args.seed, tol)
        lattice = make_separable_lattice(a, b, L)
        checks = []
        print(f"case L={L} lattice={a},{b}")
        for res in results:
            ok = res.passed
            if not ok:
                failures += 1
            status = "PASS" if ok else "FAIL"
            tol_text = "measured" if res.tol is None else f"tol={res.tol:g}"
            print(f"  {status} {res.name:<26} dev={res.deviation:.3e} {tol_text}")
            checks.append(
                {
                    "name": res.name,
                    "deviation": res.deviation,
                    "tol": res.tol,
                    "pass": ok,
                }
            )
        case_docs.append(
            {
                "L": L,
                "lattice": _lattice_doc(lattice),
                "checks": checks,
                "pass": all(c["pass"] for c in checks),
            }
        )
    elapsed = time.monotonic() - started
    print(f"suite {'PASS' if failures == 0 else 'FAIL'} "
          f"({len(cases)} cases, {failures} failures, {elapsed:.1f}s)")
    doc = {
        "qhal_report": 1,
        "command": "suite",
        "seed": args.seed,
        "tol": tol,
        "cases": case_docs,
        "pass": failures == 0,
    }
    _emit(args, doc)
    return 0 if failures == 0 else 2


def cmd_gen(args) -> int:
    if not args.out:
        raise QhalError("gen needs --out")
    lattice = None
    if args.lattice:
        lattice = parse_lattice_spec(args.lattice, args.L)
    if args.window:
        payload = qio.dumps_signal(_build_window(args.window, args.L, args.seed))
        kind = "window"
    elif args.op:
        payload = qio.dumps_operator(
            _build_operator(args.op, args.L, lattice, args.seed)
        )
        kind = "operator"
    elif args.mask:
        if lattice is None:
            raise QhalError("--mask needs --lattice")
        payload = qio.dumps_sequence(_build_mask(args.mask, lattice, args.seed))
        kind = "mask"
    elif lattice is not None:
        payload = qio.dumps_lattice(lattice)
        kind = "lattice"
    else:
        raise QhalError("gen needs one of --window, --op, --mask or --lattice")
    qio.save_text(args.out, payload)
    doc = {
        "qhal_report": 1,
        "command": "gen",
        "seed": args.seed,
        "kind": kind,
        "out": args.out,
    }
    _emit(args, doc)
    return 0


# -- argument surface --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhal",
        description="Quantum harmonic analysis on Z_L x Z_L: lattice "
        "convolutions, Riesz diagnostics, best approximation, mask recovery "
        "and underspread division.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lattice_required=True):
        p.add_argument("--L", type=int, required=True, help="ambient dimension")
        p.add_argument(
            "--lattice",
            required=lattice_required,
            help="'a,b' for aZ x bZ or 'gens=m,n;m,n;...'",
        )
        p.add_argument("--seed", type=int, default=0, help="rng seed")
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="zero threshold, relative to the symbol max "
            "(default 1e-10, env QHAL_TOL)",
        )
        p.add_argument("--out", default=None, help="data output path")
        p.add_argument("--json", default=None, help="write the JSON report here too")

    p = sub.add_parser("riesz", help="frame bounds and zero cosets of a generator")
    common(p)
    p.add_argument("--op", required=True, help="generator operator spec")
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("approx", help="best approximation by a Gabor-type sum")
    common(p)
    p.add_argument("--op", required=True, help="generator operator spec")
    p.add_argument("--target", required=True, help="target operator spec")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("recover", help="recover the mask of a lattice sum")
    common(p)
    p.add_argument("--op", required=True, help="generator operator spec")
    p.add_argument("--target", required=True, help="operator to invert")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("divide", help="underspread division S = (S conv T) conv A")
    common(p)
    p.add_argument("--op", required=True, help="underspread operator spec")
    p.add_argument("--divisor", required=True, help="divisor operator spec")
    p.add_argument(
        "--domain",
        required=True,
        help="'h1,h2': centered box of half-widths h1, h2",
    )
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("suite", help="run the full identity suite")
    p.add_argument("--cases", default=None, help="'L:a,b;L:a,b;...' case list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("gen", help="emit windows, operators, masks or lattices")
    common(p, lattice_required=False)
    p.add_argument("--window", default=None, help="window spec to emit")
    p.add_argument("--op", default=None, help="operator spec to emit")
    p.add_argument("--mask", default=None, help="mask spec to emit")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DEGENERATE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QhalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
