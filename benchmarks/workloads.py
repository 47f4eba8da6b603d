"""The workloads: sizes, request inputs made from the seed, the calls a user
waits for, and the correctness checks run after each call.

Every workload cycles through the four analysis requests in a fixed order.
In cycle c the request at position c mod 4 uses a Gaussian rank-one
generator built with the public default ``gaussian_window(L)`` inside the
request; the others use a fresh random rank-3 generator.  So one request in
four is a Gaussian one, and each type gets one every four cycles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import qhal
from qhal import io as qio

KINDS = ("riesz", "approx", "recover", "divide")

# relative to the norms named at each check; observed deviations are <= 2e-11
RTOL = 1e-9

CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    lattices: tuple[str, ...]  # CLI lattice specs, one per cycle in turn
    domain: tuple[int, int]  # half-widths of the divide domain box
    cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_lattice", 105, ("3,5",), (2, 2), cli=False),
        Workload("general_lattice", 225, ("gens=15,1",), (3, 3), cli=False),
        Workload("cli_cold", 45, ("3,5", "gens=3,1"), (1, 1), cli=True),
    )
}

# L = 15 variants for the smoke test; gaussian_window(15) succeeds
SMOKE_LATTICES = {
    "dense_lattice": ("3,5",),
    "general_lattice": ("gens=3,1",),
    "cli_cold": ("3,5", "gens=3,1"),
}


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if smoke:
        w = replace(w, L=15, lattices=SMOKE_LATTICES[name], domain=(1, 1))
    return w


def plan(cycle: int):
    """(kind, gaussian) for the four requests of one cycle."""
    return [(kind, k == cycle % len(KINDS)) for k, kind in enumerate(KINDS)]


class Refused(Exception):
    """A CLI child reported an error through its documented error path."""


class Crashed(Exception):
    """A CLI child died without the CLI's own error message, or timed out."""


@dataclass
class Request:
    kind: str
    gaussian: bool
    call: Callable[[], object]
    check: Callable[[object], float]  # worst relative deviation; inf if wrong


# -- input generators ----------------------------------------------------------


def make_lattice(spec: str, L: int):
    if spec.startswith("gens="):
        gens = [tuple(int(v) for v in g.split(",")) for g in spec[5:].split(";")]
        return qhal.make_general_lattice(gens, L)
    a, b = (int(v) for v in spec.split(","))
    return qhal.make_separable_lattice(a, b, L)


def random_rank3(L: int, rng) -> np.ndarray:
    u = rng.standard_normal((L, 3)) + 1j * rng.standard_normal((L, 3))
    v = rng.standard_normal((L, 3)) + 1j * rng.standard_normal((L, 3))
    return u @ v.conj().T


def random_operator(L: int, rng) -> np.ndarray:
    return rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))


def gaussian_rank1(L: int, verify: bool = True) -> np.ndarray:
    """The request builds it with the public default; inputs and checks
    that need the same operator build it without the STFT gate."""
    g = qhal.gaussian_window(L) if verify else qhal.gaussian_window(L, verify=False)
    return qhal.rank_one(g, g)


def underspread(L: int, half, rng) -> np.ndarray:
    """Operator whose Fourier-Wigner transform is a random box of half-widths half."""
    grid = np.zeros((L, L), dtype=np.complex128)
    h1, h2 = half
    for i in range(-h1, h1 + 1):
        for j in range(-h2, h2 + 1):
            grid[i % L, j % L] = complex(rng.standard_normal(), rng.standard_normal())
    return qhal.inverse_fourier_wigner(grid)


def bump(L: int) -> np.ndarray:
    """The CLI's ``bump`` divisor: FW = 0.25 + a Gaussian bump, never zero."""
    d = np.minimum(np.arange(L), L - np.arange(L)).astype(float)
    grid = 0.25 + np.exp(-np.pi * (d[:, None] ** 2 + d[None, :] ** 2) / L)
    return qhal.inverse_fourier_wigner(grid.astype(np.complex128))


def domain_points(L: int, half):
    h1, h2 = half
    return [(i % L, j % L) for i in range(-h1, h1 + 1) for j in range(-h2, h2 + 1)]


# -- checks ------------------------------------------------------------------


def _hs(S) -> float:
    return float(np.linalg.norm(S))


def check_riesz(lower, upper, zero_cosets, eigenvalues, S, symbol=None) -> float:
    """Riesz, A <= ||S||^2 <= B, and Gram spectrum = symbol values.

    The mean symbol value (and the mean Gram eigenvalue, the Gram diagonal)
    equals ||S||_HS^2 by Poisson summation and Parseval.
    """
    if zero_cosets:
        return float("inf")
    hs2 = _hs(S) ** 2
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    devs = [
        max(lower - hs2, hs2 - upper, 0.0) / hs2,
        abs(eigs.mean() - hs2) / hs2,
        max(lower - eigs[0], eigs[-1] - upper, 0.0) / upper,
    ]
    if symbol is not None:
        devs.append(abs(symbol.mean() - hs2) / hs2)
        devs.append(float(np.max(np.abs(np.sort(symbol) - eigs))) / upper)
    return max(devs)


def check_approx(mask, approximant, mask_agreement, defect, residual_hs, T_norm, S):
    """Fourier and time masks agree, the residual is orthogonal to the span,
    and ||T||^2 = ||approximant||^2 + residual^2."""
    return max(
        mask_agreement / float(np.max(np.abs(mask.values))),
        defect / (T_norm * _hs(S)),
        abs(T_norm**2 - _hs(approximant) ** 2 - residual_hs**2) / T_norm**2,
    )


def check_recover(mask, residual_hs, planted, G) -> float:
    return max(
        float(np.max(np.abs(mask.values - planted.values)))
        / float(np.max(np.abs(planted.values))),
        residual_hs / _hs(G),
    )


def check_divide(A, T, lattice, points) -> float:
    """FW(A) = 1 / (kappa FW(T)) on the domain and zero off it."""
    L = lattice.L
    FA = qhal.fourier_wigner(A)
    FT = qhal.fourier_wigner(T)
    kappa = lattice.size / L
    inside = np.zeros((L, L), dtype=bool)
    rows, cols = zip(*points)
    inside[rows, cols] = True
    scale = float(np.max(np.abs(FA)))
    return max(
        float(np.max(np.abs(kappa * FA[inside] * FT[inside] - 1.0))),
        float(np.max(np.abs(FA[~inside]), initial=0.0)) / scale,
    )


# -- library sessions ----------------------------------------------------------


class LibrarySession:
    """One caller of the library; set-up builds the lattices and their caches."""

    def __init__(self, w: Workload):
        self.w = w
        self.build_lattices()
        self.bump = bump(w.L)
        self.points = domain_points(w.L, w.domain)

    def build_lattices(self):
        self.lattices = [make_lattice(spec, self.w.L) for spec in self.w.lattices]
        for lattice in self.lattices:
            qhal.quotient_reps(qhal.adjoint_lattice(lattice))

    @staticmethod
    def is_refusal(exc: BaseException) -> bool:
        return isinstance(exc, qhal.QhalError)

    def clear(self):
        pass

    def request(self, kind: str, gaussian: bool, rng, cycle: int) -> Request:
        L = self.w.L
        lat = self.lattices[cycle % len(self.lattices)]
        S = None if gaussian else random_rank3(L, rng)

        def generator():
            return gaussian_rank1(L) if gaussian else S

        S_known = gaussian_rank1(L, verify=False) if gaussian else S

        if kind == "riesz":
            return Request(
                kind,
                gaussian,
                lambda: qhal.riesz_report(generator(), lat),
                lambda r: check_riesz(
                    r.lower,
                    r.upper,
                    r.zero_cosets,
                    r.gram_eigenvalues,
                    S_known,
                    symbol=r.symbol.values.real,
                ),
            )
        if kind == "approx":
            T = random_operator(L, rng)
            return Request(
                kind,
                gaussian,
                lambda: qhal.best_approximation(T, generator(), lat),
                lambda r: check_approx(
                    r.mask,
                    r.approximant,
                    r.mask_agreement,
                    r.orthogonality_defect,
                    r.residual_hs,
                    _hs(T),
                    S_known,
                ),
            )
        if kind == "recover":
            c = qhal.random_sequence(lat, rng)
            G = qhal.seq_op_conv(c, S_known)
            return Request(
                kind,
                gaussian,
                lambda: qhal.recover_mask(G, generator(), lat),
                lambda r: check_recover(r.mask, r.residual_hs, c, G),
            )
        S = underspread(L, (1, 1), rng)
        T_known = gaussian_rank1(L, verify=False) if gaussian else self.bump

        def divisor():
            return gaussian_rank1(L) if gaussian else self.bump

        return Request(
            kind,
            gaussian,
            lambda: qhal.underspread_divide(S, divisor(), lat, self.points),
            lambda A: check_divide(A, T_known, lat, self.points),
        )


# -- CLI sessions ------------------------------------------------------------


class CliSession:
    """One user running ``python -m qhal.cli`` once per request.

    Input operators are written by the benchmark before the child starts.
    With ``launcher`` set, children run through that script instead, which
    traces the CLI in the child and writes a trace document per request;
    ``clear`` collects them after each cycle, outside the timed calls.
    """

    def __init__(self, w: Workload, workdir: str, src: str, launcher=None):
        self.w = w
        self.workdir = workdir
        self.launcher = launcher
        self.traces = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.lattices = [make_lattice(spec, w.L) for spec in w.lattices]
        self.bump = bump(w.L)
        self.points = domain_points(w.L, w.domain)
        self.serial = 0

    @staticmethod
    def is_refusal(exc: BaseException) -> bool:
        return isinstance(exc, Refused)

    def _path(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{stem}-{self.serial}.txt")

    def _run(self, argv, trace_path=None):
        if self.launcher:
            cmd = [sys.executable, self.launcher, trace_path] + argv
        else:
            cmd = [sys.executable, "-m", "qhal.cli"] + argv
        try:
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env=self.env,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise Crashed(f"timed out: {' '.join(argv)}")
        if proc.returncode != 0:
            message = proc.stderr.strip()
            if proc.returncode in (1, 2) and message.startswith("error:"):
                raise Refused(message)
            raise Crashed(message[-2000:])
        return json.loads(proc.stdout)

    def request(self, kind: str, gaussian: bool, rng, cycle: int) -> Request:
        self.serial += 1
        L = self.w.L
        spec = self.w.lattices[cycle % len(self.w.lattices)]
        lat = self.lattices[cycle % len(self.lattices)]
        child_seed = int(rng.integers(2**31))
        argv = [kind, "--L", str(L), "--lattice", spec, "--seed", str(child_seed)]
        trace_path = self._path("trace") if self.launcher else None

        if kind == "divide":
            S = None
            T_known = gaussian_rank1(L, verify=False) if gaussian else self.bump
            divisor = "rank1:gauss,gauss" if gaussian else "bump"
            out = self._path("divider")
            argv += ["--op", "underspread:1,1", "--divisor", divisor]
            argv += ["--domain", "{},{}".format(*self.w.domain), "--out", out]
        else:
            S = gaussian_rank1(L, verify=False) if gaussian else random_rank3(L, rng)
            if gaussian:
                argv += ["--op", "rank1:gauss,gauss"]
            else:
                op_path = self._path("generator")
                qio.save_text(op_path, qio.dumps_operator(S))
                argv += ["--op", f"file:{op_path}"]

        if kind == "approx":
            out = self._path("mask")
            argv += ["--target", "random", "--out", out]
        elif kind == "recover":
            planted = qhal.random_sequence(lat, rng)
            G = qhal.seq_op_conv(planted, S)
            target = self._path("target")
            qio.save_text(target, qio.dumps_operator(G))
            out = self._path("mask")
            argv += ["--target", f"file:{target}", "--out", out]

        def call():
            return self._run(argv, trace_path)

        def check(doc) -> float:
            if kind == "riesz":
                return check_riesz(
                    doc["A"], doc["B"], doc["zero_cosets"], doc["gram_eigenvalues"], S
                )
            if kind == "approx":
                mask = qio.loads_sequence(qio.load_text(out))
                return check_approx(
                    mask,
                    qhal.seq_op_conv(mask, S),
                    doc["mask_agreement"],
                    doc["orthogonality_defect"],
                    doc["residual_hs"],
                    doc["target_norm"],
                    S,
                )
            if kind == "recover":
                mask = qio.loads_sequence(qio.load_text(out))
                return check_recover(mask, doc["residual_hs"], planted, G)
            A = qio.loads_operator(qio.load_text(out))
            return max(
                doc["reconstruction_error"],
                check_divide(A, T_known, lat, self.points),
            )

        return Request(kind, gaussian, call, check)

    def clear(self):
        """Delete the request files, keeping the contents of trace documents."""
        for name in os.listdir(self.workdir):
            path = os.path.join(self.workdir, name)
            if name.startswith("trace-"):
                with open(path, encoding="ascii") as handle:
                    self.traces.append(json.load(handle))
            os.remove(path)
