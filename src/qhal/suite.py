"""The identity suite behind the ``qhal suite`` command.

Each check computes a deviation that should be numerically zero and
compares it against a pinned tolerance.  Checks marked with tolerance
None are measured quantities reported for information (interpolated
norm ratios); they always pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    best_approximation,
    biorthogonal_generator,
    gram_matrix,
    nonassociativity_witness,
    recover_mask,
    riesz_report,
    tauberian_diagnostics,
    underspread_divide,
)
from .convolutions import (
    fs_of_op_op_conv,
    fw_of_seq_op_conv,
    gabor_multiplier,
    mixed_associativity_defect,
    module_associativity_defect,
    op_op_conv,
    seq_op_conv,
    synthesis_map,
)
from .operators import (
    hs_inner,
    hs_norm,
    parity_conjugate,
    random_operator,
    random_signal,
    rank_one,
    schatten_norm,
    tf_shift,
)
from .phase_space import (
    LatticeSequence,
    adjoint_lattice,
    delta_sequence,
    fundamental_domain,
    make_separable_lattice,
    quotient_reps,
    random_sequence,
    separable_profile,
)
from .transforms import (
    fourier_wigner,
    inverse_fourier_wigner,
    inverse_symplectic_fourier_series,
    periodize,
    spectrogram_samples,
    stft,
    symplectic_dft,
    symplectic_fourier_series,
    weyl_symbol,
)
from .windows import gaussian_window

__all__ = ["CheckResult", "run_case", "STANDARD_CASES"]

STANDARD_CASES = ((9, 3, 3), (15, 3, 5), (15, 5, 5))


@dataclass
class CheckResult:
    name: str
    deviation: float
    tol: float | None

    @property
    def passed(self) -> bool:
        return self.tol is None or self.deviation <= self.tol


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def bump_divisor(L: int) -> np.ndarray:
    """Operator whose spreading function is strictly positive everywhere."""
    d = np.minimum(np.arange(L), L - np.arange(L)).astype(float)
    grid = 0.25 + np.exp(-np.pi * (d[:, None] ** 2 + d[None, :] ** 2) / L)
    return inverse_fourier_wigner(grid.astype(np.complex128))


def run_case(L: int, a: int, b: int, seed: int, zero_tol: float) -> list[CheckResult]:
    """Run the full identity battery on one (L, aZ x bZ) pair."""
    lat = make_separable_lattice(a, b, L)
    adj = adjoint_lattice(lat)
    quot = quotient_reps(adj)
    rng = np.random.default_rng([seed, L, a, b])
    out: list[CheckResult] = []

    def add(name, deviation, tol):
        out.append(CheckResult(name, float(deviation), tol))

    # ---- structure of the lattice pair
    dual_ok = adjoint_lattice(adj) == lat and lat.size * adj.size == L * L
    add("adjoint_duality", 0.0 if dual_ok else 1.0, 0.5)

    mm, nn = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
    sums = np.zeros((L, L), dtype=np.complex128)
    for lm, ln in lat.points:
        sums += np.exp(2j * np.pi * ((ln * mm - lm * nn) % L) / L)
    target = np.zeros((L, L))
    for m, n in adj.points:
        target[m, n] = lat.size
    add("character_sum", _maxabs(sums - target), 1e-9)

    # ---- transform infrastructure
    f = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    add("sdft_involution", _maxabs(symplectic_dft(symplectic_dft(f)) - f), 1e-11)

    S = random_operator(L, rng)
    T = random_operator(L, rng)
    add(
        "fw_roundtrip",
        _maxabs(inverse_fourier_wigner(fourier_wigner(S)) - S),
        1e-11,
    )
    lhs = np.sum(fourier_wigner(S) * np.conj(fourier_wigner(T))) / L
    add("fw_plancherel", abs(lhs - hs_inner(S, T)), 1e-11)

    p1, p2, f1, f2 = (random_signal(L, rng) for _ in range(4))
    moyal = np.sum(stft(p1, f1) * np.conj(stft(p2, f2)))
    add(
        "moyal",
        abs(moyal - L * np.vdot(p2, p1) * np.conj(np.vdot(f2, f1))),
        1e-11,
    )

    # columns of the synthesis matrix are the translates of S, in point order
    smap = synthesis_map(S, lat)
    sym1 = weyl_symbol(np.eye(L, dtype=np.complex128))
    k = min(1, lat.size - 1)
    lampt = lat.points[k]
    cov = weyl_symbol(smap.matrix[:, k].reshape(L, L))
    shifted = np.roll(np.roll(weyl_symbol(S), lampt[0], axis=0), lampt[1], axis=1)
    wdev = max(
        _maxabs(sym1 - 1.0),
        _maxabs(cov - shifted),
        abs(np.sum(weyl_symbol(S) * np.conj(weyl_symbol(T))) / L - hs_inner(S, T)),
    )
    add("weyl_symbol", wdev, 1e-11)

    zs = [(int(rng.integers(L)), int(rng.integers(L))) for _ in range(6)]
    onb = 0.0
    for z in zs:
        for w in zs:
            want = float(L) if z == w else 0.0
            onb = max(onb, abs(hs_inner(tf_shift(z, L), tf_shift(w, L)) - want))
    add("shift_onb", onb, 1e-11)

    pdev = _maxabs(parity_conjugate(parity_conjugate(S)) - S)
    pdev = max(
        pdev,
        _maxabs(parity_conjugate(np.conj(S.T)) - np.conj(parity_conjugate(S).T)),
    )
    add("parity_laws", pdev, 1e-12)

    # ---- Poisson / orthogonality and the modulation law
    conv = op_op_conv(S, T, lat)
    lhs_q = symplectic_fourier_series(conv)
    rhs_q = periodize(fourier_wigner(S) * fourier_wigner(T), adj)
    scale = max(1.0, _maxabs(lhs_q.values))
    add("poisson_orthogonality", _maxabs(lhs_q.values - rhs_q.values) / scale, 1e-10)
    add(
        "fs_provider",
        _maxabs(fs_of_op_op_conv(S, T, lat).values - lhs_q.values) / scale,
        1e-10,
    )

    c = random_sequence(lat, rng)
    add(
        "modulation_law",
        _maxabs(fourier_wigner(seq_op_conv(c, S)) - fw_of_seq_op_conv(c, S)),
        1e-11,
    )

    two_reps = [(z, ((z[0] + adj.points[-1][0]) % L, (z[1] + adj.points[-1][1]) % L)) for z in quot.reps[:4]]
    series = symplectic_fourier_series(c)
    wd = max(abs(series.value_at(z1) - series.value_at(z2)) for z1, z2 in two_reps)
    add("series_well_defined", wd, 1e-11)

    back = inverse_symplectic_fourier_series(series, lat)
    add("series_roundtrip", _maxabs(back.values - c.values), 1e-11)

    # ---- rank-one specializations
    kappa = lat.size / L
    x1, x2 = random_signal(L, rng), random_signal(L, rng)
    Vlhs = stft(x1, f2) * np.conj(stft(x2, f1))
    figa_lhs = sum(Vlhs[p] for p in lat.points)
    Vrhs = stft(x1, x2) * np.conj(stft(f2, f1))
    figa_rhs = kappa * sum(Vrhs[p] for p in adj.points)
    add("figa_rank_one", abs(figa_lhs - figa_rhs) / max(1.0, abs(figa_lhs)), 1e-10)

    spec_seq = spectrogram_samples(x1, f1, lat)
    direct = op_op_conv(rank_one(x1, x1), parity_conjugate(rank_one(f1, f1)), lat)
    add("spectrogram_path", _maxabs(spec_seq.values - direct.values), 1e-11)

    g = gaussian_window(L)
    mult = gabor_multiplier(c, g)
    psi = random_signal(L, rng)
    acted = np.zeros(L, dtype=np.complex128)
    V = stft(psi, g)
    for coeff, point in zip(c.values, lat.points):
        acted += coeff * V[point] * (tf_shift(point, L) @ g)
    add("gabor_action", _maxabs(mult @ psi - acted), 1e-11)

    # ---- module algebra
    d = random_sequence(lat, rng)
    add("associativity_mixed", mixed_associativity_defect(c, S, T), 1e-11)
    add("associativity_module", module_associativity_defect(c, d, T), 1e-11)
    add(
        "commutativity",
        _maxabs(op_op_conv(S, T, lat).values - op_op_conv(T, S, lat).values),
        1e-11,
    )
    adjrel = op_op_conv(T, parity_conjugate(np.conj(S.T)), lat)
    adev = _maxabs(adjrel.values - smap.matrix.conj().T @ T.reshape(-1))
    add("adjoint_relation", adev, 1e-11)

    R0 = random_operator(L, rng)
    bracket = abs(
        hs_inner(seq_op_conv(c, S), R0)
        - np.sum(c.values * np.conj(op_op_conv(R0, parity_conjugate(np.conj(S.T)), lat).values))
    )
    add("duality_bracket", bracket, 1e-11)

    full = make_separable_lattice(1, 1, L)
    conv_full = op_op_conv(S, T, full)
    restr = max(
        abs(conv_full.value_at(p) - conv.value_at(p)) for p in lat.points
    )
    add("restriction_consistency", restr, 1e-11)

    young = 0.0
    for p in (1, 2, np.inf):
        lhsn = schatten_norm(seq_op_conv(c, S), p)
        bound = float(np.sum(np.abs(c.values))) * schatten_norm(S, p)
        young = max(young, max(0.0, lhsn / bound - 1.0))
    add("young_inequality", young, 1e-12)

    # ---- Riesz machinery on a generic generator, against the dense Gram spectrum
    rep = riesz_report(S, lat, zero_tol=zero_tol)
    eig_dev = _maxabs(
        np.linalg.eigvalsh(gram_matrix(S, lat)) - np.sort(rep.symbol.values.real)
    ) / max(1.0, rep.upper)
    add("gram_spectrum", eig_dev, 1e-9)

    sing = np.linalg.svd(smap.matrix, compute_uv=False)
    full_rank = bool(sing[-1] > 1e-12 * sing[0])
    add("rank_condition", 0.0 if full_rank == rep.is_riesz else 1.0, 0.5)

    add(
        "tauberian_consistent",
        0.0 if tauberian_diagnostics(S, lat, zero_tol=zero_tol).consistent else 1.0,
        0.5,
    )

    R = biorthogonal_generator(S, lat, zero_tol=zero_tol)
    delta = delta_sequence(lat)
    add(
        "biorthogonal_delta",
        _maxabs(op_op_conv(S, R, lat).values - delta.values),
        1e-10,
    )

    span_T = seq_op_conv(random_sequence(lat, rng), S)
    back_T = seq_op_conv(op_op_conv(span_T, R, lat), S)
    add("span_reconstruction", _maxabs(back_T - span_T) / max(1.0, hs_norm(span_T)), 1e-10)

    # the full forms over all lattice points; the report samples them
    approx = best_approximation(T, S, lat, zero_tol=zero_tol)
    lsq, *_ = np.linalg.lstsq(smap.matrix, T.reshape(-1), rcond=None)
    three_way = max(
        _maxabs(op_op_conv(T, R, lat).values - approx.mask.values),
        _maxabs(approx.mask.values - lsq),
    )
    add("best_approx_three_way", three_way, 1e-9)
    S_checked = parity_conjugate(np.conj(S.T))
    defect = op_op_conv(T - approx.approximant, S_checked, lat).values
    add("approx_orthogonality", _maxabs(defect) / max(1.0, hs_norm(T)), 1e-9)

    again = best_approximation(approx.approximant, S, lat, zero_tol=zero_tol)
    add("approx_idempotent", _maxabs(again.mask.values - approx.mask.values), 1e-10)

    rec_dev = 0.0
    for i in range(lat.size):
        basis = np.zeros(lat.size, dtype=np.complex128)
        basis[i] = 1.0
        cb = LatticeSequence(lat, basis)
        got = recover_mask(seq_op_conv(cb, S), S, lat, zero_tol=zero_tol)
        rec_dev = max(rec_dev, _maxabs(got.mask.values - basis), got.residual_hs)
    add("recover_roundtrip", rec_dev, 1e-10)

    bands = 0.0
    ratios = []
    for _ in range(20):
        ck = random_sequence(lat, rng)
        r2 = schatten_norm(seq_op_conv(ck, S), 2) / float(np.linalg.norm(ck.values))
        lo, hi = np.sqrt(max(rep.lower, 0.0)), np.sqrt(rep.upper)
        bands = max(bands, max(0.0, lo - r2), max(0.0, r2 - hi))
        for p in (1, np.inf):
            rp = schatten_norm(seq_op_conv(ck, S), p) / float(
                np.sum(np.abs(ck.values) ** 1) if p == 1 else np.max(np.abs(ck.values))
            )
            ratios.append(rp)
            if rp <= 0.0:
                bands = max(bands, 1.0)
    add("lp_isomorphism_bands", bands, 1e-9)
    add("young_interp_ratio_max", max(ratios), None)
    add("young_interp_ratio_min", min(ratios), None)

    if not lat.is_full:
        wT, wdev_ = nonassociativity_witness(S, lat, seed=seed, zero_tol=zero_tol)
        add(
            "nonassoc_witness",
            max(0.0, 0.5 - wdev_ / hs_norm(wT)),
            1e-12,
        )

    profile = separable_profile(adj)
    if profile is not None and profile[0] % 2 == 1 and profile[1] % 2 == 1:
        domain = fundamental_domain(adj, centered=True)
        rngd = np.random.default_rng([seed, L, a, b, 99])
        FW = np.zeros((L, L), dtype=np.complex128)
        for m, n in domain:
            FW[m, n] = rngd.standard_normal() + 1j * rngd.standard_normal()
        Su = inverse_fourier_wigner(FW)
        Tu = bump_divisor(L)
        A = underspread_divide(Su, Tu, lat, domain, zero_tol=zero_tol)
        recon = seq_op_conv(op_op_conv(Su, Tu, lat), A)
        add("underspread_divide", hs_norm(recon - Su) / hs_norm(Su), 1e-9)

    return out
