"""Slow literal-definition transcriptions used as oracles.

Everything here is written with explicit loops straight from the defining
formulas and deliberately shares no code with the library, so agreement
between the two is meaningful.
"""

import numpy as np


def shift_matrix(m, n, L):
    M = np.zeros((L, L), dtype=complex)
    for t in range(L):
        M[t, (t - m) % L] = np.exp(2j * np.pi * n * t / L)
    return M


def translate_slow(S, m, n, L):
    P = shift_matrix(m, n, L)
    return P @ np.asarray(S) @ P.conj().T


def parity_matrix(L):
    P = np.zeros((L, L), dtype=complex)
    for t in range(L):
        P[t, (-t) % L] = 1.0
    return P


def parity_slow(S, L):
    P = parity_matrix(L)
    return P @ np.asarray(S) @ P


def stft_slow(psi, phi, L):
    V = np.zeros((L, L), dtype=complex)
    for m in range(L):
        for n in range(L):
            shifted = shift_matrix(m, n, L) @ np.asarray(phi)
            V[m, n] = np.sum(np.asarray(psi) * shifted.conj())
    return V


def symplectic_dft_slow(f, L):
    F = np.zeros((L, L), dtype=complex)
    for m in range(L):
        for n in range(L):
            acc = 0.0 + 0.0j
            for mp in range(L):
                for np_ in range(L):
                    sig = (n * mp - m * np_) % L
                    acc += f[mp, np_] * np.exp(-2j * np.pi * sig / L)
            F[m, n] = acc / L
    return F


def fourier_wigner_slow(S, L):
    h = (L + 1) // 2
    F = np.zeros((L, L), dtype=complex)
    for m in range(L):
        for n in range(L):
            pi_z = shift_matrix(m, n, L)
            F[m, n] = np.exp(2j * np.pi * h * m * n / L) * np.trace(
                pi_z.conj().T @ np.asarray(S)
            )
    return F


def inverse_fourier_wigner_slow(F, L):
    h = (L + 1) // 2
    S = np.zeros((L, L), dtype=complex)
    for m in range(L):
        for n in range(L):
            S += np.exp(-2j * np.pi * h * m * n / L) * F[m, n] * shift_matrix(m, n, L)
    return S / L


def seq_op_conv_slow(points, values, S, L):
    out = np.zeros((L, L), dtype=complex)
    for (m, n), v in zip(points, values):
        out += v * translate_slow(S, m, n, L)
    return out


def op_op_conv_slow(S, T, points, L):
    checked = parity_slow(T, L)
    vals = []
    for m, n in points:
        vals.append(np.trace(np.asarray(S) @ translate_slow(checked, m, n, L)))
    return np.array(vals)


def seq_seq_conv_slow(points, cvals, dvals, L):
    index = {p: i for i, p in enumerate(points)}
    out = np.zeros(len(points), dtype=complex)
    for i, (am, an) in enumerate(points):
        for j, (bm, bn) in enumerate(points):
            out[index[((am + bm) % L, (an + bn) % L)]] += cvals[i] * dvals[j]
    return out


def series_slow(points, values, reps, L):
    out = []
    for zm, zn in reps:
        acc = 0.0 + 0.0j
        for (lm, ln), v in zip(points, values):
            sig = (ln * zm - lm * zn) % L
            acc += v * np.exp(2j * np.pi * sig / L)
        out.append(acc)
    return np.array(out)


def periodize_slow(f, sub_points, reps, L):
    kappa = L / len(sub_points)
    out = []
    for m, n in reps:
        acc = 0.0 + 0.0j
        for hm, hn in sub_points:
            acc += f[(m + hm) % L, (n + hn) % L]
        out.append(kappa * acc)
    return np.array(out)


def adjoint_points_slow(points, L):
    out = []
    for m in range(L):
        for n in range(L):
            if all((n * lm - m * ln) % L == 0 for lm, ln in points):
                out.append((m, n))
    return out


def closure_slow(gens, L):
    """The subgroup generated by gens, grown point by point from the origin."""
    points = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = ((base[0] + g[0]) % L, (base[1] + g[1]) % L)
            if nxt not in points:
                points.add(nxt)
                frontier.append(nxt)
    return points


def generating_set_slow(points, L):
    """Greedy generators: each point not yet spanned joins the set."""
    chosen = []
    span = {(0, 0)}
    for p in points:
        if p not in span:
            chosen.append(p)
            span = closure_slow(tuple(chosen), L)
    return tuple(chosen) if chosen else ((0, 0),)


def quotient_slow(points, L):
    """Row-major-first transversal and the coset of every grid point."""
    coset_of = np.full((L, L), -1, dtype=np.int64)
    reps = []
    for m in range(L):
        for n in range(L):
            if coset_of[m, n] >= 0:
                continue
            idx = len(reps)
            reps.append((m, n))
            for hm, hn in points:
                coset_of[(m + hm) % L, (n + hn) % L] = idx
    return tuple(reps), coset_of
