"""Slow literal-definition transcriptions used as oracles.

Everything here is written with explicit loops straight from the defining
formulas and deliberately shares no code with the library, so agreement
between the two is meaningful.  The divide oracle raises the library's
error classes, so refusals compare by class and message.
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


def gaussian_window_slow(L, wraps=8):
    """exp(-pi t^2 / L) periodized with one pass per wrap, unit norm."""
    t = np.arange(L, dtype=np.float64)
    vals = np.zeros(L)
    for j in range(-wraps, wraps + 1):
        vals += np.exp(-np.pi * (t + j * L) ** 2 / L)
    return (vals / np.linalg.norm(vals)).astype(np.complex128)


def gaussian_stft_closed_form(L):
    """stft(g, g) of the periodized Gaussian g from Poisson summation:

        c sum_{j,k} exp(-pi ((m + jL)^2 + (n + kL)^2) / (2L))
                    exp(-i pi (m + jL)(n + kL) / L),

    c = 1 / (the sum at (0, 0)), since g has unit norm.  j and k run over
    -4..4 up to L = 26 and over {-1, 0} above it, where every dropped wrap
    is below exp(-pi L / 2) of the peak.  No FFT and no library kernel."""
    wraps = np.arange(-4, 5) if L <= 26 else np.array([-1, 0])
    t = np.arange(L, dtype=np.float64)
    V = np.zeros((L, L), dtype=complex)
    for j in wraps:
        for k in wraps:
            m, n = t[:, None] + j * L, t[None, :] + k * L
            V += np.exp(-np.pi * (m**2 + n**2) / (2 * L) - 1j * np.pi * m * n / L)
    origin = sum(np.exp(-np.pi * L * (j**2 + k**2) / 2 - 1j * np.pi * j * k * L)
                 for j in wraps for k in wraps)
    return V / origin


def adjoint_coset_sums(f, gens, reps, L):
    """kappa times the sums of f over the cosets z + Lambda° for z in reps,
    where Lambda° holds the points (m, n) with n gm - m gn = 0 mod L for
    every generator (gm, gn) of the lattice, and kappa = L / |Lambda°|."""
    m, n = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
    inside = np.ones((L, L), dtype=bool)
    for gm, gn in gens:
        inside &= (n * gm - m * gn) % L == 0
    hm, hn = np.nonzero(inside)
    zm, zn = (np.asarray(r)[:, None] for r in reps)
    return L / hm.size * f[(zm + hm) % L, (zn + hn) % L].sum(axis=1)


# -- the full-transform divide ------------------------------------------------


def underspread_divide_full(S, T, N, domain, zero_tol):
    """The divider S = (S conv T) conv A over a lattice of N points, with the
    support check and the divisor's zero threshold read off all L^2 values
    of V(S) and V(T).  V(X)[m, n] = sum_a exp(-2 pi i n a / L) X[a, a - m]
    is the FFT of the gathered diagonals; V(A) = conj(chi) / (kappa V(T)) on
    the domain and zero off it, chi(m, n) = exp(2 pi i m n / L), kappa = N / L.
    The domain is taken as valid (integers, one point per adjoint coset)."""
    from qhal.errors import DivisionByZeroError, SupportViolationError

    L = np.shape(S)[0]
    a = np.arange(L)
    diagonals = (a, (a - a[:, None]) % L)  # [m, a] -> X[a, a - m]

    def spreading(X):
        return np.fft.fft(np.asarray(X, dtype=complex)[diagonals], axis=1)

    rows, cols = (np.asarray(domain, dtype=np.int64).reshape(-1, 2) % L).T
    spill = np.abs(spreading(S))
    peak = max(spill.max(), 1e-300)
    spill[rows, cols] = 0.0
    if spill.max() > 1e-12 * peak:
        raise SupportViolationError("spreading support of S exceeds the declared domain")
    VT = spreading(T)
    divisor = VT[rows, cols]
    vanishing = np.flatnonzero(np.abs(divisor) <= zero_tol * float(np.abs(VT).max()))
    if vanishing.size:
        i = vanishing[0]
        raise DivisionByZeroError(
            f"spreading function of divisor vanishes at {(int(rows[i]), int(cols[i]))}"
        )
    VA = np.zeros((L, L), dtype=complex)
    chi = np.exp(2j * np.pi * (rows * cols % L) / L)
    VA[rows, cols] = np.conj(chi) / ((N / L) * divisor)
    A = np.empty((L, L), dtype=complex)
    A[diagonals] = np.fft.ifft(VA, axis=1)
    return A


def outcome(call):
    """call()'s result, or the class and message of the qhal error it raises."""
    from qhal.errors import QhalError

    try:
        return call()
    except QhalError as err:
        return type(err), str(err)


# -- the per-line v1 text codec ----------------------------------------------


def write_rows_slow(values, points=None):
    """One '<re> <im>' line per value (17 significant digits), led by
    '<m> <n>' when points are given."""
    rows = []
    for i, z in enumerate(values):
        pair = f"{format(float(z.real), '.17g')} {format(float(z.imag), '.17g')}"
        rows.append(pair if points is None else f"{points[i][0]} {points[i][1]} {pair}")
    return "\n".join(rows) + "\n"


def read_rows_slow(lines, L=None, slots=None):
    """Table rows parsed one line at a time; malformed input raises ValueError.

    Plain rows are '<re> <im>', in order.  With slots, rows are
    '<m> <n> <re> <im>' and the value lands in slots[(m % L, n % L)], which
    every row must fill exactly once.
    """
    size = len(lines) if slots is None else len(set(slots.values()))
    if len(lines) != size:
        raise ValueError(f"expected {size} rows, found {len(lines)}")
    out = [None] * size
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) != (2 if slots is None else 4):
            raise ValueError(f"bad row {line!r}")
        re, im = float(parts[-2]), float(parts[-1])
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ValueError(f"non-finite row {line!r}")
        if slots is not None:
            key = (int(parts[0]) % L, int(parts[1]) % L)
            if key not in slots or out[slots[key]] is not None:
                raise ValueError(f"row {line!r} is off the record or repeated")
            i = slots[key]
        out[i] = complex(re, im)
    return np.array(out, dtype=np.complex128)
