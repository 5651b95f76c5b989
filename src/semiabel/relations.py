"""Heuristic integer-relation detection by lattice reduction.

Rows of the search lattice are [e_i | round(S * Re(v_i)) | round(S * Im(v_i))]
with a scale S chosen from the tolerance; after exact integer LLL
reduction, short vectors whose embedded column is small yield candidate
relations, each checked by direct summation against the tolerance.

Each question is one reduction under a height cap.  In double precision
a search over k values of size about 1 finds spurious relations once
(2H)^k * (tol/H)^2 >~ 1 (Ferguson, Bailey and Arno, Math. Comp. 68,
1999), so the height is capped where that count stays below
SPURIOUS_BUDGET.
"""

import cmath
from dataclasses import dataclass

DEFAULT_TOL = 1e-9
DEFAULT_MAX_HEIGHT = 1000
MAX_VALUES = 12
# expected number of spurious relations a search may admit
SPURIOUS_BUDGET = 1e-6


@dataclass(frozen=True)
class RelationCertificate:
    coefficients: tuple
    residual: float
    height: int
    height_cap: int


def _round_half_even(num, den):
    """round(num / den) for integers with den > 0, ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def lll_reduce(basis):
    """LLL reduction (delta = 99/100) of linearly independent integer rows.

    Integral LLL (Cohen, Alg. 2.6.7): the Gram-Schmidt data are kept as
    integers, d[i + 1] = det Gram(b_0..b_i) and lam[k][j] = d[j + 1] * mu_kj,
    and updated exactly on each size reduction and swap. Each row k is
    size-reduced against rows k-1..0 before its Lovasz test.
    """
    basis = [list(map(int, row)) for row in basis]
    n = len(basis)
    if n <= 1:
        return basis
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(a * b for a, b in zip(basis[k], basis[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise ValueError("basis rows must be linearly independent")
    k = 1
    while k < n:
        bk, lk = basis[k], lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_even(lk[j], d[j + 1])
            if q:
                bj, lj = basis[j], lam[j]
                for c in range(len(bk)):
                    bk[c] -= q * bj[c]
                lk[j] -= q * d[j + 1]
                for i in range(j):
                    lk[i] -= q * lj[i]
        la = lk[k - 1]
        if 100 * (d[k + 1] * d[k - 1] + la * la) >= 99 * d[k] * d[k]:
            k += 1
            continue
        basis[k], basis[k - 1] = basis[k - 1], bk
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        b = (d[k - 1] * d[k + 1] + la * la) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - la * t) // d[k]
            li[k - 1] = (b * t + la * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return basis


def height_cap(k, max_height, tol):
    """The largest H <= max_height with (2H)^k * (tol/H)^2 <= SPURIOUS_BUDGET,
    and at least 1; for k <= 2 the count does not grow with H."""
    if k <= 2:
        return max_height
    h = int((SPURIOUS_BUDGET / (2**k * tol * tol)) ** (1 / (k - 2)))
    return max(1, min(max_height, h))


def _search(values, max_height, tol):
    k = len(values)
    scale = 1000.0 / tol
    rows = []
    for i, v in enumerate(values):
        row = [0] * k + [round(v.real * scale), round(v.imag * scale)]
        row[i] = 1
        rows.append(row)
    reduced = lll_reduce(rows)
    best = None
    for row in reduced:
        coeffs = row[:k]
        if all(c == 0 for c in coeffs):
            continue
        height = max(abs(c) for c in coeffs)
        if height > max_height:
            continue
        resid = abs(sum(c * v for c, v in zip(coeffs, values)))
        if resid >= tol:
            continue
        if best is None or (height, resid) < best[1:]:
            best = (coeffs, height, resid)
    return best


def detect_integer_relation(values, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Integer relation sum(c_i v_i) ~ 0, or None.

    One lattice reduction, whose candidates count only up to the height
    cap `height_cap(len(values), max_height, tol)` and only when their
    direct sum is below tol; the lowest such (height, residual) wins.
    The certificate records the cap it was searched under.
    """
    values = [complex(v) for v in values]
    if len(values) > MAX_VALUES:
        raise ValueError(f"at most {MAX_VALUES} values supported")
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    if not values:
        return None
    cap = height_cap(len(values), max_height, tol)
    found = _search(values, cap, tol)
    if found is None:
        return None
    coeffs, height, resid = found
    return RelationCertificate(tuple(coeffs), resid, height, cap)
