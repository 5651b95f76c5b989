"""Heuristic integer-relation detection by lattice reduction.

Rows of the search lattice are [e_i | round(S * Re(v_i)) | round(S * Im(v_i))]
with a scale S chosen from the tolerance.  Exact integer LLL runs on their
Gram matrix and carries only the unimodular transform, whose rows are the
candidate relations, each checked by direct summation against the tolerance.

Each question is one reduction under a height cap.  In double precision
a search over k values of size about 1 finds spurious relations once
(2H)^k * (tol/H)^2 >~ 1 (Ferguson, Bailey and Arno, Math. Comp. 68,
1999), so the height is capped where that count stays below
SPURIOUS_BUDGET.

A question is settled without a reduction where exact arithmetic can:
a first value below tol by the relation (1, 0, ..., 0), 2 or 3 values
by the smallest singular value of the last two, which rules out
relations among them, and Legendre's theorem on continued fractions,
which limits the others to multiples of one primitive relation,
returned, or to none.  Where it is unsure, the question goes to the
reduction.  Either way a certificate's first nonzero coefficient is
positive, since the sign LLL gives a relation is an artifact of row order.
"""

import cmath
import math

from ._value import Value
from .errors import TooManyValues

DEFAULT_TOL = 1e-9
DEFAULT_MAX_HEIGHT = 1000
MAX_VALUES = 12
# expected number of spurious relations a search may admit
SPURIOUS_BUDGET = 1e-6
# eight unit roundoffs of a double: a generous bound on float rounding
_ULP = 2.0**-50
# candidate multipliers _settle tests before it leaves the question to LLL
_MAX_CANDIDATES = 16


class RelationCertificate(Value):
    _fields = ("coefficients", "residual", "height", "height_cap")


def _round_half_even(num, den):
    """round(num / den) for integers with den > 0, ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def lll_reduce(basis):
    """LLL reduction (delta = 99/100) of linearly independent integer rows:
    U * basis for the transform U of `lll_reduce_gram` on their Gram matrix."""
    basis = [list(map(int, row)) for row in basis]
    gram = [[sum(a * b for a, b in zip(r, s)) for s in basis] for r in basis]
    return [[sum(u * x for u, x in zip(row, col)) for col in zip(*basis)]
            for row in lll_reduce_gram(gram)]


def lll_reduce_gram(gram, bound=None):
    """Rows of the unimodular U that LLL-reduces (delta = 99/100) the rows
    of any basis with Gram matrix `gram`, positive definite; or None once
    every ||b_i*||^2 exceeds an integer `bound`, if one is given.

    Integral LLL (Cohen, Alg. 2.6.7): the Gram-Schmidt data are kept as
    integers, d[i + 1] = det Gram(b_0..b_i) and lam[k][j] = d[j + 1] * mu_kj,
    and updated exactly on each size reduction and swap, done on U alone.
    In Cohen's order, row k meets its Lovasz test reduced against row k-1
    only, and rows k-2..0 once it passes: the same U as reducing all first.
    ||b_i*||^2 = d[i + 1] / d[i] changes only on a swap, at i = k-1, k.
    No lattice vector is shorter than the shortest b_i*, so None proves
    that none has norm^2 <= bound.
    """
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            s = gram[k][j]
            for i in range(j):
                s = (d[i + 1] * s - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = s
            else:
                d[k + 1] = s
        if d[k + 1] == 0:
            raise ValueError("basis rows must be linearly independent")
    short = [bound is None or d[i + 1] <= bound * d[i] for i in range(n)]
    if not any(short):
        return None
    k = 1
    while k < n:
        uk, lk = u[k], lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            # round(lk[j] / dj), ties to even, is nonzero only here
            if 2 * abs(lk[j]) > dj:
                q, r = divmod(lk[j], dj)
                if 2 * r > dj or 2 * r == dj and q & 1:
                    q += 1
                uj, lj = u[j], lam[j]
                for c in range(n):
                    uk[c] -= q * uj[c]
                lk[j] -= q * dj
                for i in range(j):
                    lk[i] -= q * lj[i]
            if j < k - 1:  # past the Lovasz test
                continue
            la, dk1 = lk[j], d[k + 1]
            b = dk1 * d[j] + la * la
            if 100 * b >= 99 * dj * dj:
                continue
            u[k], u[j] = u[j], uk
            lam[k], lam[j] = lam[j], lk
            lam[k][j] = la
            d[k] = b = b // dj
            if bound is not None:
                short[j], short[k] = b <= bound * d[j], dk1 <= bound * b
                if not any(short):
                    return None
            for i in range(k + 1, n):
                li = lam[i]
                t = li[k]
                li[k] = s = (dk1 * li[j] - la * t) // dj
                li[j] = (b * t + la * s) // dk1
            k = max(j, 1)
            break
        else:
            k += 1
    return u


def height_cap(k, max_height, tol):
    """The largest H <= max_height with (2H)^k * (tol/H)^2 <= SPURIOUS_BUDGET,
    and at least 1; for k <= 2 the count does not grow with H, and where
    2^k * tol^2 underflows to 0 it bounds no H."""
    if k <= 2:
        return max_height
    count = 2**k * tol * tol
    h = (SPURIOUS_BUDGET / count) ** (1 / (k - 2)) if count else math.inf
    return max(1, int(min(h, max_height)))


def _search(values, max_height, tol):
    """(coefficients, height, residual) of the least (height, residual)
    reduced row with height <= max_height and direct residual below tol, or
    None.  Such a row has norm^2 <= k max_height^2 + E^2, E = S slack +
    0.71 k max_height + 1: slack as in _settle (its 8 ulps a term also cover
    the product S v_i) and the rounding of round(S v_i).  So the reduction
    stops at None once no lattice vector is that short."""
    k = len(values)
    # the Gram matrix of the rows [e_i | round(S Re v_i) | round(S Im v_i)]
    scale = 1000.0 / tol
    xy = [(round(v.real * scale), round(v.imag * scale)) for v in values]
    gram = [[(i == j) + x * a + y * b for j, (a, b) in enumerate(xy)]
            for i, (x, y) in enumerate(xy)]
    slack = (tol + _ULP * k * max_height * sum(abs(v) for v in values)) * (1 + _ULP)
    e = math.ceil(scale * slack + 0.71 * k * max_height) + 1
    best = None
    # rows of the unimodular transform: never zero; none once the bound stops it
    for coeffs in lll_reduce_gram(gram, k * max_height * max_height + e * e) or ():
        height = max(abs(c) for c in coeffs)
        if height > max_height:
            continue
        resid = abs(sum(c * v for c, v in zip(coeffs, values)))
        if resid >= tol:
            continue
        if best is None or (height, resid) < best[1:]:
            best = (coeffs, height, resid)
    return best


def _settle(values, cap, tol):
    """(True, answer) when a question is settled exactly, the answer being
    `_search`'s (coefficients, height, residual) with c0 > 0, or None for
    no relation; (False, None) when unsure.

    A first value below tol has the relation (1, 0, ..., 0), of residual
    |v0|, for any number of values.  Otherwise only 2 or 3 values are
    settled.  sigma = |det(v1, v2)| / sqrt(|v1|^2 + |v2|^2) bounds the
    smallest singular value of the real 2x2 matrix (v1 v2) from below, so
    c0 = 0 is ruled out when sigma exceeds tol plus rounding; with 2 such
    values that is the whole test.  With 3, v0 = a v1 + b v2 + e, and with
    2 nearly collinear values (v0, v1), v0 = a v1 + e, b = 0 and sigma =
    |v1|: a relation needs ||c0 a|| and ||c0 b|| below delta = (tol +
    rounding + cap |e|) / sigma.  When delta < 1/(2 cap), every such c0
    is a multiple of a continued-fraction denominator of a (Legendre;
    Hardy and Wright, Thm 184), enumerated exactly from
    a.as_integer_ratio() in increasing c0, and every relation is a
    multiple of one primitive relation, so the first candidate is it:
    c1 = -round(c0 a), c2 = -round(c0 b).
    """
    k = len(values)
    if abs(values[0]) < tol:
        return True, ([1] + [0] * (k - 1), 1, abs(values[0]))
    if k not in (2, 3):
        return False, None
    # bound on |sum(c_i v_i)| wherever _search's rounded sum is below tol
    slack = (tol + _ULP * k * cap * sum(abs(v) for v in values)) * (1 + _ULP)
    v0, v1, v2 = values[0], *values[-2:]
    det = v1.real * v2.imag - v1.imag * v2.real
    det_err = _ULP * (abs(v1.real * v2.imag) + abs(v1.imag * v2.real))
    norm = math.hypot(abs(v1), abs(v2))
    lower = (abs(det) - det_err) * (1 - _ULP)
    if lower > slack * norm:
        if k == 2:
            return True, None
        sigma = lower / norm
        a = (v0.real * v2.imag - v0.imag * v2.real) / det
        b = (v1.real * v0.imag - v1.imag * v0.real) / det
        e = abs(v0 - a * v1 - b * v2) + _ULP * (abs(v0) + abs(a * v1) + abs(b * v2))
    elif k == 2:  # nearly collinear, and v2 is the second value
        sigma = abs(v2) * (1 - _ULP)
        if not sigma > slack:
            return False, None
        a = (v0.real * v2.real + v0.imag * v2.imag) / (v2.real**2 + v2.imag**2)
        b = 0.0
        e = abs(v0 - a * v2) + _ULP * (abs(v0) + abs(a * v2))
    else:
        return False, None
    delta = (slack + cap * e) / sigma
    if not 2 * cap * delta < 1:
        return False, None
    n_a, d_a = a.as_integer_ratio()
    n_b, d_b = b.as_integer_ratio()
    n_d, d_d = delta.as_integer_ratio()
    # Euclid on n_a/d_a: q1 runs through the convergent denominators of a,
    # and the remainder y is |q1 * n_a - p1 * d_a| for the numerator p1
    q0, q1 = 0, 1
    x, y = d_a, n_a % d_a
    candidates = 0
    while q1 <= cap:
        # c0 = g*q1 has ||c0 a|| = g*y/d_a while that is below delta
        g = 1
        while g * q1 <= cap and g * y * d_d < n_d * d_a:
            c0 = g * q1
            candidates += 1
            if candidates > _MAX_CANDIDATES:
                return False, None
            r = c0 * n_b % d_b
            if min(r, d_b - r) * d_d < n_d * d_b:
                coeffs = [c0, -_round_half_even(c0 * n_a, d_a)]
                coeffs += [-_round_half_even(c0 * n_b, d_b)][: k - 2]
                height = max(abs(c) for c in coeffs)
                resid = abs(sum(c * v for c, v in zip(coeffs, values)))
                if height > cap or resid >= tol:
                    return False, None
                return True, (coeffs, height, resid)
            g += 1
        if y == 0:
            break
        t, x, y = x // y, y, x % y
        q0, q1 = q1, t * q1 + q0
    return True, None


def detect_integer_relation(values, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Integer relation sum(c_i v_i) ~ 0, or None.

    One lattice reduction, whose candidates count only up to the height
    cap `height_cap(len(values), max_height, tol)` and only when their
    direct sum is below tol; the lowest such (height, residual) wins.
    The certificate records the cap it was searched under, and its first
    nonzero coefficient is positive.  `_settle` first answers the question
    exactly where it can, as the reduction would, and then no reduction
    is made.
    """
    values = [complex(v) for v in values]
    if len(values) > MAX_VALUES:
        raise TooManyValues(
            f"a relation question of {len(values)} values; "
            f"at most {MAX_VALUES} are supported"
        )
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    if type(max_height) is not int or max_height < 1:
        raise ValueError(f"max_height must be an int >= 1, not {max_height!r}")
    if not values:
        return None
    cap = height_cap(len(values), max_height, tol)
    settled, found = _settle(values, cap, tol)
    if not settled:
        found = _search(values, cap, tol)
    if found is None:
        return None
    coeffs, height, resid = found
    # LLL's sign is an artifact of row order: the first nonzero is positive
    sign = 1 if next(c for c in coeffs if c) > 0 else -1
    # from a list: tuple(generator) builds at a guessed size and resizes,
    # and each freed tuple then fills the free list of its own size
    return RelationCertificate(tuple([sign * c for c in coeffs]), resid, height, cap)
