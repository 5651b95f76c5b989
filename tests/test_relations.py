import cmath
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import semiabel.relations as relations
from semiabel.classifier import _in_rational_span
from semiabel.lattice import make_lattice
from semiabel.relations import (
    DEFAULT_MAX_HEIGHT,
    DEFAULT_TOL,
    SPURIOUS_BUDGET,
    RelationCertificate,
    _settle,
    _search,
    detect_integer_relation,
    height_cap,
    lll_reduce,
    lll_reduce_gram,
)


def test_trivial_relations():
    cert = detect_integer_relation([1.0, 2.0])
    assert cert is not None
    c = cert.coefficients
    assert c[0] * 1 + c[1] * 2 == 0 and c != (0, 0)

    w1, w2 = 1.3 + 0.2j, 0.4 + 1.7j
    cert = detect_integer_relation([w1, w2, w1 + 3 * w2])
    assert cert is not None
    a, b, c = cert.coefficients
    assert abs(a * w1 + b * w2 + c * (w1 + 3 * w2)) < 1e-9
    # proportional to (1, 3, -1)
    assert (a, b, c) in ((1, 3, -1), (-1, -3, 1))


def test_sqrt2_has_no_small_relation():
    """(1, sqrt 2): irrationality via the continued-fraction oracle.

    Convergents p/q of sqrt(2) satisfy |sqrt(2) - p/q| > 1/(3 q^2), so
    no relation a + b*sqrt(2) = 0 with |a|,|b| <= 100 can have residual
    below 1/(3*100) ~ 3e-3, far above the detection tolerance.
    """
    # continued-fraction check: best approximation with q <= 100
    best = min(
        abs(math.sqrt(2) - p / q)
        for q in range(1, 101)
        for p in (math.floor(q * math.sqrt(2)), math.ceil(q * math.sqrt(2)))
    )
    assert best > 1.0 / (3 * 100**2)
    assert detect_integer_relation([1.0, math.sqrt(2)], max_height=100) is None


def test_planted_relations_batch():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        k = int(rng.integers(3, 7))
        vals = [complex(rng.normal(), rng.normal()) for _ in range(k - 1)]
        coeffs = rng.integers(-100, 101, size=k)
        while coeffs[-1] == 0:
            coeffs[-1] = rng.integers(-100, 101)
        # last value completes the relation sum(c_i v_i) = 0
        last = -sum(int(c) * v for c, v in zip(coeffs[:-1], vals)) / int(coeffs[-1])
        cert = detect_integer_relation(vals + [last])
        assert cert is not None
        resid = abs(sum(c * v for c, v in zip(cert.coefficients, vals + [last])))
        assert resid < 1e-9


def test_relation_free_batch():
    """Random complex inputs admit no small relation."""
    rng = np.random.default_rng(54321)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        vals = [complex(rng.normal(), rng.normal()) for _ in range(k)]
        assert detect_integer_relation(vals) is None


def test_certificate_reverification_fields():
    cert = detect_integer_relation([1.0, 0.5, 0.25])
    assert cert is not None
    assert cert.residual < 1e-9
    assert cert.height <= cert.height_cap == 1000  # three values: no budget cut


def test_height_cap_is_the_largest_height_within_the_spurious_budget():
    """(2H)^k * (tol/H)^2 <= SPURIOUS_BUDGET at the cap and not above it."""
    caps = [height_cap(k, DEFAULT_MAX_HEIGHT, DEFAULT_TOL) for k in range(1, 10)]
    assert caps == [1000] * 5 + [353, 95, 39, 21]
    assert height_cap(7, 50, DEFAULT_TOL) == 50

    def expected_spurious(k, h):
        return (2 * h) ** k * (DEFAULT_TOL / h) ** 2

    for k in range(5, 13):
        h = height_cap(k, 10**9, DEFAULT_TOL)
        assert expected_spurious(k, h) <= SPURIOUS_BUDGET < expected_spurious(k, h + 1)


@pytest.mark.parametrize("k", (3, 5, 8))
@pytest.mark.parametrize("tol", (1e-160, 1e-200))
def test_height_cap_of_a_tolerance_past_the_float_range_is_max_height(k, tol):
    """At tol = 1e-160, 2^k * tol^2 is subnormal and the budget ratio
    overflows; from about 1e-170 it underflows to 0.  Neither bounds H."""
    assert height_cap(k, 1000, tol) == 1000


def test_relation_above_the_height_cap_is_not_reported():
    """A planted relation of height 200 among five values is found; with
    two more values the cap falls to 95, and the one search reports
    nothing rather than a relation it cannot tell from a spurious one."""
    rng = np.random.default_rng(7)
    vals = [complex(rng.normal(), rng.normal()) for _ in range(6)]
    coeffs = (-3, 5, 17, -1, 200)
    vals.insert(4, -sum(c * v for c, v in zip(coeffs[:4], vals)) / 200)
    cert = detect_integer_relation(vals[:5])
    assert cert is not None and cert.coefficients in (coeffs, tuple(-c for c in coeffs))
    assert detect_integer_relation(vals) is None


def test_input_validation():
    with pytest.raises(ValueError):
        detect_integer_relation([float("nan")])
    with pytest.raises(ValueError):
        detect_integer_relation(list(range(13)))
    assert detect_integer_relation([]) is None


@pytest.mark.parametrize(
    "kwargs,name",
    (
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-9}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"max_height": 0}, "max_height"),
        ({"max_height": -5}, "max_height"),
        ({"max_height": 2.5}, "max_height"),
        ({"max_height": True}, "max_height"),
    ),
    ids=("tol-0", "tol-negative", "tol-nan", "tol-inf",
         "height-0", "height-negative", "height-float", "height-bool"),
)
def test_bad_tol_and_max_height_are_refused(kwargs, name):
    """Only a finite tol > 0 and an int max_height >= 1 are searched under:
    tol 0 divides by zero, a negative tol or a cap below 1 answers None, an
    infinite tol certifies (1, 0) for [1, 2], and a float cap lands in the
    certificate."""
    with pytest.raises(ValueError, match=name):
        detect_integer_relation([1.0, 2.0], **kwargs)


def test_lll_reduces_norms():
    basis = [[201, 37], [1648, 297]]
    red = lll_reduce([row[:] for row in basis])

    def norm(v):
        return sum(x * x for x in v)

    assert min(norm(r) for r in red) <= min(norm(r) for r in basis)
    # the reduced basis spans the same lattice: determinant preserved
    det0 = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    det1 = red[0][0] * red[1][1] - red[0][1] * red[1][0]
    assert abs(det0) == abs(det1)


def test_rational_relation_with_moderate_denominator():
    x = float(Fraction(355, 113))
    cert = detect_integer_relation([x, 1.0])
    assert cert is not None
    assert tuple(map(abs, cert.coefficients)) == (113, 355)


# ---------------------------------------------------------------------------
# the continued-fraction bound ahead of the reduction
# ---------------------------------------------------------------------------


def _near_relation_question(rng):
    """(values, cap, tol): 2 or 3 seeded values, the last two nearly
    collinear in one draw of five, and in most draws a planted relation
    sum(c_i v_i) = eps of height 1 to cap + 3 with |eps| a multiple of tol
    near the acceptance edge."""
    tol = 10 ** rng.uniform(-12, -5)
    k = 2 if rng.random() < 0.25 else 3
    cap = height_cap(k, int(rng.choice([10, 100, 1000])), tol)
    v = [complex(rng.normal(), rng.normal()) for _ in range(k)]
    if rng.random() < 0.2:
        off = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-14, -3)
        v[-1] = v[-2] * rng.normal() + off
    if rng.random() < 0.85:
        h = int(rng.integers(1, cap + 4))
        c = [int(x) for x in rng.integers(-h, h + 1, size=k)]
        c[int(rng.integers(k))] = h * int(rng.choice([-1, 1]))
        size = float(rng.choice([0, 0.5, 0.99, 1.01, 2, 10])) * tol
        eps = size * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        i = int(rng.choice([j for j in range(k) if c[j]]))
        v[i] = (eps - sum(c[j] * v[j] for j in range(k) if j != i)) / c[i]
    return v, cap, tol


def _assert_settle_agrees(settle, draws):
    """Over seeded near-edge questions, every answer `settle` settles,
    found or none, is `_search`'s, its coefficients compared up to sign,
    and more than 70% of the questions are settled."""
    rng = np.random.default_rng(20251018)
    settled = 0
    for _ in range(draws):
        values, cap, tol = _near_relation_question(rng)
        done, answer = settle(values, cap, tol)
        if not done:
            continue
        settled += 1
        assert answer == _searched(values, cap, tol), (values, cap, tol)
    assert settled > 0.7 * draws


def _searched(values, cap, tol):
    """`_search`'s answer, its first nonzero coefficient made positive."""
    want = _search(values, cap, tol)
    if want is not None and next(c for c in want[0] if c) < 0:
        want = ([-c for c in want[0]], *want[1:])
    return want


def test_settled_answers_agree_with_the_reduction():
    """Every question the continued fraction settles gets the answer of
    the reduction: no relation where it finds none, and otherwise the
    same coefficients up to sign, height and residual bits (2 908 of
    4 000 draws settled).  A question of 2 to 6 values whose first value
    is below tol is settled as (1, 0, ..., 0), of residual |v0|: the
    reduction's answer in 199 of 200 draws.  In the other, of 6 values at
    tol 4.7e-6 and cap 5, LLL's reduced basis lacks that height-1 row,
    and the reduction finds no relation."""
    _assert_settle_agrees(_settle, 4000)
    rng = np.random.default_rng(25)
    missed = 0
    for k in range(2, 7):
        for _ in range(40):
            tol = 10 ** rng.uniform(-12, -5)
            cap = height_cap(k, int(rng.choice([10, 100, 1000])), tol)
            size = float(rng.choice([0, 1e-6, 0.5, 0.99])) * tol
            values = [size * cmath.exp(1j * rng.uniform(0, 2 * math.pi))]
            values += [complex(rng.normal(), rng.normal()) for _ in range(k - 1)]
            answer = ([1] + [0] * (k - 1), 1, abs(values[0]))
            assert _settle(values, cap, tol) == (True, answer), (values, cap, tol)
            want = _searched(values, cap, tol)
            if want is None:
                missed += 1
            else:
                assert want == answer, (values, cap, tol)
    assert missed == 1


def _mutant(*edits):
    """`_settle` with each (old, new) edit made once in its source,
    compiled in memory against the module's globals."""
    source = inspect.getsource(relations._settle)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(source, vars(relations), namespace)
    return namespace["_settle"]


_END = "q0, q1 = q1, t * q1 + q0\n    return True, "


@pytest.mark.parametrize(
    "edits",
    (
        # the b-test dropped: every c0 with ||c0 a|| < delta is taken
        (("if min(r, d_b - r) * d_d < n_d * d_b:", "if True:"),),
        # the direct residual never checked
        (("if height > cap or resid >= tol:", "if height > cap:"),),
        # the last candidate taken in place of the first
        (
            ("candidates = 0", "candidates, last = 0, None"),
            ("return True, (coeffs, height, resid)", "last = (coeffs, height, resid)"),
            (_END + "None", _END + "last"),
        ),
    ),
    ids=("no-b-test", "no-residual-check", "last-candidate"),
)
def test_agreement_catches_a_mutated_settle(edits):
    """Without the b-test only 599 of 1 000 draws are settled; the other
    two mutants answer differently from the reduction."""
    settle = _mutant(*edits)
    with pytest.raises(AssertionError):
        _assert_settle_agrees(settle, 1000)


def test_an_exact_dyadic_a_ends_the_continued_fraction():
    """v0 = a + b*i over (1, i) with a = 3/512 exactly: Euclid on a ends
    at the denominator 512 <= cap, where the remainder is 0, and no c0 up
    to the cap passes the b-test, so the question is settled as having no
    relation, the reduction's answer."""
    values, cap, tol = [complex(3 / 512, math.sqrt(2) - 1), 1, 1j], 1000, 1e-9
    assert _settle(values, cap, tol) == (True, None)
    assert _search(values, cap, tol) is None


def _certificate_from_search(values):
    """The certificate of the one reduction, without the continued
    fraction, its first nonzero coefficient made positive."""
    cap = height_cap(len(values), DEFAULT_MAX_HEIGHT, DEFAULT_TOL)
    coeffs, height, resid = _search(values, cap, DEFAULT_TOL)
    sign = 1 if next(c for c in coeffs if c) > 0 else -1
    return RelationCertificate(tuple(sign * c for c in coeffs), resid, height, cap)


def test_no_relation_questions_of_three_values_make_no_reduction(monkeypatch):
    """[1, tau, tau^2] of a non-CM and of a CM tau, and the torsion
    questions of a generic point and of a 3-division point, are answered
    by the continued fraction alone; the two relations are the reduction's
    certificates."""
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    basis = (L.omega1, L.omega2)
    generic = (math.sqrt(2) - 1) * L.omega1 + (1 / math.pi) * L.omega2
    division = (L.omega1 + 2 * L.omega2) / 3
    tau = 0.31 + 1.23j
    cm_values = [1.0, 1j, -1.0]
    scale = max(map(abs, basis))
    cm_cert = _certificate_from_search(cm_values)
    division_cert = _certificate_from_search([x / scale for x in (division, *basis)])
    calls = []  # the size of each reduced Gram matrix
    monkeypatch.setattr(
        relations,
        "lll_reduce_gram",
        lambda gram, bound=None: calls.append(len(gram)) or lll_reduce_gram(gram, bound),
    )
    # the positive control: a question of 4 values is one reduction
    assert detect_integer_relation([1.0, tau, tau * tau, tau**3]) is None
    assert calls == [4]
    calls.clear()
    assert detect_integer_relation([1.0, tau, tau * tau]) is None
    assert _in_rational_span(generic, basis, DEFAULT_MAX_HEIGHT, DEFAULT_TOL) is None
    assert detect_integer_relation(cm_values) == cm_cert
    assert cm_cert.coefficients == (1, 0, 1)
    cert = _in_rational_span(division, basis, DEFAULT_MAX_HEIGHT, DEFAULT_TOL)
    assert cert == division_cert and cert.coefficients[0] == 3
    assert calls == []


def test_certificates_lead_with_a_positive_coefficient():
    """LLL's sign is an artifact of row order; a certificate from either
    path has its first nonzero coefficient positive."""
    rng = np.random.default_rng(99)
    for k in (2, 3, 4, 5, 7):
        for _ in range(30):
            vals = [complex(rng.normal(), rng.normal()) for _ in range(k - 1)]
            coeffs = [int(c) for c in rng.integers(-5, 6, size=k - 1)]
            vals.append(sum(c * v for c, v in zip(coeffs, vals)))
            cert = detect_integer_relation(vals)
            assert cert is not None
            assert next(c for c in cert.coefficients if c) > 0, cert
    assert detect_integer_relation([0.0, 1.0]).coefficients == (1, 0)
    assert detect_integer_relation([1.0, 0.0]).coefficients == (0, 1)


# ---------------------------------------------------------------------------
# exact integer LLL against the float Gram-Schmidt LLL it replaced
# ---------------------------------------------------------------------------


def _reference_gram_schmidt(basis):
    """Float GSO of an integer basis: returns (orthogonal rows, mu)."""
    b = np.array(basis, dtype=float)
    n = len(basis)
    ortho = np.zeros_like(b)
    mu = np.zeros((n, n))
    for i in range(n):
        ortho[i] = b[i]
        for j in range(i):
            denom = ortho[j] @ ortho[j]
            mu[i, j] = 0.0 if denom == 0 else (b[i] @ ortho[j]) / denom
            ortho[i] = ortho[i] - mu[i, j] * ortho[j]
    return ortho, mu


def _reference_lll(basis, delta=0.99):
    """The float LLL of earlier releases, frozen: Gram-Schmidt rebuilt in
    floating point after every size reduction and swap."""
    basis = [list(map(int, row)) for row in basis]
    n = len(basis)
    if n <= 1:
        return basis
    ortho, mu = _reference_gram_schmidt(basis)
    k = 1
    iters = 0
    max_iters = 10_000 * n * n
    while k < n and iters < max_iters:
        iters += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                ortho, mu = _reference_gram_schmidt(basis)
        nk = ortho[k] @ ortho[k]
        nk1 = ortho[k - 1] @ ortho[k - 1]
        if nk >= (delta - mu[k, k - 1] ** 2) * nk1:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            ortho, mu = _reference_gram_schmidt(basis)
            k = max(k - 1, 1)
    return basis


def _exact_gram_schmidt(basis):
    """Squared GSO norms B_i and coefficients mu_ij, in Fractions."""
    n = len(basis)
    ortho, norms = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(basis):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(row, ortho[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
    return norms, mu


def _gram_det(basis):
    det = Fraction(1)
    for b in _exact_gram_schmidt(basis)[0]:
        det *= b
    return det


# kind -> (tolerance that sets the scale 1000/tol, planted relation);
# None marks a small-entry basis
_KINDS = {
    "small": None,
    "tol": (DEFAULT_TOL, False),
    "tol-planted": (DEFAULT_TOL, True),
    "tol/100": (DEFAULT_TOL / 100, False),
    "tol/100-planted": (DEFAULT_TOL / 100, True),
}


def _seeded_values(dim, kind, rng=None):
    """The seeded values and tol of a `_search` kind: standard normal
    complex values, the last one planted in a relation of height <= 100."""
    rng = rng or np.random.default_rng(1000 * dim + list(_KINDS).index(kind))
    tol, planted = _KINDS[kind]
    vals = [complex(rng.normal(), rng.normal()) for _ in range(dim)]
    if planted:
        coeffs = [int(c) for c in rng.integers(-100, 101, size=dim)]
        coeffs[-1] = coeffs[-1] or 1
        vals[-1] = -sum(c * v for c, v in zip(coeffs[:-1], vals)) / coeffs[-1]
    return vals, tol


def _seeded_basis(dim, kind):
    """A seeded basis of one of the kinds the relation engine meets: small
    entries with nonzero determinant, or a `_search` lattice at scale
    1000/tol or 1000/(tol/100), free or with a planted relation."""
    rng = np.random.default_rng(1000 * dim + list(_KINDS).index(kind))
    if _KINDS[kind] is None:
        while True:
            basis = [[int(x) for x in rng.integers(-50, 51, size=dim)]
                     for _ in range(dim)]
            if _gram_det(basis) != 0:
                return basis
    vals, tol = _seeded_values(dim, kind, rng)
    scale = 1000.0 / tol
    rows = []
    for i, v in enumerate(vals):
        row = [0] * dim + [round(v.real * scale), round(v.imag * scale)]
        row[i] = 1
        rows.append(row)
    return rows


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("dim", range(2, 13))
def test_lll_matches_float_reference_and_is_reduced(dim, kind):
    basis = _seeded_basis(dim, kind)
    reduced = lll_reduce([row[:] for row in basis])
    assert reduced == _reference_lll(basis)
    _assert_lll_reduced(reduced, basis)


@pytest.mark.parametrize("kind", [kind for kind in _KINDS if _KINDS[kind]])
@pytest.mark.parametrize("dim", range(2, 13))
def test_search_reduces_the_gram_matrix_of_its_rows(dim, kind, monkeypatch):
    """`_search` reduces the Gram matrix of the rows [e_i | X_i | Y_i] it
    never builds, and answers with the best passing row of `lll_reduce`
    of those rows, read in its first k entries."""
    values, tol = _seeded_values(dim, kind)
    rows = _seeded_basis(dim, kind)
    cap = height_cap(dim, DEFAULT_MAX_HEIGHT, tol)
    grams = []
    monkeypatch.setattr(
        relations,
        "lll_reduce_gram",
        lambda gram, bound=None: grams.append(gram) or lll_reduce_gram(gram, bound),
    )
    answer = _search(values, cap, tol)
    assert grams == [[[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]]
    best = None
    for row in lll_reduce(rows):
        coeffs = row[:dim]
        height = max(map(abs, coeffs))
        resid = abs(sum(c * v for c, v in zip(coeffs, values)))
        if height <= cap and resid < tol and (best is None or (height, resid) < best[1:]):
            best = (coeffs, height, resid)
    assert answer == best


def _assert_lll_reduced(reduced, basis):
    """Size-reduced, Lovasz at delta = 99/100 and the same lattice, exactly."""
    norms, mu = _exact_gram_schmidt(reduced)
    dim = len(reduced)
    half = Fraction(1, 2)
    assert all(abs(mu[i][j]) <= half for i in range(dim) for j in range(i))
    delta = Fraction(99, 100)
    assert all(
        norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1] for k in range(1, dim)
    )
    assert _gram_det(reduced) == _gram_det(basis)


def test_lll_on_exact_relation_agrees_with_float_reference_up_to_sign():
    """A `_search` lattice whose embedded columns satisfy 3 v0 = 2 v1 + 2 v2
    exactly, as torsion motives give. Some mu then lie within an ulp of a
    half-integer, and the float Gram-Schmidt rounds one of them to the other
    neighbour: the float basis negates two rows. The exact basis is reduced
    and holds the same relation."""
    basis = [
        [1, 0, 0, 1185002955210, -305705363042],
        [0, 1, 0, 756377911174, -742400353667],
        [0, 0, 1, 1021126521641, 283842309104],
    ]
    reduced = lll_reduce([row[:] for row in basis])
    assert reduced[0] == [-3, 2, 2, 0, 0]
    _assert_lll_reduced(reduced, basis)
    reference = _reference_lll(basis)
    assert [r if r in reference else [-x for x in r] for r in reduced] == reference


@pytest.mark.parametrize(
    "basis,reduced",
    (([[2, 0], [1, 5]], [[2, 0], [1, 5]]), ([[2, 0], [3, 5]], [[2, 0], [-1, 5]])),
)
def test_lll_size_reduction_rounds_ties_to_even(basis, reduced):
    """mu = 1/2 rounds to 0 and mu = 3/2 to 2, as round() on a float does."""
    assert lll_reduce(basis) == reduced == _reference_lll(basis)


def _frozen_lll_reduce_gram(gram):
    """`lll_reduce_gram` as it was before Cohen's order, frozen: each row k
    is size-reduced against every row k-1..0 before its Lovasz test."""
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
    k = 1
    while k < n:
        uk, lk = u[k], lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > d[j + 1]:
                q = relations._round_half_even(lk[j], d[j + 1])
                uj, lj = u[j], lam[j]
                for c in range(n):
                    uk[c] -= q * uj[c]
                lk[j] -= q * d[j + 1]
                for i in range(j):
                    lk[i] -= q * lj[i]
        la, dk, dk1 = lk[k - 1], d[k], d[k + 1]
        b = dk1 * d[k - 1] + la * la
        if 100 * b >= 99 * dk * dk:
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], uk
        lam[k], lam[k - 1] = lam[k - 1], lk
        lam[k][k - 1] = la
        d[k] = b = b // dk
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = s = (dk1 * li[k - 1] - la * t) // dk
            li[k - 1] = (b * t + la * s) // dk1
        k = max(k - 1, 1)
    return u


@pytest.mark.parametrize("size", (2, 2**40))
def test_cohens_order_gives_the_transform_of_full_size_reduction(size):
    """Deferring the size reduction against rows k-2..0 until the Lovasz
    test passes leaves U unchanged, row for row, on 600 seeded Gram
    matrices of dims 2 to 7 from entries in [-size, size]: at 2 many mu
    are exact half-integers, the ties the rounding breaks to even."""
    rng = np.random.default_rng(size)
    checked = 0
    while checked < 600:
        dim = int(rng.integers(2, 8))
        rows = [[int(x) for x in rng.integers(-size, size + 1, size=dim + 1)]
                for _ in range(dim)]
        gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
        try:
            got = lll_reduce_gram(gram)
        except ValueError:  # dependent rows
            continue
        assert got == _frozen_lll_reduce_gram(gram), gram
        checked += 1


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2, 3], [2, 4, 6]])


def _full_search(values, cap, tol):
    """`_search` as it was before the bound, frozen: the least (height,
    residual) passing row of the finished reduction, or None."""
    scale = 1000.0 / tol
    xy = [(round(v.real * scale), round(v.imag * scale)) for v in values]
    gram = [[(i == j) + x * a + y * b for j, (a, b) in enumerate(xy)]
            for i, (x, y) in enumerate(xy)]
    best = None
    for coeffs in lll_reduce_gram(gram):
        height = max(abs(c) for c in coeffs)
        resid = abs(sum(c * v for c, v in zip(coeffs, values)))
        if height <= cap and resid < tol and (best is None or (height, resid) < best[1:]):
            best = (coeffs, height, resid)
    return best


def _bound_question(rng, small_cap=False):
    """A seeded `_search` question: k = 3-5 values on the unit disc, tol
    log-uniform in 1e-9 ... 1e-3, the cap `height_cap` gives or one of 2-6,
    and in 70% of draws one value planted in a relation, its coefficients
    uniform under the cap or all within 1 of it, and its residual 0, 0.5,
    0.9, 0.99 or 0.999 tol.  In one draw of five the values are scaled so
    that the rounding of a direct sum, about k cap |v| 2^-53, is 0.1 to 10
    tol: there a row may pass whose exact residual is above tol."""
    k = int(rng.integers(3, 6))
    tol = 10 ** rng.uniform(-9, -3)
    if small_cap or rng.random() < 0.5:
        cap = int(rng.integers(2, 7 if k < 5 else 5))
    else:
        cap = height_cap(k, DEFAULT_MAX_HEIGHT, tol)
    values = [cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
              for _ in range(k)]
    if rng.random() < 0.2:
        scale = tol * 10 ** rng.uniform(-1, 1) / (k * cap * 2.0**-53)
        values = [scale * v for v in values]
    if rng.random() < 0.7:
        if rng.random() < 0.5:
            c = [int(rng.choice([-1, 1])) * (cap - int(rng.integers(2))) for _ in range(k)]
        else:
            c = [int(x) for x in rng.integers(-cap, cap + 1, size=k)]
        i = int(rng.integers(k))
        c[i] = c[i] or 1
        size = float(rng.choice([0, 0.5, 0.9, 0.99, 0.999])) * tol
        eps = size * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        values[i] = (eps - sum(c[j] * values[j] for j in range(k) if j != i)) / c[i]
    return values, cap, tol


def _stopped_reductions(namespace, monkeypatch):
    """The list to which each later reduction of namespace's `_search`
    appends True when the bound stopped it."""
    reduce, stops = namespace["lll_reduce_gram"], []

    def recorded(gram, bound=None):
        rows = reduce(gram, bound)
        stops.append(rows is None)
        return rows

    monkeypatch.setitem(namespace, "lll_reduce_gram", recorded)
    return stops


def _assert_same_answers(namespace, monkeypatch, draws):
    """namespace's `_search` answers as the finished reduction does, and
    the bound stops more than a fifth of the reductions."""
    stops = _stopped_reductions(namespace, monkeypatch)
    rng = np.random.default_rng(39)
    for _ in range(draws):
        values, cap, tol = _bound_question(rng)
        assert namespace["_search"](values, cap, tol) == _full_search(values, cap, tol), (
            values, cap, tol)
    assert len(stops) == draws and sum(stops) > draws / 5


_GRIDS = {}


def _brute_force_relation(values, cap, tol):
    """Some nonzero c with max |c_i| <= cap and a direct residual below tol,
    summed as `_search` sums it, or None.  numpy screens first, with room
    for the rounding of both sums, 32 unit roundoffs a term."""
    k = len(values)
    if (k, cap) not in _GRIDS:
        axes = [np.arange(-cap, cap + 1)] * k
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, k)
        _GRIDS[k, cap] = grid[np.any(grid != 0, axis=1)]
    grid = _GRIDS[k, cap]
    screen = tol + 2.0**-48 * k * cap * sum(abs(v) for v in values)
    for row in grid[np.abs(grid @ np.array(values)) < screen]:
        c = [int(x) for x in row]
        if abs(sum(x * v for x, v in zip(c, values))) < tol:
            return c
    return None


def _assert_stops_are_proved(namespace, monkeypatch, draws):
    """Every reduction of namespace's `_search` that the bound stops, at
    caps of 2-6 (2-4 for 5 values), is a None that brute force over the
    whole box of coefficients confirms; more than a fifth stop."""
    stops = _stopped_reductions(namespace, monkeypatch)
    rng = np.random.default_rng(3939)
    for _ in range(draws):
        values, cap, tol = _bound_question(rng, small_cap=True)
        namespace["_search"](values, cap, tol)
        if stops[-1]:
            assert _brute_force_relation(values, cap, tol) is None, (values, cap, tol)
    assert len(stops) == draws and sum(stops) > draws / 5


def test_a_stopped_reduction_keeps_every_answer(monkeypatch):
    """On 2 400 seeded questions `_search` gives the finished reduction's
    answer, coefficients, height and residual bits, while the bound stops
    the reduction in more than a fifth of them."""
    _assert_same_answers(vars(relations), monkeypatch, 2400)


def test_a_stopped_reduction_is_a_proved_none(monkeypatch):
    """No reduction that the bound stops had a passing row to find: brute
    force over every coefficient vector under the cap finds none."""
    _assert_stops_are_proved(vars(relations), monkeypatch, 600)


def _bound_mutant(old, new):
    """A namespace of the relations module in which `lll_reduce_gram` and
    `_search` have old replaced by new wherever it occurs."""
    assert old in inspect.getsource(relations), old
    namespace = dict(vars(relations))
    for function in (relations.lll_reduce_gram, _search):
        exec(inspect.getsource(function).replace(old, new), namespace)
    return namespace


@pytest.mark.parametrize(
    "edit",
    (
        # the rounding of round(S v_i) left out of E
        ("+ 0.71 * k * max_height) + 1", ") + 1"),
        # the slack for the rounding of the direct sum left out: tol alone
        ("(tol + _ULP * k * max_height * sum(abs(v) for v in values)) * (1 + _ULP)", "tol"),
        # the largest Gram-Schmidt norm tested in place of the smallest
        ("if not any(short):", "if not all(short):"),
    ),
    ids=("no-rounding-term", "no-float-sum-slack", "largest-norm"),
)
def test_both_checks_catch_a_mutated_bound(edit, monkeypatch):
    """Each mutant stops a reduction that had a passing row to find: it
    changes an answer, and brute force finds a relation it missed."""
    with pytest.raises(AssertionError, match="_full_search"):
        _assert_same_answers(_bound_mutant(*edit), monkeypatch, 2400)
    with pytest.raises(AssertionError, match="_brute_force_relation"):
        _assert_stops_are_proved(_bound_mutant(*edit), monkeypatch, 600)
