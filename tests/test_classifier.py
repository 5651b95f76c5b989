import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import semiabel.classifier as classifier
import semiabel.relations as relations
from semiabel.classifier import (
    ClassificationReport,
    OneMotiveElliptic,
    classify_table_row,
    conjecture_bounds,
    detect_cm,
    dim_B_elliptic,
    dim_Z1,
    is_deficient,
    is_torsion,
    motivic_galois_dims,
)
from semiabel import verify
from semiabel.elliptic import eisenstein_invariants, weierstrass, wp, wp_prime
from semiabel.errors import (
    InconsistentOverride,
    InternalInconsistency,
    NotApplicable,
)
from semiabel.lattice import Lattice, make_lattice, real_coordinates
from semiabel.periods import CurveInvariants, EllipticPoint, periods_from_invariants
from semiabel.relations import DEFAULT_MAX_HEIGHT, DEFAULT_TOL, height_cap
from semiabel.semiabelian import (
    ExtensionParam,
    SemiAbelianPoint,
    exp_G,
    quasi_quasi_periods,
)

from conftest import REBASINGS, VARPI


def _sq():
    return make_lattice(VARPI, VARPI * 1j)


def _hex():
    return make_lattice(1.0, cmath.exp(1j * math.pi / 3))


def _noncm():
    return make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))


def _motive(L, mu, z, t, override=None):
    inv = eisenstein_invariants(L)
    q = ExtensionParam.from_primal(mu, L)
    if z is None:
        R = SemiAbelianPoint(EllipticPoint.identity(), cmath.exp(t))
    else:
        R = exp_G(z, t, q, L)
    return OneMotiveElliptic(inv, L, (q,), (R,), override)


def _p(L):
    return complex(0.1 * math.pi, 0.07 * math.sqrt(3.0)) * abs(L.omega1)


def _mu(L):
    return complex(0.2 * math.sqrt(5.0), 0.11 * math.sqrt(7.0)) * abs(L.omega1)


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def test_is_torsion_identity():
    assert is_torsion(EllipticPoint.identity(), _sq()) == 1


def test_is_torsion_exact_two_torsion():
    curve = CurveInvariants(Fraction(4), Fraction(0))
    P = EllipticPoint(Fraction(1), Fraction(0))
    assert is_torsion(P, _sq(), curve=curve) == 2


def test_is_torsion_exact_generic_rational_point_not_torsion():
    # y^2 = 4x^3 - 4x + 4 contains (1, 2); generic rank-1 generator
    curve = CurveInvariants(Fraction(4), Fraction(-4))
    P = EllipticPoint(Fraction(1), Fraction(2))
    L = periods_from_invariants(curve)
    assert is_torsion(P, L, curve=curve) is None


def test_is_torsion_numeric():
    L = _sq()
    z = (L.omega1 + 2 * L.omega2) / 5
    P = EllipticPoint(wp(z, L), wp_prime(z, L))
    assert is_torsion(P, L) == 5
    zg = 0.2371 * L.omega1 + 0.1618 * L.omega2
    Pg = EllipticPoint(wp(zg, L), wp_prime(zg, L))
    assert is_torsion(Pg, L) is None


_TORSION_LATTICES = {
    "square": (1.0, 1j),
    "hexagonal": (1.0, cmath.exp(1j * math.pi / 3)),
    "non-CM": (1.0, 0.31 + 1.23j),
}
_ORDERS = (2, 3, 5, 7, 12, 64, 65, 97, 500, 1000)
# small lattices, whose curve sizes of weight 2 and 3 are far above 1:
# (omega1 + omega2)/2 reads order 2 only if elliptic_log's 2-division test
# and residual checks scale with those sizes
_SMALL_TWO_DIVISION = {("square", e) for e in range(-8, -2)} | {("non-CM", -8)}


def _primitive(rng, N):
    """A seeded (a1, a2) with gcd(a1, a2, N) = 1."""
    while True:
        a1, a2 = rng.randrange(N), rng.randrange(N)
        if math.gcd(a1, a2, N) == 1:
            return a1, a2


def _torsion_cases():
    """(lattice, decade, order, a1, a2) for the point of log a1*omega1 +
    a2*omega2: (omega1 + omega2)/2, a seeded primitive N-division point for
    each other order, and five uniform points of order None."""
    rng = random.Random(16)
    cases = []
    for name in _TORSION_LATTICES:
        for e in range(-8, 9):
            for N in _ORDERS:
                a1, a2 = (1, 1) if N == 2 else _primitive(rng, N)
                cases.append((name, e, N, a1 / N, a2 / N))
            cases += [(name, e, None, rng.random(), rng.random()) for _ in range(5)]
    return cases


def _torsion_order(name, e, a1, a2, **kw):
    w1, w2 = _TORSION_LATTICES[name]
    L = make_lattice(10.0**e * w1, 10.0**e * w2)
    z = a1 * L.omega1 + a2 * L.omega2
    return is_torsion(EllipticPoint(wp(z, L), wp_prime(z, L)), L, **kw)


def test_is_torsion_reads_every_order_up_to_the_cap_at_every_decade():
    """The span certificate gives the order of N-division points up to
    N = 1000 on three lattices at every decade 1e-8 ... 1e8, and None for
    uniform points."""
    wrong = []
    for name, e, N, a1, a2 in _torsion_cases():
        got = _torsion_order(name, e, a1, a2)
        if got != N:
            wrong.append((name, e, N, got))
    assert wrong == []


def test_is_torsion_of_two_division_points_on_small_lattices():
    for name, e in sorted(_SMALL_TWO_DIVISION):
        assert _torsion_order(name, e, 0.5, 0.5) == 2, (name, e)


def test_is_torsion_order_is_bounded_by_the_height_cap():
    """At tol = 1e-4 the cap of the 3-value torsion question is 12: order
    12 is found, order 13 reads as non-torsion."""
    assert height_cap(3, DEFAULT_MAX_HEIGHT, 1e-4) == 12
    for name in _TORSION_LATTICES:
        assert _torsion_order(name, 0, 1 / 12, 5 / 12, tol=1e-4) == 12
        assert _torsion_order(name, 0, 1 / 13, 5 / 13, tol=1e-4) is None


def test_is_torsion_agrees_with_classify_on_the_table():
    for m, row, *_ in verify._table_instances():
        a = classifier._MotiveAnalysis(m, DEFAULT_MAX_HEIGHT, DEFAULT_TOL)
        (P,), (p,) = [R.base for R in m.points], a.point_logs
        got = is_torsion(P, m.lattice, curve=m.curve)
        assert (got is not None) == (a.torsion(p) is not None), row


# ---------------------------------------------------------------------------
# complex multiplication
# ---------------------------------------------------------------------------


def test_detect_cm_square_and_hexagonal():
    assert detect_cm(_sq()) == -4
    assert detect_cm(_hex()) == -3


def test_detect_cm_none_for_generic_tau():
    assert detect_cm(_noncm()) is None


def test_detect_cm_override():
    assert detect_cm(_sq(), cm_override=-4) == -4
    with pytest.raises(InconsistentOverride):
        detect_cm(_sq(), cm_override=-3)
    with pytest.raises(InconsistentOverride):
        detect_cm(_noncm(), cm_override=-4)


def _counted_cm_searches(monkeypatch):
    """The tau of each CM search (the values 1, tau, tau^2) from now on."""
    taus, search = [], classifier.detect_integer_relation

    def counted(values, *args):
        if len(values) == 3 and values[0] == 1.0 and values[2] == values[1] * values[1]:
            taus.append(values[1])
        return search(values, *args)

    monkeypatch.setattr(classifier, "detect_integer_relation", counted)
    return taus


def test_cm_search_runs_once_per_basis_and_search_settings(monkeypatch):
    """The CM field is a lattice constant: asked again on the same periods
    it is read back, per (max_height, tol); a Lattice built directly
    searches afresh."""
    taus = _counted_cm_searches(monkeypatch)
    for _ in range(2):
        assert detect_cm(_sq()) == detect_cm(_sq()) == -4
        assert detect_cm(_sq(), max_height=100) == -4
        assert detect_cm(_sq(), tol=1e-8) == -4
        assert detect_cm(_noncm()) is None
    assert len(taus) == 4
    L = _sq()
    assert detect_cm(Lattice(L.omega1, L.omega2)) == -4
    assert len(taus) == 5
    # two motives on one basis ask the CM question once
    for mu in (_mu(L), 2 * _mu(L)):
        motivic_galois_dims(_motive(_sq(), mu, _p(L), 0.3))
    assert len(taus) == 5


def test_a_disagreeing_override_raises_on_every_call(monkeypatch):
    """A kept detection does not let a wrong cm_override through: every
    call compares it, before and after the search is kept."""
    taus = _counted_cm_searches(monkeypatch)
    L = _sq()
    for _ in range(3):
        with pytest.raises(InconsistentOverride, match="declared CM discriminant -3"):
            detect_cm(_sq(), cm_override=-3)
        with pytest.raises(InconsistentOverride):
            motivic_galois_dims(_motive(L, _mu(L), _p(L), 0.3, override=-3))
        assert detect_cm(_sq(), cm_override=-4) == -4
    assert len(taus) == 1


# ---------------------------------------------------------------------------
# dim B over End (x) Q
# ---------------------------------------------------------------------------


def test_dim_B_all_torsion():
    L = _noncm()
    m = _motive(L, L.omega1 / 2, None, 0.0)
    assert dim_B_elliptic(m) == (0, 0, 0)


def test_dim_B_dependent():
    L = _noncm()
    p = _p(L)
    m = _motive(L, 2 * p, p, 0.3)
    assert dim_B_elliptic(m) == (1, 1, 0)


def test_dim_B_independent():
    L = _noncm()
    m = _motive(L, _mu(L), _p(L), 0.3)
    assert dim_B_elliptic(m) == (2, 1, 1)


def test_dim_B_cm_field_action():
    """On a CM lattice, q = i*p is an endomorphism multiple of p, so the
    pair spans a one-dimensional F-vector space."""
    L = _sq()
    p = _p(L)
    assert dim_B_elliptic(_motive(L, 1j * p, p, 0.0)) == (1, 1, 0)
    # on a non-CM lattice the same pair is independent
    Ln = _noncm()
    pn = _p(Ln)
    assert dim_B_elliptic(_motive(Ln, 1j * pn, pn, 0.0)) == (2, 1, 1)


def test_dim_B_monotone_in_points():
    """Adding a point never decreases dim B."""
    for L in (_sq(), _noncm()):
        inv = eisenstein_invariants(L)
        q = ExtensionParam.from_primal(_mu(L), L)
        R1 = exp_G(_p(L), 0.25, q, L)
        R2 = exp_G(
            complex(0.13 * math.sqrt(11.0), 0.21 * math.sqrt(2.0)) * abs(L.omega1),
            0.5,
            q,
            L,
        )
        m1 = OneMotiveElliptic(inv, L, (q,), (R1,))
        m2 = OneMotiveElliptic(inv, L, (q,), (R1, R2))
        assert dim_B_elliptic(m2)[0] >= dim_B_elliptic(m1)[0]


def _general_motive(L, mu, point_logs):
    """The motive with extension parameter log mu and one marked point of
    fiber 1 over each point log."""
    points = tuple(
        SemiAbelianPoint(EllipticPoint(wp(z, L), wp_prime(z, L)), 1.0) for z in point_logs
    )
    q = ExtensionParam.from_primal(mu, L)
    return OneMotiveElliptic(eisenstein_invariants(L), L, (q,), points)


@pytest.mark.parametrize("tau", (1j, cmath.exp(1j * math.pi / 3)), ids=("square", "hexagonal"))
def test_dim_B_reads_high_order_torsion_points_in_general_motives(tau):
    """n = 2, s = 1 with p2 = (omega1 + 3*omega2)/N of order N: p2 adds
    nothing to dim B.  Its membership is its torsion question, under the
    cap of 3 values (1000) that is_torsion reads N under, not the 7-value
    question's cap of 95."""
    wrong = []
    for lam in (1e-8, 1.0, 1e8):
        L = make_lattice(lam, lam * tau)
        w1, w2 = L.omega1, L.omega2
        mu = (math.sqrt(2) - 1.1) * w1 + (math.sqrt(3) - 1.4) * w2
        p1 = (math.sqrt(5) - 2) * w1 + (math.sqrt(7) - 2.2) * w2
        for N in (97, 199, 499):
            got = dim_B_elliptic(_general_motive(L, mu, (p1, (w1 + 3 * w2) / N)))
            if got != (2, 1, 1):
                wrong.append((lam, N, got))
    assert wrong == []


def test_table_instances_make_7_reductions(monkeypatch):
    """A torsion value's dim B answer is its torsion question, deficiency
    reads dim B's certificate of p, and the continued fraction settles
    every question of 2 or 3 values, so the 15 table instances reduce 7
    lattices: three of 5 values and four of 4."""
    sizes = Counter()
    reduce = relations.lll_reduce_gram
    monkeypatch.setattr(
        relations,
        "lll_reduce_gram",
        lambda gram, bound=None: sizes.update([len(gram)]) or reduce(gram, bound),
    )
    for m, *_ in verify._table_instances():
        motivic_galois_dims(m)
    assert sizes == {4: 4, 5: 3}


@pytest.mark.parametrize("lattice", (_sq, _hex, _noncm))
def test_a_root_of_unity_fiber_makes_no_four_value_reduction(lattice, monkeypatch):
    """dim Z(1) asks each third-kind value t = 2*pi*i*k/N, k != 0, its
    root-of-unity question first, the one table_row asks, and the
    continued fraction settles it: the question [t, 2*pi*i, g1, g2] is
    never reduced.  The motives are r-torsion: P = O with fiber e^t.  At
    tol = 1e-4 the 4-value question's height cap is 2, below N, so only
    the root-of-unity question, capped at max_height, finds t, and dim
    Z(1) = 0 agrees with table_row."""
    sizes = Counter()
    reduce = relations.lll_reduce_gram
    monkeypatch.setattr(
        relations,
        "lll_reduce_gram",
        lambda gram, bound=None: sizes.update([len(gram)]) or reduce(gram, bound),
    )
    L = lattice()
    mu = (math.sqrt(2) - 1.1) * L.omega1 + (math.sqrt(3) - 1.4) * L.omega2
    for tol in (DEFAULT_TOL, 1e-4):
        for k, N in ((1, 2), (1, 3), (-3, 4), (2, 5), (5, 7), (-7, 12)):
            m = _motive(L, mu, None, 2j * math.pi * k / N)
            rep = motivic_galois_dims(m, tol=tol)
            assert (rep.table_row, rep.dim_Z1) == ("r-torsion", 0), (tol, k, N)
    assert height_cap(4, DEFAULT_MAX_HEIGHT, 1e-4) == 2
    assert sizes[4] == 0


def _seeded_general_motives():
    """(2, 2) and (3, 2) motives on Z + Zi and Z + (0.31 + 1.23i)Z, each
    once generic and once planted: q2 of order 3, p1 = 2*mu1 and p2 of
    order 5.  Logs uniform in the cell, fibers exp of a uniform draw."""
    rng = random.Random(23)
    for tau in (1j, complex(0.31, 1.23)):
        L = make_lattice(1.0, tau)
        w1, w2 = L.omega1, L.omega2
        for n in (2, 3):
            for planted in (False, True):
                mus = [rng.random() * w1 + rng.random() * w2 for _ in range(2)]
                zs = [rng.random() * w1 + rng.random() * w2 for _ in range(n)]
                if planted:
                    mus[1] = (w1 + 2 * w2) / 3
                    zs[0], zs[1] = 2 * mus[0], (w1 + w2) / 5
                points = tuple(
                    SemiAbelianPoint(
                        EllipticPoint(wp(z, L), wp_prime(z, L)),
                        cmath.exp(complex(rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))),
                    )
                    for z in zs
                )
                qs = tuple(ExtensionParam.from_primal(mu, L) for mu in mus)
                yield OneMotiveElliptic(eisenstein_invariants(L), L, qs, points)


def test_every_certificate_leads_with_a_positive_coefficient(monkeypatch):
    """Every certificate the table instances and the seeded general
    motives are given, settled without a reduction or from LLL, has its
    first nonzero coefficient positive."""
    certs = []
    search = classifier.detect_integer_relation
    monkeypatch.setattr(
        classifier,
        "detect_integer_relation",
        lambda *args: certs.append(search(*args)) or certs[-1],
    )
    motives = [m for m, *_ in verify._table_instances()]
    for m in motives + list(_seeded_general_motives()):
        motivic_galois_dims(m)
    found = [c.coefficients for c in certs if c is not None]
    # 41 of 2 or 3 values, the CM question's once per CM lattice, and 7 of
    # more, all from LLL: a first value t = 0 is settled as (1, 0) by its
    # root-of-unity question, ahead of the 4-value one
    assert Counter(len(c) > 3 for c in found) == {False: 41, True: 7}
    assert [c for c in found if next(x for x in c if x) < 0] == []


# per motive, the number of values of each relation search, in order: the
# CM question, asked by the first motive on each lattice only, dim B's
# chain, then dim Z(1)'s chain: the g_j, then each third-kind value's
# root-of-unity question (2 values) ahead of its span question
_GENERAL_QUESTIONS = (
    (3, 3, 3, 5, 3, 7, 3, 9, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9),
    (3, 3, 3, 5, 3, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9),
    (3, 3, 5, 3, 7, 3, 9, 3, 11, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9, 2, 10, 2, 11),
    (3, 3, 3, 5, 3, 3, 5, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9, 2, 10, 2, 11),
    (3, 3, 3, 4, 3, 5, 3, 6, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9),
    (3, 3, 3, 4, 3, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9),
    (3, 3, 4, 3, 5, 3, 6, 3, 7, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9, 2, 10, 2, 11),
    (3, 3, 3, 4, 3, 3, 4, 2, 3, 4, 5, 2, 6, 2, 7, 2, 8, 2, 9, 2, 10, 2, 11),
)


def test_general_motives_ask_the_same_questions_in_the_same_order(monkeypatch):
    """The relation searches of eight seeded general motives, pinned by
    their sizes in order, so that a reordered or an added question in
    either greedy chain shows."""
    sizes = []
    search = classifier.detect_integer_relation
    monkeypatch.setattr(
        classifier,
        "detect_integer_relation",
        lambda values, *args: sizes.append(len(values)) or search(values, *args),
    )
    got = []
    for m in _seeded_general_motives():
        sizes.clear()
        motivic_galois_dims(m)
        got.append(tuple(sizes))
    assert tuple(got) == _GENERAL_QUESTIONS


# ---------------------------------------------------------------------------
# deficiency
# ---------------------------------------------------------------------------


def test_deficiency_from_the_dim_B_certificate_matches_the_five_value_question():
    """On seeded CM dependent motives, q = k*p and q = i*p on Z + Zi and
    q = i*sqrt(3)*p on the hexagonal lattice, at every decade 1e-8 ... 1e8:
    reading beta
    from dim B's certificate of p (purely imaginary when its mu
    coefficient is 0) agrees with the question [mu, p, delta*p, omega1,
    omega2], whose beta is purely imaginary when its p coefficient is 0."""
    rng = random.Random(17)
    seen = Counter()
    for tau, imaginary in ((1j, 1j), (cmath.exp(1j * math.pi / 3), 1j * math.sqrt(3))):
        for e in range(-8, 9):
            L = make_lattice(10.0**e, 10.0**e * tau)
            for _ in range(2):
                p = rng.uniform(0.06, 0.94) * L.omega1 + rng.uniform(0.06, 0.94) * L.omega2
                k = rng.choice((2, 3, -2, -3))
                for mu, want in ((k * p, False), (imaginary * p, True)):
                    a = classifier._MotiveAnalysis(
                        _general_motive(L, mu, (p,)), DEFAULT_MAX_HEIGHT, DEFAULT_TOL
                    )
                    (mu_log,), (p_log,) = a.param_logs, a.point_logs
                    cert = classifier._in_rational_span(
                        mu_log,
                        (p_log, a.cm[1] * p_log, L.omega1, L.omega2),
                        DEFAULT_MAX_HEIGHT,
                        DEFAULT_TOL,
                    )
                    assert cert is not None
                    assert a.deficient == (cert.coefficients[1] == 0) == want, (tau, e, k)
                    seen[want] += 1
    assert seen == {False: 68, True: 68}


def test_deficiency_cm_imaginary_coefficient():
    L = _sq()
    p = _p(L)
    assert is_deficient(_motive(L, 1j * p, p, 0.0)) is True
    assert is_deficient(_motive(L, 2 * p, p, 0.0)) is False


def test_deficiency_non_cm_false():
    L = _noncm()
    p = _p(L)
    assert is_deficient(_motive(L, 2 * p, p, 0.0)) is False


def test_deficiency_not_applicable():
    L = _sq()
    # dim B = 0 (all torsion): not applicable
    assert is_deficient(_motive(L, L.omega1 / 2, None, 0.0)) is None
    # dim B = 2: not applicable
    assert is_deficient(_motive(L, _mu(L), _p(L), 0.0)) is None


# ---------------------------------------------------------------------------
# dim Z(1)
# ---------------------------------------------------------------------------


def test_dim_Z1_rational_fiber_of_torsion():
    L = _sq()
    # torsion P, Q; fiber 1 makes the third-kind value 0: a root of unity
    assert dim_Z1(_motive(L, L.omega1 / 2, None, 0.0)) == 0
    # generic fiber 2: not a root of unity
    assert dim_Z1(_motive(L, L.omega1 / 2, None, cmath.log(2))) == 1


def test_dim_Z1_forced_by_independence():
    """Independent P, Q have a nontrivial bracket torus, so dim Z(1) = 1
    no matter which fiber representative is chosen."""
    L = _sq()
    m = _motive(L, _mu(L), _p(L), 0.0)
    assert dim_Z1(m) == 1


def test_dim_Z1_zero_when_s_zero():
    L = _sq()
    inv = eisenstein_invariants(L)
    from semiabel.elliptic import wp, wp_prime

    z = _p(L)
    R = SemiAbelianPoint(EllipticPoint(wp(z, L), wp_prime(z, L)), 1.0)
    assert dim_Z1(OneMotiveElliptic(inv, L, (), (R,))) == 0


# ---------------------------------------------------------------------------
# classification table
# ---------------------------------------------------------------------------

_EXPECTED = {
    "q-r-torsion": 0,
    "p-q-torsion": 1,
    "r-torsion": 2,
    "q-torsion": 3,
    "p-torsion": 3,
    "dependent-deficient": 2,
    "dependent-not-deficient": 3,
    "independent": 5,
}


def _cases(L, cm):
    w1 = L.omega1
    p, mu = _p(L), _mu(L)
    cases = [
        ("q-r-torsion", w1 / 2, None, 0.0),
        ("p-q-torsion", w1 / 2, None, cmath.log(2)),
        ("r-torsion", mu, None, 0.0),
        ("q-torsion", w1 / 2, p, 0.5),
        ("p-torsion", mu, w1 / 2, 0.5),
        ("dependent-not-deficient", 2 * p, p, 0.3),
        ("independent", mu, p, 0.3),
    ]
    if cm:
        cases.append(("dependent-deficient", 1j * p, p, 0.0))
    return cases


@pytest.mark.parametrize("cm", (True, False))
def test_table_reproduction(cm):
    L = _sq() if cm else _noncm()
    for row, mu, z, t in _cases(L, cm):
        m = _motive(L, mu, z, t)
        assert classify_table_row(m) == row
        rep = motivic_galois_dims(m)
        assert rep.table_row == row
        assert rep.dim_UR == _EXPECTED[row]
        assert rep.dim_Gal == _EXPECTED[row] + (2 if cm else 4)
        assert rep.cm is cm
        # hard dimension-formula invariants
        assert rep.dim_UR == 2 * rep.dim_B + rep.dim_Z1
        assert rep.dim_B == rep.dim_B_vstar + rep.dim_B_Q


@pytest.mark.parametrize("lam", sorted({10.0**e for e in range(-8, 9)} | {0.37, 7.0}))
def test_table_rows_invariant_under_scaling(lam):
    """Lambda -> lam*Lambda keeps every row and its dimensions, at every
    decade from 1e-8 to 1e8: each span question is asked relative to the
    largest modulus of its basis."""
    for cm, (w1, w2) in ((True, (VARPI, VARPI * 1j)), (False, (1.0, _noncm().tau))):
        L = make_lattice(lam * w1, lam * w2)
        for row, mu, z, t in _cases(L, cm):
            rep = motivic_galois_dims(_motive(L, mu, z, t))
            want = (row, _EXPECTED[row], _EXPECTED[row] + (2 if cm else 4), cm)
            assert (rep.table_row, rep.dim_UR, rep.dim_Gal, rep.cm) == want


def _rebased(m, a, b, c, d):
    """The motive on the basis (a*omega1 + b*omega2, c*omega1 + d*omega2)
    of its lattice, each extension parameter keeping its primal log."""
    L = m.lattice
    L2 = make_lattice(a * L.omega1 + b * L.omega2, c * L.omega1 + d * L.omega2)
    qs = [ExtensionParam.from_primal(q.primal(L), L2) for q in m.extension_params]
    return OneMotiveElliptic(m.curve, L2, qs, m.points)


def _conjugated(m):
    """The complex conjugate of the whole motive: curve, lattice,
    extension parameters and marked points."""
    L = m.lattice
    L2 = make_lattice(L.omega1.conjugate(), L.omega2.conjugate())
    qs = [
        ExtensionParam.from_primal(q.primal(L).conjugate(), L2)
        for q in m.extension_params
    ]
    points = [
        SemiAbelianPoint(
            R.base if R.base.is_identity
            else EllipticPoint(R.base.x.conjugate(), R.base.y.conjugate()),
            R.fiber.conjugate(),
        )
        for R in m.points
    ]
    curve = CurveInvariants(m.curve.g2.conjugate(), m.curve.g3.conjugate())
    return OneMotiveElliptic(curve, L2, qs, points)


@pytest.mark.parametrize("matrix", REBASINGS, ids=str)
def test_table_rows_invariant_under_change_of_basis(matrix):
    """An SL2(Z) change of basis of the lattice keeps every table row and
    its dimensions; the new Lattice object computes its own constants."""
    for m, row, ur, gal, cm in verify._table_instances():
        rep = motivic_galois_dims(_rebased(m, *matrix))
        assert (rep.table_row, rep.dim_UR, rep.dim_Gal, rep.cm) == (row, ur, gal, cm), row


def test_table_rows_invariant_under_complex_conjugation():
    for m, row, ur, gal, cm in verify._table_instances():
        rep = motivic_galois_dims(_conjugated(m))
        assert (rep.table_row, rep.dim_UR, rep.dim_Gal, rep.cm) == (row, ur, gal, cm), row


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="serre_fq evaluates sigma at a far translate without reducing z "
    "modulo Lambda first (CHANGES.md FOUND, ROADMAP item 7)",
)
def test_non_cm_table_rows_on_a_long_thin_basis():
    """In the long, thin cell of the bases (13, 8; 8, 5) and (21, 13; 13, 8)
    the principal log of the point is a far translate of the one on the
    reduced basis, and the q-torsion, dependent-not-deficient and
    independent rows overflow."""
    for matrix in ((13, 8, 8, 5), (21, 13, 13, 8)):
        for m, row, ur, gal, cm in verify._table_instances():
            if not cm:
                rep = motivic_galois_dims(_rebased(m, *matrix))
                assert (rep.table_row, rep.dim_UR, rep.dim_Gal) == (row, ur, gal), row


def _shifted(m, a, b):
    """The motive with log q moved by a*omega1 + b*omega2: the same
    extension, so the same motive."""
    L = m.lattice
    shift = a * L.omega1 + b * L.omega2
    qs = [ExtensionParam.from_primal(q.primal(L) + shift, L) for q in m.extension_params]
    return OneMotiveElliptic(m.curve, L, qs, m.points)


def test_dim_B_does_not_depend_on_the_parameter_log_representative():
    """log q and log q + 1000*omega1 give the same extension, so the same
    motive: dim B must not move, though the point logarithm p is tiny.  And
    each table motive, with log q moved by up to (300, -200) periods, keeps
    its row, dimensions, CM and certificate coefficients."""
    L = make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))
    inv = eisenstein_invariants(L)
    mu = complex(0.2 * math.sqrt(5.0), 0.11 * math.sqrt(7.0))
    p = 3.1e-7 * complex(math.sqrt(2.0), math.sqrt(3.0))
    R = exp_G(p, 0.3, ExtensionParam.from_primal(mu, L), L)
    dims = [
        dim_B_elliptic(OneMotiveElliptic(inv, L, (ExtensionParam.from_primal(m, L),), (R,)))
        for m in (mu, mu + 1000 * L.omega1)
    ]
    assert dims[0] == (2, 1, 1)
    assert dims[1] == dims[0]

    def summary(rep):
        dims = (rep.dim_B, rep.dim_B_vstar, rep.dim_Z1, rep.dim_UR, rep.dim_Gal)
        return rep.table_row, dims, rep.cm, [c.coefficients for c in rep.relations]

    moved = []
    for m, row, *_ in verify._table_instances():
        want = summary(motivic_galois_dims(m))
        for shift in ((1, 0), (0, 1), (5, -3), (40, 17), (300, -200)):
            if summary(motivic_galois_dims(_shifted(m, *shift))) != want:
                moved.append((row, shift))
    assert moved == []


def test_q_r_torsion_with_root_of_unity_fiber():
    """For a 2-division q the quasi-quasi-periods are rational multiples
    of 2*pi*i, so they add nothing to the span the fiber is reduced in."""
    L = make_lattice(1, 1j)
    rep = motivic_galois_dims(_motive(L, L.omega1 / 2, None, 2j * math.pi / 3))
    assert (rep.table_row, rep.dim_UR, rep.dim_Gal) == ("q-r-torsion", 0, 2)


def _torsion_base_motive(L, j, k, N, fiber_frac=0.0, shift=0.0):
    """R = exp_G(p, t) with torsion p = (j*omega1 + k*omega2)/N and t on
    the torsion coset -(j*g1 + k*g2)/N + 2*pi*i*fiber_frac, moved off it
    by a real shift."""
    mu = _mu(L)
    g1, g2 = quasi_quasi_periods(ExtensionParam.from_primal(mu, L), L)
    t = -(j * g1 + k * g2) / N + 2j * math.pi * fiber_frac + shift
    return _motive(L, mu, (j * L.omega1 + k * L.omega2) / N, t)


@pytest.mark.parametrize("N", (3, 65, 67, 200))
@pytest.mark.parametrize("cm", (True, False))
def test_r_torsion_of_any_order_below_the_height_bound(cm, N):
    """R = exp_G(omega1/N, -g1/N) is N-torsion; its torsion is decided by
    relation searches, so only max_height bounds N."""
    L = _sq() if cm else _noncm()
    rep = motivic_galois_dims(_torsion_base_motive(L, 1, 0, N))
    assert (rep.table_row, rep.dim_UR, rep.dim_Gal) == ("r-torsion", 2, 4 if cm else 6)
    off = motivic_galois_dims(_torsion_base_motive(L, 1, 0, N, shift=0.3))
    assert (off.table_row, off.dim_UR, off.dim_Gal) == ("p-torsion", 3, 5 if cm else 7)


def test_r_torsion_survey_on_and_off_the_torsion_coset():
    """Seeded draws of P = (j*omega1 + k*omega2)/N with a fiber of order M
    on the torsion coset, N*M up to 10^4, past max_height: on the coset
    the row is r-torsion, moved off it by a real shift it is p-torsion."""
    rng = random.Random(10)
    for _ in range(60):
        L = rng.choice((_sq, _hex, _noncm))()
        N = rng.randrange(3, 101)
        M = rng.randrange(1, 101)
        j, k = 0, 0
        # p off the lattice and off the 2-division points
        while (2 * j) % N == 0 and (2 * k) % N == 0:
            j, k = rng.randrange(N), rng.randrange(N)
        frac = rng.randrange(M) / M
        on = motivic_galois_dims(_torsion_base_motive(L, j, k, N, frac))
        off = motivic_galois_dims(
            _torsion_base_motive(L, j, k, N, frac, rng.uniform(0.2, 0.9))
        )
        assert (on.table_row, off.table_row) == ("r-torsion", "p-torsion"), (N, M, j, k)


@pytest.mark.parametrize("tau", (1j, complex(0.31, 1.23)), ids=("square", "non-cm"))
def test_generic_two_point_two_parameter_motives_read_full_rank(tau):
    """100 seeded generic n = s = 2 motives: logs uniform in the cell,
    each fiber exp of a uniform draw.  Nothing is planted, so dim B =
    dim Z(1) = 4.  The last questions search 9 values, where heights up
    to 1000 admit spurious relations; the height cap keeps them out."""
    L = make_lattice(1.0, tau)
    inv = eisenstein_invariants(L)
    rng = random.Random(2)

    def cell():
        return rng.random() * L.omega1 + rng.random() * L.omega2

    counts = Counter()
    for _ in range(100):
        qs = (ExtensionParam.from_primal(cell(), L), ExtensionParam.from_primal(cell(), L))
        points = []
        for _ in range(2):
            wp, dwp, _ = weierstrass(cell(), L)
            fiber = cmath.exp(complex(rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)))
            points.append(SemiAbelianPoint(EllipticPoint(wp, dwp), fiber))
        rep = motivic_galois_dims(OneMotiveElliptic(inv, L, qs, tuple(points)))
        counts[rep.dim_B, rep.dim_Z1] += 1
    assert counts == {(4, 4): 100}


def _table_instances_at_30_digits():
    """The defining numbers of `verify._table_instances()` at 30 digits,
    in its order: (cm, row, omega1, omega2, mu, z), z None for O."""
    from mpmath import e, gamma, mpc, mpf, pi, sqrt

    varpi = gamma(mpf(1) / 4) ** 2 / (2 * sqrt(2 * pi))
    out = []
    for cm, (w1, w2) in (
        (True, (mpc(varpi), mpc(0, varpi))),
        (False, (mpc(1), mpc(mpf("0.3") * sqrt(2), mpf("0.5") * e))),
    ):
        p = mpc(mpf("0.1") * pi, mpf("0.07") * sqrt(3)) * abs(w1)
        mu = mpc(mpf("0.2") * sqrt(5), mpf("0.11") * sqrt(7)) * abs(w1)
        cases = [
            ("q-r-torsion", w1 / 2, None),
            ("p-q-torsion", w1 / 2, None),
            ("r-torsion", mu, None),
            ("q-torsion", w1 / 2, p),
            ("p-torsion", mu, w1 / 2),
            ("dependent-not-deficient", 2 * p, p),
            ("independent", mu, p),
        ]
        if cm:
            cases.append(("dependent-deficient", 1j * p, p))
        out += [(cm, row, w1, w2, mu_i, z) for row, mu_i, z in cases]
    return out


def test_table_certificates_hold_at_30_digits():
    """Each dim B certificate of the 15 table instances, a relation found
    in double precision, is a true relation: rebuilt from the defining
    numbers at 30 digits, its combination is below 1e-25."""
    import semiabel.verify as verify
    from mpmath import mpc, sqrt, workdps

    checked = 0
    with workdps(30):
        for (m, row, *_), (cm, row_hp, w1, w2, mu, z) in zip(
            verify._table_instances(), _table_instances_at_30_digits(), strict=True
        ):
            assert row == row_hp
            L = m.lattice
            assert abs(complex(w1) - L.omega1) + abs(complex(w2) - L.omega2) < 1e-15

            def translate(x_hp, x):
                """x_hp moved to the lattice translate of the double x."""
                n1, n2 = real_coordinates(x - complex(x_hp), L)
                x_hp = x_hp + round(n1) * w1 + round(n2) * w2
                assert abs(complex(x_hp) - x) < 1e-12
                return x_hp

            a = classifier._MotiveAnalysis(m, DEFAULT_MAX_HEIGHT, DEFAULT_TOL)
            disc, delta = a.cm
            assert (disc is not None) is cm
            # delta = 2*a*tau + b is the square root of disc in the upper half plane
            delta_hp = mpc(0, sqrt(-disc)) if cm else None
            mu_hp = translate(mu, a.param_logs[0])
            p_hp = translate(mpc(0) if z is None else z, a.point_logs[0])
            # dim B's chain, rerun through the memo: the same steps, and a
            # certificate's coefficients run over the value, then the gens
            # its question was asked against, a prefix of the grown gens_hp
            periods = (L.omega1, L.omega2)
            steps = a.chain(periods, a.param_logs + a.point_logs, delta, periods)
            gens_hp, certs = [w1, w2], []
            for v_hp, cert in zip((mu_hp, p_hp), steps, strict=True):
                if cert is not None:
                    combo = sum(c * x for c, x in zip(cert.coefficients, [v_hp, *gens_hp]))
                    assert abs(combo) < 1e-25, (row, cm, cert)
                    certs.append(cert)
                else:
                    gens_hp += [v_hp] if delta is None else [v_hp, delta_hp * v_hp]
            assert tuple(certs) == a.dim_B[3]
            checked += len(certs)
    assert checked == 17


def test_classification_never_repeats_a_relation_search(monkeypatch):
    calls = Counter()
    search = classifier.detect_integer_relation

    def counted(values, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
        calls[tuple(complex(v) for v in values), max_height, tol] += 1
        return search(values, max_height, tol)

    monkeypatch.setattr(classifier, "detect_integer_relation", counted)
    for cm in (True, False):
        L = _sq() if cm else _noncm()
        for row, mu, z, t in _cases(L, cm):
            calls.clear()
            motivic_galois_dims(_motive(L, mu, z, t))
            assert calls and max(calls.values()) == 1, row


def test_non_cm_deficient_unreachable():
    """An imaginary-coefficient dependence cannot exist over End = Z:
    the attempted construction lands in the independent row."""
    L = _noncm()
    p = _p(L)
    m = _motive(L, 1j * p, p, 0.0)
    assert classify_table_row(m) == "independent"
    assert motivic_galois_dims(m).table_row == "independent"


def test_classify_requires_n_s_one():
    L = _sq()
    inv = eisenstein_invariants(L)
    from semiabel.elliptic import wp, wp_prime

    z = _p(L)
    R = SemiAbelianPoint(EllipticPoint(wp(z, L), wp_prime(z, L)), 1.0)
    m = OneMotiveElliptic(inv, L, (), (R,))
    with pytest.raises(NotApplicable):
        classify_table_row(m)
    assert motivic_galois_dims(m).table_row == "general"


# ---------------------------------------------------------------------------
# report invariants and bounds
# ---------------------------------------------------------------------------


def test_report_invariants_enforced():
    with pytest.raises(InternalInconsistency):
        ClassificationReport(
            dim_B=1,
            dim_B_vstar=1,
            dim_B_Q=0,
            dim_Z1=0,
            dim_UR=3,  # wrong: should be 2
            dim_Gal=5,
            table_row="general",
            cm=True,
            cm_discriminant=-4,
            deficient=None,
            bounds={},
            confidence="numeric",
        )


def test_conjecture_bounds_examples():
    L = _sq()
    # independent P, Q with generic fiber: WSA_V1 = 2*1 + 1 = 3
    m = _motive(L, _mu(L), _p(L), 0.3)
    b = conjecture_bounds(m)
    assert b["WSA_V1"] == 3
    assert b["WSA_explicit"] == 3
    assert b["SA"] == 2 * 2 + 1 + 2
    # all-torsion row: unipotent parts vanish, SA is the reductive part
    b0 = conjecture_bounds(_motive(L, L.omega1 / 2, None, 0.0))
    assert b0 == {"SA": 2, "WSA_V1": 0, "WSA_explicit": 0}


def test_conjecture_bounds_weak_abelian_case():
    """s = 0, n = 1, non-torsion P: the bound degenerates to 2*dim B_Q."""
    L = _noncm()
    inv = eisenstein_invariants(L)
    from semiabel.elliptic import wp, wp_prime

    z = _p(L)
    R = SemiAbelianPoint(EllipticPoint(wp(z, L), wp_prime(z, L)), 1.0)
    m = OneMotiveElliptic(inv, L, (), (R,))
    assert conjecture_bounds(m)["WSA_V1"] == 2


def test_confidence_flag():
    # exact coordinates do not make the report certified: the analysis
    # decides torsion by relation searches on the logarithms, never by
    # exact group-law addition
    curve = CurveInvariants(Fraction(4), Fraction(0))
    L = _sq()
    q = ExtensionParam.from_primal(L.omega2 / 2, L)
    R = SemiAbelianPoint(EllipticPoint(Fraction(1), Fraction(0)), 1.0)
    m = OneMotiveElliptic(curve, L, (q,), (R,))
    assert motivic_galois_dims(m).confidence == "numeric"
    m2 = _motive(L, _mu(L), _p(L), 0.3)
    assert motivic_galois_dims(m2).confidence == "numeric"


# ---------------------------------------------------------------------------
# computation mutants: motivic_galois_dims refuses a wrong dimension
# ---------------------------------------------------------------------------


def test_dim_B_of_one_without_its_relation_is_refused(monkeypatch):
    """A dim B = 1 chain that lost its certificate leaves the deficiency
    undecided: refused, not read as not deficient."""
    L = _sq()
    m = _motive(L, 2 * _p(L), _p(L), 0.3)
    assert motivic_galois_dims(m).table_row == "dependent-not-deficient"
    dim_B = classifier._MotiveAnalysis.dim_B.func
    monkeypatch.setattr(
        classifier._MotiveAnalysis, "dim_B", property(lambda a: dim_B(a)[:3] + ((),))
    )
    with pytest.raises(InternalInconsistency, match="no relation"):
        motivic_galois_dims(m)


def test_a_non_cm_deficient_row_is_refused(monkeypatch):
    """The r-torsion motive has the deficient row's dim UR = 2, so only
    the CM test stands between it and a non-CM deficient report."""
    L = _noncm()
    m = _motive(L, _mu(L), None, 0.0)
    assert motivic_galois_dims(m).dim_UR == classifier._TABLE_DIMS["dependent-deficient"]
    monkeypatch.setattr(
        classifier._MotiveAnalysis, "table_row", property(lambda a: "dependent-deficient")
    )
    with pytest.raises(InternalInconsistency, match="non-CM deficient"):
        motivic_galois_dims(m)


@pytest.mark.parametrize("cm", (True, False))
def test_a_row_against_another_dim_UR_is_refused(monkeypatch, cm):
    L = _sq() if cm else _noncm()
    m = _motive(L, _mu(L), _p(L), 0.3)
    monkeypatch.setitem(classifier._TABLE_DIMS, "independent", _EXPECTED["independent"] + 1)
    with pytest.raises(InternalInconsistency, match="expects dim UR"):
        motivic_galois_dims(m)
