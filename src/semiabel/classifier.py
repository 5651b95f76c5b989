"""Heuristic-numeric invariants of 1-motives over an elliptic curve.

Given an extension of the curve by tori (parametrized by points of the
dual) and marked points on the extension, this module detects torsion,
complex multiplication, endomorphism-linear dependence and deficiency,
and assembles the dimension invariants

    dim B, dim B_{v*}, dim B_Q, dim Z(1),
    dim UR(M) = 2 dim B + dim Z(1),
    dim Gal(M) = dim UR(M) + dim Gal(E),

together with the matched row of the eight-row classification table for
n = s = 1 and the conjectural transcendence-degree lower bounds.  All
dimension outputs from floating-point inputs are heuristic: every
detected linear relation ships as a certificate, with its residual and
the height cap it was searched under, and each report carries a
confidence flag.

dim B and dim Z(1) are ranks of one greedy chain of span questions.
Torsion is the first question of dim B's chain, asked alike by
`is_torsion`: is the elliptic logarithm in Q*omega1 + Q*omega2?  In
dim Z(1)'s chain each third-kind value t is first asked the root-of-unity
question that `table_row` asks too: is t in Q*2*pi*i?
"""

import math
from functools import cached_property

from ._value import Value
from .errors import InconsistentOverride, InternalInconsistency, NotApplicable
from .lattice import reduce_to_fundamental
from .periods import check_on_curve, elliptic_log, generalized_elliptic_log
from .relations import DEFAULT_MAX_HEIGHT, DEFAULT_TOL, detect_integer_relation
from .semiabelian import _fiber_log, quasi_quasi_periods

TWO_PI_I = 2j * math.pi

# dim UR of each table row; dim Gal = dim UR + dim Gal(E), 2 with CM
# and 4 without
_TABLE_DIMS = {
    "q-r-torsion": 0,
    "p-q-torsion": 1,
    "r-torsion": 2,
    "q-torsion": 3,
    "p-torsion": 3,
    "dependent-deficient": 2,
    "dependent-not-deficient": 3,
    "independent": 5,
}


class OneMotiveElliptic(Value):
    """A 1-motive [u: Z^n -> G] with G an extension of the curve by
    Gm^s; carried by the curve, its lattice, the s extension parameters
    and the n marked points of G."""

    _fields = ("curve", "lattice", "extension_params", "points", "cm_override")

    def __init__(self, curve, lattice, extension_params, points, cm_override=None):
        points = tuple(points)
        if len(points) < 1:
            raise ValueError("a 1-motive needs at least one marked point (n >= 1)")
        for R in points:
            check_on_curve(R.base, curve)
        super().__init__(curve, lattice, tuple(extension_params), points, cm_override)

    @property
    def n(self):
        return len(self.points)

    @property
    def s(self):
        return len(self.extension_params)


class ClassificationReport(Value):
    """The classification of one motive; its fields are the keys of the
    ``classify --json`` document (``as_dict``).  ``deficient`` is None when
    not applicable; ``confidence`` is "numeric": every decision rests on a
    relation search."""

    _fields = (
        "dim_B", "dim_B_vstar", "dim_B_Q", "dim_Z1", "dim_UR", "dim_Gal",
        "table_row", "cm", "cm_discriminant", "deficient", "bounds",
        "confidence", "relations",
    )
    relations = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        dim_B, dim_B_vstar, dim_B_Q, dim_Z1, dim_UR, dim_Gal = self._astuple()[:6]
        if dim_UR != 2 * dim_B + dim_Z1:
            raise InternalInconsistency(f"dim UR {dim_UR} != 2*{dim_B} + {dim_Z1}")
        if dim_Gal != dim_UR + (2 if self.cm else 4):
            raise InternalInconsistency(f"dim Gal {dim_Gal} != {dim_UR} + reductive part")
        if dim_B != dim_B_vstar + dim_B_Q:
            raise InternalInconsistency(f"dim B {dim_B} != {dim_B_vstar} + {dim_B_Q}")

    def as_dict(self):
        """The ``classify --json`` document: every field, ``bounds`` copied
        and the relation certificates as dicts."""
        doc = {name: getattr(self, name) for name in self._fields}
        doc["bounds"] = dict(self.bounds)
        doc["relations"] = tuple(
            {name: getattr(c, name) for name in c._fields} for c in self.relations
        )
        return doc


# ---------------------------------------------------------------------------
# the span question, and torsion
# ---------------------------------------------------------------------------


def _in_rational_span(v, basis, max_height, tol):
    """The certificate of v in Q-span(basis), or None.

    The search runs on v and the basis divided by the largest basis
    modulus, so the decision does not depend on the scale of the input
    and the certificate residual is in units of that modulus.
    """
    scale = max(abs(b) for b in basis)
    cert = detect_integer_relation([x / scale for x in [v, *basis]], max_height, tol)
    return cert if cert is not None and cert.coefficients[0] != 0 else None


def is_torsion(P, L, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL, curve=None):
    """The order N of P, or None when P reads as non-torsion.

    The same span question as `classify`: is the elliptic logarithm z in
    Q*omega1 + Q*omega2?  Its certificate c0*z + c1*omega1 + c2*omega2 = 0
    gives N = |c0| / gcd(c0, c1, c2), so N <= height_cap(3, max_height,
    tol): 1000 at the defaults, 12 at tol = 1e-4.
    """
    z = elliptic_log(P, L, curve).value
    cert = _in_rational_span(z, (L.omega1, L.omega2), max_height, tol)
    if cert is None:
        return None
    c0, c1, c2 = cert.coefficients
    return abs(c0) // math.gcd(c0, c1, c2)


# ---------------------------------------------------------------------------
# complex multiplication
# ---------------------------------------------------------------------------


def _cm_field(L, max_height, tol, cm_override):
    """(disc, delta) from one search for a relation a*tau^2 + b*tau + c
    = 0 on the reduced period ratio tau: disc = b^2 - 4ac when negative,
    and delta = 2a*tau + b the purely imaginary quadratic integer acting
    on the lattice (delta^2 = disc); (None, None) for non-CM.  The
    detection is a lattice constant, kept in L._cache per (max_height,
    tol); a declared override must agree with it on every call."""
    key = ("cm", max_height, tol)
    field = L._cache.get(key)
    if field is None:
        w1, w2, _ = L.reduced_basis()
        tau = w2 / w1
        cert = detect_integer_relation([1.0, tau, tau * tau], max_height, tol)
        field = None, None
        if cert is not None:
            c, b, a = cert.coefficients
            if a != 0 and b * b - 4 * a * c < 0:
                field = b * b - 4 * a * c, 2 * a * tau + b
        L._cache[key] = field
    disc = field[0]
    if cm_override is not None and disc != cm_override:
        raise InconsistentOverride(
            f"declared CM discriminant {cm_override}, detected {disc}"
        )
    return field


def detect_cm(L, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL, cm_override=None):
    """CM discriminant of the lattice, or None.

    Searches an integer relation a*tau^2 + b*tau + c = 0 for the reduced
    period ratio tau and returns b^2 - 4ac when negative, once per basis
    and (max_height, tol) (_cm_field).  A declared override must agree
    with the detection on every call.
    """
    return _cm_field(L, max_height, tol, cm_override)[0]


# ---------------------------------------------------------------------------
# the analysis of one motive
# ---------------------------------------------------------------------------


class _MotiveAnalysis:
    """Every logarithm, CM test, torsion answer (`torsion`) and rank chain
    (`chain`) of one motive, each made at most once and only when first needed.

    The public functions below are views of one analysis.  Each
    attribute is computed on first read, so a view computes only what it
    needs, and a malformed motive fails at the first quantity it reads.
    """

    def __init__(self, motive, max_height, tol):
        self.motive = motive
        self.L = motive.lattice
        self.max_height = max_height
        self.tol = tol
        self._spans = {}

    def in_span(self, v, basis):
        """v's certificate in Q-span(basis), or None; each asked once."""
        key = (v, tuple(basis))
        if key not in self._spans:
            self._spans[key] = _in_rational_span(v, basis, self.max_height, self.tol)
        return self._spans[key]

    def torsion(self, z):
        """(c0, c1, c2) with c0*z + c1*omega1 + c2*omega2 = 0, or None."""
        cert = self.in_span(z, (self.L.omega1, self.L.omega2))
        return None if cert is None else cert.coefficients

    def chain(self, gens, values, delta=None, first=None):
        """The greedy rank chain: each value in order is asked whether it is
        in the Q-span of `first`, when given, else of gens, which grow by v,
        or by {v, delta*v} under CM, when it is not.  Returns each value's
        certificate, or None where it is independent."""
        gens, certs = list(gens), []
        for v in values:
            cert = self.in_span(v, first) if first else None
            if cert is None:
                cert = self.in_span(v, gens)
            if cert is None:
                gens += [v] if delta is None else [v, delta * v]
            certs.append(cert)
        return certs

    @cached_property
    def cm(self):
        """(CM discriminant, delta), or (None, None)."""
        return _cm_field(self.L, self.max_height, self.tol, self.motive.cm_override)

    @cached_property
    def param_logs(self):
        """Principal values, as the point logs: f_q does not depend on the
        representative, and g_j moves by a multiple of 2*pi*i (Legendre)."""
        L = self.L
        return [reduce_to_fundamental(q.primal(L), L)[0] for q in self.motive.extension_params]

    @cached_property
    def point_glogs(self):
        return [
            generalized_elliptic_log(R.base, self.L, self.motive.curve)
            for R in self.motive.points
        ]

    @cached_property
    def point_logs(self):
        return [glog.z for glog in self.point_glogs]

    @cached_property
    def dim_B(self):
        """(dim_B, dim_B_vstar, dim_B_Q, certificates): the chain of the
        parameter logarithms, then the point logarithms, over the periods,
        with CM pairs; each value is asked its torsion question first, so a
        torsion value's certificate is its torsion one."""
        delta, periods = self.cm[1], (self.L.omega1, self.L.omega2)
        certs = self.chain(periods, self.param_logs + self.point_logs, delta, periods)
        d_total = certs.count(None)
        d_vstar = certs[: self.motive.s].count(None)
        return d_total, d_vstar, d_total - d_vstar, tuple([c for c in certs if c])

    @cached_property
    def deficient(self):
        """None unless n = s = 1, dim B = 1 and P, Q are non-torsion;
        then whether q = beta*p modulo periods with beta purely imaginary."""
        m = self.motive
        if m.n != 1 or m.s != 1 or self.dim_B[0] != 1:
            return None
        (mu,), (p,) = self.param_logs, self.point_logs
        if self.torsion(p) is not None or self.torsion(mu) is not None:
            return None
        # dim B's one certificate, of p: c0*p + c1*omega1 + c2*omega2 + c3*mu
        # (+ c4*delta*mu under CM) = 0, so q = beta*p mod periods with
        # beta = -c0/(c3 + c4*delta), purely imaginary exactly when c3 = 0
        certs = self.dim_B[3]
        c = certs[0].coefficients[3:] if certs else ()
        if not any(c):
            raise InternalInconsistency("dim B = 1 but no relation q = beta*p was found")
        return c[0] == 0

    @cached_property
    def third_kind_periods(self):
        """The quasi-quasi-periods (g1, g2) of each extension parameter."""
        return [quasi_quasi_periods(mu, self.L) for mu in self.param_logs]

    @cached_property
    def third_kind_values(self):
        """The n*s integrals of the third kind: the fiber component t of
        log_G(R) for each point R and each parameter q."""
        return [
            _fiber_log(R, glog, mu, self.L)
            for R, glog in zip(self.motive.points, self.point_glogs)
            for mu in self.param_logs
        ]

    @cached_property
    def reduced_third_kind_values(self):
        """The third-kind values, each t of a torsion point p = a1*omega1 +
        a2*omega2 moved to t + a1*g1 + a2*g2.  The move is rational in the
        quasi-quasi-periods, so the Q-span modulo them is unchanged, and
        R's torsion relation with 2*pi*i drops from height N*M to M."""
        values = iter(self.third_kind_values)
        out = []
        for p in self.point_logs:
            # c0*p + c1*omega1 + c2*omega2 = 0; a non-torsion p moves nothing
            c0, c1, c2 = self.torsion(p) or (1, 0, 0)
            out += [
                next(values) - c1 / c0 * g1 - c2 / c0 * g2
                for g1, g2 in self.third_kind_periods
            ]
        return out

    @cached_property
    def dim_Z1(self):
        m = self.motive
        if m.s == 0:
            return 0
        # read before the bracket test: a pole or a zero fiber is reported
        # ahead of a CM override that disagrees with the detection
        periods, values = self.third_kind_periods, self.reduced_third_kind_values
        # n = s = 1: the bracket torus Z'(1) is one-dimensional, forcing
        # dim Z(1) = 1, unless dim B = 0, or B is one-sided (P or Q
        # torsion), or the dependence coefficient is purely imaginary;
        # `deficient` is False exactly for the remaining dim B = 1 case
        if m.n == 1 and m.s == 1 and (self.dim_B[0] == 2 or self.deficient is False):
            return 1
        # the chain over Q from 2*pi*i: the g_j, then the values, each first
        # asked table_row's root-of-unity question t in Q*2*pi*i.  Torsion
        # q = a1*omega1 + a2*omega2 has g_j = +-2*pi*i*a_(3-j) - d*omega_j,
        # d = zeta(q) - eta(q): d = 0 at order 2 keeps the g_j out, but from
        # order 3 on they enter (q = omega1/3 on Z + Zi: g1/2*pi*i ~ 0.2919i)
        g = [gj for pair in periods for gj in pair]
        gens = [TWO_PI_I] + [gj for gj, c in zip(g, self.chain([TWO_PI_I], g)) if c is None]
        return self.chain(gens, values, first=(TWO_PI_I,)).count(None)

    @cached_property
    def table_row(self):
        m = self.motive
        if m.n != 1 or m.s != 1:
            raise NotApplicable("the classification table covers n = s = 1 only")
        (mu,), (p,) = self.param_logs, self.point_logs
        p_tor, q_tor = self.torsion(p) is not None, self.torsion(mu) is not None
        (t,) = self.reduced_third_kind_values
        r_tor = p_tor and self.in_span(t, (TWO_PI_I,)) is not None
        if q_tor and r_tor:
            return "q-r-torsion"
        if p_tor and q_tor:
            return "p-q-torsion"
        if r_tor:
            return "r-torsion"
        if q_tor:
            return "q-torsion"
        if p_tor:
            return "p-torsion"
        if self.dim_B[0] == 1:
            if self.deficient and self.dim_Z1 == 0:
                return "dependent-deficient"
            return "dependent-not-deficient"
        return "independent"


# ---------------------------------------------------------------------------
# public views
# ---------------------------------------------------------------------------


def dim_B_elliptic(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """(dim_B, dim_B_vstar, dim_B_Q) over F = End (x) Q: the greedy chain of
    the extension-parameter logarithms (dim B_{v*}), then the point
    logarithms, modulo the periods, with the pair {v, delta*v} under CM."""
    return _MotiveAnalysis(motive, max_height, tol).dim_B[:3]


def is_deficient(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Whether the dependence q = beta * p holds with beta a purely
    imaginary element of the CM field (the antisymmetric-morphism case);
    None when not applicable (needs n = s = 1 and dim B = 1 with both
    P and Q non-torsion), False for non-CM curves, where beta is rational.
    """
    return _MotiveAnalysis(motive, max_height, tol).deficient


def dim_Z1(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Dimension t of the Q-span of the third-kind integrals modulo
    2*pi*i*Q and the quasi-quasi-periods.

    For n = s = 1 the output is reconciled with the three-case torsor
    analysis: a nontrivial bracket torus Z'(1) forces the value 1
    regardless of the fiber representative.
    """
    return _MotiveAnalysis(motive, max_height, tol).dim_Z1


def classify_table_row(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Exactly one of the eight classification rows (n = s = 1 only),
    evaluated torsion conditions first, then dependence with deficiency,
    then independence."""
    return _MotiveAnalysis(motive, max_height, tol).table_row


def _bounds_from_dims(dim_b, dim_b_q, dim_z1, cm):
    gal_a = 2 if cm else 4
    return {
        "SA": 2 * dim_b + dim_z1 + gal_a,
        "WSA_V1": 2 * dim_b_q + dim_z1,
        "WSA_explicit": 2 * dim_b_q + dim_z1,
    }


def conjecture_bounds(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """The three conjectural transcendence-degree lower bounds computed
    from the dimension invariants (never asserted as true)."""
    a = _MotiveAnalysis(motive, max_height, tol)
    dim_b, _, dim_b_q, _ = a.dim_B
    return _bounds_from_dims(dim_b, dim_b_q, a.dim_Z1, a.cm[0] is not None)


def motivic_galois_dims(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Full classification report; for n = s = 1 the dimension formulas
    are cross-checked against the matched table row and a mismatch
    raises InternalInconsistency."""
    a = _MotiveAnalysis(motive, max_height, tol)
    disc = a.cm[0]
    cm = disc is not None
    dim_b, dim_b_vstar, dim_b_q, certs = a.dim_B
    dim_z1 = a.dim_Z1
    dim_ur = 2 * dim_b + dim_z1
    dim_gal = dim_ur + (2 if cm else 4)
    deficient = a.deficient
    if motive.n == 1 and motive.s == 1:
        row = a.table_row
        if row == "dependent-deficient" and not cm:
            raise InternalInconsistency(
                "non-CM deficient cell is unreachable, yet it was classified"
            )
        if dim_ur != _TABLE_DIMS[row]:
            raise InternalInconsistency(
                f"row {row!r} expects dim UR = {_TABLE_DIMS[row]}, "
                f"formulas give {dim_ur}"
            )
    else:
        row = "general"
    return ClassificationReport(
        dim_B=dim_b,
        dim_B_vstar=dim_b_vstar,
        dim_B_Q=dim_b_q,
        dim_Z1=dim_z1,
        dim_UR=dim_ur,
        dim_Gal=dim_gal,
        table_row=row,
        cm=cm,
        cm_discriminant=disc,
        deficient=deficient,
        bounds=_bounds_from_dims(dim_b, dim_b_q, dim_z1, cm),
        confidence="numeric",
        relations=certs,
    )
