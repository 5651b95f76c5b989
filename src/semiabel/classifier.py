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
detected linear relation ships as a re-verified certificate, and each
report carries a confidence flag.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .elliptic import CurveInvariants
from .errors import InconsistentOverride, InternalInconsistency, NotApplicable
from .lattice import Lattice, real_coordinates
from .periods import EllipticPoint, check_on_curve, elliptic_log
from .relations import DEFAULT_MAX_HEIGHT, DEFAULT_TOL, detect_integer_relation
from .semiabelian import _fiber_log, quasi_quasi_periods

TWO_PI_I = 2j * math.pi

DEFAULT_N_MAX = 64
# distance of N times a coordinate from an integer that counts as torsion
TORSION_TOL = 1e-8

TABLE_ROWS = (
    "q-r-torsion",
    "p-q-torsion",
    "r-torsion",
    "q-torsion",
    "p-torsion",
    "dependent-deficient",
    "dependent-not-deficient",
    "independent",
)

# (dim UR, dim Gal for CM, dim Gal for non-CM); None marks the
# unreachable non-CM deficient cell.
_TABLE_DIMS = {
    "q-r-torsion": (0, 2, 4),
    "p-q-torsion": (1, 3, 5),
    "r-torsion": (2, 4, 6),
    "q-torsion": (3, 5, 7),
    "p-torsion": (3, 5, 7),
    "dependent-deficient": (2, 4, None),
    "dependent-not-deficient": (3, 5, 7),
    "independent": (5, 7, 9),
}


@dataclass(frozen=True)
class OneMotiveElliptic:
    """A 1-motive [u: Z^n -> G] with G an extension of the curve by
    Gm^s; carried by the curve, its lattice, the s extension parameters
    and the n marked points of G."""

    curve: CurveInvariants
    lattice: Lattice
    extension_params: tuple
    points: tuple
    cm_override: int = None

    def __post_init__(self):
        object.__setattr__(self, "extension_params", tuple(self.extension_params))
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 1:
            raise ValueError("a 1-motive needs at least one marked point (n >= 1)")
        for R in self.points:
            check_on_curve(R.base, self.curve)

    @property
    def n(self):
        return len(self.points)

    @property
    def s(self):
        return len(self.extension_params)


@dataclass(frozen=True)
class ClassificationReport:
    """The classification of one motive; its fields are the keys of the
    ``classify --json`` document."""

    dim_B: int
    dim_B_vstar: int
    dim_B_Q: int
    dim_Z1: int
    dim_UR: int
    dim_Gal: int
    table_row: str
    cm: bool
    cm_discriminant: int
    deficient: bool  # None when not applicable
    bounds: dict
    confidence: str  # "numeric": every decision rests on a relation search
    relations: tuple = ()

    def __post_init__(self):
        if self.dim_UR != 2 * self.dim_B + self.dim_Z1:
            raise InternalInconsistency(
                f"dim UR {self.dim_UR} != 2*{self.dim_B} + {self.dim_Z1}"
            )
        if self.dim_Gal != self.dim_UR + (2 if self.cm else 4):
            raise InternalInconsistency(
                f"dim Gal {self.dim_Gal} != {self.dim_UR} + reductive part"
            )
        if self.dim_B != self.dim_B_vstar + self.dim_B_Q:
            raise InternalInconsistency(
                f"dim B {self.dim_B} != {self.dim_B_vstar} + {self.dim_B_Q}"
            )


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def _is_exact(x):
    return isinstance(x, (int, Fraction))


def _exact_add(P1, P2, g2, g3):
    """Chord-tangent addition on y^2 = 4x^3 - g2 x - g3 over Q."""
    if P1.is_identity:
        return P2
    if P2.is_identity:
        return P1
    x1, y1, x2, y2 = (
        Fraction(P1.x),
        Fraction(P1.y),
        Fraction(P2.x),
        Fraction(P2.y),
    )
    if x1 == x2:
        if y1 == -y2:
            return EllipticPoint.identity()
        lam = Fraction(12 * x1 * x1 - g2, 2 * y1)
    else:
        lam = Fraction(y2 - y1, x2 - x1)
    x3 = lam * lam / 4 - x1 - x2
    y3 = -(lam * (x3 - x1) + y1)
    return EllipticPoint(x3, y3)


def _torsion_exact(P, g2, g3, n_max):
    """Smallest N <= n_max with N*P = O, by exact repeated addition."""
    g2, g3 = Fraction(g2), Fraction(g3)
    acc = P
    for N in range(1, n_max + 1):
        if acc.is_identity:
            return N
        acc = _exact_add(acc, P, g2, g3)
    return None


def is_torsion(P, L, n_max=DEFAULT_N_MAX, curve=None):
    """Smallest N <= n_max with N*P = O, or None.

    When the point and curve coordinates are exact rationals the order
    is settled by exact group-law addition; otherwise the elliptic
    logarithm is tested for coordinates in (1/N) * lattice.
    """
    if P.is_identity:
        return 1
    if (
        curve is not None
        and _is_exact(P.x)
        and _is_exact(P.y)
        and _is_exact(curve.g2)
        and _is_exact(curve.g3)
    ):
        return _torsion_exact(P, curve.g2, curve.g3, n_max)
    z = elliptic_log(P, L).value
    return _log_torsion_order(z, L, n_max)


def _log_torsion_order(z, L, n_max):
    """Smallest N <= n_max with N*z in Lambda, via real coordinates."""
    a1, a2 = real_coordinates(z, L)
    for N in range(1, n_max + 1):
        if max(abs(N * a1 - round(N * a1)), abs(N * a2 - round(N * a2))) < TORSION_TOL:
            return N
    return None


def _semiabelian_torsion_order(z, t, g, L, n_max):
    """Smallest N <= n_max with N*(z, t) in the rank-3 kernel lattice
    of exp_G, i.e. N*R = identity of G; None when no such N.  g holds
    the quasi-quasi-periods (g1, g2) of the extension parameter."""
    a1, a2 = real_coordinates(z, L)
    g1, g2 = g
    for N in range(1, n_max + 1):
        if max(abs(N * a1 - round(N * a1)), abs(N * a2 - round(N * a2))) > TORSION_TOL:
            continue
        m, n = round(N * a1), round(N * a2)
        k = (N * t + m * g1 + n * g2) / TWO_PI_I
        if abs(k - round(k.real)) < TORSION_TOL * (1.0 + abs(k)):
            return N
    return None


# ---------------------------------------------------------------------------
# complex multiplication
# ---------------------------------------------------------------------------


def _cm_field(L, max_height, tol, cm_override):
    """(disc, delta) from one search for a relation a*tau^2 + b*tau + c
    = 0 on the reduced period ratio tau: disc = b^2 - 4ac when negative,
    and delta = 2a*tau + b the purely imaginary quadratic integer acting
    on the lattice (delta^2 = disc); (None, None) for non-CM.  A declared
    override must agree with the detection."""
    w1, w2, _ = L.reduced_basis()
    tau = w2 / w1
    cert = detect_integer_relation([1.0, tau, tau * tau], max_height, tol)
    disc = delta = None
    if cert is not None:
        c, b, a = cert.coefficients
        if a < 0:
            a, b, c = -a, -b, -c
        if a != 0 and b * b - 4 * a * c < 0:
            disc, delta = b * b - 4 * a * c, 2 * a * tau + b
    if cm_override is not None and disc != cm_override:
        raise InconsistentOverride(
            f"declared CM discriminant {cm_override}, detected {disc}"
        )
    return disc, delta


def detect_cm(L, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL, cm_override=None):
    """CM discriminant of the lattice, or None.

    Searches an integer relation a*tau^2 + b*tau + c = 0 for the reduced
    period ratio tau and returns b^2 - 4ac when negative.  A declared
    override must agree with the detection.
    """
    return _cm_field(L, max_height, tol, cm_override)[0]


# ---------------------------------------------------------------------------
# the analysis of one motive
# ---------------------------------------------------------------------------


def _in_rational_span(v, basis, max_height, tol):
    """(in_span, certificate) for v in Q-span(basis)."""
    if abs(v) < tol:
        return True, None
    cert = detect_integer_relation([v] + list(basis), max_height, tol)
    if cert is not None and cert.coefficients[0] != 0:
        return True, cert
    return False, None


class _MotiveAnalysis:
    """Every logarithm, torsion flag, CM test and span decision of one
    motive, each made at most once and only when first needed.

    The public functions below are views of one analysis.  Each
    attribute is computed on first read, so a view computes only what it
    needs, and a malformed motive fails at the first quantity it reads.
    """

    def __init__(self, motive, max_height, tol, n_max=DEFAULT_N_MAX):
        self.motive = motive
        self.L = motive.lattice
        self.max_height = max_height
        self.tol = tol
        self.n_max = n_max
        self._spans = {}

    def in_span(self, v, basis):
        """(v in Q-span(basis), certificate); each question is searched once."""
        key = (v, tuple(basis))
        if key not in self._spans:
            self._spans[key] = _in_rational_span(v, basis, self.max_height, self.tol)
        return self._spans[key]

    def is_torsion_log(self, z):
        """Whether z lies in Q*omega1 + Q*omega2 (a torsion logarithm)."""
        return self.in_span(z, (self.L.omega1, self.L.omega2))[0]

    @cached_property
    def cm(self):
        """(CM discriminant, delta), or (None, None)."""
        return _cm_field(self.L, self.max_height, self.tol, self.motive.cm_override)

    @cached_property
    def param_logs(self):
        return [q.primal(self.L) for q in self.motive.extension_params]

    @cached_property
    def point_logs(self):
        return [
            elliptic_log(R.base, self.L, self.motive.curve).value
            for R in self.motive.points
        ]

    @cached_property
    def dim_B(self):
        """(dim_B, dim_B_vstar, dim_B_Q, certificates): greedy F-span of
        the parameter logarithms, then the point logarithms, modulo the
        periods; in the CM case each independent value v adds the pair
        {v, delta*v}."""
        delta = self.cm[1]
        gens = [self.L.omega1, self.L.omega2]
        certs = []
        independent = []
        for v in self.param_logs + self.point_logs:
            inside, cert = self.in_span(v, gens)
            if cert is not None:
                certs.append(cert)
            if not inside:
                gens += [v] if delta is None else [v, delta * v]
            independent.append(not inside)
        d_total = sum(independent)
        d_vstar = sum(independent[: self.motive.s])
        return d_total, d_vstar, d_total - d_vstar, tuple(certs)

    @cached_property
    def deficient(self):
        """None unless n = s = 1, dim B = 1 and P, Q are non-torsion;
        then whether q = beta*p modulo periods with beta purely imaginary."""
        m = self.motive
        if m.n != 1 or m.s != 1 or self.dim_B[0] != 1:
            return None
        (mu,), (p,) = self.param_logs, self.point_logs
        if self.is_torsion_log(p) or self.is_torsion_log(mu):
            return None
        disc, delta = self.cm
        if disc is None:
            return False
        inside, cert = self.in_span(mu, (p, delta * p, self.L.omega1, self.L.omega2))
        if not inside:
            raise InternalInconsistency(
                "dim B = 1 but no dependence relation q = beta*p was found"
            )
        # q = beta*p mod periods with beta = -(c1 + c2*delta)/c0; beta is
        # purely imaginary exactly when the real component c1 vanishes
        return cert.coefficients[1] == 0

    @cached_property
    def third_kind_periods(self):
        """The quasi-quasi-periods (g1, g2) of each extension parameter."""
        return [quasi_quasi_periods(q, self.L) for q in self.motive.extension_params]

    @cached_property
    def third_kind_values(self):
        """The n*s integrals of the third kind: the fiber component t of
        log_G(R) for each point R and each parameter q."""
        return [
            _fiber_log(R, z, q, self.L)
            for R, z in zip(self.motive.points, self.point_logs)
            for q in self.motive.extension_params
        ]

    def extend(self, basis, v):
        """Append v to basis unless it lies in the Q-span; True if appended."""
        inside, _ = self.in_span(v, basis)
        if not inside:
            basis.append(v)
        return not inside

    @cached_property
    def dim_Z1(self):
        m = self.motive
        if m.s == 0:
            return 0
        # read before the bracket test: a pole or a zero fiber is reported
        # ahead of a CM override that disagrees with the detection
        periods, values = self.third_kind_periods, self.third_kind_values
        # n = s = 1: the bracket torus Z'(1) is one-dimensional, forcing
        # dim Z(1) = 1, unless dim B = 0, or B is one-sided (P or Q
        # torsion), or the dependence coefficient is purely imaginary;
        # `deficient` is False exactly for the remaining dim B = 1 case
        if m.n == 1 and m.s == 1 and (self.dim_B[0] == 2 or self.deficient is False):
            return 1
        # greedy: the quasi-quasi-periods of a torsion q are rational
        # multiples of 2*pi*i and must not enter the basis
        basis = [TWO_PI_I]
        for g in periods:
            for gj in g:
                self.extend(basis, gj)
        return sum(1 for v in values if self.extend(basis, v))

    @cached_property
    def table_row(self):
        m = self.motive
        if m.n != 1 or m.s != 1:
            raise NotApplicable("the classification table covers n = s = 1 only")
        (t,) = self.third_kind_values
        (mu,), (p,) = self.param_logs, self.point_logs
        p_tor = self.is_torsion_log(p)
        q_tor = self.is_torsion_log(mu)
        r_tor = p_tor and _semiabelian_torsion_order(
            p, t, self.third_kind_periods[0], self.L, self.n_max
        ) is not None
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
    """(dim_B, dim_B_vstar, dim_B_Q) over F = End (x) Q.

    Greedy F-span of the pulled-back extension-parameter logarithms
    (giving dim B_{v*}) followed by the point logarithms, modulo the
    F-span of the periods; in the CM case each independent value
    contributes the generator pair {v, delta*v}.
    """
    return _MotiveAnalysis(motive, max_height, tol).dim_B[:3]


def is_deficient(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL):
    """Whether the dependence q = beta * p holds with beta a purely
    imaginary element of the CM field (the antisymmetric-morphism case);
    None when not applicable (needs n = s = 1 and dim B = 1 with both
    P and Q non-torsion), False immediately for non-CM curves.
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


def classify_table_row(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL,
                       n_max=DEFAULT_N_MAX):
    """Exactly one of the eight classification rows (n = s = 1 only),
    evaluated torsion conditions first, then dependence with deficiency,
    then independence."""
    return _MotiveAnalysis(motive, max_height, tol, n_max).table_row


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


def motivic_galois_dims(motive, max_height=DEFAULT_MAX_HEIGHT, tol=DEFAULT_TOL,
                        n_max=DEFAULT_N_MAX):
    """Full classification report; for n = s = 1 the dimension formulas
    are cross-checked against the matched table row and a mismatch
    raises InternalInconsistency."""
    a = _MotiveAnalysis(motive, max_height, tol, n_max)
    disc = a.cm[0]
    cm = disc is not None
    dim_b, dim_b_vstar, dim_b_q, certs = a.dim_B
    dim_z1 = a.dim_Z1
    dim_ur = 2 * dim_b + dim_z1
    dim_gal = dim_ur + (2 if cm else 4)
    deficient = a.deficient
    if motive.n == 1 and motive.s == 1:
        row = a.table_row
        expected_ur, expected_cm, expected_noncm = _TABLE_DIMS[row]
        expected_gal = expected_cm if cm else expected_noncm
        if expected_gal is None:
            raise InternalInconsistency(
                "non-CM deficient cell is unreachable, yet it was classified"
            )
        if (dim_ur, dim_gal) != (expected_ur, expected_gal):
            raise InternalInconsistency(
                f"row {row!r} expects (UR, Gal) = "
                f"({expected_ur}, {expected_gal}), formulas give "
                f"({dim_ur}, {dim_gal})"
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
