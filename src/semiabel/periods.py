"""From curve invariants to a period lattice, and back along points:
elliptic logarithms (first kind) and generalized logarithms (first +
second kind).

The period computation and the logarithm both go through Carlson's
symmetric integral RF evaluated by its duplication theorem — the same
quadratically convergent iteration family as the classical AGM, but with
an unambiguous principal-branch rule for complex arguments.
"""

import cmath
import math
from itertools import permutations

from ._kernels import carlson_rf
from ._value import Value
from .elliptic import CurveInvariants, eisenstein_invariants, weierstrass, wp
from .errors import BeyondWorkingPrecision, ConvergenceFailure, NotOnCurve, SingularCurve
from .lattice import Lattice, _oriented, reduce_to_fundamental

DISCRIMINANT_TOL = 1e-12
CURVE_TOL = 1e-9
_CUBE_ROOT_OF_UNITY = complex(-0.5, math.sqrt(3) / 2)


class EllipticPoint(Value):
    """Affine point (x, y) on y^2 = 4x^3 - g2 x - g3, or the identity O."""

    _fields = ("x", "y", "is_identity")
    x = y = 0j
    is_identity = False

    @staticmethod
    def identity():
        return EllipticPoint(is_identity=True)


class BranchedValue(Value):
    """A value defined up to lattice translations: its principal representative."""

    _fields = ("value",)


class GeneralizedAbelianLog(Value):
    # w, the second-kind integral: zeta at the principal logarithm
    _fields = ("z", "w", "is_identity")
    is_identity = False


def check_on_curve(P, inv):
    """NotOnCurve unless y^2 = 4x^3 - g2 x - g3 at P to the size of its
    terms; BeyondWorkingPrecision, naming P, where a term overflows."""
    if P.is_identity:
        return
    # the size of each term, not of the right-hand side after cancellation,
    # and the curve's own weight-6 size: all of weight 6, so scale-free
    try:
        lhs = P.y * P.y
        rhs = 4 * P.x**3 - inv.g2 * P.x - inv.g3
        scale = abs(lhs) + 4 * abs(P.x) ** 3 + abs(inv.g2 * P.x) + abs(inv.g3)
        scale += abs(inv.g2) ** 1.5
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise BeyondWorkingPrecision(
            f"the curve equation at ({P.x}, {P.y}) is beyond working precision"
        )
    if abs(lhs - rhs) > CURVE_TOL * scale:
        raise NotOnCurve(f"y^2 - (4x^3 - g2 x - g3) = {lhs - rhs}")


def _cubic_roots(g2, g3):
    """The roots of 4t^3 - g2 t - g3 by Cardano's formula, each polished by
    one Newton step.  The cube root is taken of the larger of -q/2 +- s,
    which is never 0 on a nonsingular curve, so g2 = 0 or g3 = 0 divides
    by nothing."""
    p, q = -g2 / 4, -g3 / 4  # the depressed cubic t^3 + p t + q
    s = cmath.sqrt(q * q / 4 + p**3 / 27)
    u = max(-q / 2 + s, -q / 2 - s, key=abs) ** (1 / 3)
    roots = []
    for rot in (1, _CUBE_ROOT_OF_UNITY, _CUBE_ROOT_OF_UNITY.conjugate()):
        v = u * rot
        t = v - p / (3 * v)
        roots.append(t - (4 * t**3 - g2 * t - g3) / (12 * t * t - g2))
    return tuple(roots)


def _shortest(lattices, period):
    """The lattices whose period is shortest, lengths within 1e-12
    relative tied, then of those the ones of smallest phase, within 1e-12."""
    m = min(abs(period(L)) for L in lattices)
    near = [L for L in lattices if abs(period(L)) <= m * (1 + 1e-12)]
    a = min(cmath.phase(period(L)) for L in near)
    return [L for L in near if cmath.phase(period(L)) <= a + 1e-12]


def periods_from_invariants(c):
    """Lattice with the given Eisenstein invariants (g2, g3).

    Half-periods are RF integrals between branch points: root ordering
    (e1, e2, e3) takes omega1 = 2 RF(0, e1 - e2, e1 - e3) and omega2 =
    2 RF(0, e3 - e1, e3 - e2), which is ordering (e3, e1, e2)'s omega1, so
    six RF values serve the six orderings.  The basis is the candidate with
    the shortest omega1, then the shortest omega2 (ties by the smaller
    phase), so it does not depend on the order of the roots.  Only that
    pick is checked: one whose lattice does not reproduce the invariants
    gives way to the next, and ConvergenceFailure is raised when none is
    left.  A refusal on the way (RF's non-convergence, a candidate basis
    Lattice refuses, the pick's invariants beyond working precision)
    propagates with its own type.  SingularCurve where the discriminant
    g2^3 - 27 g3^2 is within its rounding of 0; BeyondWorkingPrecision where
    it overflows or is below DISCRIMINANT_TOL relative to max(|g2|^3, |g3|^2).
    """
    g2, g3 = complex(c.g2), complex(c.g3)
    try:
        disc = complex(c.discriminant())
    except OverflowError:
        disc = complex(math.inf)
    if not cmath.isfinite(disc):
        raise BeyondWorkingPrecision(
            f"the discriminant of g2 = {c.g2}, g3 = {c.g3} is beyond working precision"
        )
    # g2**3 is two complex products, 27*g3**2 one and a scaling: with each
    # product within sqrt(5)u (u = 2^-53), the scaling and the difference
    # within u, disc is rounded by at most (2sqrt(5) + 1)u|g2|^3 +
    # (sqrt(5) + 2)u 27|g3|^2 to first order, under 8u = 2^-50 of each term
    if abs(disc) <= 2.0**-50 * abs(g2) ** 3 + 27 * 2.0**-50 * abs(g3) ** 2:
        raise SingularCurve(f"discriminant {disc}")
    ratio = abs(disc) / max(abs(g2) ** 3, abs(g3) ** 2)
    if ratio <= DISCRIMINANT_TOL:
        raise BeyondWorkingPrecision(
            f"the relative discriminant {ratio:.3g} of g2 = {c.g2}, g3 = {c.g3}"
            f" is below {DISCRIMINANT_TOL:g}: its periods are beyond working precision"
        )
    scale = max(abs(g2), abs(g3), 1.0)
    e = _cubic_roots(g2, g3)
    W = {(i, j, k): 2.0 * carlson_rf(0j, e[i] - e[j], e[i] - e[k])
         for i, j, k in permutations(range(3))}
    # outside make_lattice's table: a conversion evicts no caller's lattice
    candidates = [Lattice(*_oriented(W[i, j, k], W[k, i, j])) for i, j, k in W]
    while candidates:
        L = _shortest(_shortest(candidates, lambda L: L.omega1), lambda L: L.omega2)[0]
        inv = eisenstein_invariants(L)
        if abs(inv.g2 - g2) + abs(inv.g3 - g3) <= 1e-6 * scale:
            return L
        candidates.remove(L)
    raise ConvergenceFailure("no root ordering reproduced the invariants")


def _branch_points(L):
    """((h, wp(h)) for the half-periods h = w1/2, w2/2, (w1 + w2)/2 of L's
    reduced basis: the branch points e_j = wp(h_j) of the curve
    (Whittaker-Watson §20.32), computed once per lattice (Lattice._cache)."""
    if "branch_points" not in L._cache:
        w1, w2, _ = L.reduced_basis()
        L._cache["branch_points"] = tuple(
            (h, wp(h, L)) for h in (w1 / 2, w2 / 2, (w1 + w2) / 2)
        )
    return L._cache["branch_points"]


def _rf_wp_prime(d1, d2, d3):
    """wp' at R_F(d1, d2, d3) for d_j = x - e_j: -2 sqrt(d1) sqrt(d2)
    sqrt(d3) with principal roots, since along R_F's ray t = x + s each
    t - e_j moves parallel to the real axis and crosses no cut."""
    return -2 * cmath.sqrt(d1) * cmath.sqrt(d2) * cmath.sqrt(d3)


def generalized_elliptic_log(P, L, inv=None):
    """Principal generalized elliptic logarithm (z, zeta(z)): z in the
    fundamental domain with wp(z) = x, wp'(z) = y, and zeta(z) from the
    evaluation that checks it; the lattice's memo keeps that evaluation,
    so the fiber logarithm of log_G reads sigma(z) from it.  The identity O
    gets the distinguished (0, marker) pair, which period_matrix_M enters
    as 0.

    P must lie on the curve of inv (by default the lattice's own
    invariants).  The branch points are wp at the half-periods of L; a
    2-division point is its half-period.  Any other point starts from
    R_F, its sign read from _rf_wp_prime before any evaluation (both
    read x - e_j + 0j: the sign of a zero part of x does not change the
    answer), and is polished by Newton at the principal argument: every
    series is summed at a reduced z, and is both a step and the check of
    the z it is summed at, so the returned z is the one that was checked.
    Newton steps while |step| >= 1e-14 |omega1|, at most 8 times, and a
    step that raises the residual is not taken."""
    if P.is_identity:
        return GeneralizedAbelianLog(0j, complex("inf"), is_identity=True)
    if inv is None:
        inv = eisenstein_invariants(L)
    check_on_curve(P, inv)
    branch = _branch_points(L)
    # the curve's own sizes of weight 2 (x) and 3 (y), so that every check
    # below compares like weights and does not depend on the lattice's size
    w = abs(inv.g2) ** 0.25 + abs(inv.g3) ** (1 / 6)
    x_size, y_size = w * w + abs(P.x), w**3 + abs(P.y)
    h, e = min(branch, key=lambda b: abs(P.x - b[1]))
    # 2-torsion (y = 0) is its half-period: Newton stalls at the critical
    # point of wp there
    if abs(P.y) < 1e-8 * (w**3 + abs(P.x) ** 1.5) and abs(P.x - e) < 1e-9 * x_size:
        z = reduce_to_fundamental(h, L)[0]
        p, dp, zeta = weierstrass(z, L)
    else:
        # RF determines z up to sign and lattice; pick the sign matching y
        diffs = [P.x - e + 0j for _, e in branch]
        z = carlson_rf(*diffs)
        d = _rf_wp_prime(*diffs)
        if abs(d - P.y) > abs(-d - P.y):
            z = -z
        z = reduce_to_fundamental(z, L)[0]
        p, dp, zeta = weierstrass(z, L)
        if abs(dp - P.y) > abs(-dp - P.y):
            z = reduce_to_fundamental(-z, L)[0]
            p, dp, zeta = weierstrass(z, L)
        # Newton on wp(z) - x.  A step that would raise the residual is not
        # taken: near 2-torsion wp' is round-off sized, and one such step
        # throws an already accurate z off the root.
        for _ in range(8):
            step = (p - P.x) / dp if dp else 0j
            if abs(step) < 1e-14 * abs(L.omega1):
                break
            z_new = reduce_to_fundamental(z - step, L)[0]
            values = weierstrass(z_new, L)
            if abs(values[0] - P.x) > abs(p - P.x):
                break
            z, (p, dp, zeta) = z_new, values
    if abs(p - P.x) > 1e-7 * x_size or abs(dp - P.y) > 1e-6 * y_size:
        raise ConvergenceFailure(
            f"logarithm failed to invert wp at {P.x}, {P.y}"
        )
    return GeneralizedAbelianLog(z, zeta)


def elliptic_log(P, L, inv=None):
    """Principal elliptic logarithm: the first-kind component z of
    generalized_elliptic_log, with wp(z) = x, wp'(z) = y; 0 at O."""
    return BranchedValue(generalized_elliptic_log(P, L, inv).z)
