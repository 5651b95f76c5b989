"""From curve invariants to a period lattice, and back along points:
elliptic logarithms (first kind) and generalized logarithms (first +
second kind).

The period computation and the logarithm both go through Carlson's
symmetric integral RF evaluated by its duplication theorem — the same
quadratically convergent iteration family as the classical AGM, but with
an unambiguous principal-branch rule for complex arguments.
"""

import cmath
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._kernels import carlson_rf
from .elliptic import (
    CurveInvariants,
    eisenstein_invariants,
    weierstrass,
    wp,
    zeta_w,
)
from .errors import (
    ConvergenceFailure,
    NotOnCurve,
    SemiabelError,
    SingularCurve,
)
from .lattice import make_lattice, reduce_centered, reduce_to_fundamental

DISCRIMINANT_TOL = 1e-12
CURVE_TOL = 1e-9


@dataclass(frozen=True)
class EllipticPoint:
    """Affine point (x, y) on y^2 = 4x^3 - g2 x - g3, or the identity O."""

    x: complex = 0j
    y: complex = 0j
    is_identity: bool = False

    @staticmethod
    def identity():
        return EllipticPoint(is_identity=True)


@dataclass(frozen=True)
class BranchedValue:
    """A value defined up to lattice translations: its principal representative."""

    value: complex


@dataclass(frozen=True)
class GeneralizedAbelianLog:
    z: complex
    w: complex  # second-kind integral: zeta at the principal logarithm
    is_identity: bool = False


def check_on_curve(P, inv, tol=CURVE_TOL):
    if P.is_identity:
        return
    lhs = P.y * P.y
    rhs = 4 * P.x**3 - inv.g2 * P.x - inv.g3
    # the size of each term, not of the right-hand side after cancellation
    scale = 1.0 + abs(lhs) + 4 * abs(P.x) ** 3 + abs(inv.g2 * P.x) + abs(inv.g3)
    if abs(lhs - rhs) > tol * scale:
        raise NotOnCurve(f"y^2 - (4x^3 - g2 x - g3) = {lhs - rhs}")


def _cubic_roots(g2, g3):
    # roots of 4t^3 - g2 t - g3
    r = np.roots([4.0, 0.0, -complex(g2), -complex(g3)])
    return [complex(v) for v in r]


def periods_from_invariants(c):
    """Lattice with the given Eisenstein invariants (g2, g3).

    Half-periods are RF integrals between branch points; the root
    ordering is picked by minimizing the invariant round-trip residual.
    """
    g2, g3 = complex(c.g2), complex(c.g3)
    disc = g2**3 - 27 * g3**2
    if abs(disc) <= DISCRIMINANT_TOL * max(abs(g2) ** 3, abs(g3) ** 2, 1.0):
        raise SingularCurve(f"discriminant {disc}")
    roots = _cubic_roots(g2, g3)
    best = None
    for e1, e2, e3 in permutations(roots):
        try:
            w1 = 2.0 * carlson_rf(0j, e1 - e2, e1 - e3)
            w2 = 2.0 * carlson_rf(0j, e3 - e1, e3 - e2)
            L = make_lattice(w1, w2)
            inv = eisenstein_invariants(L)
        except (SemiabelError, ArithmeticError):
            continue
        scale = max(abs(g2), abs(g3), 1.0)
        resid = (abs(inv.g2 - g2) + abs(inv.g3 - g3)) / scale
        if best is None or resid < best[0]:
            best = (resid, L)
    if best is None or best[0] > 1e-6:
        raise ConvergenceFailure("no root ordering reproduced the invariants")
    return best[1]


def _principal(z, L):
    z0, _, _ = reduce_to_fundamental(z, L)
    return z0


def elliptic_log(P, L, inv=None):
    """Principal elliptic logarithm: z in the fundamental domain with
    wp(z) = x, wp'(z) = y."""
    if inv is None:
        inv = eisenstein_invariants(L)
    if P.is_identity:
        return BranchedValue(0j)
    check_on_curve(P, inv)
    e1, e2, e3 = _cubic_roots(inv.g2, inv.g3)
    z = carlson_rf(P.x - e1, P.x - e2, P.x - e3)
    # RF determines z up to sign and lattice; pick the sign matching y, using
    # wp'(-z) = -wp'(z) bit for bit (symmetric rounding, sin odd, cos even)
    dp = weierstrass(z, L)[1]
    if abs(dp - P.y) > abs(-dp - P.y):
        z = -z
    # Newton refinement on wp(z) - x.  A step that increased the residual
    # is undone: near 2-torsion wp' is round-off sized, and one such step
    # throws an already accurate z off the root.
    z_prev, r_prev = z, cmath.inf
    for _ in range(8):
        p, d, _ = weierstrass(z, L)
        resid = p - P.x
        if abs(resid) > r_prev:
            z = z_prev
            break
        if d == 0:
            break
        step = resid / d
        z_prev, r_prev = z, abs(resid)
        z -= step
        if abs(step) < 1e-14 * abs(L.omega1):
            break
    # 2-torsion (y = 0): Newton stalls at the critical point of wp, so
    # snap to the exact half-period if it reproduces x
    if abs(P.y) < 1e-8 * (1.0 + abs(P.x) ** 1.5):
        resid, _, _ = reduce_centered(2.0 * z, L)
        cand = z - resid / 2
        if abs(resid) < 1e-4 * abs(L.omega1) and abs(wp(cand, L) - P.x) < 1e-9 * (
            1.0 + abs(P.x)
        ):
            z = cand
    z = _principal(z, L)
    scale = 1.0 + abs(P.x) + abs(P.y)
    p, dp, _ = weierstrass(z, L)
    if abs(p - P.x) > 1e-7 * scale or abs(dp - P.y) > 1e-6 * scale:
        raise ConvergenceFailure(
            f"logarithm failed to invert wp at {P.x}, {P.y}"
        )
    return BranchedValue(z)


def generalized_elliptic_log(P, L, inv=None):
    """(z, zeta(z)) at the principal logarithm; the identity O gets the
    distinguished (0, marker) pair used by the classifier."""
    if P.is_identity:
        return GeneralizedAbelianLog(0j, complex("inf"), is_identity=True)
    z = elliptic_log(P, L, inv).value
    return GeneralizedAbelianLog(z, zeta_w(z, L))
