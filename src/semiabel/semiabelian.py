"""Extensions of an elliptic curve by the multiplicative group: the
Serre factor-system function f_q, the exponential/logarithm of the
extension, quasi-quasi-periods (third-kind periods), and the assembled
period matrices.

The extension parameter lives on the dual curve; it is pulled back to
the primal frame through the self-duality map iota(z*) = z* * Im(w1
conj(w2)), which carries the dual basis onto the primal basis.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import quasi_periods, sigma_w, weierstrass, zeta_w
from .errors import FiberZero, PoleAtLatticePoint
from .lattice import dual_to_primal, near_lattice
from .periods import (
    BranchedValue,
    EllipticPoint,
    GeneralizedAbelianLog,
    elliptic_log,
    generalized_elliptic_log,
)

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class ExtensionParam:
    """A point Q of the dual curve, carried by its logarithm in Lie E*."""

    q_log_dual: complex

    def primal(self, L):
        """Pullback of the logarithm to Lie E via self-duality."""
        return dual_to_primal(self.q_log_dual, L)

    @staticmethod
    def from_primal(q, L):
        return ExtensionParam(complex(q) / L.covolume_factor())


@dataclass(frozen=True)
class SemiAbelianPoint:
    """Birational coordinates on E x C^*: base point and nonzero fiber."""

    base: EllipticPoint
    fiber: complex


def serre_fq(z, q, L):
    """sigma(z+q) * exp(-zeta(q) z) / (sigma(z) sigma(q)).

    Returns exactly 0 at the zero z = -q (mod Lambda) of the section.
    """
    z = complex(z)
    qp = q.primal(L) if isinstance(q, ExtensionParam) else complex(q)
    if near_lattice(qp, L):
        raise PoleAtLatticePoint("extension parameter log is a lattice point")
    if near_lattice(z, L):
        raise PoleAtLatticePoint("f_q has a pole on Lambda")
    if near_lattice(z + qp, L):
        return 0j
    return (
        sigma_w(z + qp, L)
        * cmath.exp(-zeta_w(qp, L) * z)
        / (sigma_w(z, L) * sigma_w(qp, L))
    )


def exp_G(z, t, q, L):
    """((wp(z), wp'(z)), e^t f_q(z)); z on Lambda maps to (O, e^t)."""
    z = complex(z)
    t = complex(t)
    if near_lattice(z, L):
        return SemiAbelianPoint(EllipticPoint.identity(), cmath.exp(t))
    f = serre_fq(z, q, L)
    if f == 0:
        raise FiberZero("base point is -Q: fiber coordinate vanishes")
    p, dp, _ = weierstrass(z, L)
    base = EllipticPoint(p, dp)
    return SemiAbelianPoint(base, cmath.exp(t) * f)


def log_G(R, q, L, inv=None):
    """Principal (z, t) with exp_G(z, t) = R, modulo the rank-3 kernel."""
    if R.fiber == 0:
        raise FiberZero("fiber coordinate must be nonzero")
    z = 0j if R.base.is_identity else elliptic_log(R.base, L, inv).value
    return BranchedValue(z), BranchedValue(_fiber_log(R, z, q, L))


def _fiber_log(R, z, q, L):
    """The fiber component t of log_G(R), given the principal logarithm
    z of the base point."""
    if R.fiber == 0:
        raise FiberZero("fiber coordinate must be nonzero")
    if R.base.is_identity:
        return cmath.log(R.fiber)
    return cmath.log(R.fiber) - cmath.log(serre_fq(z, q, L))


def generalized_log_G(R, q, L, inv=None):
    """(z, zeta(z), t): first-, second-, third-kind components."""
    zb, tb = log_G(R, q, L, inv)
    if R.base.is_identity:
        return GeneralizedAbelianLog(0j, complex("inf"), is_identity=True), tb
    return GeneralizedAbelianLog(zb.value, zeta_w(zb.value, L)), tb


def quasi_quasi_periods(q, L):
    """Third-kind periods (eta_j q - omega_j zeta(q)) for j = 1, 2."""
    qp = q.primal(L) if isinstance(q, ExtensionParam) else complex(q)
    if near_lattice(qp, L):
        raise PoleAtLatticePoint("extension parameter log is a lattice point")
    e = quasi_periods(L)
    zq = zeta_w(qp, L)
    return (
        e.eta1 * qp - L.omega1 * zq,
        e.eta2 * qp - L.omega2 * zq,
    )


def kernel_generators(q, L):
    """Rank-3 kernel of exp_G: (omega_j, -(eta_j q - omega_j zeta(q))) and (0, 2 pi i)."""
    g1, g2 = quasi_quasi_periods(q, L)
    return ((L.omega1, -g1), (L.omega2, -g2), (0j, TWO_PI_I))


def period_matrix_A(L):
    """The curve's period matrix, rows (omega_j, eta_j): the n = s = 0
    case of period_matrix_M."""
    return period_matrix_M((), (), L)


def period_matrix_G(q, L):
    """The extension's period matrix: period_matrix_A bordered by the
    third-kind column (g1, g2, 2 pi i); the n = 0, s = 1 case of
    period_matrix_M."""
    return period_matrix_M((), (q,), L)


def period_matrix_M(points, qs, L):
    """(n+2+s)-square period matrix of the 1-motive [Z^n -> G]: Id_n,
    one generalized-log row (z, zeta(z), t_1..t_s) per point, the curve
    block (omega_j, eta_j), and one third-kind column per parameter."""
    n = len(points)
    s = len(qs)
    dim = n + 2 + s
    m = np.zeros((dim, dim), dtype=complex)
    e = quasi_periods(L)
    m[n : n + 2, n : n + 2] = [[L.omega1, e.eta1], [L.omega2, e.eta2]]
    for k, q in enumerate(qs):
        m[n : n + 2, n + 2 + k] = quasi_quasi_periods(q, L)
        m[n + 2 + k, n + 2 + k] = TWO_PI_I
    for i, R in enumerate(points):
        glog = generalized_elliptic_log(R.base, L)
        m[i, i] = 1.0
        m[i, n] = glog.z
        m[i, n + 1] = 0j if glog.is_identity else glog.w
        for k, q in enumerate(qs):
            m[i, n + 2 + k] = _fiber_log(R, glog.z, q, L)
    return m
