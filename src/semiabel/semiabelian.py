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


@dataclass(frozen=True)
class PeriodMatrixG:
    omega_A: np.ndarray  # rows (omega_j, eta_j)
    third_kind_column: tuple  # (eta_j q - omega_j zeta(q)) per j

    def as_matrix(self):
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = self.omega_A
        m[0, 2] = self.third_kind_column[0]
        m[1, 2] = self.third_kind_column[1]
        m[2, 2] = TWO_PI_I
        return m


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
    e = quasi_periods(L)
    return np.array(
        [[L.omega1, e.eta1], [L.omega2, e.eta2]], dtype=complex
    )


def period_matrix_G(q, L):
    return PeriodMatrixG(period_matrix_A(L), quasi_quasi_periods(q, L))


def period_matrix_M(points, qs, L):
    """(n+2+s)-square block matrix: Id_n, generalized-log rows, and the
    extension period matrix in the lower-right corner."""
    n = len(points)
    s = len(qs)
    dim = n + 2 + s
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        m[i, i] = 1.0
    omega_A = period_matrix_A(L)
    m[n : n + 2, n : n + 2] = omega_A
    for k, q in enumerate(qs):
        g1, g2 = quasi_quasi_periods(q, L)
        m[n, n + 2 + k] = g1
        m[n + 1, n + 2 + k] = g2
        m[n + 2 + k, n + 2 + k] = TWO_PI_I
    for i, R in enumerate(points):
        glog = None
        for k, q in enumerate(qs):
            glog, tb = generalized_log_G(R, q, L)
            m[i, n + 2 + k] = tb.value
        if glog is None:  # s = 0: plain generalized abelian logarithm
            glog = generalized_elliptic_log(R.base, L)
        m[i, n] = glog.z
        m[i, n + 1] = 0j if glog.is_identity else glog.w
    return m
