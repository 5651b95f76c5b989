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

from ._value import Value
from .elliptic import _entry, _reduced, _sigma, _weierstrass, quasi_periods
from .errors import BeyondWorkingPrecision, FiberZero, PoleAtLatticePoint
from .lattice import dual_to_primal
from .periods import (
    BranchedValue,
    EllipticPoint,
    generalized_elliptic_log,
)

TWO_PI_I = 2j * math.pi


class ExtensionParam(Value):
    """A point Q of the dual curve, carried by its logarithm in Lie E*."""

    _fields = ("q_log_dual",)

    def primal(self, L):
        """Pullback of the logarithm to Lie E via self-duality."""
        return dual_to_primal(self.q_log_dual, L)

    @staticmethod
    def from_primal(q, L):
        return ExtensionParam(complex(q) / L.covolume_factor())


class SemiAbelianPoint(Value):
    """Birational coordinates on E x C^*: base point and nonzero fiber."""

    _fields = ("base", "fiber")


def _primal_log(q, L, constants):
    """The primal log qp of q (an ExtensionParam or the log) and its memo
    entry; raises PoleAtLatticePoint when qp is on Lambda."""
    qp = q.primal(L) if isinstance(q, ExtensionParam) else complex(q)
    entry = _entry(qp, constants)
    if entry[4]:
        raise PoleAtLatticePoint("extension parameter log is a lattice point")
    return qp, entry


def serre_fq(z, q, L):
    """sigma(z+q) * exp(-zeta(q) z) / (sigma(z) sigma(q)), from one memo
    entry, so one reduction and one theta series, at each of q, z and
    z + q; the pole checks (q, then z, on Lambda) and the zero check read
    the reductions before any series is summed.

    Returns exactly 0 at the zero z = -q (mod Lambda) of the section;
    OverflowError, never inf or NaN, where a sigma or the quotient overflows.
    """
    z = complex(z)
    constants = _reduced(L)
    qp, q_entry = _primal_log(q, L, constants)
    z_entry = _entry(z, constants)
    if z_entry[4]:
        raise PoleAtLatticePoint("f_q has a pole on Lambda")
    f = _fq(z, z_entry, qp, q_entry, constants)
    if not cmath.isfinite(f):  # a sigma quotient overflows without raising
        raise OverflowError(f"f_q at {z} leaves the double range")
    return f


def _fq(z, z_entry, qp, q_entry, constants):
    """serre_fq from the entries of z and qp, both off Lambda."""
    u_entry = _entry(z + qp, constants)
    if u_entry[4]:
        return 0j
    return (
        _sigma(u_entry, constants)
        * cmath.exp(-_weierstrass(q_entry, constants)[2] * z)
        / (_sigma(z_entry, constants) * _sigma(q_entry, constants))
    )


def exp_G(z, t, q, L):
    """((wp(z), wp'(z)), e^t f_q(z)); z on Lambda maps to (O, e^t).  A
    fiber past the double range is refused (_fiber), and so is q on
    Lambda, at every z.  Reads the memo entries of q, z and z + q once
    each."""
    z = complex(z)
    t = complex(t)
    constants = _reduced(L)
    qp, q_entry = _primal_log(q, L, constants)
    z_entry = _entry(z, constants)
    if z_entry[4]:
        return SemiAbelianPoint(EllipticPoint.identity(), _fiber(t))
    f = _fq(z, z_entry, qp, q_entry, constants)
    if f == 0:
        raise FiberZero("base point is -Q: fiber coordinate vanishes")
    p, dp, _ = _weierstrass(z_entry, constants)
    base = EllipticPoint(p, dp)
    return SemiAbelianPoint(base, _fiber(t, f))


def _fiber(t, f=None):
    """e^t, or e^t f for f = f_q(z); BeyondWorkingPrecision where it
    overflows, is not finite or underflows to 0, none of which is a point
    of G."""
    try:
        fiber = cmath.exp(t) if f is None else cmath.exp(t) * f
    except OverflowError:
        fiber = None
    if not fiber or not cmath.isfinite(fiber):
        raise BeyondWorkingPrecision(f"the fiber at t = {t} is beyond working precision")
    return fiber


def log_G(R, q, L, inv=None):
    """Principal (z, t) with exp_G(z, t) = R, modulo the rank-3 kernel."""
    glog, tb = generalized_log_G(R, q, L, inv)
    return BranchedValue(glog.z), tb


def _fiber_log(R, glog, q, L):
    """The fiber component t of log_G(R), given the principal generalized
    logarithm glog of the base point: serre_fq at glog.z, which reads
    the memo entry of the evaluation that checked glog."""
    if R.fiber == 0:
        raise FiberZero("fiber coordinate must be nonzero")
    if R.base.is_identity:
        return cmath.log(R.fiber)
    f = serre_fq(glog.z, q, L)
    if f == 0:
        raise FiberZero("base point is -Q: no fiber logarithm")
    return cmath.log(R.fiber) - cmath.log(f)


def generalized_log_G(R, q, L, inv=None):
    """(z, zeta(z), t): first-, second-, third-kind components, with
    zeta(z), and sigma(z) for t, from generalized_elliptic_log's own
    check."""
    if R.fiber == 0:
        raise FiberZero("fiber coordinate must be nonzero")
    glog = generalized_elliptic_log(R.base, L, inv)
    return glog, BranchedValue(_fiber_log(R, glog, q, L))


def quasi_quasi_periods(q, L):
    """Third-kind periods (eta_j q - omega_j zeta(q)) for j = 1, 2."""
    constants = _reduced(L)
    qp, q_entry = _primal_log(q, L, constants)
    e = quasi_periods(L)
    zq = _weierstrass(q_entry, constants)[2]
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
    block (omega_j, eta_j), and one third-kind column per parameter, as a
    numpy array.  numpy is the optional ``matrix`` extra: this function,
    and period_matrix_A and period_matrix_G through it, are all that
    need it."""
    import numpy as np

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
            m[i, n + 2 + k] = _fiber_log(R, glog, q, L)
    return m
