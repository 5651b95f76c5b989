"""Weierstrass sigma/zeta/wp, Eisenstein invariants, quasi-periods, the
R-linear quasi-period form, and the normalized theta function.

Everything is evaluated through the odd Jacobi theta series on a
modular-reduced basis of the lattice; values at arbitrary arguments are
recovered from the quasi-periodicity laws, so sigma and zeta return the
principal-branch value at the original argument.  Each Lattice keeps its
last MEMO_SIZE evaluations (an argument's reduction and pole verdict and,
once read, its theta series, (wp, wp', zeta) and sigma), keyed by the
argument's exact bits; public calls at one argument share one series, and
internal callers read each argument's entry once, without changing a value.
"""

import cmath
import math
import sys

from ._kernels import eisenstein_e4_e6, theta1_bundle, theta1_weights
from ._value import Value
from .errors import BeyondWorkingPrecision, PoleAtLatticePoint
from .lattice import (
    POLE_GUARD,
    Lattice,
    _oriented,
    lattice_coords,
    real_coordinates,
    reduce_centered,
)

TWO_PI_I = 2j * math.pi


class CurveInvariants(Value):
    _fields = ("g2", "g3")

    def discriminant(self):
        return self.g2**3 - 27 * self.g3**2


class QuasiPeriods(Value):
    _fields = ("eta1", "eta2")


def _reduced(L):
    """(Lr, tau, weights, eta1, eta2, theta1'(0), memo) for a reduced basis
    (w1, w2) of L, computed once per lattice (Lattice._cache), so once per
    basis from make_lattice: Lr = Lattice(w1, w2), tau = w2/w1, weights =
    theta1_weights(tau), the quasi-periods of the reduced basis, and the
    memo of evaluations (_entry).  Every evaluation reads these with one
    cache read; its reduction on Lr divides by the determinant Lr keeps
    (lattice.reduce_centered)."""
    constants = L._cache.get("elliptic")
    if constants is None:
        w1, w2, _ = L.reduced_basis()
        tau = w2 / w1
        weights = theta1_weights(tau)
        _, d1, _, d3 = theta1_bundle(0j, weights)
        eta1r = -d3 / (3.0 * d1 * w1)
        eta2r = (eta1r * w2 - TWO_PI_I) / w1
        constants = (Lattice(w1, w2), tau, weights, eta1r, eta2r, d1, {})
        L._cache["elliptic"] = constants
    return constants


def eisenstein_invariants(L):
    """g2 = 60*G4, g3 = 140*G6 of the lattice, via weight-4/6 q-series, once
    per lattice (Lattice._cache); BeyondWorkingPrecision unless about
    1e-50 <= |w1| <= 1e51."""
    if "invariants" not in L._cache:
        Lr, tau, _, _, _, _, _ = _reduced(L)
        w1 = Lr.omega1
        e4, e6 = eisenstein_e4_e6(tau)
        try:
            g2 = (4.0 * math.pi**4 / 3.0) * e4 / w1**4
            g3 = (8.0 * math.pi**6 / 27.0) * e6 / w1**6
        except ArithmeticError:  # w1**k overflows, or underflows to 0
            g2 = g3 = math.inf
        if not (cmath.isfinite(g2) and cmath.isfinite(g3)):
            raise BeyondWorkingPrecision(
                f"g2, g3 at |omega1| = {abs(w1):.3g} are beyond working precision"
            )
        L._cache["invariants"] = CurveInvariants(g2, g3)
    return L._cache["invariants"]


def _psi(m, n):
    return 1.0 if (m % 2 == 0 and n % 2 == 0) else -1.0


# evaluations (reduction, series, (wp, wp', zeta), sigma) kept per lattice:
# the four values, exp_G, log_G and ratio_f_tilde at one point: seven arguments, five series
MEMO_SIZE = 16


def _entry(z, constants):
    """The memo's [z0, m, n, bundle, on_lattice, sigma, values] for z on
    the lattice of constants = _reduced(L): z = z0 + m*w1 + n*w2 on the
    reduced basis with z0 centred, on_lattice whether z0 is within the pole
    guard (the shortest period w1 times POLE_GUARD), then theta1_bundle(z0/w1),
    sigma(z) and values = (wp, wp', zeta)(z) once computed without raising,
    else None.  Keyed by the bits of complex(z), so it never changes a
    value; the oldest of MEMO_SIZE entries makes way for a new one, and a
    reduction that raises stores nothing."""
    memo = constants[6]
    zc = complex(z)
    # -0.0 == 0.0 as a key, so a zero part keys with its sign
    key = zc if zc.real and zc.imag else (
        zc, math.copysign(1.0, zc.real), math.copysign(1.0, zc.imag)
    )
    entry = memo.get(key)
    if entry is None:
        z0, m, n = reduce_centered(z, constants[0])
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        on_lattice = abs(z0) < POLE_GUARD * abs(constants[0].omega1)
        entry = memo[key] = [z0, m, n, None, on_lattice, None, None]
    return entry


def _series(entry, constants):
    """The theta bundle of entry = _entry(z, constants), summed once."""
    bundle = entry[3]
    if bundle is None:
        bundle = entry[3] = theta1_bundle(entry[0] / constants[0].omega1, constants[2])
    return bundle


def _sigma(entry, constants):
    """sigma_w from entry = _entry(z, constants), kept in the entry."""
    z0, m, n, _, _, s, _ = entry
    if s is not None:
        return s
    Lr, _, _, eta1r, eta2r, d1_0, _ = constants
    t0 = _series(entry, constants)[0]
    w1 = Lr.omega1
    s = w1 * cmath.exp(eta1r * z0 * z0 / (2 * w1)) * t0 / d1_0
    if m or n:
        lam = m * w1 + n * Lr.omega2
        eta_lam = m * eta1r + n * eta2r
        s = _psi(m, n) * cmath.exp(eta_lam * (z0 + lam / 2)) * s
        if not cmath.isfinite(s):  # the product overflows without raising
            raise OverflowError(f"sigma at {z0 + lam} leaves the double range")
    entry[5] = s
    return s


def sigma_w(z, L):
    """Weierstrass sigma; entire, principal value at the original z, from
    one reduction and one theta series, kept in z's memo entry.  Its
    quasi-periodicity factor is not in weierstrass(): it overflows at far
    translates where wp is finite, and so may its product with the series;
    either raises OverflowError (never inf or NaN) and the entry keeps no sigma."""
    constants = _reduced(L)
    return _sigma(_entry(z, constants), constants)


def _weierstrass(entry, constants):
    """weierstrass from entry = _entry(z, constants), kept in the entry."""
    z0, m, n, _, on_lattice, _, values = entry
    if values is not None:
        return values
    if on_lattice:
        raise PoleAtLatticePoint(f"argument within pole guard of Lambda: {z0}")
    Lr, _, _, eta1r, eta2r, _, _ = constants
    t0, d1, d2, d3 = _series(entry, constants)
    w1 = Lr.omega1
    t02 = t0 * t0
    if abs(t02) < sys.float_info.min:  # subnormal or 0: wp loses its digits
        z = z0 + m * w1 + n * Lr.omega2
        raise BeyondWorkingPrecision(f"wp at {z:.6g} is beyond working precision")
    g = d1 / t0
    gpp = d3 / t0 - 3 * d2 * d1 / t02 + 2 * g**3
    p = -eta1r / w1 - (d2 * t0 - d1 * d1) / (t02 * w1 * w1)
    zeta = eta1r * z0 / w1 + d1 / (w1 * t0) + m * eta1r + n * eta2r
    values = entry[6] = (p, -gpp / w1**3, zeta)
    return values


def weierstrass(z, L):
    """(wp(z), wp'(z), zeta(z)) from one reduction and one theta series,
    kept in z's memo entry; zeta is the principal value at the original z.
    Raises PoleAtLatticePoint within the pole guard of Lambda, before the
    series, and BeyondWorkingPrecision where its theta1^2 is subnormal."""
    constants = _reduced(L)
    return _weierstrass(_entry(z, constants), constants)


def zeta_w(z, L):
    """Weierstrass zeta; principal value, pole guard at lattice points."""
    return weierstrass(z, L)[2]


def wp(z, L):
    """Weierstrass wp function (lattice-periodic)."""
    return weierstrass(z, L)[0]


def wp_prime(z, L):
    """Derivative of wp (lattice-periodic)."""
    return weierstrass(z, L)[1]


def quasi_periods(L):
    """(eta1, eta2) = 2*zeta(omega_i/2) for the lattice's own basis;
    computed once per lattice (Lattice._cache)."""
    if "quasi_periods" not in L._cache:
        _, _, _, eta1r, eta2r, _, _ = _reduced(L)
        # exactly, on the reduced basis: omega1 = a*w1 - c*w2, omega2 = d*w2 - b*w1
        a, b, c, d = L.reduced_basis()[2]
        L._cache["quasi_periods"] = QuasiPeriods(
            a * eta1r + -c * eta2r, -b * eta1r + d * eta2r
        )
    return L._cache["quasi_periods"]


def eta_linear(z, L):
    """R-linear quasi-period form alpha1*eta1 + alpha2*eta2 of z."""
    a1, a2 = real_coordinates(z, L)
    qp = quasi_periods(L)
    return a1 * qp.eta1 + a2 * qp.eta2


def rotate_real_frame(L):
    """(rotated lattice, phase, w1, w2, D) with w1 = |omega1| real positive,
    w2 chosen with Im(w2) < 0, so that D = Im(w1 * conj(w2)) > 0.

    Lambda_rot = phase * Lambda; (w1, w2) is a clockwise-ordered basis of
    the rotated lattice, the ordering under which the quasi-period form
    eta(lambda) equals pi*(conj(lambda) + A*lambda)/D.
    """
    if "rotated" not in L._cache:
        phase = abs(L.omega1) / L.omega1
        w1 = abs(L.omega1)
        w2 = -(L.omega2 * phase)  # Im(omega2/omega1) > 0, so Im(w2) < 0
        Lr = Lattice(*_oriented(L.omega1 * phase, L.omega2 * phase))
        L._cache["rotated"] = (Lr, phase, w1, w2, w1 * (-w2.imag))
    return L._cache["rotated"]


def theta_normalization(L):
    """The constant piA = eta1*Im(conj(w2)) - pi in the clockwise rotated frame."""
    Lr, _, w1, w2, _ = rotate_real_frame(L)
    qp = quasi_periods(Lr)
    return qp.eta1 * (-w2.imag) - math.pi


def theta_normalized(z, L):
    """sigma(z) * exp(-piA z^2 / (2D)), D = Im(w1 conj(w2)) > 0, rotated frame.

    The argument z is given in the rotated frame (the frame in which
    omega1 is real positive); the normalizing constant of the underlying
    theta function is fixed to 1.
    """
    Lr, _, _, _, D = rotate_real_frame(L)
    zr = complex(z)
    piA = theta_normalization(L)
    return sigma_w(zr, Lr) * cmath.exp(-piA * zr * zr / (2 * D))


def theta_automorphy_factor(lmbda, z, L):
    """psi(lambda) * exp(pi conj(lambda)(z + lambda/2) / D) with
    D = Im(w1 conj(w2)) > 0; lambda and z are given in the rotated frame."""
    Lr, _, _, _, D = rotate_real_frame(L)
    m, n = lattice_coords(lmbda, Lr)
    return _psi(m, n) * cmath.exp(
        math.pi * complex(lmbda).conjugate() * (complex(z) + lmbda / 2) / D
    )


def sigma_automorphy_factor(lmbda, z, L):
    """psi(lambda)*exp(eta(lambda)(z + lambda/2)) for lambda in Lambda."""
    lmbda = complex(lmbda)
    m, n = lattice_coords(lmbda, L)
    qp = quasi_periods(L)
    eta_lam = m * qp.eta1 + n * qp.eta2
    return _psi(m, n) * cmath.exp(eta_lam * (complex(z) + lmbda / 2))
