"""Weierstrass sigma/zeta/wp, Eisenstein invariants, quasi-periods, the
R-linear quasi-period form, and the normalized theta function.

Everything is evaluated through the odd Jacobi theta series on a
modular-reduced basis of the lattice; values at arbitrary arguments are
recovered from the quasi-periodicity laws, so sigma and zeta return the
principal-branch value at the original argument.
"""

import cmath
import math
from dataclasses import dataclass

from ._kernels import eisenstein_e4_e6, theta1_bundle
from .errors import PoleAtLatticePoint
from .lattice import (
    Lattice,
    lattice_coords,
    in_pole_guard,
    make_lattice,
    real_coordinates,
    reduce_centered,
)

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class CurveInvariants:
    g2: complex
    g3: complex

    def discriminant(self):
        return self.g2**3 - 27 * self.g3**2


@dataclass(frozen=True)
class QuasiPeriods:
    eta1: complex
    eta2: complex


def _reduced(L):
    """(w1, w2, tau, eta1, eta2, theta1'(0)) for a reduced basis of L."""
    if "elliptic" not in L._cache:
        w1, w2, _ = L.reduced_basis()
        tau = w2 / w1
        _, d1, _, d3 = theta1_bundle(0j, tau)
        eta1r = -d3 / (3.0 * d1 * w1)
        eta2r = (eta1r * w2 - TWO_PI_I) / w1
        L._cache["elliptic"] = (w1, w2, tau, eta1r, eta2r, d1)
    return L._cache["elliptic"]


def eisenstein_invariants(L):
    """g2 = 60*G4, g3 = 140*G6 of the lattice, via weight-4/6 q-series."""
    w1, _, tau, _, _, _ = _reduced(L)
    e4, e6 = eisenstein_e4_e6(tau)
    pi = math.pi
    g2 = (4.0 * pi**4 / 3.0) * e4 / w1**4
    g3 = (8.0 * pi**6 / 27.0) * e6 / w1**6
    return CurveInvariants(g2, g3)


def _psi(m, n):
    return 1.0 if (m % 2 == 0 and n % 2 == 0) else -1.0


def sigma_w(z, L):
    """Weierstrass sigma; entire, principal value at the original z.  Not
    in weierstrass(): it overflows at far translates where wp is finite."""
    w1, w2, tau, eta1r, eta2r, d1_0 = _reduced(L)
    z0, m, n = reduce_centered(z, Lattice(w1, w2))
    t0, _, _, _ = theta1_bundle(z0 / w1, tau)
    s0 = w1 * cmath.exp(eta1r * z0 * z0 / (2 * w1)) * t0 / d1_0
    if m == 0 and n == 0:
        return s0
    lam = m * w1 + n * w2
    eta_lam = m * eta1r + n * eta2r
    return _psi(m, n) * cmath.exp(eta_lam * (z0 + lam / 2)) * s0


def weierstrass(z, L):
    """(wp(z), wp'(z), zeta(z)) from one reduction and one theta series;
    zeta is the principal value at the original z.  Raises
    PoleAtLatticePoint within the pole guard of Lambda."""
    w1, w2, tau, eta1r, eta2r, _ = _reduced(L)
    z0, m, n = reduce_centered(z, Lattice(w1, w2))
    if in_pole_guard(z0, L):
        raise PoleAtLatticePoint(f"argument within pole guard of Lambda: {z0}")
    t0, d1, d2, d3 = theta1_bundle(z0 / w1, tau)
    g = d1 / t0
    gpp = d3 / t0 - 3 * d2 * d1 / (t0 * t0) + 2 * g**3
    p = -eta1r / w1 - (d2 * t0 - d1 * d1) / (t0 * t0 * w1 * w1)
    zeta = eta1r * z0 / w1 + d1 / (w1 * t0) + m * eta1r + n * eta2r
    return p, -gpp / w1**3, zeta


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
    """(eta1, eta2) = 2*zeta(omega_i/2) for the lattice's own basis."""
    w1, w2, tau, eta1r, eta2r, _ = _reduced(L)
    # user basis in reduced-basis integer coordinates
    Lr = Lattice(w1, w2)
    m1, n1 = lattice_coords(L.omega1, Lr)
    m2, n2 = lattice_coords(L.omega2, Lr)
    return QuasiPeriods(m1 * eta1r + n1 * eta2r, m2 * eta1r + n2 * eta2r)


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
        w2 = L.omega2 * phase
        if w2.imag > 0:
            w2 = -w2
        Lr = make_lattice(L.omega1 * phase, L.omega2 * phase)
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
