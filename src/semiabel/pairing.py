"""Analytic Weil pairing on Lie E x Lie E*, Poincare-bundle automorphy
factors, the ratio identity for the interpolation function f-tilde, and
the integrality pairing on Lambda x Lambda*.
"""

import cmath
import math

from ._value import Value
from .elliptic import _entry, _reduced, _sigma, eta_linear
from .errors import (
    BeyondWorkingPrecision,
    InternalInconsistency,
    NotTorsion,
    PoleAtLatticePoint,
)
from .lattice import dual_to_primal, duality_product, lattice_coords, real_coordinates

TWO_PI_I = 2j * math.pi


class UnitCircleValue(Value):
    _fields = ("value",)

    def __init__(self, value):
        if not (abs(abs(value) - 1.0) <= 1e-9):
            raise ValueError(f"not on the unit circle: {value}")
        super().__init__(value)


def weil_pairing(z, zstar, L):
    """exp(2 pi i Im(conj(z) mu) / |Im(w1 conj(w2))|), mu = iota(z*).

    The dual-frame argument is pulled back to the primal frame through
    the self-duality map iota, and the covolume is taken positive (the
    orientation-normalized basis has Im(w1 conj(w2)) < 0, so this flips
    the sign of the coordinate closed form to exp(2 pi i (a1 b2 - a2 b1))).
    Refused past the coordinates where the phase's rounding, about
    2 pi 2^-50 (|a1| + |a2|)(|b1| + |b2|), reaches the cross-check's 1e-8.
    """
    if not (cmath.isfinite(complex(z)) and cmath.isfinite(complex(zstar))):
        raise ValueError(f"non-finite pairing argument: {z}, {zstar}")
    D = L.covolume_factor()
    mu = dual_to_primal(zstar, L)
    # iota carries Lambda* onto Lambda, so z*'s coordinates on the dual
    # basis are mu's on L's basis
    a1, a2 = real_coordinates(z, L)
    b1, b2 = real_coordinates(mu, L)
    if 2 * math.pi * 2.0**-50 * (abs(a1) + abs(a2)) * (abs(b1) + abs(b2)) >= 1e-8:
        raise BeyondWorkingPrecision(
            f"pairing of {z} and {zstar} is beyond working precision "
            f"(coordinates {a1:.3g}, {a2:.3g} and {b1:.3g}, {b2:.3g})"
        )
    val = cmath.exp(TWO_PI_I * duality_product(z, mu) / abs(D))
    alt = cmath.exp(TWO_PI_I * (a1 * b2 - a2 * b1))
    if abs(val - alt) > 1e-8 * abs(val):
        raise InternalInconsistency(
            f"coordinate form of the pairing disagrees: {val} vs {alt}"
        )
    return UnitCircleValue(val)


def torsion_weil_pairing(p, qstar, N, L):
    """weil_pairing(p, q*)^N for N-torsion arguments; an N-th root of unity.
    N q* is tested on Lambda* through iota, as weil_pairing reads it."""
    N = int(N)
    if N < 1:
        raise NotTorsion("N must be a positive integer")
    a = real_coordinates(N * complex(p), L)
    b = real_coordinates(N * dual_to_primal(qstar, L), L)
    for c in (*a, *b):
        if abs(c - round(c)) > 1e-8:
            raise NotTorsion(f"argument is not {N}-torsion (coordinate {c})")
    return UnitCircleValue(weil_pairing(p, qstar, L).value ** N)


def poincare_automorphy(lmbda, lmbdastar, z, zstar, L):
    """a((lambda, lambda*), (z, z*)) =
    exp(pi (conj(lambda) mu* + z conj(mu*) + conj(lambda) zeta*) / |Im(w1 conj(w2))|),
    with the dual-frame arguments pulled back by iota so that the
    integrality Im(conj(lambda) mu*)/|D| in Z holds on lattice pairs."""
    lattice_coords(lmbda, L)
    mustar = dual_to_primal(lmbdastar, L)
    lattice_coords(mustar, L)
    D = abs(L.covolume_factor())
    lmbda = complex(lmbda)
    zetastar = dual_to_primal(zstar, L)
    expo = (
        lmbda.conjugate() * mustar
        + complex(z) * mustar.conjugate()
        + lmbda.conjugate() * zetastar
    )
    return cmath.exp(math.pi * expo / D)


def poincare_automorphy_a0(lmbda, lmbdastar, z, zstar, L):
    """Unitarized factor a/conj(a) = exp(2 pi i Im(z conj(mu*) + conj(lambda) zeta*)/|D|)."""
    a = poincare_automorphy(lmbda, lmbdastar, z, zstar, L)
    val = a / a.conjugate()
    D = abs(L.covolume_factor())
    mustar = dual_to_primal(lmbdastar, L)
    zetastar = dual_to_primal(zstar, L)
    expo = (
        complex(z) * mustar.conjugate() + complex(lmbda).conjugate() * zetastar
    ).imag
    closed = cmath.exp(TWO_PI_I * expo / D)
    if abs(val - closed) > 1e-8 * max(1.0, abs(val)):
        raise InternalInconsistency("unitarized factor disagrees with closed form")
    return val


def _entries(z, w, L):
    """(constants, memo entries of z, w, z + w); PoleAtLatticePoint when
    one (checked in that order) is on Lambda, before any series."""
    constants = _reduced(L)
    entries = []
    for u in (z, w, z + w):
        entry = _entry(u, constants)
        if entry[4]:
            raise PoleAtLatticePoint(f"argument {u} on Lambda")
        entries.append(entry)
    return constants, entries


def f_tilde(z, w, L):
    """sigma(z + w) / (sigma(z) sigma(w)) * exp(-eta(w) z), with the
    R-linear quasi-period form eta; both arguments in the primal frame.
    OverflowError where the quotient leaves the double range."""
    z = complex(z)
    w = complex(w)
    constants, entries = _entries(z, w, L)
    s_z, s_w, s_sum = [_sigma(entry, constants) for entry in entries]
    f = s_sum / (s_z * s_w) * cmath.exp(-eta_linear(w, L) * z)
    if not cmath.isfinite(f):  # a sigma product overflows without raising
        raise OverflowError(f"f~ at {z}, {w} leaves the double range")
    return f


def ratio_f_tilde(z, zstar, L):
    """f~_{z*}(z) / f~_z(z*) = exp(eta(z) mu - eta(mu) z), mu = iota(z*):
    the two factors share sigma(z + mu), sigma(z), sigma(mu), which cancel,
    so the entries of z, mu, z + mu are read for their pole verdicts only
    and no series is summed (finite where sigma's factor would overflow)."""
    z = complex(z)
    mu = dual_to_primal(zstar, L)
    _entries(z, mu, L)
    return cmath.exp(eta_linear(z, L) * mu - eta_linear(mu, L) * z)


def hodge_weil(lmbda, lmbdastar, L):
    """eta(lambda) mu - eta(mu) lambda with mu = iota(lambda*), on
    Lambda x Lambda*; the value lies in 2 pi i Z (Legendre relation)."""
    lattice_coords(lmbda, L)
    mu = dual_to_primal(lmbdastar, L)
    lattice_coords(mu, L)
    lmbda = complex(lmbda)
    val = eta_linear(lmbda, L) * mu - eta_linear(mu, L) * lmbda
    k = val / TWO_PI_I
    if abs(k - round(k.real)) > 1e-8 * max(1.0, abs(k)):
        raise InternalInconsistency(f"pairing value {val} not in 2 pi i Z")
    return val
