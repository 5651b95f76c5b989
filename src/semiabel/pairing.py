"""Analytic Weil pairing on Lie E x Lie E*, Poincare-bundle automorphy
factors, the ratio identity for the interpolation function f-tilde, and
the integrality pairing on Lambda x Lambda*.
"""

import cmath
import math
from dataclasses import dataclass

from .elliptic import eta_linear, sigma_w
from .errors import (
    InternalInconsistency,
    NotTorsion,
    PoleAtLatticePoint,
)
from .lattice import (
    dual_lattice,
    dual_to_primal,
    duality_product,
    lattice_coords,
    near_lattice,
    real_coordinates,
)

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class UnitCircleValue:
    value: complex

    def __post_init__(self):
        if abs(abs(self.value) - 1.0) > 1e-9:
            raise ValueError(f"not on the unit circle: {self.value}")


def weil_pairing(z, zstar, L):
    """exp(2 pi i Im(conj(z) mu) / |Im(w1 conj(w2))|), mu = iota(z*).

    The dual-frame argument is pulled back to the primal frame through
    the self-duality map iota, and the covolume is taken positive (the
    orientation-normalized basis has Im(w1 conj(w2)) < 0, so this flips
    the sign of the coordinate closed form to exp(2 pi i (a1 b2 - a2 b1))).
    """
    D = L.covolume_factor()
    mu = dual_to_primal(zstar, L)
    val = cmath.exp(TWO_PI_I * duality_product(z, mu) / abs(D))
    # cross-check through real coordinates
    a1, a2 = real_coordinates(z, L)
    ds = dual_lattice(L)
    b1, b2 = real_coordinates(zstar, ds)
    alt = cmath.exp(TWO_PI_I * (a1 * b2 - a2 * b1))
    if abs(val - alt) > 1e-8 * abs(val):
        raise InternalInconsistency(
            f"coordinate form of the pairing disagrees: {val} vs {alt}"
        )
    return UnitCircleValue(val)


def torsion_weil_pairing(p, qstar, N, L):
    """weil_pairing(p, q*)^N for N-torsion arguments; an N-th root of unity."""
    N = int(N)
    if N < 1:
        raise NotTorsion("N must be a positive integer")
    ds = dual_lattice(L)
    a = real_coordinates(N * complex(p), L)
    b = real_coordinates(N * complex(qstar), ds)
    for c in (*a, *b):
        if abs(c - round(c)) > 1e-8:
            raise NotTorsion(f"argument is not {N}-torsion (coordinate {c})")
    return UnitCircleValue(weil_pairing(p, qstar, L).value ** N)


def poincare_automorphy(lmbda, lmbdastar, z, zstar, L):
    """a((lambda, lambda*), (z, z*)) =
    exp(pi (conj(lambda) mu* + z conj(mu*) + conj(lambda) zeta*) / |Im(w1 conj(w2))|),
    with the dual-frame arguments pulled back by iota so that the
    integrality Im(conj(lambda) mu*)/|D| in Z holds on lattice pairs."""
    ds = dual_lattice(L)
    lattice_coords(lmbda, L)
    lattice_coords(lmbdastar, ds)
    D = abs(L.covolume_factor())
    lmbda = complex(lmbda)
    mustar = dual_to_primal(lmbdastar, L)
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


def f_tilde(z, w, L):
    """sigma(z + w) / (sigma(z) sigma(w)) * exp(-eta(w) z), with the
    R-linear quasi-period form eta; both arguments in the primal frame."""
    z = complex(z)
    w = complex(w)
    for u in (z, w, z + w):
        if near_lattice(u, L):
            raise PoleAtLatticePoint(f"argument {u} on Lambda")
    return (
        sigma_w(z + w, L)
        / (sigma_w(z, L) * sigma_w(w, L))
        * cmath.exp(-eta_linear(w, L) * z)
    )


def ratio_f_tilde(z, zstar, L):
    """f~_{z*}(z) / f~_z(z*) with the dual argument pulled back by iota.

    Evaluates the sigma-quotient ratio directly, asserts agreement with
    the closed form exp(eta(z) mu - eta(mu) z) (mu = iota(z*)), and
    returns the value, which equals the Weil pairing of (z, z*)."""
    z = complex(z)
    mu = dual_to_primal(zstar, L)
    direct = f_tilde(z, mu, L) / f_tilde(mu, z, L)
    closed = cmath.exp(eta_linear(z, L) * mu - eta_linear(mu, L) * z)
    if abs(direct - closed) > 1e-8 * max(1.0, abs(closed)):
        raise InternalInconsistency("f-tilde ratio disagrees with its closed form")
    return direct


def hodge_weil(lmbda, lmbdastar, L):
    """eta(lambda) mu - eta(mu) lambda with mu = iota(lambda*), on
    Lambda x Lambda*; the value lies in 2 pi i Z (Legendre relation)."""
    ds = dual_lattice(L)
    lattice_coords(lmbda, L)
    lattice_coords(lmbdastar, ds)
    lmbda = complex(lmbda)
    mu = dual_to_primal(lmbdastar, L)
    val = eta_linear(lmbda, L) * mu - eta_linear(mu, L) * lmbda
    k = val / TWO_PI_I
    if abs(k - round(k.real)) > 1e-8 * max(1.0, abs(k)):
        raise InternalInconsistency(f"pairing value {val} not in 2 pi i Z")
    return val
