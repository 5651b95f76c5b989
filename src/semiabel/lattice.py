"""Rank-2 complex lattices: orientation, fundamental-domain reduction,
dual lattice, duality product and real coordinates.

A lattice is stored with its user-supplied (orientation-normalized) basis
and, lazily, a modular-reduced basis of the same lattice on which the
series evaluations of :mod:`semiabel.elliptic` converge quickly.
"""

import math
from dataclasses import dataclass, field

from .errors import BeyondWorkingPrecision, DegenerateLattice, NotALatticePoint

DEGENERACY_TOL = 1e-12

# distance to Lambda, relative to |omega1|, that counts as a lattice point
POLE_GUARD = 1e-10
# past this a coordinate's rounding error |a| * 2^-52 exceeds the pole guard
MAX_COORDINATE = POLE_GUARD * 2.0**52


def _tau_of(w1, w2):
    if w1 == 0:
        raise DegenerateLattice("omega1 is zero")
    return w2 / w1


@dataclass(frozen=True)
class Lattice:
    """Oriented lattice Z*omega1 + Z*omega2 with Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def tau(self):
        return self.omega2 / self.omega1

    def covolume_factor(self):
        """Im(omega1 * conj(omega2)); negative for an oriented basis."""
        return (self.omega1 * self.omega2.conjugate()).imag

    def reduced_basis(self):
        """Basis (w1, w2) of the same lattice with w2/w1 in the standard
        modular fundamental domain, plus the integer matrix (a, b, c, d)
        with w2 = a*omega2 + b*omega1, w1 = c*omega2 + d*omega1."""
        if "reduced" not in self._cache:
            self._cache["reduced"] = _reduce_basis(self.omega1, self.omega2)
        return self._cache["reduced"]


def _reduce_basis(w1, w2):
    tau = _tau_of(w1, w2)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        n = round(tau.real)
        if n != 0:
            tau -= n
            a, b = a - n * c, b - n * d
        if abs(tau) < 1 - 1e-14:
            tau = -1 / tau
            a, b, c, d = -c, -d, a, b
        else:
            break
    nw1 = c * w2 + d * w1
    nw2 = a * w2 + b * w1
    if (nw2 / nw1).imag < 0:  # keep orientation
        nw2 = -nw2
        a, b = -a, -b
    return nw1, nw2, (a, b, c, d)


def make_lattice(w1, w2):
    """Orientation-normalized lattice from two independent periods.

    Reorders/negates the basis so that Im(omega2/omega1) > 0; raises
    DegenerateLattice when the periods are (numerically) collinear.
    """
    w1 = complex(w1)
    w2 = complex(w2)
    if w1 == 0 or w2 == 0:
        raise DegenerateLattice("zero period")
    ratio = _tau_of(w1, w2)
    if abs(ratio.imag) <= DEGENERACY_TOL * abs(ratio):
        raise DegenerateLattice(f"Im(w2/w1) ~ 0 for ratio {ratio}")
    if ratio.imag < 0:
        w2 = -w2
    return Lattice(w1, w2)


def real_coordinates(z, L):
    """(alpha1, alpha2) with z = alpha1*omega1 + alpha2*omega2, exact 2x2 solve."""
    z = complex(z)
    w1, w2 = L.omega1, L.omega2
    det = w1.real * w2.imag - w2.real * w1.imag
    if abs(det) <= DEGENERACY_TOL * (abs(w1) * abs(w2)):
        raise DegenerateLattice("basis numerically collinear")
    a1 = (z.real * w2.imag - w2.real * z.imag) / det
    a2 = (w1.real * z.imag - z.real * w1.imag) / det
    return a1, a2


def from_real_coordinates(a1, a2, L):
    return a1 * L.omega1 + a2 * L.omega2


def _cell_coordinates(z, L):
    """real_coordinates(z, L), refused past MAX_COORDINATE."""
    a1, a2 = real_coordinates(z, L)
    if not (abs(a1) <= MAX_COORDINATE and abs(a2) <= MAX_COORDINATE):
        raise BeyondWorkingPrecision(
            f"argument {z} is beyond working precision (coordinates {a1:.3g}, {a2:.3g})"
        )
    return a1, a2


def reduce_to_fundamental(z, L):
    """(z0, m, n) with z = z0 + m*omega1 + n*omega2 and coords of z0 in [0,1)^2."""
    a1, a2 = _cell_coordinates(z, L)
    m = math.floor(a1)
    n = math.floor(a2)
    # guard against coordinates an ulp below an integer
    if a1 - m > 1 - 1e-13:
        m += 1
    if a2 - n > 1 - 1e-13:
        n += 1
    z0 = (a1 - m) * L.omega1 + (a2 - n) * L.omega2
    return z0, m, n


def reduce_centered(z, L):
    """Like reduce_to_fundamental but with coordinates in [-1/2, 1/2)."""
    a1, a2 = _cell_coordinates(z, L)
    m = round(a1)
    n = round(a2)
    z0 = (a1 - m) * L.omega1 + (a2 - n) * L.omega2
    return z0, m, n


def in_pole_guard(z0, L):
    """Whether z0 = z - lambda, for the lattice point lambda nearest in
    coordinates, lies within the pole guard of Lambda."""
    return abs(z0) < POLE_GUARD * abs(L.omega1)


def near_lattice(z, L):
    """Whether z lies within the pole guard of Lambda."""
    return in_pole_guard(reduce_centered(z, L)[0], L)


def duality_product(z, zstar):
    """<z, z*> = Im(conj(z) * z*)."""
    return (complex(z).conjugate() * complex(zstar)).imag


def dual_lattice(L):
    """Lambda* = {l*; Im(conj(Lambda) l*) in Z} as a Lattice whose basis
    (omega1*, omega2*) follows the symplectic convention:

    Im(conj(w1) w1*) = 0,  Im(conj(w2) w1*) = 1,
    Im(conj(w1) w2*) = -1, Im(conj(w2) w2*) = 0.
    """
    D = L.covolume_factor()  # Im(w1 conj(w2)) = -Im(conj(w1) w2)
    if abs(D) <= DEGENERACY_TOL * abs(L.omega1) * abs(L.omega2):
        raise DegenerateLattice("vanishing covolume")
    # conj(w1)*w1 real and Im(conj(w2) * r*w1) = r*Im(conj(w2)w1) = r*D
    return Lattice(L.omega1 / D, L.omega2 / D)


def dual_to_primal(zstar, L):
    """Self-duality pullback: multiply by the covolume factor.

    Maps the dual basis exactly onto the primal basis.
    """
    return complex(zstar) * L.covolume_factor()


def is_lattice_point(z, L, tol=1e-8):
    a1, a2 = real_coordinates(z, L)
    return abs(a1 - round(a1)) < tol and abs(a2 - round(a2)) < tol


def lattice_coords(z, L):
    """Integer coordinates of a lattice point; raises if z is not on Lambda."""
    a1, a2 = real_coordinates(z, L)
    m, n = round(a1), round(a2)
    if abs(a1 - m) >= 1e-8 or abs(a2 - n) >= 1e-8:
        raise NotALatticePoint(f"{z} has coordinates ({a1}, {a2})")
    return m, n
