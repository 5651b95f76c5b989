"""Rank-2 complex lattices: orientation, fundamental-domain reduction,
dual lattice, duality product and real coordinates.

A lattice is stored with its user-supplied basis, checked when it is
built, and, lazily, a modular-reduced basis of the same lattice on which
the series evaluations of :mod:`semiabel.elliptic` converge quickly.
"""

import cmath
import math
import sys

from ._value import Value
from .errors import BeyondWorkingPrecision, DegenerateLattice, NotALatticePoint

DEGENERACY_TOL = 1e-12

# distance to Lambda, relative to the shortest period, that counts as a
# lattice point
POLE_GUARD = 1e-10
# past this a coordinate's rounding error |a| * 2^-52 exceeds the pole guard
MAX_COORDINATE = POLE_GUARD * 2.0**52

# the lattices make_lattice keeps, keyed by the bits of their periods, so
# that many motives or points asked on a few bases share their constants
TABLE_SIZE = 4
_TABLE = {}


class Lattice(Value):
    """Lattice Z*omega1 + Z*omega2: DegenerateLattice unless its periods are
    finite and nonzero and Im(omega2/omega1) > DEGENERACY_TOL*|omega2/omega1|
    (never collinear or clockwise), BeyondWorkingPrecision unless ``_det`` =
    Im(conj(omega1)*omega2) is a normal double.  ``_det`` and ``_cache``, the
    constants (once per object, so once per basis from make_lattice), are
    not fields, so equality, hashing and repr ignore them."""

    _fields = ("omega1", "omega2")

    def __init__(self, omega1, omega2):
        for name, w in (("w1", omega1), ("w2", omega2)):
            if not cmath.isfinite(w):
                raise DegenerateLattice(f"period {name} = {w} is not finite")
        if omega1 == 0 or omega2 == 0:
            raise DegenerateLattice("zero period")
        ratio = omega2 / omega1  # scale-free, unlike det
        bound = DEGENERACY_TOL * abs(ratio)
        if not ratio.imag > bound:
            side = "~ 0" if ratio.imag >= -bound else "< 0"
            raise DegenerateLattice(f"Im(w2/w1) {side} for ratio {ratio}")
        det = omega1.real * omega2.imag - omega2.real * omega1.imag
        if not sys.float_info.min <= det < math.inf:
            raise BeyondWorkingPrecision(
                f"periods at |w1| = {abs(omega1):.3g} are beyond working precision"
            )
        super().__init__(omega1, omega2)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_cache", {})

    @property
    def tau(self):
        return self.omega2 / self.omega1

    def covolume_factor(self):
        """Im(omega1 * conj(omega2)) = -_det, negative."""
        return -self._det

    def reduced_basis(self):
        """Basis (w1, w2) of the same lattice with w2/w1 in the standard
        modular fundamental domain, plus the integer matrix (a, b, c, d)
        with w2 = a*omega2 + b*omega1, w1 = c*omega2 + d*omega1."""
        if "reduced" not in self._cache:
            self._cache["reduced"] = _reduce_basis(self.omega1, self.omega2)
        return self._cache["reduced"]


def _reduce_basis(w1, w2):
    tau = w2 / w1
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
    # each step is in SL2(Z), so the reduced basis keeps the orientation
    return c * w2 + d * w1, a * w2 + b * w1, (a, b, c, d)


def _oriented(w1, w2):
    """The periods as complex numbers, w2 negated when Im(w2/w1) < 0."""
    w1, w2 = complex(w1), complex(w2)
    return (w1, -w2) if w1 and (w2 / w1).imag < 0 else (w1, w2)


def make_lattice(w1, w2):
    """Counter-clockwise lattice from two independent periods (_oriented:
    never reordered), leaving the refusals to Lattice.  The last TABLE_SIZE
    lattices are kept, keyed by the exact bits of the normalized periods, so
    the same periods return the Lattice built for them, with its constants;
    object identity is not a contract."""
    w1, w2 = _oriented(w1, w2)
    key = (w1, w2)
    if not (w1.real and w1.imag and w2.real and w2.imag):
        # -0.0 == 0.0 as a key, so zero parts key with their signs
        key += tuple(math.copysign(1.0, x) for x in (w1.real, w1.imag, w2.real, w2.imag))
    L = _TABLE.get(key)
    if L is None:
        L = Lattice(w1, w2)
        if len(_TABLE) >= TABLE_SIZE:
            del _TABLE[next(iter(_TABLE))]
        _TABLE[key] = L
    return L


def real_coordinates(z, L):
    """(alpha1, alpha2) with z = alpha1*omega1 + alpha2*omega2, exact 2x2 solve."""
    z = complex(z)
    w1, w2, det = L.omega1, L.omega2, L._det
    a1 = (z.real * w2.imag - w2.real * z.imag) / det
    a2 = (w1.real * z.imag - z.real * w1.imag) / det
    return a1, a2


def from_real_coordinates(a1, a2, L):
    return a1 * L.omega1 + a2 * L.omega2


def _beyond_precision(z, a1, a2):
    return BeyondWorkingPrecision(
        f"argument {z} is beyond working precision (coordinates {a1:.3g}, {a2:.3g})"
    )


def reduce_to_fundamental(z, L):
    """(z0, m, n) with z = z0 + m*omega1 + n*omega2 and coords of z0 in [0,1)^2;
    refused past MAX_COORDINATE."""
    a1, a2 = real_coordinates(z, L)
    if not (abs(a1) <= MAX_COORDINATE and abs(a2) <= MAX_COORDINATE):
        raise _beyond_precision(z, a1, a2)
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
    a1, a2 = real_coordinates(z, L)
    if not (abs(a1) <= MAX_COORDINATE and abs(a2) <= MAX_COORDINATE):
        raise _beyond_precision(z, a1, a2)
    m = round(a1)
    n = round(a2)
    return (a1 - m) * L.omega1 + (a2 - n) * L.omega2, m, n


def near_lattice(z, L):
    """Whether z is within POLE_GUARD times the shortest period of Lambda,
    reduced on L's own basis: a test reference for elliptic._entry's verdict."""
    return abs(reduce_centered(z, L)[0]) < POLE_GUARD * abs(L.reduced_basis()[0])


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
