import cmath
import math
from fractions import Fraction

import pytest

from semiabel import lattice
from semiabel.elliptic import CurveInvariants
from semiabel.lattice import make_lattice

VARPI = 2.62205755429211981  # real half-lattice scale of y^2 = 4x^3 - 4x


@pytest.fixture
def square_lattice():
    return make_lattice(VARPI, VARPI * 1j)


@pytest.fixture
def hexagonal_lattice():
    return make_lattice(1.0, cmath.exp(1j * math.pi / 3))


@pytest.fixture
def noncm_lattice():
    # period ratio with irrational real and imaginary parts: no small
    # integer relation among (1, tau, tau^2)
    return make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))


@pytest.fixture
def generic_lattice():
    return make_lattice(1.3 + 0.2j, 0.4 + 1.7j)


# SL2(Z) matrices (a, b, c, d): the basis (a*omega1 + b*omega2, c*omega1 + d*omega2)
REBASINGS = ((1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 0, 3, 1), (5, 2, 2, 1),
             (3, -7, -2, 5))


def lattices_for_sweep():
    return [
        make_lattice(VARPI, VARPI * 1j),
        make_lattice(1.0, cmath.exp(1j * math.pi / 3)),
        make_lattice(1.3 + 0.2j, 0.4 + 1.7j),
        make_lattice(2.0, 0.5 + 2.5j),
        make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e)),
    ]


# the 13 rational j-invariants with complex multiplication, one for each
# imaginary quadratic order of class number one
CM_J = {
    -3: 0, -4: 1728, -7: -3375, -8: 8000, -11: -32768, -12: 54000, -16: 287496,
    -19: -884736, -27: -12288000, -28: 16581375, -43: -884736000,
    -67: -147197952000, -163: -262537412640768000,
}
CM_TWISTS = (Fraction(1), Fraction(2), Fraction(-3, 2), Fraction(5, 7), Fraction(7, 3))


def cm_twist(j, u):
    """CurveInvariants of the twist by u of the curve over Q with invariant
    j: g2 = g3 = 27j/(j - 1728) scaled by u^4 and u^6 (g2 = 0 at j = 0, g3 =
    0 at j = 1728), rounded to doubles."""
    if j == 0:
        g2, g3 = Fraction(0), u**6
    elif j == 1728:
        g2, g3 = u**4, Fraction(0)
    else:
        c = Fraction(27 * j, j - 1728)
        g2, g3 = c * u**4, c * u**6
    return CurveInvariants(float(g2), float(g3))


@pytest.fixture(autouse=True)
def empty_lattice_table():
    """Each test starts with make_lattice's table empty, so one that counts
    theta series, memo reads or relation searches sees a cold lattice
    whatever ran before it."""
    lattice._TABLE.clear()
