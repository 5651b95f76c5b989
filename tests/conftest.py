import cmath
import math

import pytest

from semiabel import lattice
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


@pytest.fixture(autouse=True)
def empty_lattice_table():
    """Each test starts with make_lattice's table empty, so one that counts
    theta series, memo reads or relation searches sees a cold lattice
    whatever ran before it."""
    lattice._TABLE.clear()
