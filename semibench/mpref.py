"""Reference values of wp, wp', zeta and sigma from mpmath's Jacobi theta
function at 30 digits, computed apart from the program.

For a basis (w1, w2) with tau = w2/w1, nome q = e^{i pi tau} and
v = pi z / w1 (jtheta's argument convention):

    eta1    = -pi^2 theta1'''(0) / (3 w1 theta1'(0))
    sigma   = (w1/pi) exp(eta1 z^2 / (2 w1)) theta1(v) / theta1'(0)
    zeta    = eta1 z / w1 + (pi/w1) theta1'(v)/theta1(v)
    wp      = -zeta'
    wp'     = -zeta''

The basis is Gauss-reduced here first, so the nome stays small.
"""

import mpmath as mp

DPS = 30
TOLERANCE = 1e-9


def _reduce(w1, w2):
    """A basis of the same lattice with |w1| <= |w2| <= |w2 +- w1| and
    Im(w2/w1) > 0."""
    w1, w2 = complex(w1), complex(w2)
    while True:
        if abs(w2) < abs(w1):
            w1, w2 = w2, w1
        w2 -= round((w2 / w1).real) * w1
        if abs(w2) >= abs(w1):
            break
    if (w2 / w1).imag < 0:
        w2 = -w2
    return w1, w2


def weierstrass(z, w1, w2):
    """(wp, wp', zeta, sigma) at z for the lattice Z*w1 + Z*w2."""
    w1, w2 = _reduce(w1, w2)
    with mp.workdps(DPS):
        z, w1, w2 = mp.mpc(z), mp.mpc(w1), mp.mpc(w2)
        q = mp.exp(1j * mp.pi * (w2 / w1))
        v = mp.pi * z / w1
        c = mp.pi / w1
        eta1 = -(mp.pi**2) * mp.jtheta(1, 0, q, 3) / (3 * w1 * mp.jtheta(1, 0, q, 1))
        t0, t1, t2, t3 = (mp.jtheta(1, v, q, k) for k in range(4))
        g1, g2, g3 = t1 / t0, t2 / t0, t3 / t0
        zeta = eta1 * z / w1 + c * g1
        wp = -eta1 / w1 - c**2 * (g2 - g1**2)
        wpp = -(c**3) * (g3 - 3 * g2 * g1 + 2 * g1**3)
        sigma = (w1 / mp.pi) * mp.exp(eta1 * z**2 / (2 * w1)) * t0 / mp.jtheta(1, 0, q, 1)
        return tuple(complex(x) for x in (wp, wpp, zeta, sigma))


def relative_error(z, w1, w2, values):
    """Largest |value - reference| / max(1, |reference|) over the four."""
    ref = weierstrass(z, w1, w2)
    return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, ref))
