"""Hot numeric kernels: nome series for the odd Jacobi theta function and
Eisenstein weight-4/6 series, plus Carlson's symmetric integral RF.

All kernels are scalar complex routines in pure Python; each raises
ConvergenceFailure when its series or iteration does not converge.  The
theta series takes its per-term weights from theta1_weights, which
depend on tau alone: a caller builds them once per lattice (elliptic
keeps them on the Lattice) and each evaluation then costs one sin and
one cos per term.
"""

import cmath

from .errors import ConvergenceFailure

# reported as numba_enabled in the environment block of semibench's run records
NUMBA_ENABLED = False

MAX_TERMS = 10_000
_REL_EPS = 1e-16


def theta1_weights(tau):
    """Per-term weights of the theta1 series on Z + Z*tau, built once per tau.

    Term n is (a, c, c*a, c*a*a, c*a*a*a, |c|) with a = (2n+1) pi and
    c = 2 (-1)^n q^{(n+1/2)^2}, q = exp(i pi tau); the products associate
    left, as theta1_bundle's sums use them.  The list runs to the first
    n >= 2 whose c underflows to 0, where every argument's series stops,
    or to MAX_TERMS.
    """
    ipitau = 1j * cmath.pi * tau
    weights = []
    for n in range(MAX_TERMS):
        coeff = 2.0 * cmath.exp(ipitau * (n + 0.5) ** 2)
        if n % 2 == 1:
            coeff = -coeff
        a = (2 * n + 1) * cmath.pi
        ca = coeff * a
        weights.append((a, coeff, ca, ca * a, ca * a * a, abs(coeff)))
        if coeff == 0 and n >= 2:
            break
    return tuple(weights)


def theta1_bundle(v, weights):
    """theta1 and its first three v-derivatives at argument v, lattice Z+Z*tau.

    theta1(v) = 2 * sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi v),
    q = exp(i pi tau), summed with the weights theta1_weights(tau) until
    the next term is below round-off.  Derivatives are taken with respect
    to v.  Returns (t0, t1, t2, t3).

    Every term updates the running max |t3|; from n = 2 on, the series stops
    once |c| (|sin| + |cos|) a^3 falls below round-off of it (never at NaN v).
    """
    sin, cos, rel_eps = cmath.sin, cmath.cos, _REL_EPS
    t0 = 0j
    t1 = 0j
    t2 = 0j
    t3 = 0j
    scale = 0.0
    for n, (a, coeff, ca, caa, caaa, abs_coeff) in enumerate(weights):
        av = a * v
        s = sin(av)
        c = cos(av)
        t0 += coeff * s
        t1 += ca * c
        t2 -= caa * s
        t3 -= caaa * c
        x = abs(t3)
        if x > scale:
            scale = x
        if n >= 2 and abs_coeff * (abs(s) + abs(c)) * a * a * a < rel_eps * scale:
            return t0, t1, t2, t3
    raise ConvergenceFailure(
        f"theta series did not converge at v={v} in {len(weights)} terms"
    )


def eisenstein_e4_e6(tau):
    """Normalized Eisenstein series E4, E6 at tau via Lambert series.

    E4 = 1 + 240 sum n^3 q^n / (1-q^n), E6 = 1 - 504 sum n^5 q^n / (1-q^n),
    q = exp(2 i pi tau), |q| <= exp(-pi sqrt 3) at a reduced tau.  Returns (e4, e6).
    """
    q = cmath.exp(2j * cmath.pi * tau)
    e4 = 0j
    e6 = 0j
    qn = 1.0 + 0j
    for n in range(1, MAX_TERMS):
        qn *= q
        term = qn / (1.0 - qn)
        n3 = float(n) ** 3
        e4 += n3 * term
        e6 += n3 * float(n) * float(n) * term
        if abs(term) * n3 * n * n < _REL_EPS * (1.0 + abs(e6)):
            return 1.0 + 240.0 * e4, 1.0 - 504.0 * e6
    raise ConvergenceFailure(f"Eisenstein series did not converge at tau={tau}")


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral RF(x, y, z) for complex args.

    Duplication-theorem iteration; principal square roots throughout.
    """
    A0 = (x + y + z) / 3.0
    Q = (3.0 * 2.220446049250313e-16) ** (-1.0 / 8.0) * max(
        abs(A0 - x), abs(A0 - y), abs(A0 - z)
    )
    xm, ym, zm = x, y, z
    Am = A0
    pow4 = 1.0
    for _ in range(200):
        if Q * pow4 <= abs(Am):
            break
        sx = cmath.sqrt(xm)
        sy = cmath.sqrt(ym)
        sz = cmath.sqrt(zm)
        lam = sx * sy + sx * sz + sy * sz
        xm = (xm + lam) / 4.0
        ym = (ym + lam) / 4.0
        zm = (zm + lam) / 4.0
        Am = (Am + lam) / 4.0
        pow4 /= 4.0
    else:
        raise ConvergenceFailure(f"RF duplication did not converge at {x}, {y}, {z}")
    if Am == 0:
        raise ConvergenceFailure(f"RF diverges at {x}, {y}, {z}")
    X = (A0 - x) * pow4 / Am
    Y = (A0 - y) * pow4 / Am
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return (
        1.0
        - E2 / 10.0
        + E3 / 14.0
        + E2 * E2 / 24.0
        - 3.0 * E2 * E3 / 44.0
    ) / cmath.sqrt(Am)
