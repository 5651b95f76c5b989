"""The two in-process workloads, ``classify-table`` and ``elliptic-eval``.

Each workload makes its inputs from the benchmark seed as plain numbers,
hands them to the program through its public functions, and checks every
output against a fact known by construction or a property the method
must have.  The mpmath comparison of ``elliptic-eval`` lives in
``mpref.py`` and is imported only after the timed phase, so that it does
not count towards the peak memory of the run.
"""

import cmath
import math
import resource

import numpy as np

from semiabel import classifier, elliptic, lattice, pairing, periods, semiabelian

TWO_PI_I = 2j * math.pi
RHO = cmath.exp(1j * math.pi / 3)

# The paper's eight-row table for n = s = 1: row -> (dim UR, dim Gal on a
# CM curve, dim Gal on a non-CM curve).  dim Gal = dim UR + 2 (CM) or + 4;
# the deficient row exists only with CM.
PAPER_TABLE = {
    "q-r-torsion": (0, 2, 4),
    "p-q-torsion": (1, 3, 5),
    "r-torsion": (2, 4, 6),
    "q-torsion": (3, 5, 7),
    "p-torsion": (3, 5, 7),
    "dependent-not-deficient": (3, 5, 7),
    "independent": (5, 7, 9),
    "dependent-deficient": (2, 4, None),
}

# CM lattices of the classify-table rounds, square and hexagonal: period
# ratio, discriminant, and a purely imaginary element delta of the CM
# field (delta * p gives the deficient dependence mu = beta * p with beta
# purely imaginary).
CM_SHAPES = (
    (1j, -4, 1j),
    (RHO, -3, 1j * math.sqrt(3.0)),
)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cell_point(rng, w1, w2, margin=0.06):
    """a*w1 + b*w2 with (a, b) at least ``margin`` away, in each coordinate
    or the other, from the half-lattice (1/2)Z^2: away from the poles of
    wp and from the 2-torsion points where wp' vanishes."""
    while True:
        a, b = rng.uniform(margin, 1.0 - margin, size=2)
        if max(abs(a - round(2 * a) / 2), abs(b - round(2 * b) / 2)) >= margin:
            return a * w1 + b * w2


def _torsion_point(rng, w1, w2, orders=(2, 3)):
    """A nonzero N-division point (j*w1 + k*w2)/N, N drawn from ``orders``."""
    n = int(rng.choice(orders))
    while True:
        j, k = (int(x) for x in rng.integers(0, n, size=2))
        if (j, k) != (0, 0):
            return (j * w1 + k * w2) / n


def _torsion_fiber(rng):
    """t with e^t a root of unity of order at most 4."""
    n = int(rng.integers(1, 5))
    return TWO_PI_I * int(rng.integers(0, n)) / n


def _generic_fiber(rng):
    """t with Re t != 0, so that e^t is no root of unity."""
    return complex(rng.uniform(0.2, 0.9), rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------------------
# classify-table
# ---------------------------------------------------------------------------


def _basis(rng, tau, scales=(1.0, 3.0)):
    """(w1, w2) = lam*e^{i phi}*(1, tau), with a seeded scale lam drawn
    from ``scales`` and a seeded phase.  Scales below 1 are avoided: see
    CHANGES.md (FOUND, check_on_curve)."""
    w1 = rng.uniform(*scales) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return w1, w1 * tau


def _noncm_tau(rng):
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.2))


def table_rows(rng, w1, w2, delta):
    """The table rows on the lattice (w1, w2) as (row, mu, z, t): mu is
    the primal logarithm of the extension parameter, z the logarithm of
    the base of the marked point (0 for the identity O), t its fiber.
    ``delta`` is None on a non-CM lattice, where the deficient row is
    unreachable."""
    p = _cell_point(rng, w1, w2)
    mu = _cell_point(rng, w1, w2)
    k = int(rng.choice((2, 3, -2)))
    # q-r-torsion keeps the fiber 1 and p-torsion avoids 2-division
    # points: see CHANGES.md (FOUND, _in_rational_span and elliptic_log)
    rows = [
        ("q-r-torsion", _torsion_point(rng, w1, w2), 0j, 0j),
        ("p-q-torsion", _torsion_point(rng, w1, w2), 0j, _generic_fiber(rng)),
        ("r-torsion", mu, 0j, _torsion_fiber(rng)),
        ("q-torsion", _torsion_point(rng, w1, w2), p, _generic_fiber(rng)),
        ("p-torsion", mu, _torsion_point(rng, w1, w2, (3,)), _generic_fiber(rng)),
        ("dependent-not-deficient", k * p, p, _generic_fiber(rng)),
        ("independent", mu, p, _generic_fiber(rng)),
    ]
    if delta is not None:
        rows.append(("dependent-deficient", delta * p, p, _torsion_fiber(rng)))
    return rows


def classify_round(rng):
    """One round of 30 ops: the eight rows on a square and on a hexagonal
    lattice, each followed by the seven rows on a fresh non-CM lattice.
    Every op is (row, discriminant, w1, w2, mu, z, t)."""
    ops = []
    for cm_tau, cm_disc, cm_delta in CM_SHAPES:
        for tau, disc, delta in ((cm_tau, cm_disc, cm_delta),
                                 (_noncm_tau(rng), None, None)):
            # a narrow scale band: the LLL work grows with the scale, and
            # a wide band made the cost of a round vary twice as much
            w1, w2 = _basis(rng, tau, scales=(1.0, 1.25))
            for row, mu, z, t in table_rows(rng, w1, w2, delta):
                ops.append((row, disc, w1, w2, mu, z, t))
    return ops


def classify_op(inp):
    """Build one n = s = 1 motive from plain numbers and classify it."""
    _, _, w1, w2, mu, z, t = inp
    L = lattice.make_lattice(w1, w2)
    curve = elliptic.eisenstein_invariants(L)
    q = semiabelian.ExtensionParam.from_primal(mu, L)
    R = semiabelian.exp_G(z, t, q, L)
    motive = classifier.OneMotiveElliptic(curve, L, (q,), (R,))
    return classifier.motivic_galois_dims(motive)


def classify_check(inp, rep):
    row, disc = inp[0], inp[1]
    ur, gal_cm, gal_noncm = PAPER_TABLE[row]
    want = (row, disc is not None, disc, ur, gal_noncm if disc is None else gal_cm)
    got = (rep.table_row, rep.cm, rep.cm_discriminant, rep.dim_UR, rep.dim_Gal)
    if got != want:
        return f"classify {row} disc={disc}: got {got}, want {want}"
    return None


WARMUP_SEED = 0


class ClassifyTable:
    name = "classify-table"
    trace_rounds = 1
    peak_rss_mb = staticmethod(_peak_rss_mb)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        # the warm-up op is the same for every seed, so that set-up time
        # does not vary with the seed's inputs
        warm = classify_round(np.random.default_rng(WARMUP_SEED))
        inp = next(op for op in warm if op[0] == "independent")
        error = classify_check(inp, classify_op(inp))
        if error:
            raise RuntimeError(f"warm-up op failed its check: {error}")

    def rounds(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield classify_round(rng)

    run = staticmethod(classify_op)
    check = staticmethod(classify_check)

    def finish(self, done):
        return []


# ---------------------------------------------------------------------------
# elliptic-eval
# ---------------------------------------------------------------------------

# Im tau bands of the lattices given by a basis: the first sits next to
# rho, where the theta series converges slowest.
_TAU_BANDS = ((0.87, 0.92), (1.0, 1.6), (1.6, 2.3), (2.4, 3.0))
_INVARIANT_LATTICES = 4


def _band_tau(rng, im_lo, im_hi):
    if im_lo < 0.9:
        # on or just outside the unit circle near rho = e^{i pi/3}
        theta = rng.uniform(math.pi / 3, math.pi / 3 + 0.05)
        return cmath.exp(1j * theta) * rng.uniform(1.0, 1.02)
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(im_lo, im_hi))


def _seeded_invariants(rng):
    """(g2, g3) of moderate size with a discriminant well away from 0."""
    while True:
        g2 = complex(*rng.uniform(-8.0, 8.0, size=2))
        g3 = complex(*rng.uniform(-8.0, 8.0, size=2))
        if abs(g2**3 - 27 * g3**2) > 0.05 * max(abs(g2) ** 3, 27 * abs(g3) ** 2):
            return g2, g3


def eval_pool(rng):
    """The lattice pool: [(lattice, g2, g3)].  g2, g3 are the seeded
    inputs for lattices from invariants and the program's Eisenstein
    invariants for lattices from a basis."""
    pool = []
    for lo, hi in _TAU_BANDS:
        w1, w2 = _basis(rng, _band_tau(rng, lo, hi))
        L = lattice.make_lattice(w1, w2)
        inv = elliptic.eisenstein_invariants(L)
        pool.append((L, inv.g2, inv.g3))
    for _ in range(_INVARIANT_LATTICES):
        g2, g3 = _seeded_invariants(rng)
        L = periods.periods_from_invariants(elliptic.CurveInvariants(g2, g3))
        pool.append((L, g2, g3))
    return pool


def eval_round(rng, pool):
    """One op per pool lattice: (index, z, mu, t, zstar), with z shifted
    by a small lattice vector, mu the primal logarithm of the extension
    parameter and zstar a dual-frame argument of the pairing."""
    ops = []
    for i, (L, _, _) in enumerate(pool):
        w1, w2 = L.omega1, L.omega2
        m, n = (int(v) for v in rng.integers(-1, 2, size=2))
        z = _cell_point(rng, w1, w2) + m * w1 + n * w2
        while True:
            mu = _cell_point(rng, w1, w2)
            if min(abs(z + mu - a * w1 - b * w2) for a in range(-1, 4)
                   for b in range(-1, 4)) > 0.05 * abs(w1):
                break
        t = complex(rng.normal(), rng.normal())
        D = (w1 * w2.conjugate()).imag
        ops.append((i, z, mu, t, _cell_point(rng, w1, w2) / D))
    return ops


class EllipticEval:
    name = "elliptic-eval"
    trace_rounds = 100
    peak_rss_mb = staticmethod(_peak_rss_mb)

    def __init__(self, seed):
        self.seed = seed
        self.pool = None

    def setup(self):
        self.pool = eval_pool(np.random.default_rng(self.seed))
        inp = eval_round(np.random.default_rng([self.seed, 1]), self.pool)[0]
        error = self.check(inp, self.run(inp))
        if error:
            raise RuntimeError(f"warm-up op failed its check: {error}")

    def rounds(self):
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield eval_round(rng, self.pool)

    def run(self, inp):
        """wp, wp', zeta, sigma at z; an exp_G/log_G round trip; and the
        sigma-quotient ratio at (z, zstar)."""
        i, z, mu, t, zstar = inp
        L = self.pool[i][0]
        values = (
            elliptic.wp(z, L),
            elliptic.wp_prime(z, L),
            elliptic.zeta_w(z, L),
            elliptic.sigma_w(z, L),
        )
        q = semiabelian.ExtensionParam.from_primal(mu, L)
        R = semiabelian.exp_G(z, t, q, L)
        zb, tb = semiabelian.log_G(R, q, L)
        ratio = pairing.ratio_f_tilde(z, zstar, L)
        return values, zb.value, tb.value, ratio

    def check(self, inp, out):
        i, z, mu, t, zstar = inp
        L, g2, g3 = self.pool[i]
        (p, dp, _, _), zl, tl, ratio = out
        lhs, rhs = dp * dp, 4 * p**3 - g2 * p - g3
        ode = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
        if not ode < 1e-9:
            return f"eval lattice {i}: wp'^2 - (4wp^3 - g2 wp - g3) residual {ode:.3e}"
        trip = _round_trip_residual(z - zl, t - tl, mu, L)
        if not trip < 1e-8 * (1.0 + abs(L.omega1)):
            return f"eval lattice {i}: log_G(exp_G(z, t)) residual {trip:.3e}"
        weil = pairing.weil_pairing(z, zstar, L).value
        if not abs(ratio - weil) < 1e-9:
            return f"eval lattice {i}: ratio_f_tilde - weil_pairing = {abs(ratio - weil):.3e}"
        return None

    def finish(self, done):
        """Compare the kept ops (every lattice of the first rounds) with
        mpmath."""
        import mpref

        errors = []
        for (i, z, _, _, _), (values, _, _, _) in done:
            L = self.pool[i][0]
            err = mpref.relative_error(z, L.omega1, L.omega2, values)
            if not err < mpref.TOLERANCE:
                errors.append(f"eval lattice {i}: mpmath relative error {err:.3e}")
        return errors


def _round_trip_residual(dz, dt, mu, L):
    """Distance of (dz, dt) from the rank-3 kernel lattice of exp_G."""
    q = semiabelian.ExtensionParam.from_primal(mu, L)
    (w1, g1), (w2, g2), _ = semiabelian.kernel_generators(q, L)
    a1, a2 = np.linalg.solve(
        np.array([[w1.real, w2.real], [w1.imag, w2.imag]]),
        np.array([dz.real, dz.imag]),
    )
    m, n = round(a1), round(a2)
    rz = dz - m * w1 - n * w2
    rt = dt - m * g1 - n * g2
    k = round((rt / TWO_PI_I).real)
    return abs(rz) + abs(rt - k * TWO_PI_I)
