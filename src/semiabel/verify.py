"""The identity suite behind ``semiabel verify``: each check draws from its
own seeded generator and reports its worst residual against a fixed
tolerance."""

import cmath
import math

import numpy as np

from . import __version__
from ._kernels import NUMBA_ENABLED
from .classifier import OneMotiveElliptic, motivic_galois_dims
from .elliptic import (
    eisenstein_invariants,
    eta_linear,
    quasi_periods,
    rotate_real_frame,
    theta_automorphy_factor,
    theta_normalization,
    theta_normalized,
    weierstrass,
    zeta_w,
)
from .lattice import make_lattice, real_coordinates, reduce_centered
from .pairing import ratio_f_tilde, torsion_weil_pairing, weil_pairing
from .periods import EllipticPoint
from .semiabelian import (
    ExtensionParam,
    SemiAbelianPoint,
    exp_G,
    kernel_generators,
    log_G,
    quasi_quasi_periods,
    serre_fq,
)

TWO_PI_I = 2j * math.pi


def _suite_lattices(rng):
    """Square, hexagonal, and three seeded random lattices."""
    lattices = [make_lattice(1.0, 1j), make_lattice(1.0, cmath.exp(1j * math.pi / 3))]
    for _ in range(3):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.3, 4.0))
        lattices.append(make_lattice(1.0, tau))
    return lattices


def _sample_z(rng, L):
    """A point of the fundamental cell away from the lattice and
    half-lattice poles/zeros."""
    while True:
        a, b = rng.uniform(0.05, 0.95, size=2)
        z = a * L.omega1 + b * L.omega2
        z0, _, _ = reduce_centered(z, L)
        if abs(z0) > 0.1 * abs(L.omega1) and min(
            abs(a - 0.5), abs(b - 0.5)
        ) > 0.03:
            return z


def _check_legendre(rng):
    worst = 0.0
    for L in _suite_lattices(rng):
        qp = quasi_periods(L)
        worst = max(
            worst, abs(qp.eta1 * L.omega2 - qp.eta2 * L.omega1 - TWO_PI_I)
        )
    return worst


def _check_ode(rng):
    worst = 0.0
    for L in _suite_lattices(rng):
        inv = eisenstein_invariants(L)
        for _ in range(20):
            z = _sample_z(rng, L)
            p, dp, _ = weierstrass(z, L)
            lhs, rhs = dp * dp, 4 * p**3 - inv.g2 * p - inv.g3
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


def _check_eta_linear(rng):
    worst = 0.0
    for L in _suite_lattices(rng):
        Lr, _, _, _, D = rotate_real_frame(L)
        piA = theta_normalization(L)
        for _ in range(20):
            zr = _sample_z(rng, Lr)
            closed = (math.pi * zr.conjugate() + piA * zr) / D
            worst = max(worst, abs(eta_linear(zr, Lr) - closed))
    return worst


def _check_theta_automorphy(rng):
    worst = 0.0
    for L in _suite_lattices(rng)[:3]:
        Lr, _, w1, w2, _ = rotate_real_frame(L)
        for _ in range(10):
            zr = _sample_z(rng, Lr)
            m, n = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            lam = m * w1 + n * w2
            if lam == 0:
                continue
            lhs = theta_normalized(zr + lam, L)
            rhs = theta_automorphy_factor(lam, zr, L) * theta_normalized(zr, L)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _contour_third_kind(qp_primal, L, j):
    """Integral of dlog f_q = zeta(z+q) - zeta(z) - zeta(q) along the
    period w = omega_j, by the N-node equispaced trapezoid rule.

    zeta(z+q) - zeta(z) is periodic along w, so the rule converges
    geometrically (Trefethen-Weideman, SIAM Review 56, 2014): its error
    is about exp(-2*pi*N*d/|w|), with d the distance from the path to
    the nearest pole.  The poles, Lambda and -q + Lambda, lie on lines
    parallel to w, h = |Im(conj(w)*other)|/|w| apart, at the coordinates
    0 and c = (-b_q) mod 1 along the other period, where b_q is q's
    coordinate there.  The path z0 + t*w, z0 = b*other, runs along the
    middle b of the wider of the two gaps between 0 and c, so
    d = h*max(c, 1-c)/2 >= h/4.  N = ceil(ln(2**52)/(2*pi) * |w|/d) brings
    the error bound down to double-precision round-off.
    """
    w, other = (L.omega1, L.omega2) if j == 1 else (L.omega2, L.omega1)
    c = -real_coordinates(qp_primal, L)[2 - j] % 1.0
    b = c / 2 if c >= 0.5 else (1 + c) / 2
    d = abs((w.conjugate() * other).imag) / abs(w) * max(c, 1 - c) / 2
    n = math.ceil(52 * math.log(2) / (2 * math.pi) * abs(w) / d)
    z0 = b * other
    total = 0j
    for k in range(n):
        z = z0 + k * w / n
        total += zeta_w(z + qp_primal, L) - zeta_w(z, L)
    return w * total / n - w * zeta_w(qp_primal, L)


def _check_third_kind(rng):
    worst_ratio, worst_contour = 0.0, 0.0
    for L in _suite_lattices(rng)[:3]:
        for _ in range(3):
            qp = _sample_z(rng, L)
            q = ExtensionParam.from_primal(qp, L)
            g = quasi_quasi_periods(q, L)
            for j in (1, 2):
                w = L.omega1 if j == 1 else L.omega2
                z = _sample_z(rng, L)
                ratio = serre_fq(z + w, q, L) / serre_fq(z, q, L)
                e = cmath.exp(g[j - 1])
                worst_ratio = max(worst_ratio, abs(ratio - e) / abs(e))
                quad = _contour_third_kind(qp, L, j)
                k = (quad - g[j - 1]) / TWO_PI_I
                worst_contour = max(worst_contour, abs(k - round(k.real)) * 2 * math.pi)
    return worst_ratio, worst_contour


def _check_ratio_pairing(rng):
    worst = 0.0
    for L in _suite_lattices(rng)[:3]:
        D = L.covolume_factor()
        for _ in range(20):
            z = _sample_z(rng, L)
            zstar = _sample_z(rng, L) / D
            direct = ratio_f_tilde(z, zstar, L)
            worst = max(worst, abs(direct - weil_pairing(z, zstar, L).value))
        # lattice pairs pair to 1
        for lam, lamstar in ((L.omega1, L.omega2 / D), (L.omega2, L.omega1 / D)):
            worst = max(worst, abs(weil_pairing(lam, lamstar, L).value - 1.0))
    return worst


def _check_exp_log(rng):
    worst = 0.0
    for L in _suite_lattices(rng)[:3]:
        qp = _sample_z(rng, L)
        q = ExtensionParam.from_primal(qp, L)
        gens = kernel_generators(q, L)
        for _ in range(20):
            z = _sample_z(rng, L)
            t = complex(rng.normal(), rng.normal())
            R = exp_G(z, t, q, L)
            zb, tb = log_G(R, q, L)
            dz, dt = z - zb.value, t - tb.value
            # residual modulo the rank-3 kernel lattice, whose first two
            # generators project onto the basis omega1, omega2 of Lambda
            a1, a2 = real_coordinates(dz, L)
            m, n = round(a1), round(a2)
            rz = dz - m * gens[0][0] - n * gens[1][0]
            rt = dt - m * gens[0][1] - n * gens[1][1]
            k = rt / TWO_PI_I
            worst = max(
                worst, abs(rz) + abs(rt - round(k.real) * TWO_PI_I)
            )
    return worst


def _check_torsion_weil(rng):
    worst = 0.0
    lats = _suite_lattices(rng)
    for L in (lats[0], lats[2]):
        D = L.covolume_factor()
        for N in (2, 3, 4, 5):
            p = L.omega1 / N
            qs = L.omega2 / N / D
            val = torsion_weil_pairing(p, qs, N, L).value
            worst = max(worst, abs(val**N - 1.0))
            # representative independence
            alt = torsion_weil_pairing(
                p + L.omega2, qs + L.omega1 / D, N, L
            ).value
            worst = max(worst, abs(val - alt))
    return worst


def _check_kernel(rng):
    worst = 0.0
    for L in _suite_lattices(rng)[:2]:
        qp = _sample_z(rng, L)
        q = ExtensionParam.from_primal(qp, L)
        z = _sample_z(rng, L)
        t = 0.25 + 0.125j
        R = exp_G(z, t, q, L)
        for gz, gt in kernel_generators(q, L):
            R2 = exp_G(z + gz, t + gt, q, L)
            worst = max(
                worst,
                abs(R2.base.x - R.base.x) / (1.0 + abs(R.base.x)),
                abs(R2.base.y - R.base.y) / (1.0 + abs(R.base.y)),
                abs(R2.fiber - R.fiber) / (1.0 + abs(R.fiber)),
            )
    return worst


def _table_instances():
    """The eight classification-table instances on the square (CM)
    lattice and seven on a non-CM lattice, with expected (row, UR, Gal)."""
    VARPI = 2.6220575542921198
    L_cm = make_lattice(VARPI, VARPI * 1j)
    L_nc = make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))
    out = []
    for cm, L in ((True, L_cm), (False, L_nc)):
        inv = eisenstein_invariants(L)
        w1 = L.omega1
        p = complex(0.1 * math.pi, 0.07 * math.sqrt(3.0)) * abs(w1)
        mu = complex(0.2 * math.sqrt(5.0), 0.11 * math.sqrt(7.0)) * abs(w1)
        cases = [
            ("q-r-torsion", 0, w1 / 2, None, 0.0),
            ("p-q-torsion", 1, w1 / 2, None, cmath.log(2)),
            ("r-torsion", 2, mu, None, 0.0),
            ("q-torsion", 3, w1 / 2, p, 0.5),
            ("p-torsion", 3, mu, w1 / 2, 0.5),
            ("dependent-not-deficient", 3, 2 * p, p, 0.3),
            ("independent", 5, mu, p, 0.3),
        ]
        if cm:
            cases.append(("dependent-deficient", 2, 1j * p, p, 0.0))
        for row, ur, mu_i, z, t in cases:
            q = ExtensionParam.from_primal(mu_i, L)
            if z is None:
                R = SemiAbelianPoint(EllipticPoint.identity(), cmath.exp(t))
            else:
                R = exp_G(z, t, q, L)
            motive = OneMotiveElliptic(inv, L, (q,), (R,))
            out.append((motive, row, ur, ur + (2 if cm else 4), cm))
    return out


def _check_table(table):
    failures = 0
    for rep, row, ur, gal, cm in table:
        if (rep.table_row, rep.dim_UR, rep.dim_Gal, rep.cm) != (row, ur, gal, cm):
            failures += 1
    return float(failures)


def _check_formula_consistency(table):
    # ClassificationReport construction hard-asserts the dimension
    # formulas; re-deriving them here guards the assembled values.
    worst = 0.0
    for rep, _, _, _, cm in table[:6]:
        worst = max(
            worst,
            abs(rep.dim_UR - 2 * rep.dim_B - rep.dim_Z1),
            abs(rep.dim_Gal - rep.dim_UR - (2 if cm else 4)),
        )
    return worst


def report(seed, tolerance):
    """The verify document: every identity check at its own tolerance,
    sampled from generators seeded by ``seed``.  ``tolerance`` is the
    job's relation tolerance, reported as given."""
    ratio_resid, contour_resid = _check_third_kind(np.random.default_rng(seed + 4))
    table = [(motivic_galois_dims(m), *expected) for m, *expected in _table_instances()]
    checks = [
        ("legendre-relation", "eta1*w2 - eta2*w1 = 2*pi*i",
         _check_legendre(np.random.default_rng(seed)), 1e-9),
        ("weierstrass-ode", "wp'^2 = 4*wp^3 - g2*wp - g3",
         _check_ode(np.random.default_rng(seed + 1)), 1e-9),
        ("quasi-period-linear-form", "eta(z) = pi*(conj(z) + A*z)/D",
         _check_eta_linear(np.random.default_rng(seed + 2)), 1e-10),
        ("theta-automorphy", "theta(z+l) = psi(l)*exp(pi*conj(l)*(z+l/2)/D)*theta(z)",
         _check_theta_automorphy(np.random.default_rng(seed + 3)), 1e-8),
        ("third-kind-periods-ratio", "f_q(z+w_j)/f_q(z) = exp(eta_j*q - w_j*zeta(q))",
         ratio_resid, 1e-8),
        ("third-kind-periods-contour", "contour integral of dlog f_q over a period",
         contour_resid, 1e-6),
        ("sigma-ratio-pairing", "f~_{z*}(z)/f~_z(z*) = Weil pairing exponential",
         _check_ratio_pairing(np.random.default_rng(seed + 5)), 1e-9),
        ("exp-log-round-trip", "log_G(exp_G(z,t)) = (z,t) modulo the kernel lattice",
         _check_exp_log(np.random.default_rng(seed + 6)), 1e-8),
        ("torsion-weil-roots", "N-torsion pairing is an N-th root of unity",
         _check_torsion_weil(np.random.default_rng(seed + 7)), 1e-8),
        ("kernel-lattice", "exp_G is invariant under its rank-3 kernel",
         _check_kernel(np.random.default_rng(seed + 8)), 1e-8),
        ("dimension-table", "eight-row classification table, CM and non-CM",
         _check_table(table), 0.5),
        ("dimension-formula-consistency", "dim UR = 2*dim B + dim Z(1); dim Gal = dim UR + dim Gal(E)",
         _check_formula_consistency(table), 0.5),
    ]
    entries = [
        {
            "name": name,
            "anchor": anchor,
            "max_residual": float(resid),
            "tolerance": tol,
            "pass": bool(resid < tol),
        }
        for name, anchor, resid, tol in sorted(checks)
    ]
    return {
        "task": "verify",
        "seed": seed,
        "tolerance": tolerance,
        "entries": entries,
        "overall_pass": all(e["pass"] for e in entries),
        "environment": {
            "package_version": __version__,
            "numba_enabled": NUMBA_ENABLED,
        },
    }
