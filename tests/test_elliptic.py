import cmath
import json
import math
import random
import re

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiabel import elliptic
from semiabel._kernels import carlson_rf, eisenstein_e4_e6, theta1_bundle, theta1_weights
from semiabel.cli import main
from semiabel.elliptic import (
    eisenstein_invariants,
    eta_linear,
    quasi_periods,
    rotate_real_frame,
    sigma_automorphy_factor,
    sigma_w,
    theta_automorphy_factor,
    theta_normalization,
    theta_normalized,
    weierstrass,
    wp,
    wp_prime,
    zeta_w,
)
from semiabel.errors import (
    BeyondWorkingPrecision,
    ConvergenceFailure,
    NotALatticePoint,
    PoleAtLatticePoint,
)
from semiabel.lattice import Lattice, lattice_coords, make_lattice, near_lattice

from conftest import VARPI, lattices_for_sweep

TWO_PI_I = 2j * math.pi

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# kernel-level oracles
# ---------------------------------------------------------------------------


def test_theta1_bundle_matches_mpmath():
    """theta series and its first three derivatives against an
    independent implementation (mpmath.jtheta)."""
    for tau in (1j, 0.1 + 1.3j, -0.4 + 0.9j):
        q = mpmath.exp(1j * mpmath.pi * tau)
        for v in (0.0, 0.23 + 0.11j, -0.4 + 0.37j):
            t0, t1, t2, t3 = theta1_bundle(complex(v), theta1_weights(complex(tau)))
            for k, ours in enumerate((t0, t1, t2, t3)):
                ref = mpmath.pi**k * mpmath.jtheta(1, mpmath.pi * v, q, derivative=k)
                assert abs(ours - complex(ref)) < 1e-11 * (1 + abs(complex(ref)))


def _theta1_per_term(v, tau):
    """The theta1 bundle with each weight formed inside the loop, as the
    series reads: the reference for the weights built once per tau."""
    ipitau = 1j * cmath.pi * tau
    t0 = t1 = t2 = t3 = 0j
    scale = 0.0
    for n in range(10_000):
        coeff = 2.0 * cmath.exp(ipitau * (n + 0.5) ** 2)
        if n % 2 == 1:
            coeff = -coeff
        a = (2 * n + 1) * cmath.pi
        s, c = cmath.sin(a * v), cmath.cos(a * v)
        t0 += coeff * s
        t1 += coeff * a * c
        t2 -= coeff * a * a * s
        t3 -= coeff * a * a * a * c
        mag = abs(coeff) * (abs(s) + abs(c) + 1e-300) * a * a * a
        scale = max(scale, abs(t3) + 1e-300)
        if mag < 1e-16 * scale and n >= 2:
            return t0, t1, t2, t3
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_theta1_weights_cached_on_the_lattice_give_the_same_bits(L):
    """The weights _reduced keeps on the lattice, after the lattice has
    served other evaluations, give every theta value bit for bit as a
    fresh build of the weights and as the per-term series."""
    from semiabel.elliptic import _reduced

    weierstrass(0.3 + 0.2j, L)
    sigma_w(-0.7 + 0.4j, L)
    Lr, tau, cached, _, _, _, _ = _reduced(L)
    assert _reduced(L)[2] is cached
    fresh = theta1_weights(tau)
    assert cached == fresh
    for v in (0j, 0.23 + 0.11j, -0.4 + 0.37j, 0.5 + 0.5 * tau, -0.5 - 0.5 * tau,
              0.49 - 0.02j, 1e-9 + 0j):
        got = theta1_bundle(v, cached)
        assert got == theta1_bundle(v, fresh) == _theta1_per_term(v, tau)


def _theta1_stop_test_on_every_term(v, weights):
    """theta1_bundle with the stop test's bound and running max formed at
    every term, n = 0 and 1 included: the reference for the kernel that
    forms the bound only where the series can stop."""
    t0 = t1 = t2 = t3 = 0j
    scale = 0.0
    for n, (a, coeff, ca, caa, caaa, abs_coeff) in enumerate(weights):
        s, c = cmath.sin(a * v), cmath.cos(a * v)
        t0 += coeff * s
        t1 += ca * c
        t2 -= caa * s
        t3 -= caaa * c
        mag = abs_coeff * (abs(s) + abs(c) + 1e-300) * a * a * a
        scale = max(scale, abs(t3) + 1e-300)
        if mag < 1e-16 * scale and n >= 2:
            return t0, t1, t2, t3
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_theta1_bundle_stop_test_from_term_two_gives_the_same_bits(L):
    """Every bit, signed zeros included, matches the reference over seeded
    v = a + b*tau in the centred cell, at v = 0 and on the edges |b| = 1/2;
    a NaN argument still never stops."""
    from semiabel.elliptic import _reduced

    _, tau, weights, _, _, _, _ = _reduced(L)
    rng = random.Random(14)
    vs = [0j, -0j, complex(0.0, -0.0)]
    vs += [rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau for _ in range(400)]
    vs += [rng.uniform(-0.5, 0.5) + b * tau for b in (0.5, -0.5) for _ in range(50)]
    vs += [a + b * tau for a in (0.5, -0.5) for b in (0.5, -0.5)]
    for v in vs:
        want = _theta1_stop_test_on_every_term(v, weights)
        assert repr(theta1_bundle(v, weights)) == repr(want), v
    for v in (complex(math.nan, 0.0), complex(0.1, math.nan)):
        with pytest.raises(ConvergenceFailure):
            theta1_bundle(v, weights)


def test_lattice_constants_are_computed_once_per_lattice(monkeypatch):
    """Invariants, theta weights and quasi-periods are kept per basis:
    repeated calls, log_G included, and the same periods given to
    make_lattice again compute E4/E6 and the weights once; a Lattice built
    directly on those periods computes them afresh."""
    import semiabel.elliptic as elliptic
    from semiabel.semiabelian import ExtensionParam, exp_G, log_G

    e4e6, weights, counts = elliptic.eisenstein_e4_e6, elliptic.theta1_weights, []

    def counted_e4e6(tau):
        counts.append("e4e6")
        return e4e6(tau)

    def counted_weights(tau):
        counts.append("weights")
        return weights(tau)

    monkeypatch.setattr(elliptic, "eisenstein_e4_e6", counted_e4e6)
    monkeypatch.setattr(elliptic, "theta1_weights", counted_weights)
    lattices = [make_lattice(1.3 + 0.2j, 0.4 + 1.7j) for _ in range(2)]
    lattices.append(Lattice(lattices[0].omega1, lattices[0].omega2))
    for L in lattices:
        q = ExtensionParam.from_primal(0.31 + 0.47j, L)
        inv = eisenstein_invariants(L)
        for z in (0.3 + 0.2j, -0.55 + 0.8j, 1.9 - 0.4j):
            assert eisenstein_invariants(L) is inv
            assert quasi_periods(L) is quasi_periods(L)
            log_G(exp_G(z, 0.5, q, L), q, L)
    assert counts == ["weights", "e4e6"] * 2


def test_a_rotated_frame_keeps_the_lattices_built_before_it():
    """The rotated lattice is built outside make_lattice's table, so a
    theta_normalized call evicts no lattice a caller made."""
    from semiabel.lattice import TABLE_SIZE

    lattices = [make_lattice(1 + 1j, complex(-0.61, 1.37 + k)) for k in range(TABLE_SIZE)]
    theta_normalized(0.3 + 0.2j, lattices[-1])
    assert make_lattice(1 + 1j, complex(-0.61, 1.37)) is lattices[0]


def test_eisenstein_series_match_theta_constants():
    """E4 = (theta2^8 + theta3^8 + theta4^8)/2 via mpmath null values."""
    for tau in (1j, 0.1 + 1.3j, -0.3 + 0.8j):
        e4, e6 = eisenstein_e4_e6(complex(tau))
        q = mpmath.exp(1j * mpmath.pi * tau)
        th2 = mpmath.jtheta(2, 0, q)
        th3 = mpmath.jtheta(3, 0, q)
        th4 = mpmath.jtheta(4, 0, q)
        e4_ref = (th2**8 + th3**8 + th4**8) / 2
        assert abs(e4 - complex(e4_ref)) < 1e-11 * (1 + abs(complex(e4_ref)))
        # E4^3 - E6^2 = 1728 * Delta with Delta = eta^24 = (q^(1/12) prod)^24
        disc_ref = (e4**3 - e6**2) / 1728.0
        eta24 = (
            mpmath.qp(q**2) ** 24 * q**2
        )  # Dedekind eta^24 in the nome squared
        assert abs(disc_ref - complex(eta24)) < 1e-10 * (1 + abs(complex(eta24)))


def test_carlson_rf_matches_mpmath():
    for args in ((0, 1, 2), (1, 2, 4), (0.5 + 0.1j, 2, 3 - 1j), (0, 2 - 1j, 2 + 1j)):
        val = carlson_rf(*(complex(a) for a in args))
        ref = complex(mpmath.elliprf(*args))
        assert abs(val - ref) < 1e-12 * (1 + abs(ref))


def test_theta1_bundle_raises_when_the_series_does_not_converge():
    # |nome| = exp(-1e-9 pi): far more terms than MAX_TERMS are needed
    with pytest.raises(ConvergenceFailure):
        theta1_bundle(0.1 + 0j, theta1_weights(1e-9j))


def test_a_theta_series_whose_round_off_underflows_raises_convergence_failure():
    """On Z + (0.1 + 1000i)Z the leading theta term underflows, so the
    stop test's bound of |t3| is 0: the series does not stop, and the
    lattice's constants are refused as a ConvergenceFailure, not a
    division by the zero theta1'(0) it would return."""
    with pytest.raises(ConvergenceFailure):
        eisenstein_invariants(make_lattice(1.0, 0.1 + 1000j))


def _thin(y):
    """Z + (0.1 + iy)Z, whose nome exp(-pi y) is tiny for large y."""
    return make_lattice(1.0, complex(0.1, y))


@pytest.mark.parametrize("y", (460, 470, 600, 900))
def test_wp_on_a_tiny_nome_is_beyond_working_precision(y, tmp_path, capsys):
    """On Z + (0.1 + iy)Z past y = 452 the square of theta1 at z = 0.3 + 0.2i
    is subnormal (0 from y = 480), so wp and wp' lose their digits
    (relative error 1e-10 at y = 460, 1.4 at 475) or divide by 0.  Both
    are refused, naming z, and the CLI exits 1 with an error line."""
    z = 0.3 + 0.2j
    for f in (weierstrass, wp_prime):
        with pytest.raises(BeyondWorkingPrecision, match=r"at 0\.3\+0\.2j "):
            f(z, _thin(y))
    doc = {"curve": {"lattice": {"w1": 1.0, "w2": {"re": 0.1, "im": y}}},
           "z": {"re": z.real, "im": z.imag}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beyond working precision" in err, err


def test_wp_on_a_small_normal_nome_keeps_its_digits():
    """At y = 450 theta1^2 is a normal double (4.6e-307), so wp and wp'
    are still evaluated, and agree with the q -> 0 limit pi^2/sin^2(pi z)
    - pi^2/3 of Z + tau Z and its derivative."""
    z = 0.3 + 0.2j
    p, dp, _ = weierstrass(z, _thin(450))
    s = cmath.sin(math.pi * z)
    assert p == pytest.approx(math.pi**2 / s**2 - math.pi**2 / 3, rel=1e-12)
    assert dp == pytest.approx(-2 * math.pi**3 * cmath.cos(math.pi * z) / s**3, rel=1e-12)


def test_eisenstein_e4_e6_raises_when_the_nome_is_near_one():
    with pytest.raises(ConvergenceFailure):
        eisenstein_e4_e6(1e-7j)


def test_carlson_rf_raises_where_the_integral_diverges():
    # RF(0, 0, 0) = int_0^inf dt / (2 t^(3/2)) diverges at t = 0
    with pytest.raises(ConvergenceFailure):
        carlson_rf(0j, 0j, 0j)


def test_eisenstein_e4_e6_raises_when_the_series_runs_out_of_terms():
    """At |q| = 1 - 2e-6, far outside the reduced tau's |q| <= exp(-pi sqrt 3),
    |q|^n is still about 0.98 after MAX_TERMS terms: the series has not
    converged."""
    tau = -math.log1p(-2e-6) / (2 * math.pi) * 1j
    assert abs(cmath.exp(2j * math.pi * tau)) == pytest.approx(1 - 2e-6, abs=1e-15)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        eisenstein_e4_e6(tau)


def test_carlson_rf_raises_when_the_duplication_never_stops():
    """A NaN argument makes the stopping test false at every step."""
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        carlson_rf(complex(math.nan, 0), 1 + 0j, 2 + 0j)


# ---------------------------------------------------------------------------
# Laurent-series oracle (independent of theta functions)
# ---------------------------------------------------------------------------


def _laurent_coeffs(g2, g3, terms=40):
    c = {2: g2 / 20.0, 3: g3 / 28.0}
    for k in range(4, terms + 1):
        c[k] = (
            3.0
            / ((2 * k + 1) * (k - 3))
            * sum(c[m] * c[k - m] for m in range(2, k - 1))
        )
    return c


def _wp_series(z, c):
    return 1.0 / z**2 + sum(ck * z ** (2 * k - 2) for k, ck in c.items())


def _zeta_series(z, c):
    return 1.0 / z - sum(ck * z ** (2 * k - 1) / (2 * k - 1) for k, ck in c.items())


def _sigma_series(z, c):
    return z * cmath.exp(
        -sum(ck * z ** (2 * k) / ((2 * k - 1) * 2 * k) for k, ck in c.items())
    )


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_wp_zeta_sigma_match_laurent_series(L):
    inv = eisenstein_invariants(L)
    c = _laurent_coeffs(inv.g2, inv.g3)
    scale = min(abs(L.omega1), abs(L.omega2), abs(L.omega1 + L.omega2))
    for frac in (0.11 + 0.07j, -0.18 + 0.13j, 0.25 - 0.2j):
        z = frac * scale
        ref_p = _wp_series(z, c)
        ref_z = _zeta_series(z, c)
        ref_s = _sigma_series(z, c)
        assert abs(wp(z, L) - ref_p) < 1e-9 * (1 + abs(ref_p))
        assert abs(zeta_w(z, L) - ref_z) < 1e-9 * (1 + abs(ref_z))
        assert abs(sigma_w(z, L) - ref_s) < 1e-9 * (1 + abs(ref_s))


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_quasi_periods_match_laurent_half_period(L):
    """eta_1 = 2*zeta(omega_1/2) with zeta from the Laurent series."""
    inv = eisenstein_invariants(L)
    c = _laurent_coeffs(inv.g2, inv.g3, terms=60)
    qp = quasi_periods(L)
    # Laurent series converges at half periods of the reduced basis
    w1, w2, _ = L.reduced_basis()
    Lr = make_lattice(w1, w2)
    eta1r = 2.0 * _zeta_series(w1 / 2.0, c)
    eta2r = (eta1r * w2 - TWO_PI_I) / w1
    m1, n1 = lattice_coords(L.omega1, Lr)
    m2, n2 = lattice_coords(L.omega2, Lr)
    assert abs(qp.eta1 - (m1 * eta1r + n1 * eta2r)) < 1e-8 * (1 + abs(qp.eta1))
    assert abs(qp.eta2 - (m2 * eta1r + n2 * eta2r)) < 1e-8 * (1 + abs(qp.eta2))


# ---------------------------------------------------------------------------
# function-level identities
# ---------------------------------------------------------------------------


def test_square_lattice_invariants():
    L = make_lattice(VARPI, VARPI * 1j)
    inv = eisenstein_invariants(L)
    assert inv.g2 == pytest.approx(4.0, abs=1e-10)
    assert inv.g3 == pytest.approx(0.0, abs=1e-10)


def test_hexagonal_lattice_invariants():
    L = make_lattice(1.0, cmath.exp(1j * math.pi / 3))
    inv = eisenstein_invariants(L)
    assert abs(inv.g2) < 1e-10
    assert inv.g3.imag == pytest.approx(0.0, abs=1e-10)
    assert inv.g3.real > 0


def test_invariants_scale_covariance():
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    c = 0.7 - 0.4j
    Lc = make_lattice(c * L.omega1, c * L.omega2)
    inv, invc = eisenstein_invariants(L), eisenstein_invariants(Lc)
    assert invc.g2 == pytest.approx(inv.g2 / c**4)
    assert invc.g3 == pytest.approx(inv.g3 / c**6)


def _scaled(lam):
    return make_lattice(lam, lam * complex(0.3, 1.1))


@pytest.mark.parametrize("lam", (1e-50, 1e-8, 1e8, 1e51))
def test_invariants_are_finite_inside_the_supported_range(lam):
    inv = eisenstein_invariants(_scaled(lam))
    assert cmath.isfinite(inv.g2) and cmath.isfinite(inv.g3)
    assert inv.g2 != 0 and inv.g3 != 0


@pytest.mark.parametrize("lam", (1e52, 1e-52, 1e60, 1e-60, 1e155, 1e-155))
def test_invariants_past_the_double_range_are_beyond_working_precision(lam):
    """w1**4 and w1**6 overflow, underflow to 0, or leave g2, g3 infinite or
    NaN; each is refused with |omega1| named, never a bare OverflowError or
    ZeroDivisionError, and never an inf or NaN invariant."""
    with pytest.raises(BeyondWorkingPrecision, match=re.escape(f"= {lam:.3g} are beyond")):
        eisenstein_invariants(_scaled(lam))


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_legendre_relation(L):
    qp = quasi_periods(L)
    assert abs(qp.eta1 * L.omega2 - qp.eta2 * L.omega1 - TWO_PI_I) < 1e-9


# SL2(Z) matrices (a, b; c, d) of consecutive Fibonacci numbers, taking the
# basis (omega1, omega2) to (a*omega1 + b*omega2, c*omega1 + d*omega2)
FIBONACCI_REBASINGS = ((2, 1, 1, 1), (5, 3, 3, 2), (13, 8, 8, 5), (34, 21, 21, 13),
                       (89, 55, 55, 34), (233, 144, 144, 89), (610, 377, 377, 233))


def _rebasing(L, a, b, c, d):
    return make_lattice(a * L.omega1 + b * L.omega2, c * L.omega1 + d * L.omega2)


def test_quasi_periods_on_a_long_basis_satisfy_legendre():
    """On Z + (0.31 + 1.1i)Z given by (610, 377; 377, 233) the user basis is
    read from the reduction's integer matrix: a float solve for its
    coordinates is off by about 1e-8 there and refuses it as not a
    lattice point."""
    L = _rebasing(make_lattice(1.0, 0.31 + 1.1j), *FIBONACCI_REBASINGS[-1])
    qp = quasi_periods(L)
    scale = abs(qp.eta1 * L.omega2) + abs(qp.eta2 * L.omega1)
    assert abs(qp.eta1 * L.omega2 - qp.eta2 * L.omega1 - TWO_PI_I) < 1e-12 * scale


def test_quasi_periods_keep_the_bits_of_the_coordinate_solve():
    """Wherever lattice_coords places the user basis on the reduced one, the
    quasi-periods are m*eta1r + n*eta2r of its coordinates, bit for bit."""
    rng = random.Random(37)
    compared = 0
    for _ in range(300):
        w1 = cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        base = make_lattice(w1, w1 * complex(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 3.0)))
        for matrix in FIBONACCI_REBASINGS:
            L = _rebasing(base, *matrix)
            Lr, _, _, eta1r, eta2r, _, _ = elliptic._reduced(L)
            try:
                m1, n1 = lattice_coords(L.omega1, Lr)
                m2, n2 = lattice_coords(L.omega2, Lr)
            except NotALatticePoint:
                continue
            expected = (m1 * eta1r + n1 * eta2r, m2 * eta1r + n2 * eta2r)
            qp = quasi_periods(L)
            assert repr((qp.eta1, qp.eta2)) == repr(expected), (matrix, L)
            compared += 1
    assert compared > 1500


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_weierstrass_ode(L):
    inv = eisenstein_invariants(L)
    for frac in (0.13 + 0.21j, 0.37 - 0.11j, -0.22 + 0.31j):
        z = frac.real * L.omega1 + frac.imag * L.omega2
        p, dp = wp(z, L), wp_prime(z, L)
        lhs, rhs = dp * dp, 4 * p**3 - inv.g2 * p - inv.g3
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_wp_addition_theorem(generic_lattice):
    L = generic_lattice
    z = 0.27 * L.omega1 + 0.14 * L.omega2
    w = -0.19 * L.omega1 + 0.33 * L.omega2
    lhs = wp(z + w, L)
    rhs = (
        -wp(z, L)
        - wp(w, L)
        + 0.25 * ((wp_prime(z, L) - wp_prime(w, L)) / (wp(z, L) - wp(w, L))) ** 2
    )
    assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


def test_periodicity_and_quasi_periodicity(generic_lattice):
    L = generic_lattice
    qp = quasi_periods(L)
    z = 0.31 * L.omega1 + 0.17 * L.omega2
    for lam, eta in ((L.omega1, qp.eta1), (L.omega2, qp.eta2)):
        assert abs(wp(z + lam, L) - wp(z, L)) < 1e-9 * (1 + abs(wp(z, L)))
        assert abs(zeta_w(z + lam, L) - zeta_w(z, L) - eta) < 1e-9
        # sigma automorphy
        lhs = sigma_w(z + lam, L)
        rhs = sigma_automorphy_factor(lam, z, L) * sigma_w(z, L)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_sigma_zeta_wp_consistency(generic_lattice):
    """wp = -zeta' and zeta = sigma'/sigma by central differences."""
    L = generic_lattice
    z = 0.29 * L.omega1 + 0.22 * L.omega2
    h = 1e-5
    dzeta = (zeta_w(z + h, L) - zeta_w(z - h, L)) / (2 * h)
    assert abs(-dzeta - wp(z, L)) < 1e-5 * (1 + abs(wp(z, L)))
    dlogsigma = (
        cmath.log(sigma_w(z + h, L)) - cmath.log(sigma_w(z - h, L))
    ) / (2 * h)
    assert abs(dlogsigma - zeta_w(z, L)) < 1e-5 * (1 + abs(zeta_w(z, L)))
    dwp = (wp(z + h, L) - wp(z - h, L)) / (2 * h)
    assert abs(dwp - wp_prime(z, L)) < 1e-5 * (1 + abs(wp_prime(z, L)))


def test_sigma_oddness_and_pole_guard(generic_lattice):
    L = generic_lattice
    z = 0.21 * L.omega1 + 0.34 * L.omega2
    assert abs(sigma_w(-z, L) + sigma_w(z, L)) < 1e-10 * abs(sigma_w(z, L))
    assert abs(zeta_w(-z, L) + zeta_w(z, L)) < 1e-10 * abs(zeta_w(z, L))
    with pytest.raises(PoleAtLatticePoint):
        zeta_w(0j, L)
    with pytest.raises(PoleAtLatticePoint):
        wp(L.omega1 + L.omega2, L)
    assert sigma_w(0j, L) == 0j  # sigma is entire with a simple zero


@settings(max_examples=300, deadline=None)
@given(
    phase=st.floats(-math.pi, math.pi),
    scale=st.floats(0.1, 10.0),
    tau_re=st.floats(-0.5, 0.5),
    tau_im=st.floats(0.4, 3.0),
    a1=st.floats(-3.0, 3.0),
    a2=st.floats(-3.0, 3.0),
)
def test_wp_prime_is_odd_bit_for_bit(phase, scale, tau_re, tau_im, a1, a2):
    """elliptic_log picks the sign of its logarithm from one wp' value,
    which needs wp'(-z) = -wp'(z) exactly, not just to rounding; and it
    takes the negated branch without evaluating -z, which needs wp even
    (and zeta odd) exactly too."""
    w1 = scale * cmath.exp(1j * phase)
    L = make_lattice(w1, w1 * complex(tau_re, tau_im))
    z = a1 * L.omega1 + a2 * L.omega2
    assume(not near_lattice(z, L))
    assert wp_prime(-z, L) == -wp_prime(z, L)
    p, dp, zeta = weierstrass(z, L)
    assert weierstrass(-z, L) == (p, -dp, -zeta)


def test_sigma_overflows_where_the_weierstrass_bundle_does_not():
    """At a far translate wp, wp' and zeta stay finite while sigma's
    quasi-periodicity factor overflows, so sigma is not computed inside
    weierstrass()."""
    L = make_lattice(1.0, 1j)
    z = 0.3 + 0.2j
    far = z + 40 * L.omega1 + 40 * L.omega2
    p, dp, _ = weierstrass(far, L)
    assert p == pytest.approx(wp(z, L), rel=1e-12)
    assert dp == pytest.approx(wp_prime(z, L), rel=1e-12)
    with pytest.raises(OverflowError):
        sigma_w(far, L)


# ---------------------------------------------------------------------------
# The memo of evaluations kept on each lattice
# ---------------------------------------------------------------------------


def _values_or_error(z, L):
    """repr of (weierstrass, sigma_w) at z, or of the exception raised."""
    try:
        return repr((weierstrass(z, L), sigma_w(z, L)))
    except PoleAtLatticePoint as exc:
        return repr(exc)


@pytest.mark.parametrize("L", lattices_for_sweep() + [make_lattice(1j, -1.0)])
def test_memo_keeps_signed_zeros_apart(L):
    """-0.0 == 0.0 as a dict key, so the memo keys a zero part with its
    sign: x + 0j and x - 0j, +-0 + iy, and the four signed zeros give on
    one lattice the bits each gives on a fresh one.  On Z*i + Z*(-1) the
    pole message at 0 prints the reduction, whose zeros keep the signs."""
    shared = Lattice(L.omega1, L.omega2)
    args = [complex(a, b) for x in (0.3, -0.7) for a, b in ((x, 0.0), (x, -0.0), (0.0, x), (-0.0, x))]
    args += [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    for z in args + args:
        assert _values_or_error(z, shared) == _values_or_error(z, Lattice(L.omega1, L.omega2)), z


def test_memo_holds_no_more_than_its_bound(monkeypatch):
    """After 10 000 distinct arguments the memo holds the last MEMO_SIZE."""
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    memo = elliptic._reduced(L)[6]
    args = [complex(0.1 + k * 1e-5, 0.2) for k in range(10_000)]
    for z in args:
        wp(z, L)
        assert len(memo) <= elliptic.MEMO_SIZE
    assert list(memo) == args[-elliptic.MEMO_SIZE:]


def test_memo_stores_no_error(generic_lattice):
    """A pole raises PoleAtLatticePoint on every call, also after sigma_w
    (entire, 0 there) has summed its series, and its entry's (wp, wp',
    zeta) slot stays empty; an argument beyond working precision raises
    every time and leaves nothing in the memo."""
    L = Lattice(generic_lattice.omega1, generic_lattice.omega2)
    pole = L.omega1 - 2 * L.omega2
    for _ in range(3):
        assert sigma_w(pole, L) == 0
        for f in (wp, wp_prime, zeta_w, weierstrass):
            with pytest.raises(PoleAtLatticePoint):
                f(pole, L)
            assert elliptic._entry(pole, elliptic._reduced(L))[6] is None
    held = dict(elliptic._reduced(L)[6])
    for _ in range(3):
        for f in (wp, sigma_w):
            with pytest.raises(BeyondWorkingPrecision):
                f(1e200, L)
    assert elliptic._reduced(L)[6] == held


def test_sigma_whose_product_leaves_the_double_range_raises():
    """On Z*1e6 + Z*1e6i at z = 21.15e6 sigma's quasi-periodicity factor
    (exponent about 702.6) is finite, and its product with sigma at the
    reduced argument (about 1.5e5) overflows without raising.  sigma
    raises OverflowError, as the factor itself does a little farther out,
    on every call; it never returns inf, and the entry keeps no sigma."""
    L = make_lattice(1e6, 1e6j)
    for _ in range(2):
        with pytest.raises(OverflowError, match="leaves the double range"):
            sigma_w(21.15e6, L)
        assert elliptic._entry(21.15e6, elliptic._reduced(L))[5] is None


def test_sigma_overflow_leaves_the_slot_empty():
    """sigma at a far translate raises OverflowError on every call, and
    the argument's memo entry keeps its reduction but no sigma."""
    L = make_lattice(1.0, 1j)
    far = 0.3 + 0.2j + 20 * (1 + 1j)
    for _ in range(3):
        with pytest.raises(OverflowError):
            sigma_w(far, L)
        assert elliptic._entry(far, elliptic._reduced(L))[5] is None


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_sigma_read_twice_is_a_fresh_lattice_value(L):
    """sigma at a cell point, read twice on one lattice, is the value a
    fresh lattice with the basis gives, bit for bit, and the second read
    is the one the memo entry holds."""
    shared = Lattice(L.omega1, L.omega2)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    first, second = sigma_w(z, shared), sigma_w(z, shared)
    assert repr(first) == repr(second) == repr(sigma_w(z, Lattice(L.omega1, L.omega2)))
    assert elliptic._entry(z, elliptic._reduced(shared))[5] is second


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_weierstrass_read_twice_is_the_stored_tuple(L):
    """(wp, wp', zeta) at a cell point, read twice on one lattice, is the
    tuple the argument's memo entry holds, with the repr a fresh lattice
    with the basis gives."""
    shared = Lattice(L.omega1, L.omega2)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    first, second = weierstrass(z, shared), weierstrass(z, shared)
    assert first is second is elliptic._entry(z, elliptic._reduced(shared))[6]
    assert repr(second) == repr(weierstrass(z, Lattice(L.omega1, L.omega2)))


def test_arguments_beyond_working_precision_are_rejected(generic_lattice):
    # reducing 1e200 to a cell leaves no digit of z
    for f in (wp, wp_prime, zeta_w, sigma_w):
        with pytest.raises(BeyondWorkingPrecision, match="beyond working precision"):
            f(1e200, generic_lattice)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_eta_linear_closed_form(L):
    """R-linear quasi-period form equals pi*(conj(z) + A*z)/D in the
    rotated clockwise frame."""
    Lr, _, _, _, D = rotate_real_frame(L)
    piA = theta_normalization(L)
    for frac in (0.12 + 0.31j, -0.27 + 0.09j, 0.41 - 0.18j):
        zr = frac.real * Lr.omega1 + frac.imag * Lr.omega2
        closed = (math.pi * zr.conjugate() + piA * zr) / D
        assert abs(eta_linear(zr, Lr) - closed) < 1e-10


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_eta_linear_interpolates_quasi_periods(L):
    qp = quasi_periods(L)
    assert abs(eta_linear(L.omega1, L) - qp.eta1) < 1e-10
    assert abs(eta_linear(L.omega2, L) - qp.eta2) < 1e-10
    z, w = 0.3 * L.omega1 + 0.4 * L.omega2, -0.7 * L.omega1 + 0.2 * L.omega2
    # R-linearity
    assert abs(
        eta_linear(z + w, L) - eta_linear(z, L) - eta_linear(w, L)
    ) < 1e-10


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_theta_automorphy(L):
    Lr, _, w1, w2, D = rotate_real_frame(L)
    assert D > 0
    assert w2.imag < 0
    for frac, (m, n) in (
        (0.17 + 0.23j, (1, 0)),
        (-0.29 + 0.11j, (0, 1)),
        (0.31 - 0.37j, (2, -1)),
        (0.05 + 0.41j, (-1, -2)),
    ):
        zr = frac.real * w1 + frac.imag * w2
        lam = m * w1 + n * w2
        lhs = theta_normalized(zr + lam, L)
        rhs = theta_automorphy_factor(lam, zr, L) * theta_normalized(zr, L)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))
