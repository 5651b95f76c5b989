import cmath
import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiabel._kernels import carlson_rf, eisenstein_e4_e6, theta1_bundle
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
    PoleAtLatticePoint,
)
from semiabel.lattice import make_lattice, near_lattice

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
            t0, t1, t2, t3 = theta1_bundle(complex(v), complex(tau))
            for k, ours in enumerate((t0, t1, t2, t3)):
                ref = mpmath.pi**k * mpmath.jtheta(1, mpmath.pi * v, q, derivative=k)
                assert abs(ours - complex(ref)) < 1e-11 * (1 + abs(complex(ref)))


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
        theta1_bundle(0.1 + 0j, 1e-9j)


def test_eisenstein_e4_e6_raises_when_the_nome_is_near_one():
    with pytest.raises(ConvergenceFailure):
        eisenstein_e4_e6(1e-7j)


def test_carlson_rf_raises_where_the_integral_diverges():
    # RF(0, 0, 0) = int_0^inf dt / (2 t^(3/2)) diverges at t = 0
    with pytest.raises(ConvergenceFailure):
        carlson_rf(0j, 0j, 0j)


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
    from semiabel.lattice import lattice_coords

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


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_legendre_relation(L):
    qp = quasi_periods(L)
    assert abs(qp.eta1 * L.omega2 - qp.eta2 * L.omega1 - TWO_PI_I) < 1e-9


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
    which needs wp'(-z) = -wp'(z) exactly, not just to rounding."""
    w1 = scale * cmath.exp(1j * phase)
    L = make_lattice(w1, w1 * complex(tau_re, tau_im))
    z = a1 * L.omega1 + a2 * L.omega2
    assume(not near_lattice(z, L))
    assert wp_prime(-z, L) == -wp_prime(z, L)


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
