import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from semiabel.elliptic import eisenstein_invariants, wp, wp_prime, zeta_w
from semiabel.errors import ConvergenceFailure, NotOnCurve, SingularCurve
from semiabel.lattice import make_lattice, reduce_centered
from semiabel.periods import (
    CurveInvariants,
    EllipticPoint,
    check_on_curve,
    elliptic_log,
    generalized_elliptic_log,
    periods_from_invariants,
)

from conftest import VARPI, lattices_for_sweep

mpmath.mp.dps = 30


def _same_lattice(L1, L2, tol=1e-8):
    """Both bases generate the same lattice."""
    from semiabel.lattice import is_lattice_point

    return all(
        is_lattice_point(w, L2, tol)
        for w in (L1.omega1, L1.omega2)
    ) and all(is_lattice_point(w, L1, tol) for w in (L2.omega1, L2.omega2))


def test_real_period_against_quadrature():
    """The real period of y^2 = 4x^3 - 4x by direct numerical
    integration: 2 * int_1^inf dx / sqrt(4x^3 - 4x)."""
    ref, err = quad(lambda x: 1.0 / math.sqrt(4 * x**3 - 4 * x), 1.0, np.inf)
    ref *= 2.0
    assert err < 1e-7
    assert ref == pytest.approx(VARPI, abs=1e-8)
    L = periods_from_invariants(CurveInvariants(4.0, 0.0))
    # the lattice contains a generator of modulus varpi
    gens = sorted(
        abs(m * L.omega1 + n * L.omega2)
        for m in range(-2, 3)
        for n in range(-2, 3)
        if (m, n) != (0, 0)
    )
    assert gens[0] == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_periods_round_trip(L):
    inv = eisenstein_invariants(L)
    L2 = periods_from_invariants(inv)
    inv2 = eisenstein_invariants(L2)
    scale = max(abs(inv.g2), abs(inv.g3), 1.0)
    assert abs(inv2.g2 - inv.g2) < 1e-8 * scale
    assert abs(inv2.g3 - inv.g3) < 1e-8 * scale
    assert _same_lattice(L, L2)


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        periods_from_invariants(CurveInvariants(3.0, 1.0))  # g2^3 = 27 g3^2


def test_defect_inside_a_root_ordering_propagates(monkeypatch):
    """A programming error is a crash, not a root ordering that failed
    (which the CLI would report as bad input)."""
    import semiabel.periods as periods

    def broken(L):
        raise TypeError("defect")

    monkeypatch.setattr(periods, "eisenstein_invariants", broken)
    with pytest.raises(TypeError, match="defect"):
        periods_from_invariants(CurveInvariants(4.0, 0.0))


def test_check_on_curve():
    inv = CurveInvariants(4.0, 0.0)
    check_on_curve(EllipticPoint(1.0, 0.0), inv)
    check_on_curve(EllipticPoint.identity(), inv)
    with pytest.raises(NotOnCurve):
        check_on_curve(EllipticPoint(1.0, 1.0), inv)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_elliptic_log_round_trip(L):
    inv = eisenstein_invariants(L)
    for frac in (0.13 + 0.27j, 0.41 - 0.08j, -0.33 + 0.19j):
        z = frac.real * L.omega1 + frac.imag * L.omega2
        P = EllipticPoint(wp(z, L), wp_prime(z, L))
        zl = elliptic_log(P, L, inv).value
        # agreement modulo the lattice
        resid, _, _ = reduce_centered(zl - z, L)
        assert abs(resid) < 1e-8 * abs(L.omega1)


def test_elliptic_log_identity_and_two_torsion():
    L = make_lattice(VARPI, VARPI * 1j)
    inv = eisenstein_invariants(L)
    assert elliptic_log(EllipticPoint.identity(), L, inv).value == 0j
    # (1, 0) is 2-torsion on y^2 = 4x^3 - 4x; its logarithm is a half
    # period
    z = elliptic_log(EllipticPoint(1.0, 0.0), L, inv).value
    resid, _, _ = reduce_centered(2 * z, L)
    assert abs(resid) < 1e-9 * abs(L.omega1)
    assert abs(wp(z, L) - 1.0) < 1e-9


def _half_periods(L):
    return (L.omega1 / 2, L.omega2 / 2, (L.omega1 + L.omega2) / 2)


def test_elliptic_log_at_half_periods_of_a_rotated_hexagonal_lattice():
    """At a 2-division point RF is already accurate while wp' is round-off
    sized, so a Newton step there must not leave the root."""
    L = make_lattice(
        -2.076082089570768 - 1.5949031923129933j,
        0.3431856363345658 - 2.595391426066662j,
    )
    inv = eisenstein_invariants(L)
    for h in _half_periods(L):
        z = elliptic_log(EllipticPoint(wp(h, L), wp_prime(h, L)), L, inv).value
        resid, _, _ = reduce_centered(z - h, L)
        assert abs(resid) < 1e-8 * abs(L.omega1)


def test_elliptic_log_at_half_periods_of_seeded_rotated_lattices():
    rng = np.random.default_rng(0)
    failures = []
    for i in range(300):
        tau = (1j, cmath.exp(1j * math.pi / 3),
               complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0)))[i % 3]
        w1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.5, 4)
        L = make_lattice(w1, w1 * tau)
        inv = eisenstein_invariants(L)
        for h in _half_periods(L):
            P = EllipticPoint(wp(h, L), wp_prime(h, L))
            try:
                z = elliptic_log(P, L, inv).value
            except ConvergenceFailure:
                failures.append((L, h))
                continue
            resid, _, _ = reduce_centered(z - h, L)
            if abs(resid) >= 1e-8 * abs(L.omega1):
                failures.append((L, h))
    assert failures == []


def test_elliptic_log_matches_carlson_oracle():
    """For real x > e1 on y^2 = 4x^3 - 4x the logarithm equals the
    incomplete integral int_x^inf dt / sqrt(4t^3 - 4t)."""
    L = make_lattice(VARPI, VARPI * 1j)
    inv = eisenstein_invariants(L)
    x = 2.5
    y = math.sqrt(4 * x**3 - 4 * x)
    ref, err = quad(
        lambda t: 1.0 / math.sqrt(4 * t**3 - 4 * t), x, np.inf, limit=200
    )
    assert err < 1e-7
    z = elliptic_log(EllipticPoint(x, -y), L, inv).value
    # the principal value differs from the real integral by a lattice
    # vector and possibly a sign
    r1, _, _ = reduce_centered(z - ref, L)
    r2, _, _ = reduce_centered(z + ref, L)
    assert min(abs(r1), abs(r2)) < 1e-7


def test_generalized_log_components(generic_lattice):
    L = generic_lattice
    inv = eisenstein_invariants(L)
    z = 0.23 * L.omega1 + 0.31 * L.omega2
    P = EllipticPoint(wp(z, L), wp_prime(z, L))
    g = generalized_elliptic_log(P, L, inv)
    assert abs(g.w - zeta_w(g.z, L)) < 1e-10
    assert not g.is_identity
    gi = generalized_elliptic_log(EllipticPoint.identity(), L, inv)
    assert gi.is_identity and gi.z == 0j
