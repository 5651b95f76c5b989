import cmath
import math

import pytest

import numpy as np

from semiabel import pairing
from semiabel.elliptic import eta_linear
from semiabel.errors import (
    BeyondWorkingPrecision,
    InternalInconsistency,
    NotTorsion,
    PoleAtLatticePoint,
)
from semiabel.lattice import dual_lattice, dual_to_primal, duality_product
from semiabel.pairing import (
    UnitCircleValue,
    f_tilde,
    hodge_weil,
    poincare_automorphy,
    poincare_automorphy_a0,
    ratio_f_tilde,
    torsion_weil_pairing,
    weil_pairing,
)

from conftest import lattices_for_sweep

TWO_PI_I = 2j * math.pi


def test_unit_circle_value_guard():
    UnitCircleValue(1j)
    with pytest.raises(ValueError):
        UnitCircleValue(1.5 + 0j)
    with pytest.raises(ValueError):
        UnitCircleValue(complex(math.nan, math.nan))


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan, complex(0.0, math.inf)))
def test_weil_pairing_refuses_nonfinite_arguments(generic_lattice, bad):
    """A non-finite argument used to come back as UnitCircleValue(nan+nanj)."""
    with pytest.raises(ValueError):
        weil_pairing(bad, 0.3, generic_lattice)
    with pytest.raises(ValueError):
        weil_pairing(0.3, bad, generic_lattice)


@pytest.mark.parametrize("z, zs", ((1e9, 0.3), (0.3, 1e9), (3e7j, 0.2 + 0.1j)))
def test_weil_pairing_far_arguments_are_beyond_working_precision(generic_lattice, z, zs):
    """Past 2 pi 2^-50 (|a1| + |a2|)(|b1| + |b2|) >= 1e-8 the phase is
    rounding; (1e9, 0.3) failed the coordinate cross-check (exit 2)."""
    with pytest.raises(BeyondWorkingPrecision):
        weil_pairing(z, zs, generic_lattice)


def test_weil_pairing_keeps_its_value_up_to_1e5(generic_lattice):
    """Seeded pairs with |z| <= 1e5 and |z*| <= 1 pass the precision bound
    and return the closed form exp(2 pi i Im(conj(z) mu) / |D|) bit for bit."""
    L = generic_lattice
    rng = np.random.default_rng(21)
    for _ in range(300):
        z = complex(*rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(-2.0, 5.0) / math.sqrt(2)
        zs = complex(*rng.uniform(-1.0, 1.0, 2)) / math.sqrt(2)
        mu = dual_to_primal(zs, L)
        closed = cmath.exp(TWO_PI_I * duality_product(z, mu) / abs(L.covolume_factor()))
        assert weil_pairing(z, zs, L).value == closed


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_weil_pairing_bimultiplicative(L):
    D = L.covolume_factor()
    z = 0.31 * L.omega1 + 0.17 * L.omega2
    zs = (0.23 * L.omega1 - 0.41 * L.omega2) / D
    ws = (0.11 * L.omega1 + 0.29 * L.omega2) / D
    a = weil_pairing(z, zs, L).value
    b = weil_pairing(z, ws, L).value
    ab = weil_pairing(z, zs + ws, L).value
    assert abs(a * b - ab) < 1e-9
    w = -0.13 * L.omega1 + 0.37 * L.omega2
    c = weil_pairing(w, zs, L).value
    assert abs(a * c - weil_pairing(z + w, zs, L).value) < 1e-9


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_weil_pairing_lattice_pairs_trivial(L):
    """Lattice x dual-lattice pairs land on 1."""
    D = L.covolume_factor()
    ds = dual_lattice(L)
    for lam in (L.omega1, L.omega2, L.omega1 + 2 * L.omega2):
        for lams in (ds.omega1, ds.omega2):
            assert abs(weil_pairing(lam, lams, L).value - 1.0) < 1e-9


def test_weil_pairing_half_period_example():
    """W(w1/2, w2*/2) is a primitive 4th root of unity (+-i)."""
    for L in lattices_for_sweep():
        ds = dual_lattice(L)
        val = weil_pairing(L.omega1 / 2, ds.omega2 / 2, L).value
        assert abs(val - 1j) < 1e-9 or abs(val + 1j) < 1e-9


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_torsion_weil_roots_of_unity(L):
    ds = dual_lattice(L)
    for N in (2, 3, 4, 5):
        val = torsion_weil_pairing(
            L.omega1 / N, ds.omega2 / N, N, L
        ).value
        assert abs(val**N - 1.0) < 1e-8
        # representative independence
        alt = torsion_weil_pairing(
            L.omega1 / N + L.omega2, ds.omega2 / N + ds.omega1, N, L
        ).value
        assert abs(val - alt) < 1e-8
    # basis pair at level N is a primitive root
    val = torsion_weil_pairing(L.omega1 / 3, ds.omega2 / 3, 3, L).value
    assert abs(val - 1.0) > 0.5


def test_torsion_weil_rejects_non_torsion(generic_lattice):
    L = generic_lattice
    ds = dual_lattice(L)
    with pytest.raises(NotTorsion):
        torsion_weil_pairing(0.2371 * L.omega1, ds.omega2 / 2, 2, L)
    with pytest.raises(NotTorsion):
        torsion_weil_pairing(L.omega1 / 2, ds.omega2 / 2, 0, L)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_ratio_f_tilde_equals_weil(L):
    D = L.covolume_factor()
    for fz, fs in ((0.31 + 0.17j, 0.23 - 0.41j), (0.12 - 0.27j, -0.33 + 0.19j)):
        z = fz.real * L.omega1 + fz.imag * L.omega2
        zs = (fs.real * L.omega1 + fs.imag * L.omega2) / D
        ratio = ratio_f_tilde(z, zs, L)
        assert abs(ratio - weil_pairing(z, zs, L).value) < 1e-9


def test_f_tilde_pole_guard(generic_lattice):
    L = generic_lattice
    with pytest.raises(PoleAtLatticePoint):
        f_tilde(L.omega1, 0.3 * L.omega2, L)
    z = 0.3 * L.omega1 + 0.1 * L.omega2
    with pytest.raises(PoleAtLatticePoint):
        f_tilde(z, -z, L)  # z + w on the lattice


@pytest.mark.parametrize("name", ("square_lattice", "hexagonal_lattice", "noncm_lattice"))
def test_ratio_f_tilde_is_the_closed_form_bit_for_bit(name, request):
    """ratio_f_tilde returns exp(eta(z) mu - eta(mu) z), mu = iota(z*), bit
    for bit, and the quotient of the two f-tilde factors agrees with it to
    32 unit roundoffs (their shared sigma values cancel)."""
    L = request.getfixturevalue(name)
    D = L.covolume_factor()
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b, c, d = rng.uniform(-1.4, 1.4, size=4)
        z = a * L.omega1 + b * L.omega2
        zs = (c * L.omega1 + d * L.omega2) / D
        mu = dual_to_primal(zs, L)
        closed = cmath.exp(eta_linear(z, L) * mu - eta_linear(mu, L) * z)
        assert ratio_f_tilde(z, zs, L) == closed
        quotient = f_tilde(z, mu, L) / f_tilde(mu, z, L)
        assert abs(quotient - closed) <= 32 * 2.0**-52 * abs(closed)


@pytest.mark.parametrize("k", (20, 100, 1000))
def test_ratio_f_tilde_at_far_translates(generic_lattice, k):
    """At z + k(w1 + w2) sigma's quasi-periodicity factor overflows from
    k = 20 on; the ratio reads no sigma, so it stays finite and equals the
    Weil pairing."""
    L = generic_lattice
    z = 0.31 * L.omega1 + 0.17 * L.omega2 + k * (L.omega1 + L.omega2)
    zs = (0.23 * L.omega1 - 0.41 * L.omega2) / L.covolume_factor()
    assert abs(ratio_f_tilde(z, zs, L) - weil_pairing(z, zs, L).value) < 1e-9


def test_ratio_f_tilde_pole_guard(generic_lattice):
    L = generic_lattice
    D = L.covolume_factor()
    z = 0.3 * L.omega1 + 0.1 * L.omega2
    for u, mu in ((L.omega1, 0.2 * L.omega1 + 0.35 * L.omega2), (z, L.omega2), (z, -z)):
        with pytest.raises(PoleAtLatticePoint):
            ratio_f_tilde(u, mu / D, L)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ratio_f_tilde is the closed form exp(eta(z) mu - eta(mu) z) that "
    "the shared sigma(z + mu), sigma(z) and sigma(mu) of its two f-tilde "
    "factors cancel to, so it reads no sigma; making sigma observable in the "
    "pairing check is ROADMAP item 13",
)
def test_ratio_f_tilde_depends_on_sigma(generic_lattice, monkeypatch):
    """A wrong entire function in place of sigma must move the value or
    be caught by the closed-form check."""
    L = generic_lattice
    z, zs = 0.3 + 0.2j, (0.45 + 0.61j) / L.covolume_factor()
    right = ratio_f_tilde(z, zs, L)
    monkeypatch.setattr(
        pairing, "_sigma", lambda entry, constants: 7.0 + 3j * entry[0]
    )
    try:
        moved = abs(ratio_f_tilde(z, zs, L) - right) > 1e-6
    except InternalInconsistency:
        moved = True
    assert moved


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_hodge_weil_integrality(L):
    """eta(lambda) mu - eta(mu) lambda lands in 2*pi*i*Z on lattice
    pairs, and recovers the symplectic pairing of the coordinates."""
    ds = dual_lattice(L)
    for (m, n), (ms, ns) in (
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((2, -1), (1, 3)),
    ):
        lam = m * L.omega1 + n * L.omega2
        lams = ms * ds.omega1 + ns * ds.omega2
        val = hodge_weil(lam, lams, L)
        k = val / TWO_PI_I
        assert abs(k - round(k.real)) < 1e-8
        # iota carries the dual basis onto the basis, so the pairing is
        # the determinant of the integer coordinate pairs
        assert round(k.real) == m * ns - n * ms


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_poincare_automorphy_unitarized(L):
    ds = dual_lattice(L)
    lam = L.omega1 + 2 * L.omega2
    lams = ds.omega1 - ds.omega2
    z = 0.21 * L.omega1 + 0.13 * L.omega2
    zs = (0.17 * L.omega1 - 0.23 * L.omega2) / L.covolume_factor()
    a = poincare_automorphy(lam, lams, z, zs, L)
    a0 = poincare_automorphy_a0(lam, lams, z, zs, L)
    assert abs(a0 - a / a.conjugate()) < 1e-9 * abs(a0)
    assert abs(abs(a0) - 1.0) < 1e-9


def test_poincare_automorphy_cocycle(generic_lattice):
    """a(l1 + l2, z) = a(l1, z + l2) * a(l2, z) on the primal side."""
    L = generic_lattice
    ds = dual_lattice(L)
    z = 0.19 * L.omega1 + 0.23 * L.omega2
    zs = (0.29 * L.omega1 + 0.11 * L.omega2) / L.covolume_factor()
    l1, l1s = L.omega1, ds.omega1
    l2, l2s = L.omega2, ds.omega2
    lhs = poincare_automorphy(l1 + l2, l1s + l2s, z, zs, L)
    rhs = poincare_automorphy(
        l1, l1s, z + l2, zs + l2s, L
    ) * poincare_automorphy(l2, l2s, z, zs, L)
    # the cocycle holds up to the integral pairing exponential, which
    # is +-1 times a unit-modulus constant; compare moduli and the
    # ratio against the hodge pairing exponential
    ratio = lhs / rhs
    assert abs(abs(ratio) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# computation mutants: each cross-check refuses a value moved by 1e-3
# ---------------------------------------------------------------------------


def test_weil_pairing_refuses_a_wrong_duality_product(generic_lattice, monkeypatch):
    L = generic_lattice
    z, zs = 0.3 + 0.2j, (0.45 + 0.61j) / L.covolume_factor()
    weil_pairing(z, zs, L)
    monkeypatch.setattr(
        pairing, "duality_product", lambda z, w: duality_product(z, w) + 1e-3
    )
    with pytest.raises(InternalInconsistency, match="coordinate form"):
        weil_pairing(z, zs, L)


def test_unitarized_factor_refuses_a_wrong_automorphy_factor(generic_lattice, monkeypatch):
    L = generic_lattice
    D = L.covolume_factor()
    args = (L.omega1, L.omega2 / D, 0.21 + 0.13j, (0.17 - 0.23j) / D, L)
    poincare_automorphy_a0(*args)
    monkeypatch.setattr(
        pairing,
        "poincare_automorphy",
        lambda *a: poincare_automorphy(*a) * cmath.exp(1e-3j),
    )
    with pytest.raises(InternalInconsistency, match="closed form"):
        poincare_automorphy_a0(*args)


def test_hodge_weil_refuses_a_wrong_quasi_period_form(generic_lattice, monkeypatch):
    L = generic_lattice
    lam, lams = L.omega1, L.omega2 / L.covolume_factor()
    hodge_weil(lam, lams, L)
    monkeypatch.setattr(pairing, "eta_linear", lambda z, L: eta_linear(z, L) + 1e-3)
    with pytest.raises(InternalInconsistency, match="not in 2 pi i Z"):
        hodge_weil(lam, lams, L)
