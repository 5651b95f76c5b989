import cmath
import math

import pytest

from semiabel.errors import NotTorsion, PoleAtLatticePoint
from semiabel.lattice import dual_lattice
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
