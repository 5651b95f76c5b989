import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiabel.errors import (
    BeyondWorkingPrecision,
    DegenerateLattice,
    NotALatticePoint,
)
from semiabel.lattice import (
    dual_lattice,
    dual_to_primal,
    duality_product,
    from_real_coordinates,
    is_lattice_point,
    lattice_coords,
    make_lattice,
    real_coordinates,
    reduce_centered,
    reduce_to_fundamental,
)

from conftest import lattices_for_sweep

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def test_make_lattice_orientation():
    L = make_lattice(1.0, -1j)  # clockwise input gets reordered
    assert (L.omega2 / L.omega1).imag > 0


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        make_lattice(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        make_lattice(1.0 + 1j, 2.0 + 2j)


def test_reduced_basis_fundamental_domain():
    for L in lattices_for_sweep():
        w1, w2, (a, b, c, d) = L.reduced_basis()
        tau = w2 / w1
        assert abs(tau.real) <= 0.5 + 1e-12
        assert abs(tau) >= 1.0 - 1e-12
        assert tau.imag > 0
        assert a * d - b * c in (1, -1)
        # the reduced pair generates the same lattice
        assert abs(w2 - (a * L.omega2 + b * L.omega1)) < 1e-12
        assert abs(w1 - (c * L.omega2 + d * L.omega1)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(a1=finite, a2=finite)
def test_real_coordinates_round_trip(a1, a2):
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    z = from_real_coordinates(a1, a2, L)
    b1, b2 = real_coordinates(z, L)
    assert abs(b1 - a1) < 1e-9 * (1 + abs(a1))
    assert abs(b2 - a2) < 1e-9 * (1 + abs(a2))


@settings(max_examples=60, deadline=None)
@given(a1=finite, a2=finite)
def test_reduce_to_fundamental_idempotent(a1, a2):
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    z = from_real_coordinates(a1, a2, L)
    z0, m, n = reduce_to_fundamental(z, L)
    c1, c2 = real_coordinates(z0, L)
    assert -1e-9 <= c1 < 1.0 + 1e-9
    assert -1e-9 <= c2 < 1.0 + 1e-9
    assert abs(z0 + m * L.omega1 + n * L.omega2 - z) < 1e-9 * (1 + abs(z))
    z1, m1, n1 = reduce_to_fundamental(z0, L)
    assert (m1, n1) == (0, 0)
    assert abs(z1 - z0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(a1=finite, a2=finite)
def test_reduce_centered_range(a1, a2):
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    z = from_real_coordinates(a1, a2, L)
    z0, m, n = reduce_centered(z, L)
    c1, c2 = real_coordinates(z0, L)
    assert -0.5 - 1e-9 <= c1 < 0.5 + 1e-9
    assert -0.5 - 1e-9 <= c2 < 0.5 + 1e-9
    assert abs(z0 + m * L.omega1 + n * L.omega2 - z) < 1e-9 * (1 + abs(z))


def test_reduction_refuses_coordinates_beyond_working_precision():
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    for reduce in (reduce_centered, reduce_to_fundamental):
        _, m, n = reduce(from_real_coordinates(4e5 + 0.25, -4e5 + 0.375, L), L)
        assert (m, n) == (400_000, -400_000)
        for a1, a2 in ((5e5, 0.3), (0.3, -5e5), (math.inf, 0.0)):
            with pytest.raises(BeyondWorkingPrecision, match="beyond working precision"):
                reduce(from_real_coordinates(a1, a2, L), L)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(-30, 30),
    n=st.integers(-30, 30),
)
def test_lattice_coords_exact_on_lattice(m, n):
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    z = m * L.omega1 + n * L.omega2
    assert is_lattice_point(z, L)
    assert lattice_coords(z, L) == (m, n)


def test_lattice_coords_rejects_off_lattice():
    L = make_lattice(1.0, 1j)
    with pytest.raises(NotALatticePoint):
        lattice_coords(0.5 + 0.25j, L)
    assert not is_lattice_point(0.5 + 0.25j, L)


def test_duality_product_bilinear_antisymmetric():
    z, w = 1.2 + 0.7j, -0.3 + 2.1j
    assert duality_product(z, w) == pytest.approx(-duality_product(w, z))
    assert duality_product(2 * z, w) == pytest.approx(2 * duality_product(z, w))
    assert duality_product(z + w, w) == pytest.approx(duality_product(z, w))


def test_dual_lattice_pairing_integrality():
    for L in lattices_for_sweep():
        d = dual_lattice(L)
        # duality products of basis against dual basis are the
        # symplectic unit matrix
        assert duality_product(L.omega1, d.omega1) == pytest.approx(0, abs=1e-9)
        assert duality_product(L.omega2, d.omega2) == pytest.approx(0, abs=1e-9)
        assert duality_product(L.omega1, d.omega2) == pytest.approx(-1, abs=1e-9)
        assert duality_product(L.omega2, d.omega1) == pytest.approx(1, abs=1e-9)


def test_dual_to_primal_carries_dual_basis_to_basis():
    for L in lattices_for_sweep():
        d = dual_lattice(L)
        assert dual_to_primal(d.omega1, L) == pytest.approx(L.omega1)
        assert dual_to_primal(d.omega2, L) == pytest.approx(L.omega2)


def test_covolume_factor_negative_for_oriented_basis():
    for L in lattices_for_sweep():
        assert L.covolume_factor() < 0
        area = abs(L.covolume_factor())
        expected = abs(L.omega1) ** 2 * (L.omega2 / L.omega1).imag
        assert area == pytest.approx(expected)
