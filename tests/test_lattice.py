import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiabel import lattice
from semiabel.errors import (
    BeyondWorkingPrecision,
    DegenerateLattice,
    NotALatticePoint,
)
from semiabel.lattice import (
    Lattice,
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
    L = make_lattice(1.0, -1j)  # a clockwise input has w2 negated
    assert (L.omega2 / L.omega1).imag > 0
    assert (L.omega1, L.omega2) == (1.0, 1j)


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        make_lattice(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        make_lattice(1.0 + 1j, 2.0 + 2j)


@pytest.mark.parametrize("w1,w2", ((0, 1j), (1, 0)))
def test_a_zero_period_is_rejected(w1, w2):
    with pytest.raises(DegenerateLattice, match="zero period"):
        make_lattice(w1, w2)


@pytest.mark.parametrize(
    "w1,w2,name",
    (
        (math.nan, 0.3 + 1.1j, "w1"),
        (1.0, complex(0.3, math.inf), "w2"),
        (complex(-math.inf, 1.0), 1j, "w1"),
        (1.0, complex(math.nan, math.nan), "w2"),
    ),
)
def test_non_finite_periods_rejected_before_the_table(w1, w2, name):
    with pytest.raises(DegenerateLattice, match=f"period {name} = .* is not finite"):
        make_lattice(w1, w2)
    assert lattice._TABLE == {}


def test_the_same_periods_return_the_same_lattice():
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    assert make_lattice(1.3 + 0.2j, 0.4 + 1.7j) is L
    # the key is the normalized basis: a clockwise input reorients to it
    assert make_lattice(1.3 + 0.2j, -0.4 - 1.7j) is L
    assert make_lattice(1.3 + 0.2j, 0.4 + 1.7000000000000002j) is not L
    assert Lattice(L.omega1, L.omega2) is not L


def _bits(L):
    """The bits of L's basis, its constants and evaluations at a few points."""
    from semiabel.elliptic import eisenstein_invariants, quasi_periods, sigma_w, weierstrass

    zs = (0.31 + 0.17j, -0.2 + 0.45j, complex(0.25, -0.0))
    return repr((
        L.omega1, L.omega2, L.reduced_basis(), eisenstein_invariants(L),
        quasi_periods(L), [(weierstrass(z, L), sigma_w(z, L)) for z in zs],
    ))


def test_signed_zero_periods_are_distinct_lattices():
    """A zero part keys with its sign, as in the evaluation memo: each
    signed-zero variant is its own lattice, with the bits of a fresh one,
    whichever of them was built and evaluated first."""
    variants = [
        (complex(1.0, 0.0), complex(0.0, 1.0)),
        (complex(1.0, -0.0), complex(0.0, 1.0)),
        (complex(1.0, 0.0), complex(-0.0, 1.0)),
        (complex(1.0, -0.0), complex(-0.0, 1.0)),
    ]
    lattices = [make_lattice(w1, w2) for w1, w2 in variants]
    assert len({id(L) for L in lattices}) == len(variants)
    for (w1, w2), L in zip(variants, lattices):
        assert make_lattice(w1, w2) is L
        assert _bits(L) == _bits(Lattice(w1, w2))


def test_the_table_holds_at_most_its_bound():
    """The oldest of TABLE_SIZE lattices makes way for a new one."""
    bases = [(1.0, complex(0.1 * k, 1.0 + 0.1 * k)) for k in range(lattice.TABLE_SIZE + 3)]
    built = []
    for w1, w2 in bases:
        built.append(make_lattice(w1, w2))
        assert len(lattice._TABLE) <= lattice.TABLE_SIZE
    kept = lattice.TABLE_SIZE
    assert all(make_lattice(*b) is L for b, L in zip(bases[-kept:], built[-kept:]))
    assert make_lattice(*bases[0]) is not built[0]
    assert len(lattice._TABLE) == lattice.TABLE_SIZE


def test_real_coordinates_of_a_degenerate_basis_raise_on_every_call():
    """A collinear basis is refused where its Lattice is built, on every
    call, so real_coordinates never sees one; a valid lattice keeps the
    determinant its coordinates divide by."""
    for _ in range(3):
        with pytest.raises(DegenerateLattice, match=r"Im\(w2/w1\) ~ 0"):
            real_coordinates(0.5 + 0.1j, Lattice(1.0 + 1j, 2.0 + 2j))
    L = Lattice(1.3 + 0.2j, 0.4 + 1.7j)
    assert L._det == 1.3 * 1.7 - 0.4 * 0.2
    assert real_coordinates(L.omega2, L) == (0.0, 1.0)


@pytest.mark.parametrize(
    "w1, w2, message",
    (
        (0, 1, "zero period"),
        (1j, 1, r"Im\(w2/w1\) < 0"),  # clockwise
        (math.nan, 1, "period w1 = nan is not finite"),
        (1, 2, r"Im\(w2/w1\) ~ 0"),
    ),
)
def test_a_lattice_is_valid_by_construction(w1, w2, message):
    """Lattice refuses a zero, non-finite, collinear or clockwise basis
    when it is built, before any constant is asked of it."""
    with pytest.raises(DegenerateLattice, match=message):
        Lattice(w1, w2)


@pytest.mark.parametrize("lam", (1e155, -1e155, 1e-155, -1e-155))
def test_a_basis_whose_determinant_leaves_the_double_range_is_beyond_working_precision(lam):
    """Past |omega| ~ 1e154 the determinant overflows, and below ~1e-154 it
    is subnormal: the basis is refused as beyond working precision, not as
    collinear, and make_lattice orients it (a negative lam flips it) by
    the scale-free ratio first."""
    with pytest.raises(BeyondWorkingPrecision, match=re.escape(f"|w1| = {abs(lam):.3g} are")):
        make_lattice(abs(lam), lam * complex(0.3, 1.1))


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


def test_dual_lattice_of_a_collinear_basis_is_refused():
    """The collinear basis is refused when its Lattice is built, before
    dual_lattice could divide by its vanishing covolume."""
    with pytest.raises(DegenerateLattice, match=r"Im\(w2/w1\) ~ 0"):
        dual_lattice(Lattice(1, 2))


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
