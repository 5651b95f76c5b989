import cmath
import math

import numpy as np
import pytest

from semiabel.elliptic import eisenstein_invariants, quasi_periods, wp, zeta_w
from semiabel.errors import BeyondWorkingPrecision, FiberZero, PoleAtLatticePoint
from semiabel.lattice import reduce_centered
from semiabel.periods import EllipticPoint
from semiabel.semiabelian import (
    ExtensionParam,
    SemiAbelianPoint,
    exp_G,
    generalized_log_G,
    kernel_generators,
    log_G,
    period_matrix_A,
    period_matrix_G,
    period_matrix_M,
    quasi_quasi_periods,
    serre_fq,
)

from conftest import lattices_for_sweep

TWO_PI_I = 2j * math.pi


def _q_of(L, frac=0.27 + 0.31j):
    return ExtensionParam.from_primal(frac.real * L.omega1 + frac.imag * L.omega2, L)


def test_extension_param_frames(generic_lattice):
    L = generic_lattice
    qp = 0.4 * L.omega1 + 0.1 * L.omega2
    q = ExtensionParam.from_primal(qp, L)
    assert q.primal(L) == pytest.approx(qp)


def test_serre_fq_zero_and_poles(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    qp = q.primal(L)
    assert serre_fq(-qp, q, L) == 0j
    assert serre_fq(-qp + L.omega1 + 2 * L.omega2, q, L) == 0j
    with pytest.raises(PoleAtLatticePoint):
        serre_fq(0j, q, L)
    with pytest.raises(PoleAtLatticePoint):
        serre_fq(L.omega2, q, L)


def test_serre_fq_quasi_symmetry(generic_lattice):
    """f_q(z) / f_z(q) = exp(zeta(z) q - zeta(q) z)."""
    L = generic_lattice
    z = 0.13 * L.omega1 + 0.41 * L.omega2
    w = 0.33 * L.omega1 - 0.17 * L.omega2
    a = serre_fq(z, ExtensionParam.from_primal(w, L), L)
    b = serre_fq(w, ExtensionParam.from_primal(z, L), L)
    ref = cmath.exp(zeta_w(z, L) * w - zeta_w(w, L) * z)
    assert abs(a / b - ref) < 1e-10 * (1 + abs(ref))


def test_serre_fq_cocycle(generic_lattice):
    """f_q(z1) f_q(z2) / f_q(z1 + z2) is the exponential of the
    second-kind correction (a coboundary in the fiber): equivalently
    dlog f_q telescopes; checked via the sigma definition directly."""
    from semiabel.elliptic import sigma_w

    L = generic_lattice
    q = _q_of(L)
    qp = q.primal(L)
    z = 0.19 * L.omega1 + 0.23 * L.omega2
    direct = serre_fq(z, q, L)
    ref = (
        sigma_w(z + qp, L)
        * cmath.exp(-zeta_w(qp, L) * z)
        / (sigma_w(z, L) * sigma_w(qp, L))
    )
    assert abs(direct - ref) < 1e-12 * (1 + abs(ref))


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_quasi_quasi_periods_vs_fq_ratio(L):
    q = _q_of(L)
    g1, g2 = quasi_quasi_periods(q, L)
    z = 0.17 * L.omega1 + 0.29 * L.omega2
    for w, g in ((L.omega1, g1), (L.omega2, g2)):
        ratio = serre_fq(z + w, q, L) / serre_fq(z, q, L)
        assert abs(ratio - cmath.exp(g)) < 1e-8 * (1 + abs(cmath.exp(g)))


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_quasi_quasi_periods_vs_contour(L):
    """Third-kind periods against 256-node Gauss-Legendre quadrature of
    the logarithmic differential zeta(z+q) - zeta(z) - zeta(q)."""
    q = _q_of(L)
    qp = q.primal(L)
    g = quasi_quasi_periods(q, L)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    z0 = 0.27182818 * L.omega1 + 0.31415927 * L.omega2
    for j, w in ((0, L.omega1), (1, L.omega2)):
        total = 0j
        for x, wt in zip(nodes, weights):
            z = z0 + (x + 1.0) / 2.0 * w
            total += wt * (
                zeta_w(z + qp, L) - zeta_w(z, L) - zeta_w(qp, L)
            )
        total *= w / 2.0
        k = (total - g[j]) / TWO_PI_I
        assert abs(k - round(k.real)) < 1e-6


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_exp_log_round_trip(L):
    q = _q_of(L)
    rng = np.random.default_rng(7)
    gens = kernel_generators(q, L)
    basis = np.array(
        [
            [gens[0][0].real, gens[1][0].real],
            [gens[0][0].imag, gens[1][0].imag],
        ]
    )
    for _ in range(5):
        a, b = rng.uniform(0.08, 0.92, size=2)
        z = a * L.omega1 + b * L.omega2
        t = complex(rng.normal(), rng.normal())
        R = exp_G(z, t, q, L)
        zb, tb = log_G(R, q, L)
        dz, dt = z - zb.value, t - tb.value
        m, n = np.round(np.linalg.solve(basis, [dz.real, dz.imag])).astype(int)
        rz = dz - m * gens[0][0] - n * gens[1][0]
        rt = dt - m * gens[0][1] - n * gens[1][1]
        k = rt / TWO_PI_I
        assert abs(rz) < 1e-8 * abs(L.omega1)
        assert abs(k - round(k.real)) < 1e-8


def test_exp_log_identity_fiber(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    R = exp_G(L.omega1 + 2 * L.omega2, 0.37 + 0.11j, q, L)
    assert R.base.is_identity
    assert R.fiber == pytest.approx(cmath.exp(0.37 + 0.11j))
    zb, tb = log_G(R, q, L)
    assert zb.value == 0j
    assert cmath.exp(tb.value) == pytest.approx(R.fiber)
    with pytest.raises(FiberZero):
        log_G(SemiAbelianPoint(EllipticPoint.identity(), 0j), q, L)


def test_exp_G_kernel_invariance(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    z = 0.21 * L.omega1 + 0.13 * L.omega2
    t = -0.4 + 0.9j
    R = exp_G(z, t, q, L)
    for gz, gt in kernel_generators(q, L):
        R2 = exp_G(z + gz, t + gt, q, L)
        assert R2.base.x == pytest.approx(R.base.x, rel=1e-8, abs=1e-8)
        assert R2.base.y == pytest.approx(R.base.y, rel=1e-8, abs=1e-8)
        assert R2.fiber == pytest.approx(R.fiber, rel=1e-8)


def test_fiber_zero_at_minus_q(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    with pytest.raises(FiberZero):
        exp_G(-q.primal(L), 0.0, q, L)


def test_exp_G_rejects_arguments_beyond_working_precision(generic_lattice):
    # reduced to a cell, 1e200 is the lattice point 0, whose image would
    # be the identity
    L = generic_lattice
    with pytest.raises(BeyondWorkingPrecision):
        exp_G(1e200, 0.5, _q_of(L), L)


def test_generalized_log_G(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    R = exp_G(z, 0.5, q, L)
    glog, tb = generalized_log_G(R, q, L)
    assert abs(glog.w - zeta_w(glog.z, L)) < 1e-10
    resid, _, _ = reduce_centered(glog.z - z, L)
    assert abs(resid) < 1e-8 * abs(L.omega1)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_period_matrix_A_determinant(L):
    """det of the period/quasi-period matrix is -2*pi*i (Legendre)."""
    m = period_matrix_A(L)
    qp = quasi_periods(L)
    assert m[0, 0] == L.omega1 and m[1, 0] == L.omega2
    assert m[0, 1] == qp.eta1 and m[1, 1] == qp.eta2
    assert abs(np.linalg.det(m) - (-TWO_PI_I)) < 1e-8


def test_period_matrix_G_shape(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    m = period_matrix_G(q, L)
    g1, g2 = quasi_quasi_periods(q, L)
    assert m.shape == (3, 3)
    assert m[0, 2] == g1 and m[1, 2] == g2
    assert m[2, 2] == TWO_PI_I
    assert m[2, 0] == 0 and m[2, 1] == 0


@pytest.mark.parametrize(
    "n, s, identity",
    [(1, 1, False), (2, 0, False), (1, 2, False), (2, 2, True)],
    ids=["n1-s1", "n2-s0", "n1-s2", "n2-s2-identity"],
)
def test_period_matrix_M_structure(generic_lattice, n, s, identity):
    L = generic_lattice
    qs = [_q_of(L), _q_of(L, 0.41 + 0.13j)][:s]
    zs = [0.18 * L.omega1 + 0.27 * L.omega2, 0.33 * L.omega1 + 0.12 * L.omega2][:n]
    points = [exp_G(z, 0.4, _q_of(L), L) for z in zs]
    if identity:
        points[-1] = SemiAbelianPoint(EllipticPoint.identity(), cmath.exp(0.7))
    m = period_matrix_M(points, qs, L)
    dim = n + 2 + s
    assert m.shape == (dim, dim)
    # Id_n, and nothing below it
    assert np.array_equal(m[:, :n], np.eye(dim, n))
    for i, R in enumerate(points):
        if R.base.is_identity:
            assert m[i, n] == 0 and m[i, n + 1] == 0
            for k in range(s):
                assert m[i, n + 2 + k] == pytest.approx(0.7)
            continue
        # generalized-log row
        resid, _, _ = reduce_centered(m[i, n] - zs[i], L)
        assert abs(resid) < 1e-8
        assert abs(m[i, n + 1] - zeta_w(m[i, n], L)) < 1e-10
        # each fiber entry exponentiates back to the fiber coordinate
        # divided by the factor-system value
        for k, q in enumerate(qs):
            assert cmath.exp(m[i, n + 2 + k]) * serre_fq(m[i, n], q, L) == (
                pytest.approx(R.fiber)
            )
    # the curve block, then the extension block
    assert np.array_equal(m[n : n + 2, n : n + 2], period_matrix_A(L))
    assert np.array_equal(m[n + 2 :, : n + 2], np.zeros((s, n + 2)))
    assert np.array_equal(m[n + 2 :, n + 2 :], TWO_PI_I * np.eye(s))
    for k, q in enumerate(qs):
        g1, g2 = quasi_quasi_periods(q, L)
        assert m[n, n + 2 + k] == g1 and m[n + 1, n + 2 + k] == g2


def test_period_matrices_A_and_G_are_blocks_of_M(generic_lattice):
    L = generic_lattice
    q = _q_of(L)
    R = exp_G(0.18 * L.omega1 + 0.27 * L.omega2, 0.4, q, L)
    m = period_matrix_M([R], [q], L)
    assert np.array_equal(period_matrix_G(q, L), m[1:, 1:])
    assert np.array_equal(period_matrix_A(L), m[1:3, 1:3])
