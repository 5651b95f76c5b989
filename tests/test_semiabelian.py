import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiabel import elliptic, lattice, periods
from semiabel.elliptic import (
    eisenstein_invariants,
    quasi_periods,
    sigma_w,
    weierstrass,
    wp,
    wp_prime,
    zeta_w,
)
from semiabel.errors import BeyondWorkingPrecision, FiberZero, PoleAtLatticePoint
from semiabel.lattice import (
    POLE_GUARD,
    Lattice,
    dual_to_primal,
    make_lattice,
    near_lattice,
    reduce_centered,
)
from semiabel.pairing import f_tilde, ratio_f_tilde
from semiabel.periods import (
    EllipticPoint,
    _branch_points,
    _rf_wp_prime,
    elliptic_log,
    generalized_elliptic_log,
)
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

from conftest import REBASINGS, lattices_for_sweep

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


@pytest.mark.parametrize(
    "z,q", ((0.37e6 + 0.21e6j, 20.7e6 + 0.3e6j), (-19.63e6 + 2.93e6j, 12.18e6 + 10.47e6j))
)
def test_serre_fq_that_leaves_the_double_range_raises(z, q):
    """On Z*1e6 + Z*1e6i f_q raises OverflowError, never returns inf or
    NaN.  At the first (z, q) sigma(z + q) overflows in the product with
    its quasi-periodicity factor.  At the second every sigma is finite
    (about 1e166, 1e274 and 1e181), but sigma(z + q) exp(-zeta(q) z) and
    sigma(z) sigma(q) both overflow, and their quotient was NaN."""
    L = make_lattice(1e6, 1e6j)
    with pytest.raises(OverflowError, match="leaves the double range"):
        serre_fq(z, q, L)


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


def _theta_arguments(monkeypatch):
    """The list that every later theta series appends its argument to."""
    bundle, args = elliptic.theta1_bundle, []

    def counted(v, weights):
        args.append(v)
        return bundle(v, weights)

    monkeypatch.setattr(elliptic, "theta1_bundle", counted)
    return args


def _reduction_arguments(monkeypatch):
    """The list that every later reduction appends its argument to."""
    reduce, args = reduce_centered, []

    def counted(z, L):
        args.append(z)
        return reduce(z, L)

    monkeypatch.setattr(lattice, "reduce_centered", counted)
    monkeypatch.setattr(elliptic, "reduce_centered", counted)
    return args


def _fresh(L, *counts):
    """A new Lattice with L's basis and its constants built (invariants,
    quasi-periods, branch points), so that no evaluation an earlier call
    left in L's memo serves the next one; the count lists are cleared."""
    F = Lattice(L.omega1, L.omega2)
    eisenstein_invariants(F)
    quasi_periods(F)
    _branch_points(F)
    for c in counts:
        c.clear()
    return F


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_one_theta_series_per_distinct_argument(L, monkeypatch):
    """exp_G and serre_fq need sigma, wp and zeta at z, q and z + q: one
    series each on a fresh lattice, and the pole and zero checks read the
    reduction each series is summed at.  ratio_f_tilde sums none: it reduces
    z, mu and z + mu for its pole checks only.  A repeat on the warmed
    lattice sums and reduces none."""
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    q = _q_of(L)
    zstar = (0.45 * L.omega1 - 0.18 * L.omega2) / L.covolume_factor()
    args, reductions = _theta_arguments(monkeypatch), _reduction_arguments(monkeypatch)
    for f, a, series in (
        (exp_G, (z, 0.1 - 0.2j, q), 3),
        (serre_fq, (z, q), 3),
        (ratio_f_tilde, (z, zstar), 0),
    ):
        F = _fresh(L, args, reductions)
        f(*a, F)
        assert len(args) == len(set(args)) == series, f.__name__
        assert len(reductions) == len(set(reductions)) == 3, f.__name__
        args.clear()
        reductions.clear()
        f(*a, F)
        assert args == reductions == [], f.__name__


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_log_G_reads_sigma_z_from_the_logarithm(L, monkeypatch):
    """On a fresh lattice, log_G and generalized_log_G sum the logarithm's
    own series and reductions plus one each at q and z + q: sigma(z) for
    f_q comes from the evaluation that checks the logarithm.  A repeat on
    the warmed lattice sums none."""
    inv = eisenstein_invariants(L)
    q = _q_of(L)
    R = exp_G(0.31 * L.omega1 + 0.22 * L.omega2, 0.1 - 0.2j, q, L)
    qp = q.primal(L)
    args, reductions = _theta_arguments(monkeypatch), _reduction_arguments(monkeypatch)
    z = generalized_elliptic_log(R.base, _fresh(L, args, reductions), inv).z
    own_args, own_reductions = list(args), list(reductions)
    for f in (log_G, generalized_log_G):
        F = _fresh(L, args, reductions)
        f(R, q, F, inv)
        assert args[:-2] == own_args and len(args) == len(own_args) + 2, f.__name__
        assert reductions == own_reductions + [qp, z + qp], f.__name__
        args.clear()
        reductions.clear()
        f(R, q, F, inv)
        assert args == reductions == [], f.__name__


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_period_matrix_M_reduces_each_point_once(L, monkeypatch):
    """With s = 2 parameters, period_matrix_M on a fresh lattice reduces
    each point's z only in its logarithm: beyond the logarithms' own
    reductions it reduces each q once, for its third-kind column, and
    z + q per fiber entry, and sums one series for each of those.  A
    repeat on the warmed lattice sums none."""
    qs = (_q_of(L), _q_of(L, 0.41 + 0.13j))
    qps = [q.primal(L) for q in qs]
    points = [
        exp_G(a * L.omega1 + b * L.omega2, 0.4, qs[0], L)
        for a, b in ((0.18, 0.27), (0.33, 0.12))
    ]
    args, reductions = _theta_arguments(monkeypatch), _reduction_arguments(monkeypatch)
    zs, own_args, own_reductions = [], 0, []
    for R in points:
        zs.append(generalized_elliptic_log(R.base, _fresh(L, args, reductions)).z)
        own_args += len(args)
        own_reductions += reductions
    F = _fresh(L, args, reductions)
    period_matrix_M(points, qs, F)
    extra = qps + [z + qp for z in zs for qp in qps]
    assert sorted(reductions, key=repr) == sorted(own_reductions + extra, key=repr)
    assert len(args) == own_args + len(extra)
    args.clear()
    reductions.clear()
    period_matrix_M(points, qs, F)
    assert args == reductions == []


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_elliptic_log_starts_newton_from_the_sign_test(L, monkeypatch):
    """The sign of R_F's z is read from _rf_wp_prime before any series, and
    Newton runs at the principal argument, so the one series at the start
    is both its step and its check.  The points (x, y) and (x, -y), each
    on a fresh lattice, sum one series each and get logarithms that are
    negatives of each other mod Lambda, their series summed at negatives
    of each other; a repeat on the warmed lattice sums none."""
    inv = eisenstein_invariants(L)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    p, dp, _ = weierstrass(z, L)
    args = _theta_arguments(monkeypatch)
    runs = []
    for y in (dp, -dp):
        F = _fresh(L, args)
        value = elliptic_log(EllipticPoint(p, y), F, inv).value
        runs.append((list(args), value))
        args.clear()
        assert elliptic_log(EllipticPoint(p, y), F, inv).value == value
        assert args == []
    (args_y, z_y), (args_minus_y, z_minus_y) = runs
    assert len(args_y) == len(args_minus_y) == 1
    assert abs(args_y[0] + args_minus_y[0]) < 1e-12
    resid, _, _ = reduce_centered(z_y + z_minus_y, L)
    assert abs(resid) < 1e-12 * abs(L.omega1)
    assert wp_prime(z_y, L) == pytest.approx(dp, rel=1e-9)
    assert wp_prime(z_minus_y, L) == pytest.approx(-dp, rel=1e-9)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_elliptic_log_falls_back_to_minus_z_on_a_wrong_sign(L, monkeypatch):
    """With the predicted sign of wp' at R_F's z turned over, the series
    at the start disagrees with y, and the logarithm falls back to the
    reduced -z: it sums exactly one series more than with the right sign,
    raises nothing, and returns the same logarithm."""
    inv = eisenstein_invariants(L)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    p, dp, _ = weierstrass(z, L)
    args = _theta_arguments(monkeypatch)
    for y in (dp, -dp):
        F = _fresh(L, args)
        right = generalized_elliptic_log(EllipticPoint(p, y), F, inv)
        series = len(args)
        monkeypatch.setattr(periods, "_rf_wp_prime", lambda *d: -_rf_wp_prime(*d))
        F = _fresh(L, args)
        wrong = generalized_elliptic_log(EllipticPoint(p, y), F, inv)
        monkeypatch.setattr(periods, "_rf_wp_prime", _rf_wp_prime)
        assert len(args) == series + 1
        assert abs(reduce_centered(wrong.z - right.z, L)[0]) < 1e-12 * abs(L.omega1)
        assert wrong.w == pytest.approx(right.w, rel=1e-9)
        assert wp_prime(wrong.z, L) == pytest.approx(y, rel=1e-9)


def _turned_rectangles():
    """Bases (w1, w2) of rectangles with sides in [0.2, 2] drawn from
    random.Random(0), each turned by 1, i, -1 and -i."""
    rng = random.Random(0)
    while True:
        a, b = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
        for turn in (1, 1j, -1, -1j):
            yield turn * a, turn * b * 1j


def test_elliptic_log_ignores_the_sign_of_a_zero_part():
    """x with a +0.0 and with a -0.0 imaginary part gives the same z,
    zeta(z) and number of series summed.  Read as given, a -0.0 part put
    some x - e_j on the other side of sqrt's cut from the one R_F's ray
    reads: R_F started from another rounding of z, and on Z(-0.5) +
    Z(-0.25i) at P = (wp, wp')(-0.00625i) _rf_wp_prime predicted the wrong
    sign of wp', so that the logarithm summed one series more; that z is
    -0.00625i to 1e-17 mod Lambda.  The other inputs are the real locus
    of 24 turned rectangles: wp and wp' at t w1, t w2, w1/2 + t w2 and
    w2/2 + t w1 for t = k/18, k = 1..17, k != 9."""
    cases = [(make_lattice(-0.5, -0.25j), -25600.065057274758, 8191979.161325738j)]
    for w1, w2 in itertools.islice(_turned_rectangles(), 24):
        L = make_lattice(w1, w2)
        for t in (k / 18 for k in range(1, 18) if k != 9):
            for z in (t * w1, t * w2, w1 / 2 + t * w2, w2 / 2 + t * w1):
                p, dp, _ = weierstrass(z, L)
                cases.append((L, p.real, dp))
    for L, x, y in cases:
        got = []
        for x_imag in (0.0, -0.0):
            F = _fresh(L)
            g = generalized_elliptic_log(EllipticPoint(complex(x, x_imag), y), F)
            memo = F._cache["elliptic"][6]
            got.append((g.z, g.w, sum(entry[3] is not None for entry in memo.values())))
        assert got[0] == got[1], (L.omega1, L.omega2, x, y)
    L, x, y = cases[0]
    z = generalized_elliptic_log(EllipticPoint(complex(x, -0.0), y), L).z
    assert abs(reduce_centered(z + 0.00625j, L)[0]) < 1e-17


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_elliptic_eval_op_sums_five_theta_series(L, monkeypatch):
    """One elliptic-eval op on a fresh lattice (wp, wp', zeta and sigma at
    z, then exp_G, log_G and ratio_f_tilde) sums 5 series, none twice: z,
    q, z + q, the logarithm's one series at its principal start, which is
    its check, and that z + q; ratio_f_tilde sums none."""
    z = 0.31 * L.omega1 + 1.22 * L.omega2
    q = _q_of(L)
    zstar = (0.45 * L.omega1 - 0.18 * L.omega2) / L.covolume_factor()
    args = _theta_arguments(monkeypatch)
    F = _fresh(L, args)
    for f in (wp, wp_prime, zeta_w, sigma_w):
        f(z, F)
    R = exp_G(z, 0.1 - 0.2j, q, F)
    log_G(R, q, F)
    ratio_f_tilde(z, zstar, F)
    assert len(args) == len(set(args)) == 5


class _CountingMemo(dict):
    """A memo that counts its entry reads (_entry reads each with get)."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def _counting_memo(F):
    """Put a counting copy of F's memo in place of the memo; return it."""
    constants = elliptic._reduced(F)
    memo = _CountingMemo(constants[6])
    F._cache["elliptic"] = (*constants[:6], memo)
    return memo


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_each_argument_entry_is_read_once(L):
    """On a fresh lattice every internal caller reads each argument's
    memo entry once: serre_fq, exp_G and ratio_f_tilde read three (q, z
    and z + q; z, mu and z + mu), quasi_quasi_periods reads q's, and each
    one-point function reads its argument's.  The elliptic-eval op of
    test_elliptic_eval_op_sums_five_theta_series reads at most 16."""
    z = 0.31 * L.omega1 + 1.22 * L.omega2
    q = _q_of(L)
    zstar = (0.45 * L.omega1 - 0.18 * L.omega2) / L.covolume_factor()
    calls = [(f, (z,), 1) for f in (wp, wp_prime, zeta_w, sigma_w, weierstrass)]
    calls += [
        (serre_fq, (z, q), 3),
        (exp_G, (z, 0.1 - 0.2j, q), 3),
        (ratio_f_tilde, (z, zstar), 3),
        (quasi_quasi_periods, (q,), 1),
    ]
    for f, a, reads in calls:
        F = _fresh(L)
        memo = _counting_memo(F)
        f(*a, F)
        assert memo.reads == reads, f.__name__
    F = _fresh(L)
    memo = _counting_memo(F)
    for f in (wp, wp_prime, zeta_w, sigma_w):
        f(z, F)
    R = exp_G(z, 0.1 - 0.2j, q, F)
    log_G(R, q, F)
    ratio_f_tilde(z, zstar, F)
    assert memo.reads <= 16


def test_an_entry_in_hand_outlives_its_eviction(monkeypatch):
    """serre_fq holds q's entry from its pole check on: with q's entry the
    oldest of a full memo, z's new entry pushes it out, and serre_fq still
    sums series only at z and z + q, for the value a fresh lattice gives."""
    L = make_lattice(1.3 + 0.2j, 0.4 + 1.7j)
    q = _q_of(L)
    quasi_quasi_periods(q, L)
    for k in range(elliptic.MEMO_SIZE - 1):
        wp(complex(0.1 + 0.01 * k, 0.2), L)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    args = _theta_arguments(monkeypatch)
    value = serre_fq(z, q, L)
    assert len(args) == 2
    assert repr(value) == repr(serre_fq(z, q, Lattice(L.omega1, L.omega2)))


# pool of arguments a1*omega1 + a2*omega2 for the memo's transparency
# property: cell points, a half-period, a far translate, a lattice point,
# and a negative (so that z + q can land on Lambda)
_POOL = (0.31 + 0.22j, -0.27 + 0.41j, 0.5 + 0j, 2.31 - 0.78j, 1 - 2j, -0.31 - 0.22j)
_AT_ONE_POINT = {f.__name__: f for f in (wp, wp_prime, zeta_w, sigma_w, weierstrass)}
_CALLS = (*_AT_ONE_POINT, "exp_G", "log_G", "serre_fq", "ratio_f_tilde", "elliptic_log")


def _public_call(name, i, j, base, L):
    """repr of the public call name at pool points i, j on L, or of its
    exception; base is a lattice with L's basis that builds the inputs."""
    u, w = (_POOL[k].real * base.omega1 + _POOL[k].imag * base.omega2 for k in (i, j))
    q = ExtensionParam.from_primal(w, base)
    try:
        if name in _AT_ONE_POINT:
            return repr(_AT_ONE_POINT[name](u, L))
        if name == "exp_G":
            return repr(exp_G(u, 0.1 - 0.2j, q, L))
        if name == "serre_fq":
            return repr(serre_fq(u, q, L))
        if name == "ratio_f_tilde":
            return repr(ratio_f_tilde(u, w / base.covolume_factor(), L))
        R = exp_G(u, 0.1 - 0.2j, q, base)
        return repr(log_G(R, q, L) if name == "log_G" else elliptic_log(R.base, L))
    except (PoleAtLatticePoint, FiberZero) as exc:
        return repr(exc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    k=st.integers(0, 4),
    calls=st.lists(
        st.tuples(st.sampled_from(_CALLS), st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=12,
    ),
)
def test_memo_is_transparent(k, calls):
    """A sequence of public calls on one lattice gives, call by call, the
    repr that the same call gives on a fresh lattice with the basis."""
    base = lattices_for_sweep()[k]
    shared = Lattice(base.omega1, base.omega2)
    for name, i, j in calls:
        fresh = Lattice(base.omega1, base.omega2)
        assert _public_call(name, i, j, base, shared) == _public_call(
            name, i, j, base, fresh
        ), (name, i, j)


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_answers_from_pole_and_zero_checks_sum_no_theta_series(L, monkeypatch):
    """z on Lambda maps to the identity, z = -q gives f_q = 0, and a pole
    raises, each from the arguments' reductions alone."""
    eisenstein_invariants(L)
    q = _q_of(L)
    z = 0.31 * L.omega1 + 0.22 * L.omega2
    args = _theta_arguments(monkeypatch)
    assert exp_G(L.omega1, 0.3j, q, L).base.is_identity
    assert serre_fq(-q.primal(L) + L.omega2, q, L) == 0
    for f, a in (
        (serre_fq, (z, L.omega1, L)),
        (serre_fq, (L.omega2, q, L)),
        (ratio_f_tilde, (z, -z / L.covolume_factor(), L)),
        (quasi_quasi_periods, (L.omega1, L)),
    ):
        with pytest.raises(PoleAtLatticePoint):
            f(*a)
    assert args == []


@pytest.mark.parametrize(
    "z,t",
    (
        (1e-4, 709),  # e^t finite, e^t f_q(z) overflows to inf
        (0.3 + 0.2j, 800),  # e^t overflows
        (0.3 + 0.2j, -800),  # e^t underflows to 0
        (1.0, 800),  # at O, e^t overflows
        (1.0, -800),  # at O, e^t underflows to 0
    ),
)
def test_exp_G_refuses_a_fiber_it_cannot_represent(z, t):
    """On Z + Z*i, a fiber that overflows, is not finite or is 0 is not a
    point of G."""
    with pytest.raises(BeyondWorkingPrecision, match="fiber"):
        exp_G(z, t, 0.31 + 0.17j, make_lattice(1.0, 1j))


def _thin_rebasings():
    """The long, thin bases (13, 8; 8, 5) and (21, 13; 13, 8) of the
    non-CM table lattice."""
    nc = make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))
    return [
        make_lattice(a * nc.omega1 + b * nc.omega2, c * nc.omega1 + d * nc.omega2)
        for a, b, c, d in ((13, 8, 8, 5), (21, 13, 13, 8))
    ]


@pytest.mark.parametrize("matrix", REBASINGS + ((13, 8, 8, 5), (21, 13, 13, 8)), ids=str)
def test_pole_guard_does_not_depend_on_the_basis(matrix):
    """On another basis of the non-CM table lattice Z + Z*tau, the six
    rebasings and the two long, thin ones, exp_G and wp put a small z on
    Lambda exactly when they do on (1, tau): the guard scales with the
    shortest period, not with the first basis vector."""
    base = make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))
    a, b, c, d = matrix
    L = make_lattice(a * base.omega1 + b * base.omega2, c * base.omega1 + d * base.omega2)

    def on_lattice(z, L):
        identity = exp_G(z, 0.1, 0.27 + 0.31j, L).base.is_identity
        try:
            wp(z, L)
            raised = False
        except PoleAtLatticePoint:
            raised = True
        assert raised == identity
        return identity

    # the guard is 1e-10 on (1, tau); |a + b*tau| reaches 31.9 above
    for z in (1e-9, 3e-10, 5e-11):
        assert on_lattice(z, L) == on_lattice(z, base), z


@pytest.mark.parametrize("L", lattices_for_sweep() + _thin_rebasings())
def test_pole_checks_agree_with_near_lattice(L):
    """At lambda + eps with |eps| half and twice the pole guard, each pole
    or zero check triggers exactly where the reference near_lattice puts
    the argument on Lambda."""
    guard = POLE_GUARD * abs(L.reduced_basis()[0])
    q = _q_of(L)
    qp = q.primal(L)
    w = 0.45 * L.omega1 - 0.18 * L.omega2
    cov = L.covolume_factor()
    seen = set()
    # lattice points near 0: sigma overflows at far translates (ROADMAP item 8)
    w1, w2, _ = L.reduced_basis()
    for lam in (0j, w1, w2, w1 - 3 * w2, -2 * w1 + w2):
        for k in (0.5, 2.0):
            for angle in (0.0, 0.3, 1.9, 4.0):
                u = lam + k * guard * cmath.exp(1j * angle)
                qu = ExtensionParam.from_primal(u, L)
                on = near_lattice(u, L)
                seen.add((k, on))
                assert exp_G(u, 0.3j, q, L).base.is_identity == on
                for f, a, reference in (
                    (serre_fq, (u, q, L), u),
                    (f_tilde, (u, w, L), u),
                    (f_tilde, (w, u, L), u),
                    (ratio_f_tilde, (u, w / cov, L), u),
                    (ratio_f_tilde, (w, u / cov, L), dual_to_primal(u / cov, L)),
                    (quasi_quasi_periods, (qu, L), qu.primal(L)),
                ):
                    try:
                        f(*a)
                        raised = False
                    except PoleAtLatticePoint:
                        raised = True
                    assert raised == near_lattice(reference, L), (f.__name__, lam, k)
                z = -qp + u
                assert (serre_fq(z, q, L) == 0) == near_lattice(z + qp, L)
    assert seen == {(0.5, True), (2.0, False)}


@pytest.mark.parametrize("name", ("square_lattice", "hexagonal_lattice", "noncm_lattice"))
def test_exp_G_is_its_base_point_and_serre_fq_bit_for_bit(name, request):
    L = request.getfixturevalue(name)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a, b, c, d = rng.uniform(-1.4, 1.4, size=4)
        z = a * L.omega1 + b * L.omega2
        q = ExtensionParam.from_primal(c * L.omega1 + d * L.omega2, L)
        t = complex(rng.normal(), rng.normal())
        assert exp_G(z, t, q, L) == SemiAbelianPoint(
            EllipticPoint(*weierstrass(z, L)[:2]), cmath.exp(t) * serre_fq(z, q, L)
        )


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


@pytest.mark.parametrize("z", (1.0, 0j, 1j, 2.0 - 3j, 0.3 + 0.2j))
def test_exp_G_refuses_an_extension_parameter_on_lattice_at_every_z(z):
    """q on Lambda is refused whatever z is, z on Lambda included: the
    identity branch does not return before q is read."""
    L = make_lattice(1.0, 1j)
    for q in (1j, ExtensionParam.from_primal(1.0 + 1j, L)):
        with pytest.raises(PoleAtLatticePoint, match="extension parameter"):
            exp_G(z, 0.2, q, L)


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


@pytest.mark.parametrize("L", lattices_for_sweep())
def test_log_G_at_base_minus_q_raises_fiber_zero(L):
    """f_q vanishes at -Q, so no fiber logarithm exists there: log_G,
    generalized_log_G and period_matrix_M raise FiberZero, as exp_G does,
    rather than take the log of 0."""
    q = _q_of(L)
    p, dp, _ = weierstrass(-q.primal(L), L)
    R = SemiAbelianPoint(EllipticPoint(p, dp), 2.0)
    for call in (log_G, generalized_log_G):
        with pytest.raises(FiberZero, match="-Q"):
            call(R, q, L)
    with pytest.raises(FiberZero, match="-Q"):
        period_matrix_M((R,), (q,), L)


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
