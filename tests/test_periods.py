import cmath
import json
import math
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from semiabel._kernels import carlson_rf
from semiabel.elliptic import eisenstein_invariants, wp, wp_prime, zeta_w
from semiabel.errors import (
    BeyondWorkingPrecision,
    ConvergenceFailure,
    NotOnCurve,
    SemiabelError,
    SingularCurve,
)
from semiabel.lattice import Lattice, make_lattice, reduce_centered
from semiabel.periods import (
    CurveInvariants,
    EllipticPoint,
    check_on_curve,
    elliptic_log,
    generalized_elliptic_log,
    periods_from_invariants,
)

from conftest import CM_J, CM_TWISTS, VARPI, cm_twist, lattices_for_sweep

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
    with pytest.raises(SingularCurve):
        periods_from_invariants(CurveInvariants(0.0, 0.0))


def test_a_discriminant_within_its_rounding_of_zero_is_singular():
    """(3t^2, t^3) rounded to doubles: the discriminant computed from them
    is within its rounding bound of 0 for every seeded t."""
    rng = random.Random(41)
    for _ in range(300):
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10 ** rng.uniform(-5, 5)
        with pytest.raises(SingularCurve):
            periods_from_invariants(CurveInvariants(3 * t * t, t**3))


def test_a_smooth_curve_below_the_discriminant_tolerance_is_beyond_working_precision():
    """Rational twists of the D = -163 curve have relative discriminant
    1728/|j| ~ 6.6e-15: below DISCRIMINANT_TOL, so the periods are not fixed
    to working precision, but far above the rounding of g2^3 - 27 g3^2, so
    the curve is not singular."""
    for u in CM_TWISTS:
        with pytest.raises(BeyondWorkingPrecision, match=r"relative discriminant 6\.\d+e-15"):
            periods_from_invariants(cm_twist(CM_J[-163], u))


def test_overflowing_discriminant_is_beyond_working_precision():
    """g2^3 overflows at g2 = 1e110."""
    with pytest.raises(BeyondWorkingPrecision):
        periods_from_invariants(CurveInvariants(1e110, 0.0))


@pytest.mark.parametrize("lam", (20.0, 1e3))
def test_periods_of_a_rescaled_square_lattice(lam):
    """The singularity test is homogeneous in (g2, g3): small invariants
    of a large lattice are not read as a zero discriminant."""
    L = make_lattice(lam * VARPI, lam * VARPI * 1j)
    assert _same_lattice(L, periods_from_invariants(eisenstein_invariants(L)))


def test_defect_inside_a_root_ordering_propagates(monkeypatch):
    """A programming error is a crash, not a root ordering that failed
    (which the CLI would report as bad input)."""
    import semiabel.periods as periods

    def broken(L):
        raise TypeError("defect")

    monkeypatch.setattr(periods, "eisenstein_invariants", broken)
    with pytest.raises(TypeError, match="defect"):
        periods_from_invariants(CurveInvariants(4.0, 0.0))


def _reference_periods_from_invariants(c):
    """periods_from_invariants as it was before six RF values served the
    six root orderings, frozen as the reference: twelve RF calls,
    an Eisenstein check of every ordering's lattice, and an ordering whose
    RF, lattice or check raises is skipped.  It reads carlson_rf and
    eisenstein_invariants from the module at call time, so a test's patch
    reaches both versions, and make_lattice from semiabel.lattice, since
    periods builds its candidates outside make_lattice's table."""
    import semiabel.lattice as lattice
    import semiabel.periods as periods

    g2, g3 = complex(c.g2), complex(c.g3)
    try:
        disc = complex(c.discriminant())
    except OverflowError:
        disc = complex(math.inf)
    if not cmath.isfinite(disc):
        raise BeyondWorkingPrecision(
            f"the discriminant of g2 = {c.g2}, g3 = {c.g3} is beyond working precision"
        )
    if abs(disc) <= periods.DISCRIMINANT_TOL * max(abs(g2) ** 3, abs(g3) ** 2):
        raise SingularCurve(f"discriminant {disc}")
    scale = max(abs(g2), abs(g3), 1.0)
    candidates = []
    for e1, e2, e3 in permutations(periods._cubic_roots(g2, g3)):
        try:
            w1 = 2.0 * periods.carlson_rf(0j, e1 - e2, e1 - e3)
            w2 = 2.0 * periods.carlson_rf(0j, e3 - e1, e3 - e2)
            L = lattice.make_lattice(w1, w2)
            inv = periods.eisenstein_invariants(L)
        except (SemiabelError, ArithmeticError):
            continue
        if abs(inv.g2 - g2) + abs(inv.g3 - g3) <= 1e-6 * scale:
            candidates.append(L)
    if not candidates:
        raise ConvergenceFailure("no root ordering reproduced the invariants")
    candidates = periods._shortest(candidates, lambda L: L.omega1)
    return periods._shortest(candidates, lambda L: L.omega2)[0]


def _sweep_curves(n, seed):
    """n seeded curves (g2, g3), a fifth from each family: independent
    scales of g2 and g3 in 1e-30 ... 1e30; a unit-sized curve at
    homogeneous scale s in 1e-40 ... 1e40 (g2 s^2, g3 s^3); near-singular,
    with relative discriminant down to 1e-11.5; real; and g2 = 0 or
    g3 = 0."""
    rng = random.Random(seed)

    def unit():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    for i in range(n):
        family = i % 5
        if family == 0:
            yield unit() * 10 ** rng.uniform(-30, 30), unit() * 10 ** rng.uniform(-30, 30)
        elif family == 1:
            s = 10 ** rng.uniform(-40, 40)
            yield unit() * s * s, unit() * s**3
        elif family == 2:
            # g2 = 3t^2, g3 = t^3 is singular; the relative discriminant is
            # about 2|eps|
            t = unit() * 10 ** rng.uniform(-5, 5)
            eps = cmath.exp(2j * math.pi * rng.random()) * 10 ** rng.uniform(-11.5, -1) / 2
            yield 3 * t * t, t**3 * (1 + eps)
        elif family == 3:
            yield complex(rng.uniform(-5, 5)), complex(rng.uniform(-5, 5))
        else:
            g = unit() * 10 ** rng.uniform(-10, 10)
            yield (0j, g) if rng.random() < 0.5 else (g, 0j)


def _basis_or_error(f, g2, g3):
    """The repr of f's basis for (g2, g3), bit for bit, or the type of the
    error f raises."""
    try:
        L = f(CurveInvariants(g2, g3))
    except (SemiabelError, ArithmeticError) as exc:
        return type(exc)
    return repr((L.omega1, L.omega2))


def test_basis_matches_the_reference_version_bit_for_bit():
    """On 2 000 seeded curves from five families (_sweep_curves) the
    returned omega1 and omega2 are the frozen reference version's, bit
    for bit, or both raise the same type.  A run over 20 000 curves
    (seeds 0 ... 9) found no difference either."""
    outcomes = {}
    for g2, g3 in _sweep_curves(2000, 38):
        got = _basis_or_error(periods_from_invariants, g2, g3)
        assert got == _basis_or_error(_reference_periods_from_invariants, g2, g3), (g2, g3)
        kind = "basis" if isinstance(got, str) else got.__name__
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # most curves have a basis; some with g2 and g3 at independent scales
    # have no candidate that reproduces both, in either version
    assert outcomes["basis"] >= 1800 and outcomes.get("ConvergenceFailure", 0) > 0, outcomes


GOLDEN_EVAL_CURVE = CurveInvariants(1.7 + 0.3j, -0.4 + 0.9j)


def test_a_conversion_keeps_the_lattices_built_before_it():
    """The six candidate bases are built outside make_lattice's table, so
    converting invariants evicts no lattice a caller made."""
    L = make_lattice(1, 1j)
    periods_from_invariants(GOLDEN_EVAL_CURVE)
    assert make_lattice(1, 1j) is L


def test_work_per_call_is_six_rf_values_and_one_check(monkeypatch):
    """One call on the golden eval curve makes 6 carlson_rf calls and
    sums one E4/E6 series, for the pick alone (12 and 6 when every root
    ordering had its own RF pair and check)."""
    import semiabel.elliptic as elliptic
    import semiabel.periods as periods

    counts = {"rf": 0, "e4e6": 0}

    def counted(name, f):
        def g(*args):
            counts[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(periods, "carlson_rf", counted("rf", periods.carlson_rf))
    monkeypatch.setattr(
        elliptic, "eisenstein_e4_e6", counted("e4e6", elliptic.eisenstein_e4_e6)
    )
    periods_from_invariants(GOLDEN_EVAL_CURVE)
    assert counts == {"rf": 6, "e4e6": 1}


def _rf_raising_at(monkeypatch, bad):
    """Patch periods.carlson_rf to raise ConvergenceFailure at its calls
    numbered in bad (from 0)."""
    import semiabel.periods as periods

    calls = []

    def rf(x, y, z):
        calls.append(None)
        if len(calls) - 1 in bad:
            raise ConvergenceFailure("RF did not converge")
        return carlson_rf(x, y, z)

    monkeypatch.setattr(periods, "carlson_rf", rf)
    return calls


@pytest.mark.parametrize("bad", range(6))
def test_an_rf_value_that_raises_propagates(monkeypatch, bad):
    """Each of the six RF values serves two root orderings, and a basis
    chosen among the orderings that succeed could turn omega1 by a quarter
    turn; so RF's ConvergenceFailure at any one of them propagates."""
    calls = _rf_raising_at(monkeypatch, {bad})
    with pytest.raises(ConvergenceFailure, match="RF did not converge"):
        periods_from_invariants(CurveInvariants(4.0, 0.0))
    assert len(calls) == bad + 1


def test_rf_raising_for_every_root_ordering_is_a_convergence_failure(monkeypatch):
    """RF's own error, from its first call, not the check's "no root
    ordering reproduced the invariants"."""
    calls = _rf_raising_at(monkeypatch, set(range(6)))
    with pytest.raises(ConvergenceFailure, match="RF did not converge"):
        periods_from_invariants(CurveInvariants(4.0, 0.0))
    assert len(calls) == 1


def _misreporting(monkeypatch, refused):
    """Patch periods.eisenstein_invariants to report (g2 + 1, g3) for a
    lattice whose basis is in refused, or for every lattice when refused
    is None; return the bases it was asked about."""
    import semiabel.periods as periods

    true_invariants, asked = periods.eisenstein_invariants, []

    def invariants(L):
        asked.append((L.omega1, L.omega2))
        inv = true_invariants(L)
        if refused is None or (L.omega1, L.omega2) in refused:
            return CurveInvariants(inv.g2 + 1, inv.g3)
        return inv

    monkeypatch.setattr(periods, "eisenstein_invariants", invariants)
    return asked


@pytest.mark.parametrize("g2,g3", ((4.0, 0.0), (1.7 + 0.3j, -0.4 + 0.9j), (0.0, 1 + 1j)))
def test_a_pick_that_misreports_gives_way_to_the_next(monkeypatch, g2, g3):
    """Where the first pick does not reproduce the invariants, the next
    pick is returned: the basis the frozen reference version returns, which
    checked every ordering, under the same patch.  Two checks are made,
    of the first pick and of the next."""
    inv = CurveInvariants(g2, g3)
    first = periods_from_invariants(inv)
    asked = _misreporting(monkeypatch, {(first.omega1, first.omega2)})
    L = periods_from_invariants(inv)
    assert asked[0] == (first.omega1, first.omega2) and len(asked) == 2
    assert (L.omega1, L.omega2) != (first.omega1, first.omega2)
    ref = _reference_periods_from_invariants(inv)
    assert repr((L.omega1, L.omega2)) == repr((ref.omega1, ref.omega2))
    assert _same_lattice(L, first)


def test_no_pick_reproducing_the_invariants_is_a_convergence_failure(monkeypatch):
    """Every pick misreports: all six candidates are checked, then
    ConvergenceFailure."""
    asked = _misreporting(monkeypatch, None)
    with pytest.raises(ConvergenceFailure, match="no root ordering"):
        periods_from_invariants(GOLDEN_EVAL_CURVE)
    assert len(asked) == 6


def _cubic_cases():
    """(g2, g3) real and complex at scales 1e-30 ... 1e30 each, and with
    g2 = 0 or g3 = 0."""
    rng = random.Random(27)
    for _ in range(100):
        s2, s3 = 10 ** rng.uniform(-30, 30), 10 ** rng.uniform(-30, 30)
        g2 = complex(rng.uniform(-1, 1), rng.choice((0.0, rng.uniform(-1, 1)))) * s2
        g3 = complex(rng.uniform(-1, 1), rng.choice((0.0, rng.uniform(-1, 1)))) * s3
        yield g2, g3
        yield 0j, g3
        yield g2, 0j


def test_cubic_roots_match_mpmath():
    """Each root of 4t^3 - g2 t - g3 agrees with mpmath.polyroots at 30
    digits to 1e-14 of the roots' scale max(|g2|^(1/2), |g3|^(1/3))."""
    import semiabel.periods as periods

    for g2, g3 in _cubic_cases():
        # the roots are scale times those of 4x^3 - (g2/scale^2) x - g3/scale^3
        scale = max(abs(g2) ** 0.5, abs(g3) ** (1 / 3))
        s = mpmath.mpf(scale)
        unit = mpmath.polyroots([4, 0, -mpmath.mpc(g2) / s**2, -mpmath.mpc(g3) / s**3])
        ref = [complex(s * r) for r in unit]
        got = periods._cubic_roots(g2, g3)
        err = min(max(abs(r - t) for r, t in zip(ref, order)) for order in permutations(got))
        assert err <= 1e-14 * scale, (g2, g3, got, ref)


def test_basis_does_not_depend_on_root_order(monkeypatch):
    """All six orders of the cubic's roots give one basis: seeded real and
    complex curves, and the discriminant -4 and -3 curves (g3 = 0, g2 = 0)."""
    import semiabel.periods as periods

    rng = random.Random(5)
    curves = [(4.0, 0.0), (0.0, 4.0), (0.0, -1.0), (2.5j, 0.0), (0.0, 1 + 1j)]
    curves += [(rng.uniform(0.5, 5.0), rng.uniform(-1.0, 1.0)) for _ in range(10)]
    curves += [(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(30)]
    cubic_roots = periods._cubic_roots
    for g2, g3 in curves:
        bases = []
        for order in permutations(cubic_roots(g2, g3)):
            monkeypatch.setattr(periods, "_cubic_roots", lambda a, b, order=order: order)
            L = periods_from_invariants(CurveInvariants(g2, g3))
            bases.append((L.omega1, L.omega2))
        w1, w2 = bases[0]
        for v1, v2 in bases:
            assert max(abs(v1 - w1), abs(v2 - w2)) <= 1e-12 * abs(w1), (g2, g3, bases)


def test_check_on_curve():
    inv = CurveInvariants(4.0, 0.0)
    check_on_curve(EllipticPoint(1.0, 0.0), inv)
    check_on_curve(EllipticPoint.identity(), inv)
    with pytest.raises(NotOnCurve):
        check_on_curve(EllipticPoint(1.0, 1.0), inv)


def test_check_on_curve_refuses_overflowing_terms():
    """4x^3 overflows at x = 1e110: the point is beyond working precision,
    and the refusal names it.  y^2 overflows to inf at y = 1e160, which
    compared inf with inf and passed as a point of the curve."""
    inv = eisenstein_invariants(make_lattice(1, 1j))
    with pytest.raises(BeyondWorkingPrecision, match=r"1e\+110, 1e\+165"):
        check_on_curve(EllipticPoint(1e110, 1e165), inv)
    with pytest.raises(BeyondWorkingPrecision):
        check_on_curve(EllipticPoint(1e100, 1e160), inv)


def _scaled_lattices():
    """Z + Z*i, the hexagonal lattice and Z + (0.31 + 1.23i)Z at every
    decade 1e-8 ... 1e8."""
    for w1, w2 in ((1.0, 1j), (1.0, cmath.exp(1j * math.pi / 3)), (1.0, 0.31 + 1.23j)):
        for e in range(-8, 9):
            yield make_lattice(10.0**e * w1, 10.0**e * w2)


def test_check_on_curve_rejects_a_wrong_y_at_every_scale():
    """The tolerance is relative to weight-6 sizes only, so a point off
    the curve is refused on a large lattice too."""
    for L in _scaled_lattices():
        inv = eisenstein_invariants(L)
        for u1, u2 in ((0.37, 0.21), (0.13, 0.44)):
            z = u1 * L.omega1 + u2 * L.omega2
            x, y = wp(z, L), wp_prime(z, L)
            check_on_curve(EllipticPoint(x, y), inv)
            for f in (2.0, 1 + 1e-6):
                with pytest.raises(NotOnCurve):
                    check_on_curve(EllipticPoint(x, f * y), inv)


def test_check_on_curve_accepts_the_half_periods_at_every_scale():
    """On a small lattice x, y and g3 of a 2-division point are round-off
    sized against the curve's |g2|^(3/2); the point is still on the curve."""
    for L in _scaled_lattices():
        inv = eisenstein_invariants(L)
        for h in (L.omega1 / 2, L.omega2 / 2, (L.omega1 + L.omega2) / 2):
            check_on_curve(EllipticPoint(wp(h, L), wp_prime(h, L)), inv)


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


def test_elliptic_log_accuracy_over_seeded_scaled_lattices():
    """The logarithm's accuracy, |elliptic_log(wp(z), wp'(z)) - z| mod Lambda
    over |omega1|, on 120 seeded lattices Z + tau Z (|Re tau| <= 1/2,
    0.9 <= Im tau <= 3) scaled by 10^U(-6, 6) and turned by a random
    phase, at 20 cell points each whose coordinates keep 0.02 from 0, 1/2
    and 1: p50 <= 1.5e-15, p99 <= 1.5e-13, max <= 5e-13 (measured 8.7e-16,
    5.0e-14 and 2.2e-13).  This pins accuracy, not Newton's stop constant:
    a stop at 1e-12 |omega1| in place of 1e-14 still passes (1.4e-15,
    5.8e-14, 2.2e-13)."""
    rng = random.Random(35)

    def coordinate():
        return 0.02 + 0.5 * rng.randrange(2) + 0.46 * rng.random()

    errors = []
    for _ in range(120):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3))
        s = 10 ** rng.uniform(-6, 6) * cmath.exp(2j * math.pi * rng.random())
        L = make_lattice(s, s * tau)
        for _ in range(20):
            z = coordinate() * L.omega1 + coordinate() * L.omega2
            P = EllipticPoint(wp(z, L), wp_prime(z, L))
            resid, _, _ = reduce_centered(elliptic_log(P, L).value - z, L)
            errors.append(abs(resid) / abs(L.omega1))
    errors.sort()
    assert len(errors) == 2400
    assert errors[1200] <= 1.5e-15
    assert errors[int(0.99 * 2400)] <= 1.5e-13
    assert errors[-1] <= 5e-13


def test_branch_points_are_lattice_constants(monkeypatch, tmp_path):
    """elliptic_log reads its branch points wp(h_j) at the half-periods of
    the lattice: it never solves a cubic, it evaluates them once per
    basis given to make_lattice, and once for a Lattice built directly,
    whatever invariants object comes with the point.  No
    CLI task loads numpy, on a lattice-given or an invariant-given curve:
    only period_matrix_M does.  Nor does any load dataclasses or inspect:
    the result types are plain value classes.  Only the verify task loads
    semiabel.verify."""
    import semiabel.periods as periods

    def refused(g2, g3):
        raise AssertionError("elliptic_log solved a cubic")

    wp_of_half_periods, calls = periods.wp, []

    def counted(z, L):
        calls.append(z)
        return wp_of_half_periods(z, L)

    monkeypatch.setattr(periods, "_cubic_roots", refused)
    monkeypatch.setattr(periods, "wp", counted)
    zs = (0.3 + 0.2j, -0.5 + 0.9j)
    logs = []
    lattices = [make_lattice(1.3 + 0.2j, 0.4 + 1.7j) for _ in range(2)]
    lattices.append(Lattice(lattices[0].omega1, lattices[0].omega2))
    for L in lattices:
        inv = eisenstein_invariants(L)
        own = CurveInvariants(inv.g2, inv.g3)
        points = [EllipticPoint(wp(z, L), wp_prime(z, L)) for z in zs]
        logs.append([elliptic_log(P, L, c).value for c in (None, inv, own) for P in points])
    assert logs[0] == logs[1] == logs[2] == logs[0][:2] * 3
    assert len(calls) == 6

    L = make_lattice(1.3 + 0.8j, -0.5 + 1.9j)
    inv = eisenstein_invariants(L)
    z = 0.37 + 0.21j
    point = {"x": wp(z, L), "y": wp_prime(z, L)}
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lattice = {"lattice": {"w1": J(L.omega1), "w2": J(L.omega2)}}
    invariants = {"g2": J(inv.g2), "g3": J(inv.g3)}
    motive = {"motive": {
        "extension_params": [{"x": J(point["x"]), "y": J(point["y"])}],
        "points": [{"base": {"x": J(point["x"]), "y": J(point["y"])}, "fiber": 2.0}],
    }}
    docs = {
        "bounds": motive,
        "classify": motive,
        "eval": {"z": [J(z)]},
        "logg": {"q": {"log": J(0.41 + 0.27j)},
                 "point": {"base": {"x": J(point["x"]), "y": J(point["y"])}, "fiber": 2.0}},
        "periods": {},
        "verify": {},
    }
    # verify last: once it has run, its module stays loaded
    runs = [(task, "lattice", lattice) for task in ("bounds", "classify", "eval", "logg")]
    runs += [(task, "invariants", invariants) for task in ("classify", "eval", "periods")]
    runs += [("verify", "lattice", lattice), ("verify", "invariants", invariants)]
    for task, form, curve in runs:
        (tmp_path / f"{task}-{form}.json").write_text(json.dumps({"curve": curve, **docs[task]}))
    code = (
        "import sys\n"
        "from semiabel.cli import main\n"
        "unloaded = ('numpy', 'dataclasses', 'inspect', 'semiabel.verify')\n"
        f"for task, form, _ in {runs!r}:\n"
        f"    path = {str(tmp_path)!r} + f'/{{task}}-{{form}}.json'\n"
        "    assert main([task, '--config', path, '--json']) == 0, (task, form)\n"
        "    print(task, form, *(m in sys.modules for m in unloaded), file=sys.stderr)\n"
    )
    src = str(Path(periods.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == "".join(
        f"{task} {form} False False False {task == 'verify'}\n" for task, form, _ in runs
    )


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


def test_elliptic_log_that_misses_the_point_raises(monkeypatch):
    """The logarithm's closing evaluation catches a z that Newton cannot
    carry to P: here RF's starting value is pinned to 0.05*omega1."""
    import semiabel.periods as periods

    L = make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))
    inv = eisenstein_invariants(L)
    z = 0.31 * L.omega1 + 0.43 * L.omega2
    P = EllipticPoint(wp(z, L), wp_prime(z, L))
    assert abs(elliptic_log(P, L, inv).value - z) < 1e-9
    monkeypatch.setattr(periods, "carlson_rf", lambda *_: 0.05 * L.omega1)
    with pytest.raises(ConvergenceFailure, match="logarithm failed to invert wp"):
        elliptic_log(P, L, inv)


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
