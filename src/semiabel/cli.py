"""Command-line interface: configuration parsing, JSON reports, and the
identity-verification harness.

Usage:  semiabel <task> --config <file> [--json] [--seed N] [--tol X]

Tasks: periods, eval, expg, logg, pairing, classify, bounds, verify.
Exit codes: 0 success, 1 input error, 2 identity failure.
"""

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._kernels import NUMBA_ENABLED
from .classifier import (
    DEFAULT_N_MAX,
    OneMotiveElliptic,
    motivic_galois_dims,
)
from .elliptic import (
    CurveInvariants,
    eisenstein_invariants,
    eta_linear,
    quasi_periods,
    rotate_real_frame,
    sigma_w,
    theta_automorphy_factor,
    theta_normalization,
    theta_normalized,
    weierstrass,
    zeta_w,
)
from .errors import (
    ConflictingCurveSpec,
    InternalInconsistency,
    SchemaError,
    SemiabelError,
)
from .lattice import make_lattice, real_coordinates, reduce_centered
from .pairing import (
    ratio_f_tilde,
    torsion_weil_pairing,
    weil_pairing,
)
from .periods import (
    EllipticPoint,
    elliptic_log,
    periods_from_invariants,
)
from .relations import DEFAULT_MAX_HEIGHT, DEFAULT_TOL
from .semiabelian import (
    ExtensionParam,
    SemiAbelianPoint,
    exp_G,
    kernel_generators,
    log_G,
    quasi_quasi_periods,
    serre_fq,
)

TWO_PI_I = 2j * math.pi

TASKS = ("periods", "eval", "expg", "logg", "pairing", "classify", "bounds", "verify")


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------


def _fmt_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number in report: {x}")
    s = f"{x:.17g}"
    return s


def emit_json(doc):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out = []

    def walk(v):
        if isinstance(v, dict):
            out.append("{")
            for i, k in enumerate(sorted(v)):
                if i:
                    out.append(",")
                out.append(json.dumps(k))
                out.append(":")
                walk(v[k])
            out.append("}")
        elif isinstance(v, (list, tuple)):
            out.append("[")
            for i, item in enumerate(v):
                if i:
                    out.append(",")
                walk(item)
            out.append("]")
        elif isinstance(v, bool) or v is None:
            out.append(json.dumps(v))
        elif isinstance(v, int):
            out.append(str(v))
        elif isinstance(v, float):
            out.append(_fmt_float(v))
        elif isinstance(v, complex):
            walk({"re": v.real, "im": v.imag})
        elif isinstance(v, str):
            out.append(json.dumps(v))
        else:
            raise TypeError(f"cannot serialize {type(v)}")

    walk(doc)
    return "".join(out)


def _cplx(v):
    return {"re": float(v.real), "im": float(v.imag)}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


@dataclass
class JobConfig:
    task: str
    curve: CurveInvariants
    lattice: object  # Lattice or None
    payload: dict
    tol: float
    max_height: int
    n_max: int
    seed: int


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def _parse_real(node, path, message):
    _expect(
        isinstance(node, (int, float)) and not isinstance(node, bool), path, message
    )
    _expect(math.isfinite(node), path, "expected a finite number")
    return node


def _parse_complex(node, path):
    if not isinstance(node, dict):
        return complex(_parse_real(node, path, "expected a number or {re, im}"))
    _expect("re" in node and "im" in node, path, "expected keys re and im")
    return complex(
        _parse_real(node["re"], f"{path}/re", "expected a number"),
        _parse_real(node["im"], f"{path}/im", "expected a number"),
    )


def _parse_point(node, path):
    if node == "O":
        return EllipticPoint.identity()
    _expect(isinstance(node, dict), path, 'expected "O" or {x, y}')
    _expect("x" in node and "y" in node, path, "expected keys x and y")
    return EllipticPoint(
        _parse_complex(node["x"], f"{path}/x"), _parse_complex(node["y"], f"{path}/y")
    )


def _parse_sa_point(node, path):
    _expect(isinstance(node, dict), path, "expected {base, fiber}")
    _expect("base" in node and "fiber" in node, path, "expected keys base and fiber")
    return SemiAbelianPoint(
        _parse_point(node["base"], f"{path}/base"),
        _parse_complex(node["fiber"], f"{path}/fiber"),
    )


def _parse_extension_param(node, path, L, inv):
    """Extension parameter: a point {x, y} of the dual curve (identified
    with the curve via the polarization), a primal-frame logarithm
    {log: ...}, or a dual-frame logarithm {log_dual: ...}."""
    _expect(isinstance(node, dict), path, "expected {x, y}, {log} or {log_dual}")
    if "log_dual" in node:
        return ExtensionParam(_parse_complex(node["log_dual"], f"{path}/log_dual"))
    if "log" in node:
        return ExtensionParam.from_primal(_parse_complex(node["log"], f"{path}/log"), L)
    point = _parse_point(node, path)
    q = point if not point.is_identity else None
    _expect(q is not None, path, "the identity cannot parametrize an extension")
    z = elliptic_log(point, L, inv).value
    return ExtensionParam.from_primal(z, L)


def _resolve_curve(node, path):
    _expect(isinstance(node, dict), path, "expected a curve object")
    has_inv = "g2" in node or "g3" in node
    has_lat = "lattice" in node
    if has_inv and has_lat:
        raise ConflictingCurveSpec(path)
    if has_inv:
        _expect("g2" in node and "g3" in node, path, "expected both g2 and g3")
        inv = CurveInvariants(
            _parse_complex(node["g2"], f"{path}/g2"),
            _parse_complex(node["g3"], f"{path}/g3"),
        )
        return inv, periods_from_invariants(inv)
    _expect(has_lat, path, "expected {g2, g3} or {lattice}")
    lat = node["lattice"]
    _expect(
        isinstance(lat, dict) and "w1" in lat and "w2" in lat,
        f"{path}/lattice",
        "expected keys w1 and w2",
    )
    L = make_lattice(
        _parse_complex(lat["w1"], f"{path}/lattice/w1"),
        _parse_complex(lat["w2"], f"{path}/lattice/w2"),
    )
    return eisenstein_invariants(L), L


def parse_config(text, task=None, seed=None, tol=None):
    """Validated JobConfig from a JSON document, with defaults filled."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "", "top-level document must be an object")
    cfg_task = doc.get("task")
    if cfg_task is not None:
        _expect(cfg_task in TASKS, "/task", f"unknown task {cfg_task!r}")
    if task is not None and cfg_task is not None and task != cfg_task:
        raise SchemaError("/task", f"config task {cfg_task!r} != CLI task {task!r}")
    task = task or cfg_task
    _expect(task in TASKS, "/task", "no task given")
    _expect("curve" in doc, "/curve", "missing curve specification")
    curve, lattice = _resolve_curve(doc["curve"], "/curve")
    if tol is None:
        tol = doc.get("tol", DEFAULT_TOL)
    _expect(isinstance(tol, (int, float)) and tol > 0, "/tol", "tolerance must be positive")
    max_height = doc.get("max_height", DEFAULT_MAX_HEIGHT)
    _expect(
        isinstance(max_height, int) and max_height > 0,
        "/max_height",
        "must be a positive integer",
    )
    n_max = doc.get("n_max", DEFAULT_N_MAX)
    _expect(isinstance(n_max, int) and n_max > 0, "/n_max", "must be a positive integer")
    if seed is None:
        seed = doc.get("seed", 0)
    _expect(isinstance(seed, int), "/seed", "seed must be an integer")
    payload = {
        k: v
        for k, v in doc.items()
        if k not in ("task", "curve", "tol", "max_height", "n_max", "seed")
    }
    return JobConfig(
        task=task,
        curve=curve,
        lattice=lattice,
        payload=payload,
        tol=float(tol),
        max_height=max_height,
        n_max=n_max,
        seed=seed,
    )


def _parse_motive(cfg):
    node = cfg.payload.get("motive")
    _expect(node is not None, "/motive", "missing motive payload")
    _expect(isinstance(node, dict), "/motive", "expected an object")
    _expect("points" in node, "/motive/points", "missing points")
    qs = tuple(
        _parse_extension_param(q, f"/motive/extension_params/{i}", cfg.lattice, cfg.curve)
        for i, q in enumerate(node.get("extension_params", []))
    )
    pts = tuple(
        _parse_sa_point(p, f"/motive/points/{i}") for i, p in enumerate(node["points"])
    )
    override = node.get("cm_override")
    if override is not None:
        _expect(
            isinstance(override, int), "/motive/cm_override", "expected an integer"
        )
    return OneMotiveElliptic(cfg.curve, cfg.lattice, qs, pts, override)


# ---------------------------------------------------------------------------
# task handlers
# ---------------------------------------------------------------------------


def _point_doc(P):
    if P.is_identity:
        return "O"
    return {"x": _cplx(P.x), "y": _cplx(P.y)}


def _job_periods(cfg):
    L = cfg.lattice
    qp = quasi_periods(L)
    return {
        "w1": _cplx(L.omega1),
        "w2": _cplx(L.omega2),
        "tau": _cplx(L.tau),
        "eta1": _cplx(qp.eta1),
        "eta2": _cplx(qp.eta2),
        "g2": _cplx(cfg.curve.g2),
        "g3": _cplx(cfg.curve.g3),
        "discriminant": _cplx(cfg.curve.discriminant()),
    }


def _job_eval(cfg):
    node = cfg.payload.get("z")
    _expect(node is not None, "/z", "missing evaluation point(s)")
    zs = node if isinstance(node, list) else [node]
    values = []
    for i, zn in enumerate(zs):
        z = _parse_complex(zn, f"/z/{i}")
        p, dp, zeta = weierstrass(z, cfg.lattice)
        values.append(
            {
                "z": _cplx(z),
                "wp": _cplx(p),
                "wp_prime": _cplx(dp),
                "zeta": _cplx(zeta),
                "sigma": _cplx(sigma_w(z, cfg.lattice)),
            }
        )
    return {"values": values}


def _get_extension_param(cfg, key="q"):
    node = cfg.payload.get(key)
    _expect(node is not None, f"/{key}", "missing extension parameter")
    return _parse_extension_param(node, f"/{key}", cfg.lattice, cfg.curve)


def _job_expg(cfg):
    z = _parse_complex(cfg.payload.get("z", 0), "/z")
    t = _parse_complex(cfg.payload.get("t", 0), "/t")
    q = _get_extension_param(cfg)
    R = exp_G(z, t, q, cfg.lattice)
    return {"base": _point_doc(R.base), "fiber": _cplx(R.fiber)}


def _job_logg(cfg):
    node = cfg.payload.get("point")
    _expect(node is not None, "/point", "missing semi-abelian point")
    R = _parse_sa_point(node, "/point")
    q = _get_extension_param(cfg)
    zb, tb = log_G(R, q, cfg.lattice, cfg.curve)
    doc = {"z": _cplx(zb.value), "t": _cplx(tb.value)}
    if not R.base.is_identity:
        doc["zeta_z"] = _cplx(zeta_w(zb.value, cfg.lattice))
    return doc


def _job_pairing(cfg):
    z = _parse_complex(cfg.payload.get("z"), "/z") if "z" in cfg.payload else None
    _expect(z is not None, "/z", "missing primal argument")
    _expect("zstar" in cfg.payload, "/zstar", "missing dual argument")
    zstar = _parse_complex(cfg.payload["zstar"], "/zstar")
    N = cfg.payload.get("N")
    if N is not None:
        _expect(isinstance(N, int) and N >= 1, "/N", "expected a positive integer")
        val = torsion_weil_pairing(z, zstar, N, cfg.lattice).value
        return {"weil_torsion": _cplx(val), "N": N}
    return {"weil": _cplx(weil_pairing(z, zstar, cfg.lattice).value)}


def _report_doc(rep):
    return {
        "dim_B": rep.dim_B,
        "dim_B_vstar": rep.dim_B_vstar,
        "dim_B_Q": rep.dim_B_Q,
        "dim_Z1": rep.dim_Z1,
        "dim_UR": rep.dim_UR,
        "dim_Gal": rep.dim_Gal,
        "table_row": rep.table_row,
        "cm": rep.cm,
        "cm_discriminant": rep.cm_discriminant,
        "deficient": rep.deficient,
        "bounds": dict(rep.bounds),
        "confidence": rep.confidence,
        "relations": [
            {
                "coefficients": list(c.coefficients),
                "residual": c.residual,
                "height": c.height,
                "verified_at_higher_precision": c.verified_at_higher_precision,
            }
            for c in rep.relations
        ],
    }


def _job_classify(cfg):
    rep = motivic_galois_dims(
        _parse_motive(cfg), cfg.max_height, cfg.tol, cfg.n_max
    )
    return _report_doc(rep)


def _job_bounds(cfg):
    doc = _job_classify(cfg)
    return {
        "bounds": doc["bounds"],
        "dim_B": doc["dim_B"],
        "dim_B_Q": doc["dim_B_Q"],
        "dim_Z1": doc["dim_Z1"],
        "cm": doc["cm"],
    }


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _suite_lattices(rng):
    """Square, hexagonal, and three seeded random lattices."""
    lattices = [
        ("square", make_lattice(1.0, 1j)),
        ("hexagonal", make_lattice(1.0, cmath.exp(1j * math.pi / 3))),
    ]
    for k in range(3):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.3, 4.0))
        lattices.append((f"random-{k}", make_lattice(1.0, tau)))
    return lattices


def _sample_z(rng, L):
    """A point of the fundamental cell away from the lattice and
    half-lattice poles/zeros."""
    while True:
        a, b = rng.uniform(0.05, 0.95, size=2)
        z = a * L.omega1 + b * L.omega2
        z0, _, _ = reduce_centered(z, L)
        if abs(z0) > 0.1 * abs(L.omega1) and min(
            abs(a - 0.5), abs(b - 0.5)
        ) > 0.03:
            return z


def _check_legendre(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng):
        qp = quasi_periods(L)
        worst = max(
            worst, abs(qp.eta1 * L.omega2 - qp.eta2 * L.omega1 - TWO_PI_I)
        )
    return worst


def _check_ode(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng):
        inv = eisenstein_invariants(L)
        for _ in range(20):
            z = _sample_z(rng, L)
            p, dp, _ = weierstrass(z, L)
            lhs, rhs = dp * dp, 4 * p**3 - inv.g2 * p - inv.g3
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


def _check_eta_linear(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng):
        Lr, _, _, _, D = rotate_real_frame(L)
        piA = theta_normalization(L).piA
        for _ in range(20):
            zr = _sample_z(rng, Lr)
            closed = (math.pi * zr.conjugate() + piA * zr) / D
            worst = max(worst, abs(eta_linear(zr, Lr) - closed))
    return worst


def _check_theta_automorphy(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng)[:3]:
        Lr, _, w1, w2, _ = rotate_real_frame(L)
        for _ in range(10):
            zr = _sample_z(rng, Lr)
            m, n = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            lam = m * w1 + n * w2
            if lam == 0:
                continue
            lhs = theta_normalized(zr + lam, L)
            rhs = theta_automorphy_factor(lam, zr, L) * theta_normalized(zr, L)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _contour_third_kind(qp_primal, L, j):
    """Integral of dlog f_q = zeta(z+q) - zeta(z) - zeta(q) along the
    period w = omega_j, by the N-node equispaced trapezoid rule.

    zeta(z+q) - zeta(z) is periodic along w, so the rule converges
    geometrically (Trefethen-Weideman, SIAM Review 56, 2014): its error
    is about exp(-2*pi*N*d/|w|), with d the distance from the path to
    the nearest pole.  The poles, Lambda and -q + Lambda, lie on lines
    parallel to w, h = |Im(conj(w)*other)|/|w| apart, at the coordinates
    0 and c = (-b_q) mod 1 along the other period, where b_q is q's
    coordinate there.  The path z0 + t*w, z0 = b*other, runs along the
    middle b of the wider of the two gaps between 0 and c, so
    d = h*max(c, 1-c)/2 >= h/4.  N = ceil(ln(2**52)/(2*pi) * |w|/d) brings
    the error bound down to double-precision round-off.
    """
    w, other = (L.omega1, L.omega2) if j == 1 else (L.omega2, L.omega1)
    c = -real_coordinates(qp_primal, L)[2 - j] % 1.0
    b = c / 2 if c >= 0.5 else (1 + c) / 2
    d = abs((w.conjugate() * other).imag) / abs(w) * max(c, 1 - c) / 2
    n = math.ceil(52 * math.log(2) / (2 * math.pi) * abs(w) / d)
    z0 = b * other
    total = 0j
    for k in range(n):
        z = z0 + k * w / n
        total += zeta_w(z + qp_primal, L) - zeta_w(z, L)
    return w * total / n - w * zeta_w(qp_primal, L)


def _check_third_kind(rng):
    worst_ratio, worst_contour = 0.0, 0.0
    for _, L in _suite_lattices(rng)[:3]:
        for _ in range(3):
            qp = _sample_z(rng, L)
            q = ExtensionParam.from_primal(qp, L)
            g = quasi_quasi_periods(q, L)
            for j in (1, 2):
                w = L.omega1 if j == 1 else L.omega2
                z = _sample_z(rng, L)
                ratio = serre_fq(z + w, q, L) / serre_fq(z, q, L)
                worst_ratio = max(worst_ratio, abs(ratio - cmath.exp(g[j - 1])))
                quad = _contour_third_kind(qp, L, j)
                k = (quad - g[j - 1]) / TWO_PI_I
                worst_contour = max(worst_contour, abs(k - round(k.real)) * 2 * math.pi)
    return worst_ratio, worst_contour


def _check_ratio_pairing(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng)[:3]:
        D = L.covolume_factor()
        for _ in range(20):
            z = _sample_z(rng, L)
            zstar = _sample_z(rng, L) / D
            direct = ratio_f_tilde(z, zstar, L)
            worst = max(worst, abs(direct - weil_pairing(z, zstar, L).value))
        # lattice pairs pair to 1
        for lam, lamstar in ((L.omega1, L.omega2 / D), (L.omega2, L.omega1 / D)):
            worst = max(worst, abs(weil_pairing(lam, lamstar, L).value - 1.0))
    return worst


def _check_exp_log(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng)[:3]:
        qp = _sample_z(rng, L)
        q = ExtensionParam.from_primal(qp, L)
        gens = kernel_generators(q, L)
        for _ in range(20):
            z = _sample_z(rng, L)
            t = complex(rng.normal(), rng.normal())
            R = exp_G(z, t, q, L)
            zb, tb = log_G(R, q, L)
            dz, dt = z - zb.value, t - tb.value
            # residual modulo the rank-3 kernel lattice, whose first two
            # generators project onto the basis omega1, omega2 of Lambda
            a1, a2 = real_coordinates(dz, L)
            m, n = round(a1), round(a2)
            rz = dz - m * gens[0][0] - n * gens[1][0]
            rt = dt - m * gens[0][1] - n * gens[1][1]
            k = rt / TWO_PI_I
            worst = max(
                worst, abs(rz) + abs(rt - round(k.real) * TWO_PI_I)
            )
    return worst


def _check_torsion_weil(rng):
    worst = 0.0
    lats = _suite_lattices(rng)
    for _, L in (lats[0], lats[2]):
        D = L.covolume_factor()
        for N in (2, 3, 4, 5):
            p = L.omega1 / N
            qs = L.omega2 / N / D
            val = torsion_weil_pairing(p, qs, N, L).value
            worst = max(worst, abs(val**N - 1.0))
            # representative independence
            alt = torsion_weil_pairing(
                p + L.omega2, qs + L.omega1 / D, N, L
            ).value
            worst = max(worst, abs(val - alt))
    return worst


def _check_kernel(rng):
    worst = 0.0
    for _, L in _suite_lattices(rng)[:2]:
        qp = _sample_z(rng, L)
        q = ExtensionParam.from_primal(qp, L)
        z = _sample_z(rng, L)
        t = 0.25 + 0.125j
        R = exp_G(z, t, q, L)
        for gz, gt in kernel_generators(q, L):
            R2 = exp_G(z + gz, t + gt, q, L)
            worst = max(
                worst,
                abs(R2.base.x - R.base.x) / (1.0 + abs(R.base.x)),
                abs(R2.base.y - R.base.y) / (1.0 + abs(R.base.y)),
                abs(R2.fiber - R.fiber) / (1.0 + abs(R.fiber)),
            )
    return worst


def _table_instances():
    """The eight classification-table instances on the square (CM)
    lattice and seven on a non-CM lattice, with expected (row, UR, Gal)."""
    VARPI = 2.6220575542921198
    L_cm = make_lattice(VARPI, VARPI * 1j)
    L_nc = make_lattice(1.0, complex(0.3 * math.sqrt(2.0), 0.5 * math.e))
    out = []
    for cm, L in ((True, L_cm), (False, L_nc)):
        inv = eisenstein_invariants(L)
        w1 = L.omega1
        p = complex(0.1 * math.pi, 0.07 * math.sqrt(3.0)) * abs(w1)
        mu = complex(0.2 * math.sqrt(5.0), 0.11 * math.sqrt(7.0)) * abs(w1)
        cases = [
            ("q-r-torsion", 0, w1 / 2, None, 0.0),
            ("p-q-torsion", 1, w1 / 2, None, cmath.log(2)),
            ("r-torsion", 2, mu, None, 0.0),
            ("q-torsion", 3, w1 / 2, p, 0.5),
            ("p-torsion", 3, mu, w1 / 2, 0.5),
            ("dependent-not-deficient", 3, 2 * p, p, 0.3),
            ("independent", 5, mu, p, 0.3),
        ]
        if cm:
            cases.append(("dependent-deficient", 2, 1j * p, p, 0.0))
        for row, ur, mu_i, z, t in cases:
            q = ExtensionParam.from_primal(mu_i, L)
            if z is None:
                R = SemiAbelianPoint(EllipticPoint.identity(), cmath.exp(t))
            else:
                R = exp_G(z, t, q, L)
            motive = OneMotiveElliptic(inv, L, (q,), (R,))
            out.append((motive, row, ur, ur + (2 if cm else 4), cm))
    return out


def _check_table(table):
    failures = 0
    for rep, row, ur, gal, cm in table:
        if (rep.table_row, rep.dim_UR, rep.dim_Gal, rep.cm) != (row, ur, gal, cm):
            failures += 1
    return float(failures)


def _check_formula_consistency(table):
    # ClassificationReport construction hard-asserts the dimension
    # formulas; re-deriving them here guards the assembled values.
    worst = 0.0
    for rep, _, _, _, cm in table[:6]:
        worst = max(
            worst,
            abs(rep.dim_UR - 2 * rep.dim_B - rep.dim_Z1),
            abs(rep.dim_Gal - rep.dim_UR - (2 if cm else 4)),
        )
    return worst


def run_verification_suite(cfg):
    """Run every identity check; returns the report document and a
    boolean overall pass."""
    ratio_resid, contour_resid = _check_third_kind(np.random.default_rng(cfg.seed + 4))
    table = [(motivic_galois_dims(m), *expected) for m, *expected in _table_instances()]
    checks = [
        ("legendre-relation", "eta1*w2 - eta2*w1 = 2*pi*i",
         _check_legendre(np.random.default_rng(cfg.seed)), 1e-9),
        ("weierstrass-ode", "wp'^2 = 4*wp^3 - g2*wp - g3",
         _check_ode(np.random.default_rng(cfg.seed + 1)), 1e-9),
        ("quasi-period-linear-form", "eta(z) = pi*(conj(z) + A*z)/D",
         _check_eta_linear(np.random.default_rng(cfg.seed + 2)), 1e-10),
        ("theta-automorphy", "theta(z+l) = psi(l)*exp(pi*conj(l)*(z+l/2)/D)*theta(z)",
         _check_theta_automorphy(np.random.default_rng(cfg.seed + 3)), 1e-8),
        ("third-kind-periods-ratio", "f_q(z+w_j)/f_q(z) = exp(eta_j*q - w_j*zeta(q))",
         ratio_resid, 1e-8),
        ("third-kind-periods-contour", "contour integral of dlog f_q over a period",
         contour_resid, 1e-6),
        ("sigma-ratio-pairing", "f~_{z*}(z)/f~_z(z*) = Weil pairing exponential",
         _check_ratio_pairing(np.random.default_rng(cfg.seed + 5)), 1e-9),
        ("exp-log-round-trip", "log_G(exp_G(z,t)) = (z,t) modulo the kernel lattice",
         _check_exp_log(np.random.default_rng(cfg.seed + 6)), 1e-8),
        ("torsion-weil-roots", "N-torsion pairing is an N-th root of unity",
         _check_torsion_weil(np.random.default_rng(cfg.seed + 7)), 1e-8),
        ("kernel-lattice", "exp_G is invariant under its rank-3 kernel",
         _check_kernel(np.random.default_rng(cfg.seed + 8)), 1e-8),
        ("dimension-table", "eight-row classification table, CM and non-CM",
         _check_table(table), 0.5),
        ("dimension-formula-consistency", "dim UR = 2*dim B + dim Z(1); dim Gal = dim UR + dim Gal(E)",
         _check_formula_consistency(table), 0.5),
    ]
    entries = []
    for name, anchor, resid, tol in sorted(checks):
        entries.append(
            {
                "name": name,
                "anchor": anchor,
                "max_residual": float(resid),
                "tolerance": tol,
                "pass": bool(resid < tol),
            }
        )
    overall = all(e["pass"] for e in entries)
    doc = {
        "task": "verify",
        "seed": cfg.seed,
        "tolerance": cfg.tol,
        "entries": entries,
        "overall_pass": overall,
        "environment": {
            "package_version": __version__,
            "numba_enabled": NUMBA_ENABLED,
        },
    }
    return doc, overall


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "periods": _job_periods,
    "eval": _job_eval,
    "expg": _job_expg,
    "logg": _job_logg,
    "pairing": _job_pairing,
    "classify": _job_classify,
    "bounds": _job_bounds,
}


def run_job(cfg):
    """(report document, exit code) for a parsed configuration."""
    if cfg.task == "verify":
        doc, overall = run_verification_suite(cfg)
        return doc, (0 if overall else 2)
    doc = _HANDLERS[cfg.task](cfg)
    doc["task"] = cfg.task
    doc["seed"] = cfg.seed
    return doc, 0


def _render_text(doc):
    lines = []
    if doc.get("task") == "verify":
        for e in doc["entries"]:
            status = "PASS" if e["pass"] else "FAIL"
            lines.append(
                f"{status}  {e['name']}: max residual {e['max_residual']:.3e}"
                f" < {e['tolerance']:.1e}  [{e['anchor']}]"
            )
        lines.append(f"overall: {'PASS' if doc['overall_pass'] else 'FAIL'}")
    else:
        lines.append(emit_json(doc))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="semiabel",
        description="Numerics for extensions of elliptic curves by the "
        "multiplicative group: periods, elliptic and semi-abelian "
        "logarithms, the analytic Weil pairing, and motive-dimension "
        "classification.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, task=args.task, seed=args.seed, tol=args.tol)
        doc, code = run_job(cfg)
    except SchemaError as exc:
        print(f"error: {exc.path or '/'}: {exc.message}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 2
    except (SemiabelError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(emit_json(doc) if args.json else _render_text(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
