"""Command-line interface: configuration parsing, task dispatch and
report rendering.

Usage:  semiabel <task> --config <file> [--json] [--seed N] [--tol X]

Tasks: periods, eval, expg, logg, pairing, classify, bounds, verify.
Exit codes: 0 success, 1 input error, 2 identity failure.
"""

import argparse
import gc
import json
import math
import sys

from ._value import Value
from .classifier import OneMotiveElliptic, motivic_galois_dims
from .elliptic import (
    CurveInvariants,
    eisenstein_invariants,
    quasi_periods,
    sigma_w,
    weierstrass,
)
from .errors import (
    BeyondWorkingPrecision,
    ConflictingCurveSpec,
    InternalInconsistency,
    SchemaError,
    SemiabelError,
)
from .lattice import make_lattice
from .pairing import torsion_weil_pairing, weil_pairing
from .periods import EllipticPoint, elliptic_log, periods_from_invariants
from .relations import _ULP, DEFAULT_MAX_HEIGHT, DEFAULT_TOL
from .semiabelian import ExtensionParam, SemiAbelianPoint, exp_G, generalized_log_G


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------


def _json_text(v):
    """The text of one value (private: a trace sees one emit_json call per report)."""
    if isinstance(v, dict):
        pairs = (f"{json.dumps(k)}:{_json_text(v[k])}" for k in sorted(v))
        return "{" + ",".join(pairs) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(_json_text, v)) + "]"
    if isinstance(v, complex):
        return _json_text({"re": v.real, "im": v.imag})
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite number in report: {v}")
        return f"{v:.17g}"
    if v is None or isinstance(v, (bool, int, str)):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)}")


def emit_json(doc):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    return _json_text(doc)


def _cplx(v):
    return {"re": float(v.real), "im": float(v.imag)}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


class JobConfig(Value):
    """A validated config: the task, its curve (and lattice, or None),
    the task's own keys and the numeric options."""

    _fields = ("task", "curve", "lattice", "payload", "tol", "max_height", "seed")


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
    _expect(node != "O", path, "the identity cannot parametrize an extension")
    _expect(isinstance(node, dict), path, "expected {x, y}, {log} or {log_dual}")
    if "log_dual" in node:
        return ExtensionParam(_parse_complex(node["log_dual"], f"{path}/log_dual"))
    if "log" in node:
        return ExtensionParam.from_primal(_parse_complex(node["log"], f"{path}/log"), L)
    z = elliptic_log(_parse_point(node, path), L, inv).value
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
        _expect(cfg_task in _HANDLERS, "/task", f"unknown task {cfg_task!r}")
    if task is not None and cfg_task is not None and task != cfg_task:
        raise SchemaError("/task", f"config task {cfg_task!r} != CLI task {task!r}")
    task = task or cfg_task
    _expect(task in _HANDLERS, "/task", "no task given")
    _expect("curve" in doc, "/curve", "missing curve specification")
    curve, lattice = _resolve_curve(doc["curve"], "/curve")
    if tol is None:
        tol = doc.get("tol", DEFAULT_TOL)
    _parse_real(tol, "/tol", "tolerance must be a number")
    _expect(tol > 0, "/tol", "tolerance must be positive")
    _expect(tol >= _ULP, "/tol", f"tolerance below the rounding floor {_ULP:.2g}")
    max_height = doc.get("max_height", DEFAULT_MAX_HEIGHT)
    _expect(
        type(max_height) is int and max_height > 0,
        "/max_height",
        "must be a positive integer",
    )
    if seed is None:
        seed = doc.get("seed", 0)
    _expect(type(seed) is int and seed >= 0, "/seed", "must be a non-negative integer")
    payload = {
        k: v
        for k, v in doc.items()
        if k not in ("task", "curve", "tol", "max_height", "seed")
    }
    return JobConfig(
        task=task,
        curve=curve,
        lattice=lattice,
        payload=payload,
        tol=float(tol),
        max_height=max_height,
        seed=seed,
    )


def _parse_motive(cfg):
    node = cfg.payload.get("motive")
    _expect(node is not None, "/motive", "missing motive payload")
    _expect(isinstance(node, dict), "/motive", "expected an object")
    _expect("points" in node, "/motive/points", "missing points")
    points, params = node["points"], node.get("extension_params", [])
    _expect(
        isinstance(points, list) and points, "/motive/points", "expected a nonempty list"
    )
    _expect(isinstance(params, list), "/motive/extension_params", "expected a list")
    qs = tuple(
        _parse_extension_param(q, f"/motive/extension_params/{i}", cfg.lattice, cfg.curve)
        for i, q in enumerate(params)
    )
    pts = tuple(_parse_sa_point(p, f"/motive/points/{i}") for i, p in enumerate(points))
    override = node.get("cm_override")
    if override is not None:
        _expect(
            type(override) is int, "/motive/cm_override", "expected an integer"
        )
    return OneMotiveElliptic(cfg.curve, cfg.lattice, qs, pts, override)


# ---------------------------------------------------------------------------
# task handlers
# ---------------------------------------------------------------------------


def _point_doc(P):
    if P.is_identity:
        return "O"
    return {"x": _cplx(P.x), "y": _cplx(P.y)}


def _discriminant(cfg):
    """g2^3 - 27 g3^2, which scales as omega1^-12 and is never 0 for a
    lattice: a zero, subnormal or non-finite value is beyond working
    precision."""
    try:
        disc = complex(cfg.curve.discriminant())
    except OverflowError:  # complex exponentiation
        disc = complex(math.inf)
    parts = (abs(disc.real), abs(disc.imag))
    if not (all(map(math.isfinite, parts)) and max(parts) >= sys.float_info.min):
        raise BeyondWorkingPrecision(
            f"the discriminant at |omega1| = {abs(cfg.lattice.omega1):.3g} "
            "is beyond working precision"
        )
    return disc


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
        "discriminant": _cplx(_discriminant(cfg)),
    }


def _job_eval(cfg):
    node = cfg.payload.get("z")
    _expect(node is not None, "/z", "missing evaluation point(s)")
    zs = node if isinstance(node, list) else [node]
    values = []
    for i, zn in enumerate(zs):
        z = _parse_complex(zn, f"/z/{i}")
        # sigma reads the reduction and theta series weierstrass summed
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


def _get_extension_param(cfg):
    node = cfg.payload.get("q")
    _expect(node is not None, "/q", "missing extension parameter")
    return _parse_extension_param(node, "/q", cfg.lattice, cfg.curve)


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
    glog, tb = generalized_log_G(R, q, cfg.lattice, cfg.curve)
    doc = {"z": _cplx(glog.z), "t": _cplx(tb.value)}
    if not glog.is_identity:
        doc["zeta_z"] = _cplx(glog.w)
    return doc


def _job_pairing(cfg):
    _expect("z" in cfg.payload, "/z", "missing primal argument")
    z = _parse_complex(cfg.payload["z"], "/z")
    _expect("zstar" in cfg.payload, "/zstar", "missing dual argument")
    zstar = _parse_complex(cfg.payload["zstar"], "/zstar")
    N = cfg.payload.get("N")
    if N is not None:
        _expect(type(N) is int and N >= 1, "/N", "expected a positive integer")
        val = torsion_weil_pairing(z, zstar, N, cfg.lattice).value
        return {"weil_torsion": _cplx(val), "N": N}
    return {"weil": _cplx(weil_pairing(z, zstar, cfg.lattice).value)}


def _job_classify(cfg):
    return motivic_galois_dims(_parse_motive(cfg), cfg.max_height, cfg.tol).as_dict()


def _job_bounds(cfg):
    doc = _job_classify(cfg)
    return {
        "bounds": doc["bounds"],
        "dim_B": doc["dim_B"],
        "dim_B_Q": doc["dim_B_Q"],
        "dim_Z1": doc["dim_Z1"],
        "cm": doc["cm"],
    }


def _job_verify(cfg):
    from . import verify  # only this task compiles the identity suite

    return verify.report(cfg.seed, cfg.tol)


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
    "verify": _job_verify,
}


def run_job(cfg):
    """(report document, exit code); exit 2 when a verify identity fails."""
    doc = _HANDLERS[cfg.task](cfg)
    doc["task"] = cfg.task
    doc["seed"] = cfg.seed
    return doc, (0 if doc.get("overall_pass", True) else 2)


def _render_text(doc):
    lines = []
    if doc.get("task") == "verify":
        for e in doc["entries"]:
            status, rel = ("PASS", "<") if e["pass"] else ("FAIL", ">=")
            lines.append(
                f"{status}  {e['name']}: max residual {e['max_residual']:.3e}"
                f" {rel} {e['tolerance']:.1e}  [{e['anchor']}]"
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
    parser.add_argument("task", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is bad input: 2 is an identity failure
        return 1 if exc.code else 0
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


def run(argv=None):
    """The CLI process: main() with the cyclic collector off, and the heap
    frozen before exit so interpreter shutdown skips its full sweep."""
    gc.disable()
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
