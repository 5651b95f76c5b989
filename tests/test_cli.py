import cmath
import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiabel.classifier as classifier
import semiabel.cli as cli
import semiabel.verify as verify
from semiabel.classifier import (
    ClassificationReport,
    OneMotiveElliptic,
    motivic_galois_dims,
)
from semiabel.cli import JobConfig, emit_json, main, parse_config, run_job
from semiabel.elliptic import eisenstein_invariants, weierstrass
from semiabel.errors import (
    ConflictingCurveSpec,
    InternalInconsistency,
    SchemaError,
)
from semiabel.lattice import make_lattice
from semiabel.semiabelian import ExtensionParam, exp_G, quasi_quasi_periods

from conftest import CM_J, CM_TWISTS, VARPI, cm_twist

SQ = {"curve": {"g2": 4.0, "g3": 0.0}}


def _cfg(doc, task, **kw):
    return parse_config(json.dumps(doc), task=task, **kw)


def _c(v):
    return complex(v["re"], v["im"])


def _cplx(v):
    """A number as a config's {re, im} node."""
    return {"re": float(v.real), "im": float(v.imag)}


def _emitted(cfg):
    """run_job's document as emit_json writes it, and the exit code."""
    doc, code = run_job(cfg)
    return json.loads(emit_json(doc)), code


# ---------------------------------------------------------------------------
# JSON emitter
# ---------------------------------------------------------------------------


def test_emit_json_sorted_keys_and_float_format():
    out = emit_json({"b": 1.5, "a": 2, "c": {"z": True, "y": None}})
    assert out == '{"a":2,"b":1.5,"c":{"y":null,"z":true}}'
    # 17 significant digits round-trip every double
    out = emit_json({"x": 0.1})
    assert json.loads(out)["x"] == 0.1


def test_emit_json_complex_and_nonfinite():
    assert emit_json({"v": 1 + 2j}) == '{"v":{"im":2,"re":1}}'
    with pytest.raises(ValueError):
        emit_json({"v": float("nan")})
    with pytest.raises(ValueError):
        emit_json({"v": float("inf")})


def test_emit_json_refuses_a_value_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize"):
        emit_json({"v": object()})


def test_emit_json_deterministic():
    doc = {"values": [0.1 + 0.2, math.pi, [1e-300, -0.0]], "n": 7}
    assert emit_json(doc) == emit_json(dict(reversed(list(doc.items()))))


def _reference_emit_json(doc):
    """emit_json as it was before it returned each value's text, frozen as
    the reference: one walk appends every token to a shared list."""
    out = []

    def fmt_float(x):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite number in report: {x}")
        return f"{x:.17g}"

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
            out.append(fmt_float(v))
        elif isinstance(v, complex):
            walk({"re": v.real, "im": v.imag})
        elif isinstance(v, str):
            out.append(json.dumps(v))
        else:
            raise TypeError(f"cannot serialize {type(v)}")

    walk(doc)
    return "".join(out)


def _writer_outcome(write, doc):
    """The text a writer returns for doc, or its exception's type and message."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf)
_REPORT_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**63, max_value=2**200).flatmap(
            lambda n: st.sampled_from((n, -n))
        ),
        st.floats(),
        st.sampled_from(_EDGE_FLOATS),
        st.complex_numbers(),
        st.builds(complex, st.sampled_from(_EDGE_FLOATS), st.sampled_from(_EDGE_FLOATS)),
        st.text(max_size=6),
        st.builds(object),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(doc=_REPORT_VALUES)
@example(doc={"a": math.nan, "b": object()})
@example(doc={"a": [object()], "b": math.inf})
@example(doc=[complex(math.nan, math.inf), -math.inf])
def test_emit_json_matches_the_reference_walk(doc):
    """Every document gives the reference's text, or its exception with its
    message; of two bad values the first in output order raises."""
    assert _writer_outcome(emit_json, doc) == _writer_outcome(_reference_emit_json, doc)


def test_main_calls_the_writer_once_per_report(tmp_path, capsys, monkeypatch):
    """verify --json and classify --json each write their report with one
    emit_json call (semibench traces one span per public call)."""
    calls = []

    def counted(doc, write=cli.emit_json):
        calls.append(doc)
        return write(doc)

    monkeypatch.setattr(cli, "emit_json", counted)
    motive = verify._table_instances()[0][0]
    for task, doc in (("verify", SQ), ("classify", _motive_config(motive))):
        calls.clear()
        assert main([task, "--config", _write(tmp_path, doc), "--json"]) == 0
        assert len(calls) == 1, task
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_defaults():
    cfg = _cfg(SQ, "periods")
    assert cfg.task == "periods"
    assert cfg.tol == 1e-9
    assert cfg.max_height == 1000
    assert cfg.seed == 0
    assert cfg.curve.g2 == 4.0
    # the resolved lattice is the lemniscatic one
    gens = sorted(
        abs(m * cfg.lattice.omega1 + n * cfg.lattice.omega2)
        for m in (-1, 0, 1)
        for n in (-1, 0, 1)
        if (m, n) != (0, 0)
    )
    assert gens[0] == pytest.approx(VARPI, abs=1e-8)


def test_parse_config_lattice_form_and_overrides():
    doc = {
        "curve": {"lattice": {"w1": 2.0, "w2": {"re": 0.5, "im": 2.5}}},
        "tol": 1e-6,
        "seed": 11,
        "max_height": 50,
        "n_max": 10,
    }
    cfg = _cfg(doc, "periods")
    assert (cfg.tol, cfg.seed, cfg.max_height) == (1e-6, 11, 50)
    # CLI flags beat the document
    cfg = _cfg(doc, "periods", seed=3, tol=1e-4)
    assert (cfg.tol, cfg.seed) == (1e-4, 3)


@pytest.mark.parametrize(
    "doc,task,path",
    (
        ({}, "periods", "/curve"),
        ({"curve": {"g2": 4.0}}, "periods", "/curve"),
        ({"curve": {"lattice": {"w1": 1.0}}}, "periods", "/curve/lattice"),
        ({**SQ, "task": "eval"}, "periods", "/task"),
        ({**SQ, "task": "frobnicate"}, None, "/task"),
        ({**SQ, "tol": -1.0}, "periods", "/tol"),
        ({**SQ, "max_height": 0}, "periods", "/max_height"),
        ({**SQ, "seed": "x"}, "periods", "/seed"),
        ({**SQ, "tol": float("inf")}, "periods", "/tol"),
        ({**SQ, "tol": True}, "periods", "/tol"),
        ({**SQ, "max_height": True}, "periods", "/max_height"),
        ({**SQ, "seed": True}, "periods", "/seed"),
        ({**SQ, "seed": -1}, "periods", "/seed"),
    ),
)
def test_parse_config_schema_errors(doc, task, path):
    with pytest.raises(SchemaError) as exc:
        _cfg(doc, task)
    assert exc.value.path == path


def test_parse_config_invalid_json():
    with pytest.raises(SchemaError):
        parse_config("{not json", task="periods")


def test_conflicting_curve_spec():
    doc = {"curve": {"g2": 4.0, "g3": 0.0, "lattice": {"w1": 1.0, "w2": 1j}}}
    with pytest.raises(ConflictingCurveSpec):
        parse_config(json.dumps(doc, default=str), task="periods")


# ---------------------------------------------------------------------------
# task handlers
# ---------------------------------------------------------------------------


def test_job_periods():
    doc, code = _emitted(_cfg(SQ, "periods"))
    assert code == 0
    assert _c(doc["g2"]) == pytest.approx(4.0)
    assert abs(_c(doc["g3"])) < 1e-12
    # Legendre relation from the reported quantities
    w1, w2 = _c(doc["w1"]), _c(doc["w2"])
    e1, e2 = _c(doc["eta1"]), _c(doc["eta2"])
    assert abs(e1 * w2 - e2 * w1 - 2j * math.pi) < 1e-9


def test_job_eval():
    doc, code = _emitted(_cfg({**SQ, "z": [{"re": 0.9, "im": 0.4}]}, "eval"))
    assert code == 0
    v = doc["values"][0]
    p, pp = _c(v["wp"]), _c(v["wp_prime"])
    assert abs(pp**2 - (4 * p**3 - 4.0 * p)) < 1e-8 * max(1.0, abs(p) ** 3)


def test_job_expg_logg_round_trip():
    q = {"log": {"re": 0.7, "im": 0.9}}
    base = {**SQ, "q": q, "z": {"re": 0.8, "im": 0.3}, "t": {"re": 0.2, "im": -0.1}}
    doc, code = _emitted(_cfg(base, "expg"))
    assert code == 0
    logdoc, code = _emitted(
        _cfg({**SQ, "q": q, "point": {"base": doc["base"], "fiber": doc["fiber"]}}, "logg")
    )
    assert code == 0
    # re-exponentiating the logarithm reproduces the point
    redoc, _ = _emitted(
        _cfg({**SQ, "q": q, "z": logdoc["z"], "t": logdoc["t"]}, "expg")
    )
    assert _c(redoc["fiber"]) == pytest.approx(_c(doc["fiber"]), rel=1e-8)
    assert _c(redoc["base"]["x"]) == pytest.approx(_c(doc["base"]["x"]), rel=1e-8)


def test_job_pairing():
    w = VARPI
    doc, code = _emitted(
        _cfg({**SQ, "z": w, "zstar": {"re": 0.0, "im": w / w**2}}, "pairing")
    )
    assert code == 0
    # a lattice generator against a dual generator pairs to 1
    assert _c(doc["weil"]) == pytest.approx(1.0, abs=1e-9)
    doc, code = _emitted(
        _cfg(
            {**SQ, "z": w / 2, "zstar": {"re": 0.0, "im": 0.5 / w}, "N": 2},
            "pairing",
        )
    )
    assert code == 0
    assert doc["N"] == 2
    assert _c(doc["weil_torsion"]) == pytest.approx(-1.0, abs=1e-8)


def test_job_classify_and_bounds():
    w = VARPI
    motive = {
        "motive": {
            "extension_params": [{"log": {"re": w / 2, "im": 0.0}}],
            "points": [{"base": "O", "fiber": 1.0}],
        }
    }
    doc, code = run_job(_cfg({**SQ, **motive}, "classify"))
    assert code == 0
    assert doc["table_row"] == "q-r-torsion"
    assert doc["cm"] is True and doc["cm_discriminant"] == -4
    assert (doc["dim_UR"], doc["dim_Gal"]) == (0, 2)
    bdoc, code = run_job(_cfg({**SQ, **motive}, "bounds"))
    assert code == 0
    assert bdoc["bounds"] == {"SA": 2, "WSA_V1": 0, "WSA_explicit": 0}


def test_job_classify_independent_bounds():
    w = VARPI
    q = {"log": {"re": 0.2 * math.sqrt(5) * w, "im": 0.11 * math.sqrt(7) * w}}
    expdoc, _ = _emitted(
        _cfg(
            {
                **SQ,
                "q": q,
                "z": {"re": 0.1 * math.pi * w, "im": 0.07 * math.sqrt(3) * w},
                "t": 0.3,
            },
            "expg",
        )
    )
    motive = {
        "motive": {
            "extension_params": [q],
            "points": [{"base": expdoc["base"], "fiber": expdoc["fiber"]}],
        }
    }
    doc, code = _emitted(_cfg({**SQ, **motive}, "bounds"))
    assert code == 0
    assert doc["bounds"]["WSA_V1"] == 3
    assert doc["bounds"]["WSA_explicit"] == 3
    assert doc["bounds"]["SA"] == 7
    # a motive without marked points is rejected outright
    bad = {"motive": {"extension_params": [q], "points": []}}
    with pytest.raises(SchemaError):
        run_job(_cfg({**SQ, **bad}, "classify"))


def table_report_lines():
    """The golden lines of golden_table_reports.jsonl: the classify report
    of each table instance."""
    return [
        emit_json(motivic_galois_dims(m).as_dict()) + "\n"
        for m, *_ in verify._table_instances()
    ]


def test_table_reports_match_golden_bytes():
    """The classify report of each table instance, byte for byte."""
    golden = Path(__file__).with_name("golden_table_reports.jsonl").read_text()
    assert table_report_lines() == golden.splitlines(keepends=True)


def test_table_reports_on_warm_lattices_match_golden_bytes():
    """A second pass in one process, on the lattices and constants the
    first pass left in make_lattice's table, gives the same bytes."""
    golden = Path(__file__).with_name("golden_table_reports.jsonl").read_text()
    cold = table_report_lines()
    warm = table_report_lines()
    assert cold == warm == golden.splitlines(keepends=True)


def _motive_config(m):
    """The classify config a user writes for a motive with n = s = 1 on a
    lattice-given curve."""
    (q,), (R,) = m.extension_params, m.points
    base = "O" if R.base.is_identity else {"x": _cplx(R.base.x), "y": _cplx(R.base.y)}
    return {
        "curve": {"lattice": {"w1": _cplx(m.lattice.omega1), "w2": _cplx(m.lattice.omega2)}},
        "motive": {
            "extension_params": [{"log_dual": _cplx(q.q_log_dual)}],
            "points": [{"base": base, "fiber": _cplx(R.fiber)}],
        },
    }


def test_classify_json_of_table_configs_matches_golden_bytes(tmp_path, capsys):
    """`classify --json` on a config written from each table instance
    prints the golden report plus its task and seed."""
    golden = Path(__file__).with_name("golden_table_reports.jsonl").read_text()
    got = []
    for m, *_ in verify._table_instances():
        path = _write(tmp_path, _motive_config(m))
        assert main(["classify", "--config", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc.pop("task"), doc.pop("seed")) == ("classify", 0)
        got.append(emit_json(doc))
    assert got == golden.splitlines()


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_main_success_and_json(tmp_path, capsys):
    path = _write(tmp_path, SQ)
    assert main(["periods", "--config", path, "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["task"] == "periods"


def test_main_missing_config(tmp_path, capsys):
    assert main(["periods", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_config_not_utf8(tmp_path, capsys):
    """A config that is not UTF-8 is bad input: one `error:` line, exit 1,
    and no traceback from the decode."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    _one_error_line(main(["periods", "--config", str(path)]), capsys)


@pytest.mark.parametrize(
    "argv",
    (["verify"], ["verify", "--config", "cfg.json", "--seed", "abc"],
     ["nosuchtask", "--config", "cfg.json"]),
    ids=("no-config", "seed-abc", "unknown-task"),
)
def test_main_usage_errors_exit_1(argv, capsys):
    """A usage error is bad input, exit 1 with argparse's usage line: exit 2
    is kept for an identity failure."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: semiabel") and "error:" in err, err


def test_main_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: semiabel")


@pytest.mark.parametrize("u", CM_TWISTS, ids=str)
def test_main_curve_below_the_discriminant_tolerance_exits_1(u, tmp_path, capsys):
    """A twist of the D = -163 curve is smooth, but its periods are beyond
    working precision: exit 1 with one error line naming the relative
    discriminant, not the singular curve's."""
    inv = cm_twist(CM_J[-163], u)
    path = _write(tmp_path, {"curve": {"g2": inv.g2, "g3": inv.g3}})
    assert main(["periods", "--config", path, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: the relative discriminant 6.") and "beyond working precision" in err


def test_main_schema_error_exit_1(tmp_path, capsys):
    path = _write(tmp_path, {"curve": {"g2": 4.0}})
    assert main(["periods", "--config", path]) == 1
    assert "/curve" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, extra, flags, key",
    (
        ("classify", ', "tol": 1e400', (), "tol"),  # JSON reads 1e400 as inf
        ("classify", "", ("--tol", "inf"), "tol"),
        ("classify", ', "tol": true', (), "tol"),
        ("classify", ', "max_height": true', (), "max_height"),
        ("verify", ', "seed": true', (), "seed"),
        ("verify", "", ("--seed", "-1"), "seed"),
    ),
)
def test_main_rejects_infinite_bool_and_negative_config_scalars_exit_1(
    tmp_path, capsys, task, extra, flags, key
):
    """tol is a finite positive number, max_height a positive int and seed
    a non-negative int, and a bool is none of them.  An infinite tol would
    classify this p-torsion motive as q-r-torsion, true would be read as
    max_height 1 or echoed as the seed, and parse_config refuses a negative
    seed."""
    m = next(m for m, row, *_ in verify._table_instances() if row == "p-torsion")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_motive_config(m))[:-1] + extra + "}")
    assert main([task, "--config", str(path), "--json", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: /{key}: ")


@pytest.mark.parametrize(
    "task, key, value",
    (
        ("pairing", "N", True),
        ("classify", "motive/cm_override", True),
        ("classify", "motive/cm_override", False),
    ),
)
def test_main_rejects_bool_integer_fields_exit_1(tmp_path, capsys, task, key, value):
    """N and cm_override are integers, and a bool is not one: true would
    be echoed as N, and true or false compared with the detected CM
    discriminant."""
    if task == "pairing":
        doc = {**SQ, "z": VARPI / 2, "zstar": {"re": 0.0, "im": 0.5 / VARPI}, "N": value}
    else:
        m = next(m for m, row, *_ in verify._table_instances() if row == "p-torsion")
        doc = _motive_config(m)
        doc["motive"]["cm_override"] = value
    assert main([task, "--config", _write(tmp_path, doc), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: /{key}: expected ")


def test_main_periods_of_a_curve_with_small_invariants_exit_0(tmp_path, capsys):
    # the square lattice scaled by 20: g2 = 4/20^4, a smooth curve
    path = _write(tmp_path, {"curve": {"g2": 2.5e-5, "g3": 0.0}})
    assert main(["periods", "--config", path]) == 0


def test_main_classify_of_a_67_torsion_point_exit_0(tmp_path, capsys):
    """R = exp_G(omega1/67, -g1/67) is torsion of order 67: a valid
    input classified as r-torsion, not an identity failure."""
    L = make_lattice(1.0, 1j)
    q = ExtensionParam.from_primal(complex(0.2 * math.sqrt(5), 0.11 * math.sqrt(7)), L)
    g1, _ = quasi_quasi_periods(q, L)
    R = exp_G(L.omega1 / 67, -g1 / 67, q, L)
    m = OneMotiveElliptic(eisenstein_invariants(L), L, (q,), (R,))
    path = _write(tmp_path, _motive_config(m))
    assert main(["classify", "--config", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["table_row"] == "r-torsion"


@pytest.mark.parametrize("N,M", ((67, 15), (31, 33), (101, 10)))
def test_main_classify_of_r_torsion_of_order_above_max_height_exit_0(
    tmp_path, capsys, N, M
):
    """R = exp_G(omega1/N, -g1/N + 2*pi*i/M) is torsion of order N*M >
    max_height: dim Z(1) reads R's fiber after the move along P's torsion
    certificate, where its relation with 2*pi*i has height M."""
    L = make_lattice(1.0, 1j)
    q = ExtensionParam.from_primal(complex(0.2 * math.sqrt(5), 0.11 * math.sqrt(7)), L)
    g1, _ = quasi_quasi_periods(q, L)
    R = exp_G(L.omega1 / N, -g1 / N + 2j * math.pi / M, q, L)
    m = OneMotiveElliptic(eisenstein_invariants(L), L, (q,), (R,))
    path = _write(tmp_path, _motive_config(m))
    assert main(["classify", "--config", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["table_row"], doc["dim_Z1"], doc["dim_UR"]) == ("r-torsion", 0, 2)


def test_main_classify_of_a_far_parameter_log_exit_0(tmp_path, capsys):
    """log q = mu + 40 + 17i on Z + Zi is another representative of the
    same Q: the motive is classified as with mu, not refused with a math
    range error from sigma at a far translate."""
    L = make_lattice(1.0, 1j)
    mu = complex(0.2 * math.sqrt(5), 0.11 * math.sqrt(7))
    z = complex(0.1 * math.pi, 0.07 * math.sqrt(3))
    R = exp_G(z, 0.3, ExtensionParam.from_primal(mu, L), L)
    docs = []
    for log in (mu, mu + 40 + 17j):
        m = OneMotiveElliptic(
            eisenstein_invariants(L), L, (ExtensionParam.from_primal(log, L),), (R,)
        )
        doc = _motive_config(m)
        doc["motive"]["extension_params"] = [{"log": _cplx(log)}]
        assert main(["classify", "--config", _write(tmp_path, doc), "--json"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["table_row"] == "independent"
    assert docs[1] == docs[0]


def test_main_domain_error_exit_1(tmp_path, capsys):
    # evaluating at a pole is an input error, not an identity failure
    path = _write(tmp_path, {**SQ, "z": 0.0})
    assert main(["eval", "--config", path]) == 1


@pytest.mark.parametrize(
    "task,doc",
    (
        ("expg", {**SQ, "q": {"log": {"re": 0.7, "im": 0.9}}, "z": 0.5, "t": 1000}),
        ("periods", {"curve": {"g2": 1e308, "g3": 1e308}}),
    ),
)
def test_main_overflow_from_input_exit_1(tmp_path, capsys, task, doc):
    path = _write(tmp_path, doc)
    assert main([task, "--config", path]) == 1
    assert "identity failure" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "task,doc",
    (
        ("eval", {**SQ, "z": 1e200}),
        ("expg", {**SQ, "q": {"log": {"re": 0.7, "im": 0.9}}, "z": 1e200, "t": 0.5}),
        # the pairing's phase is rounding here; it used to exit 2
        ("pairing", {"curve": {"lattice": {"w1": {"re": 1.3, "im": 0.2},
                                           "w2": {"re": 0.4, "im": 1.7}}},
                     "z": 1e9, "zstar": 0.3}),
        # e^t f_q(z) overflows; it used to end in a traceback
        ("expg", {"curve": {"lattice": {"w1": 1, "w2": {"re": 0, "im": 1}}},
                  "q": {"log": {"re": 0.31, "im": 0.17}},
                  "z": {"re": 0.0001, "im": 0}, "t": 709}),
    ),
)
def test_main_argument_beyond_working_precision_exit_1(tmp_path, capsys, task, doc):
    path = _write(tmp_path, doc)
    assert main([task, "--config", path]) == 1
    assert "beyond working precision" in capsys.readouterr().err


@pytest.mark.parametrize("task", ("periods", "classify"))
@pytest.mark.parametrize("lam", (1e52, 1e-52, 1e60, 1e-60, 1e155, 1e-155))
def test_main_lattice_past_the_double_range_exit_1(tmp_path, capsys, task, lam):
    """g2 and g3 of the lattice would be inf, NaN or a bare overflow: an
    `error:` line and exit 1, not a traceback or a false collinear basis."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lattice = {"w1": J(lam + 0j), "w2": J(lam * complex(0.3, 1.1))}
    doc = {"curve": {"lattice": lattice}, "motive": {
        "extension_params": [{"log": J(0.31 * lam + 0.2j * lam)}],
        "points": [{"base": "O", "fiber": 2.0}],
    }}
    assert main([task, "--config", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beyond working precision" in err, err


@pytest.mark.parametrize("lam", (1e30, 1e-30, 1e-50))
def test_main_periods_discriminant_past_the_double_range_exit_1(tmp_path, capsys, lam):
    """g2^3 - 27 g3^2 scales as omega1^-12, so it leaves the double range
    long before g2 and g3 do: at 1e30 it is 0, at 1e-30 the power
    overflows, at 1e-50 it is NaN.  A lattice's discriminant is never 0,
    so each is an `error:` line naming |omega1| and exit 1."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lattice = {"w1": J(lam + 0j), "w2": J(lam * complex(0.3, 1.1))}
    path = _write(tmp_path, {"curve": {"lattice": lattice}})
    assert main(["periods", "--json", "--config", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"|omega1| = {lam:.3g}" in err and "beyond working precision" in err, err


@pytest.mark.parametrize("lam", (1e-20, 1e20))
def test_main_periods_discriminant_inside_the_double_range(tmp_path, capsys, lam):
    """Inside the range the discriminant is a normal, nonzero double."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lattice = {"w1": J(lam + 0j), "w2": J(lam * complex(0.3, 1.1))}
    path = _write(tmp_path, {"curve": {"lattice": lattice}})
    assert main(["periods", "--json", "--config", path]) == 0
    disc = json.loads(capsys.readouterr().out)["discriminant"]
    assert abs(complex(disc["re"], disc["im"])) >= sys.float_info.min


_Q_LOG = {"log": {"re": 0.7, "im": 0.9}}


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize(
    "task,doc",
    (
        ("periods", lambda x: {"curve": {"g2": x, "g3": 0.0}}),
        (
            "periods",
            lambda x: {"curve": {"lattice": {"w1": 1.0, "w2": {"re": 0, "im": x}}}},
        ),
        (
            "logg",
            lambda x: {
                **SQ, "q": _Q_LOG, "point": {"base": {"x": x, "y": 1.0}, "fiber": 1.0}
            },
        ),
        ("logg", lambda x: {**SQ, "q": _Q_LOG, "point": {"base": "O", "fiber": x}}),
        ("eval", lambda x: {**SQ, "z": x}),
    ),
    ids=("g2", "lattice-w2-im", "point-x", "fiber", "eval-z"),
)
def test_main_nonfinite_input_exit_1(tmp_path, capsys, task, doc, bad):
    """json.loads accepts NaN and Infinity; the CLI rejects them as input."""
    path = _write(tmp_path, doc(bad))
    assert main([task, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "task,doc,path",
    (
        ("periods", {"curve": {"g2": 10**400, "g3": 0.0}}, "/curve/g2"),
        ("eval", {**SQ, "z": [10**400]}, "/z/0"),
    ),
)
def test_main_integer_past_the_double_range_exit_1(tmp_path, capsys, task, doc, path):
    """A JSON integer too large for a double is refused at its path; it
    used to reach math.isfinite and end in a path-less OverflowError."""
    assert main([task, "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {path}: expected a finite number\n"


def _one_error_line(code, capsys):
    """Exit 1 with nothing on stdout and one `error:` line on stderr."""
    out, err = capsys.readouterr()
    assert code == 1 and out == "", (code, out)
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_main_sigma_and_f_q_past_the_double_range_exit_1(tmp_path, capsys):
    """On Z*1e6 + Z*1e6i sigma at z = 21.15e6, and f_q at the log of P =
    (wp, wp')(0.37e6 + 0.21e6i) for log q = 20.7e6 + 0.3e6i, leave the
    double range: one `error:` line and exit 1.  They used to come out inf
    and NaN, and the report's writer ended in a traceback."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    curve = {"lattice": {"w1": 1e6, "w2": J(1e6j)}}
    p, dp, _ = weierstrass(0.37e6 + 0.21e6j, make_lattice(1e6, 1e6j))
    point = {"base": {"x": J(p), "y": J(dp)}, "fiber": 2.0}
    for task, doc in (
        ("eval", {"curve": curve, "z": 21.15e6}),
        ("logg", {"curve": curve, "q": {"log": J(20.7e6 + 0.3e6j)}, "point": point}),
    ):
        code = main([task, "--json", "--config", _write(tmp_path, doc)])
        _one_error_line(code, capsys)


def _far_argument_configs(n, seed):
    """n seeded (task, config) pairs, eval, expg and logg in turn, on
    lattices Z*w1 + Z*w1*tau turned by a random phase, |w1| in 1e5 ... 1e8,
    with every argument 15 to 40 periods out: eval's z, expg's z and log
    q, logg's log q (its point is (wp, wp') at a cell point)."""
    rng = random.Random(seed)
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731

    def far(w1, w2):
        r, a = rng.uniform(15, 40), rng.uniform(0, 2 * math.pi)
        return r * math.cos(a) * w1 + r * math.sin(a) * w2

    for i in range(n):
        w1 = 10 ** rng.uniform(5, 8) * cmath.exp(2j * math.pi * rng.random())
        w2 = w1 * complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.5))
        doc = {"curve": {"lattice": {"w1": J(w1), "w2": J(w2)}}}
        task = ("eval", "expg", "logg")[i % 3]
        if task == "eval":
            doc["z"] = J(far(w1, w2))
        elif task == "expg":
            doc.update(z=J(far(w1, w2)), q={"log": J(far(w1, w2))}, t=0.5)
        else:
            z = rng.uniform(0.1, 0.9) * w1 + rng.uniform(0.1, 0.9) * w2
            p, dp, _ = weierstrass(z, make_lattice(w1, w2))
            doc["q"] = {"log": J(far(w1, w2))}
            doc["point"] = {"base": {"x": J(p), "y": J(dp)}, "fiber": 2.0}
        yield task, doc


def test_main_far_arguments_exit_0_or_one_error_line(tmp_path, capsys):
    """Nothing escapes cli.main at far arguments on large lattices: each
    of 300 seeded configs (_far_argument_configs) exits 0, or exits 1
    with an empty stdout and one `error:` line.  Before sigma and f_q
    refused to leave the double range, 3 eval and 3 logg configs of this
    seed ended in a traceback (an inf or NaN in the report)."""
    codes = []
    for k, (task, doc) in enumerate(_far_argument_configs(300, 4)):
        code = main([task, "--json", "--config", _write(tmp_path, doc, f"{k}.json")])
        if code == 0:
            capsys.readouterr()
        else:
            _one_error_line(code, capsys)
        codes.append(code)
    assert 0 in codes and 1 in codes


def test_main_logg_with_the_identity_as_extension_parameter_exit_1(tmp_path, capsys):
    """"q": "O" names the identity, which parametrizes no extension."""
    path = _write(tmp_path, {**SQ, "q": "O", "point": {"base": "O", "fiber": 1.0}})
    assert main(["logg", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: /q: the identity cannot parametrize an extension\n"


def test_main_logg_and_classify_at_base_minus_q_exit_1(tmp_path, capsys):
    """f_q vanishes at the base point -Q, which has no fiber logarithm:
    exit 1 with an error line, as expg does there, not a traceback."""
    q = 0.31 + 0.47j
    curve = {"lattice": {"w1": 1.0, "w2": {"re": 0.0, "im": 1.0}}}
    p, dp, _ = weierstrass(-q, make_lattice(1.0, 1j))
    point = {"base": {"x": _cplx(p), "y": _cplx(dp)}, "fiber": 2.0}
    docs = {
        "logg": {"curve": curve, "q": {"log": _cplx(q)}, "point": point},
        "classify": {
            "curve": curve,
            "motive": {"extension_params": [{"log": _cplx(q)}], "points": [point]},
        },
    }
    for task, doc in docs.items():
        assert main([task, "--config", _write(tmp_path, doc)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: base point is -Q: no fiber logarithm\n"


def test_main_classify_past_max_values_exit_1(tmp_path, capsys):
    """For n = 2, s = 3 the last dim Z(1) question has 1 + 2s + n*s = 13
    values, one past MAX_VALUES: exit 1 with an error line naming both."""
    rng = np.random.default_rng(16)
    L = make_lattice(1.0, 1j)

    def uniform():
        a1, a2 = rng.random(2)
        return complex(a1 * L.omega1 + a2 * L.omega2)

    points = []
    for _ in range(2):
        p, dp, _ = weierstrass(uniform(), L)
        base = {"x": _cplx(p), "y": _cplx(dp)}
        points.append({"base": base, "fiber": _cplx(np.exp(uniform()))})
    doc = {
        "curve": {"lattice": {"w1": 1.0, "w2": {"re": 0.0, "im": 1.0}}},
        "motive": {
            "extension_params": [{"log": _cplx(uniform())} for _ in range(3)],
            "points": points,
        },
    }
    assert main(["classify", "--config", _write(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "error: a relation question of 13 values; at most 12 are supported\n"


_O_POINT = {"base": "O", "fiber": 1.0}


@pytest.mark.parametrize("task", ("classify", "bounds"))
@pytest.mark.parametrize(
    "key, motive",
    (
        ("points", {"points": []}),
        ("points", {"points": None}),
        ("points", {"points": 5}),
        ("points", {"points": "x"}),
        ("extension_params", {"points": [_O_POINT], "extension_params": None}),
        ("extension_params", {"points": [_O_POINT], "extension_params": {"log": 1}}),
    ),
    ids=("empty", "null", "number", "string", "params-null", "params-object"),
)
def test_main_malformed_motive_list_exit_1(tmp_path, capsys, task, key, motive):
    """points is a nonempty list and extension_params a list: anything
    else is a schema error naming the list itself, not a traceback, and
    a string or an object is not read item by item."""
    doc = {**SQ, "motive": {"extension_params": [_Q_LOG], **motive}}
    assert main([task, "--config", _write(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"error: /motive/{key}: ")


@pytest.mark.parametrize(
    "extra, flags", ((', "tol": 1e-16', ()), ("", ("--tol", "1e-200")))
)
def test_main_rejects_a_tolerance_below_the_rounding_floor_exit_1(
    tmp_path, capsys, extra, flags
):
    """Below 2**-50, eight unit roundoffs, table rows classify wrong at
    exit 0 (1e-16), or the height cap overflows (1e-160) and divides by
    zero (1e-200); the tolerance is refused as input instead."""
    m = next(m for m, row, *_ in verify._table_instances() if row == "p-torsion")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_motive_config(m))[:-1] + extra + "}")
    assert main(["classify", "--config", str(path), "--json", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: /tol: ")


def test_main_expg_at_a_lattice_point_prints_the_identity(tmp_path, capsys):
    """exp_G maps z = omega1 + omega2 to (O, e^t): the base prints as "O"."""
    L = _cfg(SQ, "periods").lattice
    doc = {**SQ, "q": _Q_LOG, "z": _cplx(L.omega1 + L.omega2), "t": 0.3}
    assert main(["expg", "--config", _write(tmp_path, doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"] == "O"
    assert _c(out["fiber"]) == cmath.exp(0.3)


def test_main_classify_of_a_zero_fiber_exit_1(tmp_path, capsys):
    """A marked point with fiber 0 is not on the extension: the classifier
    reaches its fiber logarithm and exits 1 with an error line."""
    motive = {"extension_params": [_Q_LOG], "points": [{"base": "O", "fiber": 0.0}]}
    assert main(["classify", "--config", _write(tmp_path, {**SQ, "motive": motive})]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: fiber coordinate must be nonzero\n"


def test_eval_sums_one_theta_series_per_point(monkeypatch):
    """wp, wp', zeta and sigma at a point come from one series: a
    two-point eval on a lattice with no evaluation yet sums two, a repeat
    sums none, and its values are byte for byte those of weierstrass and
    sigma_w called apart on another lattice with the same basis."""
    import semiabel.elliptic as elliptic
    from semiabel.lattice import Lattice

    zs = (0.9 + 0.4j, -1.3 + 2.7j)
    cfg = _cfg({**SQ, "z": [_cplx(z) for z in zs]}, "eval")
    apart = Lattice(cfg.lattice.omega1, cfg.lattice.omega2)
    expected = []
    for z in zs:
        p, dp, zeta = weierstrass(z, apart)
        sigma = elliptic.sigma_w(z, apart)
        expected.append(
            {"z": _cplx(z), "wp": _cplx(p), "wp_prime": _cplx(dp),
             "zeta": _cplx(zeta), "sigma": _cplx(sigma)}
        )
    theta, calls = elliptic.theta1_bundle, []

    def counted(v, weights):
        calls.append(v)
        return theta(v, weights)

    monkeypatch.setattr(elliptic, "theta1_bundle", counted)
    doc, _ = run_job(cfg)
    assert len(calls) == 2
    assert emit_json(doc["values"]) == emit_json(expected)
    calls.clear()
    assert run_job(cfg)[0]["values"] == doc["values"] and calls == []


def test_main_identity_failure_exit_2(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        raise InternalInconsistency("dimension formula violated")

    monkeypatch.setitem(cli._HANDLERS, "periods", boom)
    path = _write(tmp_path, SQ)
    assert main(["periods", "--config", path]) == 2
    assert "identity failure" in capsys.readouterr().err


def test_main_verify_deterministic(tmp_path, capsys):
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--config", path, "--json", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["overall_pass"] is True
    assert len(doc["entries"]) == 12
    assert [e["pass"] for e in doc["entries"]] == [True] * 12
    names = [e["name"] for e in doc["entries"]]
    assert names == sorted(names)


def test_main_verify_failure_exit_2(tmp_path, capsys, monkeypatch):
    """A failing identity exits 2, in JSON and in text, and the text
    line does not claim the residual is under its tolerance."""
    monkeypatch.setattr(verify, "_check_kernel", lambda rng: [1.0])
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["overall_pass"] is False
    assert main(["verify", "--config", path]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  kernel-lattice: max residual 1.000e+00 >= 1.0e-08")
    assert lines[-1] == "overall: FAIL"


@pytest.mark.parametrize(
    "name,value,check",
    (
        ("weierstrass", lambda z, L: (math.nan,) * 3, "weierstrass-ode"),
        ("zeta_w", lambda z, L: complex(math.nan, math.nan), "third-kind-periods-contour"),
    ),
    ids=("wp", "zeta"),
)
def test_verify_nan_residual_is_an_identity_failure(tmp_path, capsys, monkeypatch, name, value, check):
    """A NaN residual fails its check as an identity failure: exit 2, one
    line naming the check, no report.  A NaN from wp used to pass as max
    residual 0.0 (max skips it), and one from zeta ended in round's
    ValueError."""
    monkeypatch.setattr(verify, name, value)
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, (out, err)
    assert err.startswith(f"identity failure: {check}:"), err


def test_verify_fails_on_a_wrong_table_row(tmp_path, capsys, monkeypatch):
    """A classification that names a wrong row for the independent
    instances fails dimension-table alone: overall false, exit 2."""

    def wrong_row(motive):
        rep = motivic_galois_dims(motive)
        if rep.table_row != "independent":
            return rep
        fields = {f: getattr(rep, f) for f in rep._fields}
        return ClassificationReport(**{**fields, "table_row": "dependent-not-deficient"})

    monkeypatch.setattr(verify, "motivic_galois_dims", wrong_row)
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall_pass"] is False
    assert [e["name"] for e in doc["entries"] if not e["pass"]] == ["dimension-table"]


def test_classify_of_a_row_against_another_dim_UR_exit_2(tmp_path, capsys, monkeypatch):
    """The classifier's cross-check of the row against dim UR reaches the
    user as an identity failure."""
    m = next(m for m, row, *_ in verify._table_instances() if row == "independent")
    monkeypatch.setitem(classifier._TABLE_DIMS, "independent", 6)
    path = _write(tmp_path, _motive_config(m))
    assert main(["classify", "--config", path, "--json"]) == 2
    assert "identity failure: row 'independent' expects dim UR = 6" in capsys.readouterr().err


def test_verify_reports_the_job_tolerance(tmp_path, capsys):
    """The document's tolerance is the job's, not a check's."""
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json", "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out.endswith('"tolerance":9.9999999999999995e-07}\n')


def test_formula_consistency_reads_every_table_instance():
    """All fifteen instances are checked, the non-CM ones past the sixth
    included: a tenth entry with dim UR != 2 dim B + dim Z(1) counts."""
    from types import SimpleNamespace

    ok = (SimpleNamespace(dim_UR=3, dim_B=1, dim_Z1=1, dim_Gal=7), "p-torsion", 3, 7, False)
    broken = (SimpleNamespace(dim_UR=3, dim_B=1, dim_Z1=0, dim_Gal=7), "p-torsion", 3, 7, False)
    table = [ok] * 15
    assert verify._worst(verify._check_formula_consistency(table)) == 0
    table[9] = broken
    assert verify._worst(verify._check_formula_consistency(table)) >= 1


def test_verify_passes_every_check_at_seeds_0_to_11():
    """Each seed draws from its own streams, so twelve seeds are twelve
    independent samples, and every check passes on each."""
    for seed in range(12):
        doc = verify.report(seed, 1e-9)
        assert [e["name"] for e in doc["entries"] if not e["pass"]] == [], seed


VERIFY_GOLDEN_SEEDS = (0, 5, 17)


def verify_report_line(tmp_path, seed):
    """The golden line of golden_verify_reports.jsonl for one seed:
    verify --json on y^2 = 4x^3 - 4x."""
    return _run_json(tmp_path, "verify", SQ, "--seed", str(seed))


@pytest.mark.parametrize("index, seed", enumerate(VERIFY_GOLDEN_SEEDS))
def test_verify_report_matches_golden_bytes(tmp_path, index, seed):
    """verify --json, byte for byte, one golden line per seed."""
    golden = Path(__file__).with_name("golden_verify_reports.jsonl").read_text()
    assert verify_report_line(tmp_path, seed) == golden.splitlines(keepends=True)[index]


def _python(*args):
    """A Python process with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _cli_process(*args):
    return _python("-m", "semiabel.cli", *args)


def test_cli_process_verify_prints_the_golden_line(tmp_path):
    proc = _cli_process("verify", "--config", _write(tmp_path, SQ), "--json", "--seed", "0")
    golden = Path(__file__).with_name("golden_verify_reports.jsonl").read_text()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden.splitlines(keepends=True)[0]


def test_cli_process_malformed_config_exit_1_as_main(tmp_path, capsys):
    path = _write(tmp_path, {"curve": {"g2": 4.0}})
    proc = _cli_process("periods", "--config", path)
    assert main(["periods", "--config", path]) == 1
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == capsys.readouterr().err


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    state = (gc.isenabled(), gc.get_freeze_count())
    assert main(["periods", "--config", _write(tmp_path, SQ)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_run_is_the_process_entry(tmp_path):
    """run() returns main's code with the collector off and the heap
    frozen; the installed script points at it."""
    code = ("import gc; from semiabel.cli import run; "
            f"c = run(['periods', '--config', {_write(tmp_path, SQ)!r}]); "
            "print(c, gc.isenabled(), gc.get_freeze_count() > 0)")
    proc = _python("-c", code)
    assert proc.stdout.splitlines()[-1] == "0 False True"
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'semiabel = "semiabel.cli:run"' in pyproject.read_text().splitlines()


@pytest.mark.parametrize("seed", (*range(40), 94, 163))
def test_third_kind_contour_accurate_over_verify_seeds(seed):
    """Both third-kind residuals stay at round-off.  A fixed 64-node
    contour rule degrades at seeds 3, 4 and 14 and exceeds the 1e-6
    tolerance at seed 24; the ratio measured absolutely exceeds its 1e-8
    tolerance at seeds 94 and 163, where |exp(g_j)| is large."""
    pairs = list(verify._check_third_kind(np.random.default_rng(seed + 4)))
    ratio, contour = map(verify._worst, zip(*pairs))
    assert ratio < 1e-13
    assert contour < 1e-13


@pytest.mark.parametrize(
    "L, j",
    (
        (make_lattice(1, 0.4 + 4j), 2),  # tall: 47 to 93 nodes along omega2
        (make_lattice(1, 0.2 + 0.3j), 1),  # flat: pole lines 0.3 apart, 39 to 77 nodes
    ),
    ids=("tall", "flat"),
)
@pytest.mark.parametrize("cross", (0.013, 0.49, 0.5, 0.987))
def test_contour_third_kind_matches_quasi_quasi_periods(L, j, cross):
    """The pole line of -q + Lambda next to one of Lambda (q's coordinate
    along the other period near 0 or 1) or midway between two of them
    (near 1/2, where the path comes closest to a pole, h/4)."""
    w, other = (L.omega1, L.omega2) if j == 1 else (L.omega2, L.omega1)
    qp = 0.37 * w + cross * other
    quad = verify._contour_third_kind(qp, L, j)
    k = (quad - quasi_quasi_periods(qp, L)[j - 1]) / (2j * math.pi)
    assert abs(k - round(k.real)) * 2 * math.pi < 1e-12


# a generic g2/g3 curve and a rotated lattice-given curve
EVAL_CURVES = (
    {"g2": {"re": 1.7, "im": 0.3}, "g3": {"re": -0.4, "im": 0.9}},
    {"lattice": {"w1": {"re": 1.3, "im": 0.8}, "w2": {"re": -0.5, "im": 1.9}}},
)
EVAL_ZS = (0.37 + 0.21j, -0.8 + 0.45j, 2.9 - 1.7j, 11.3 + 7.9j)


def _run_json(tmp_path, task, doc, *args):
    """The stdout of a successful `<task> --json` on the config doc."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([task, "--config", _write(tmp_path, doc), "--json", *args]) == 0
    return out.getvalue()


def eval_expg_logg_lines(tmp_path):
    """The golden lines of golden_eval_reports.jsonl: eval, expg and logg
    --json on both curves; each logg inverts the expg output before it,
    and one expg takes its parameter as a point."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lines = []
    for curve in EVAL_CURVES:
        base = {"curve": curve}
        out = _run_json(tmp_path, "eval", {**base, "z": [J(z) for z in EVAL_ZS]})
        lines.append(out)
        v = json.loads(out)["values"][1]
        params = ({"log": J(0.41 + 0.27j)}, {"x": v["wp"], "y": v["wp_prime"]})
        for q in params:
            for z in EVAL_ZS:
                out = _run_json(
                    tmp_path, "expg", {**base, "q": q, "z": J(z), "t": J(0.3 - 0.2j)}
                )
                lines.append(out)
                R = json.loads(out)
                point = {"base": R["base"], "fiber": R["fiber"]}
                lines.append(_run_json(tmp_path, "logg", {**base, "q": q, "point": point}))
            point = {"base": "O", "fiber": 2.0}
            lines.append(_run_json(tmp_path, "logg", {**base, "q": q, "point": point}))
    return lines


def test_eval_expg_logg_match_golden_bytes(tmp_path):
    golden = Path(__file__).with_name("golden_eval_reports.jsonl").read_text()
    assert eval_expg_logg_lines(tmp_path) == golden.splitlines(keepends=True)


# (cm, row) of the table instances whose bounds report is a golden line
BOUNDS_GOLDEN_ROWS = ((True, "dependent-deficient"), (False, "independent"))


def task_report_lines(tmp_path):
    """The golden lines of golden_task_reports.jsonl: periods, pairing and
    3-torsion pairing --json on both eval curves, then bounds --json on
    the table configs of BOUNDS_GOLDEN_ROWS."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lines = []
    for curve in EVAL_CURVES:
        base = {"curve": curve}
        lines.append(_run_json(tmp_path, "periods", base))
        pair = {**base, "z": J(EVAL_ZS[0]), "zstar": J(EVAL_ZS[1])}
        lines.append(_run_json(tmp_path, "pairing", pair))
        L = parse_config(json.dumps(base), task="periods").lattice
        z = (L.omega1 + 2 * L.omega2) / 3
        zstar = (2 * L.omega1 - L.omega2) / (3 * L.covolume_factor())
        pair = {**base, "z": J(z), "zstar": J(zstar), "N": 3}
        lines.append(_run_json(tmp_path, "pairing", pair))
    for m, row, _, _, cm in verify._table_instances():
        if (cm, row) in BOUNDS_GOLDEN_ROWS:
            lines.append(_run_json(tmp_path, "bounds", _motive_config(m)))
    return lines


def test_task_reports_match_golden_bytes(tmp_path):
    """periods, pairing and bounds --json, which no other golden file
    covers, byte for byte."""
    golden = Path(__file__).with_name("golden_task_reports.jsonl").read_text()
    assert task_report_lines(tmp_path) == golden.splitlines(keepends=True)


def test_main_verify_text_render(tmp_path, capsys):
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 13  # 12 entries + overall
    assert "FAIL" not in out
