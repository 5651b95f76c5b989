import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import semiabel.cli as cli
import semiabel.verify as verify
from semiabel.classifier import motivic_galois_dims
from semiabel.cli import JobConfig, _cplx, emit_json, main, parse_config, run_job
from semiabel.errors import (
    ConflictingCurveSpec,
    InternalInconsistency,
    SchemaError,
)
from semiabel.lattice import make_lattice
from semiabel.semiabelian import quasi_quasi_periods

from conftest import VARPI

SQ = {"curve": {"g2": 4.0, "g3": 0.0}}


def _cfg(doc, task, **kw):
    return parse_config(json.dumps(doc), task=task, **kw)


def _c(v):
    return complex(v["re"], v["im"])


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


def test_emit_json_deterministic():
    doc = {"values": [0.1 + 0.2, math.pi, [1e-300, -0.0]], "n": 7}
    assert emit_json(doc) == emit_json(dict(reversed(list(doc.items()))))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_defaults():
    cfg = _cfg(SQ, "periods")
    assert cfg.task == "periods"
    assert cfg.tol == 1e-9
    assert cfg.max_height == 1000
    assert cfg.n_max == 64
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
    assert (cfg.tol, cfg.seed, cfg.max_height, cfg.n_max) == (1e-6, 11, 50, 10)
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
    doc, code = run_job(_cfg(SQ, "periods"))
    assert code == 0
    assert _c(doc["g2"]) == pytest.approx(4.0)
    assert abs(_c(doc["g3"])) < 1e-12
    # Legendre relation from the reported quantities
    w1, w2 = _c(doc["w1"]), _c(doc["w2"])
    e1, e2 = _c(doc["eta1"]), _c(doc["eta2"])
    assert abs(e1 * w2 - e2 * w1 - 2j * math.pi) < 1e-9


def test_job_eval():
    doc, code = run_job(_cfg({**SQ, "z": [{"re": 0.9, "im": 0.4}]}, "eval"))
    assert code == 0
    v = doc["values"][0]
    p, pp = _c(v["wp"]), _c(v["wp_prime"])
    assert abs(pp**2 - (4 * p**3 - 4.0 * p)) < 1e-8 * max(1.0, abs(p) ** 3)


def test_job_expg_logg_round_trip():
    q = {"log": {"re": 0.7, "im": 0.9}}
    base = {**SQ, "q": q, "z": {"re": 0.8, "im": 0.3}, "t": {"re": 0.2, "im": -0.1}}
    doc, code = run_job(_cfg(base, "expg"))
    assert code == 0
    logdoc, code = run_job(
        _cfg({**SQ, "q": q, "point": {"base": doc["base"], "fiber": doc["fiber"]}}, "logg")
    )
    assert code == 0
    # re-exponentiating the logarithm reproduces the point
    redoc, _ = run_job(
        _cfg({**SQ, "q": q, "z": logdoc["z"], "t": logdoc["t"]}, "expg")
    )
    assert _c(redoc["fiber"]) == pytest.approx(_c(doc["fiber"]), rel=1e-8)
    assert _c(redoc["base"]["x"]) == pytest.approx(_c(doc["base"]["x"]), rel=1e-8)


def test_job_pairing():
    w = VARPI
    doc, code = run_job(
        _cfg({**SQ, "z": w, "zstar": {"re": 0.0, "im": w / w**2}}, "pairing")
    )
    assert code == 0
    # a lattice generator against a dual generator pairs to 1
    assert _c(doc["weil"]) == pytest.approx(1.0, abs=1e-9)
    doc, code = run_job(
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
    expdoc, _ = run_job(
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
    doc, code = run_job(_cfg({**SQ, **motive}, "bounds"))
    assert code == 0
    assert doc["bounds"]["WSA_V1"] == 3
    assert doc["bounds"]["WSA_explicit"] == 3
    assert doc["bounds"]["SA"] == 7
    # a motive without marked points is rejected outright
    bad = {"motive": {"extension_params": [q], "points": []}}
    with pytest.raises(ValueError):
        run_job(_cfg({**SQ, **bad}, "classify"))


def test_table_reports_match_golden_bytes():
    """The classify report of each table instance, byte for byte."""
    golden = Path(__file__).with_name("golden_table_reports.jsonl").read_text()
    got = [
        emit_json(asdict(motivic_galois_dims(m)))
        for m, *_ in verify._table_instances()
    ]
    assert got == golden.splitlines()


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


def test_main_schema_error_exit_1(tmp_path, capsys):
    path = _write(tmp_path, {"curve": {"g2": 4.0}})
    assert main(["periods", "--config", path]) == 1
    assert "/curve" in capsys.readouterr().err


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
    ),
)
def test_main_argument_beyond_working_precision_exit_1(tmp_path, capsys, task, doc):
    path = _write(tmp_path, doc)
    assert main([task, "--config", path]) == 1
    assert "beyond working precision" in capsys.readouterr().err


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


def test_eval_sums_two_theta_series_per_point(monkeypatch):
    """One series gives wp, wp' and zeta, the other sigma."""
    import semiabel.elliptic as elliptic

    cfg = _cfg({**SQ, "z": {"re": 0.9, "im": 0.4}}, "eval")
    theta, calls = elliptic.theta1_bundle, []

    def counted(v, tau):
        calls.append(v)
        return theta(v, tau)

    monkeypatch.setattr(elliptic, "theta1_bundle", counted)
    run_job(cfg)
    assert len(calls) == 2


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
    monkeypatch.setattr(verify, "_check_kernel", lambda rng: 1.0)
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["overall_pass"] is False
    assert main(["verify", "--config", path]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  kernel-lattice: max residual 1.000e+00 >= 1.0e-08")
    assert lines[-1] == "overall: FAIL"


def test_verify_reports_the_job_tolerance(tmp_path, capsys):
    """The document's tolerance is the job's, not a check's."""
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json", "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out.endswith('"tolerance":9.9999999999999995e-07}\n')


@pytest.mark.parametrize("index, seed", enumerate((0, 5, 17)))
def test_verify_report_matches_golden_bytes(tmp_path, capsys, index, seed):
    """verify --json on y^2 = 4x^3 - 4x, byte for byte, one golden line per seed."""
    golden = Path(__file__).with_name("golden_verify_reports.jsonl").read_text()
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path, "--json", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == golden.splitlines(keepends=True)[index]


@pytest.mark.parametrize("seed", (*range(40), 94, 163))
def test_third_kind_contour_accurate_over_verify_seeds(seed):
    """Both third-kind residuals stay at round-off.  A fixed 64-node
    contour rule degrades at seeds 3, 4 and 14 and exceeds the 1e-6
    tolerance at seed 24; the ratio measured absolutely exceeds its 1e-8
    tolerance at seeds 94 and 163, where |exp(g_j)| is large."""
    ratio, contour = verify._check_third_kind(np.random.default_rng(seed + 4))
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


def _run_json(tmp_path, capsys, task, doc):
    assert main([task, "--config", _write(tmp_path, doc), "--json"]) == 0
    return capsys.readouterr().out


def _eval_expg_logg_lines(tmp_path, capsys):
    """eval, expg and logg --json on both curves; each logg inverts the
    expg output before it, and one expg takes its parameter as a point."""
    J = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    lines = []
    for curve in EVAL_CURVES:
        base = {"curve": curve}
        out = _run_json(tmp_path, capsys, "eval", {**base, "z": [J(z) for z in EVAL_ZS]})
        lines.append(out)
        v = json.loads(out)["values"][1]
        params = ({"log": J(0.41 + 0.27j)}, {"x": v["wp"], "y": v["wp_prime"]})
        for q in params:
            for z in EVAL_ZS:
                out = _run_json(
                    tmp_path, capsys, "expg", {**base, "q": q, "z": J(z), "t": J(0.3 - 0.2j)}
                )
                lines.append(out)
                R = json.loads(out)
                point = {"base": R["base"], "fiber": R["fiber"]}
                lines.append(_run_json(tmp_path, capsys, "logg", {**base, "q": q, "point": point}))
            point = {"base": "O", "fiber": 2.0}
            lines.append(_run_json(tmp_path, capsys, "logg", {**base, "q": q, "point": point}))
    return lines


def test_eval_expg_logg_match_golden_bytes(tmp_path, capsys):
    golden = Path(__file__).with_name("golden_eval_reports.jsonl").read_text()
    assert _eval_expg_logg_lines(tmp_path, capsys) == golden.splitlines(keepends=True)


def test_main_verify_text_render(tmp_path, capsys):
    path = _write(tmp_path, SQ)
    assert main(["verify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 13  # 12 entries + overall
    assert "FAIL" not in out
