"""Tests of the benchmark's own code: its arithmetic, the span tracer, the
keying of relation searches, and a short run of every workload."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import clirun  # noqa: E402
import run  # noqa: E402
from spans import Tracer, merge_summaries, self_times  # noqa: E402


# -- arithmetic ---------------------------------------------------------------


def test_median_odd_even_and_empty():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        run.median([])


def test_rate_is_count_over_total_seconds():
    assert run.rate(10, 2.0) == 5.0
    times = [0.1, 0.3, 0.2, 0.4]
    assert math.isclose(run.rate(len(times), sum(times)), 4.0)
    with pytest.raises(ValueError):
        run.rate(3, 0.0)


def test_scaling_to_the_reference_speed():
    # a machine twice as slow as the reference: times halve
    assert run.scale(4.0, 2 * run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S) == 2.0
    assert run.scale(3.0, run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S) == 2.0
    ticks = [run.REF_NOMINAL_S * f for f in (3.0, 2.0, 9.0)]
    assert math.isclose(run.scale_by_ticks(4.0, ticks), 4.0 / 3.0)


def test_scaler_scales_each_window_by_the_samples_around_it(monkeypatch):
    samples = iter([1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr(run, "speed_sample", lambda: next(samples) * run.REF_NOMINAL_S)
    monkeypatch.setattr(run, "WINDOW_S", 1.0)
    scaler = run.Scaler()
    scaler.add(0.5)
    scaler.add(0.5)  # closes the first window: samples 1 and 1
    scaler.add(0.2)
    scaler.add(1.0, ticks=[4.0 * run.REF_NOMINAL_S])  # closes the window (1, 3)
    scaler.add(0.6)
    scaler.flush()  # last window: the last tick (4) and the sample 3
    expected = [0.5, 0.5, 0.1, 0.25, 0.6 / 3.5]
    assert all(math.isclose(a, b) for a, b in zip(scaler.scaled, expected))
    assert len(scaler.scaled) == len(expected)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- spans --------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        (0, None, "bench", 0.0, 10.0),
        (1, 0, "a", 1.0, 7.0),   # child
        (2, 1, "b", 2.0, 5.0),   # child inside the child
        (3, 0, "b", 8.0, 9.0),   # second child of the root
    ]
    out = self_times(spans)
    assert out["bench"] == (3.0, 10.0, 1)
    assert out["a"] == (3.0, 6.0, 1)
    assert out["b"] == (4.0, 4.0, 2)
    assert sum(v[0] for v in out.values()) == 10.0


def _toy_modules(clock):
    """Two modules where ``high.outer`` calls ``low.leaf`` through the
    binding ``from low import leaf`` made in ``high``."""
    low = types.ModuleType("toy.low")
    low.clock = clock
    exec(
        "def leaf(k):\n    clock['t'] += k\n    return k\n"
        "def _private():\n    return 0\n",
        low.__dict__,
    )
    high = types.ModuleType("toy.high")
    high.clock = clock
    high.leaf = low.leaf
    exec(
        "def outer():\n"
        "    clock['t'] += 1\n"
        "    leaf(2)\n"
        "    clock['t'] += 1\n"
        "    return leaf(3)\n",
        high.__dict__,
    )
    return low, high


def test_tracer_wraps_bindings_and_computes_self_time():
    clock = {"t": 0.0}
    low, high = _toy_modules(clock)
    originals = (low.leaf, high.leaf, high.outer, low._private)
    tracer = Tracer(clock=lambda: clock["t"])
    n = tracer.install([low, high], layers={"toy.low": "low", "toy.high": "high"})
    assert n == 2  # leaf and outer; _private stays as it is
    assert low._private is originals[3]
    assert high.leaf is low.leaf and high.leaf is not originals[0]
    try:
        assert tracer.op(high.outer) == 3
    finally:
        tracer.uninstall()
    assert (low.leaf, high.leaf, high.outer, low._private) == originals
    s = tracer.summary()
    assert s["layers"]["high"]["self_s"] == 2.0
    assert s["layers"]["low"]["self_s"] == 5.0
    assert s["layers"]["bench"]["self_s"] == 0.0
    assert s["root_s"] == 7.0
    assert s["calls"] == {"high.outer": 1, "low.leaf": 2}


def test_merge_summaries_adds_counts_and_times():
    a = {"layers": {"x": {"self_s": 1.0, "total_s": 2.0, "spans": 3}},
         "calls": {"x.f": 3}, "searches": 2, "distinct": 1, "root_s": 2.0}
    b = {"layers": {"x": {"self_s": 0.5, "total_s": 1.0, "spans": 1},
                    "y": {"self_s": 1.0, "total_s": 1.0, "spans": 1}},
         "calls": {"x.f": 1, "y.g": 1}, "searches": 3, "distinct": 3, "root_s": 1.0}
    m = merge_summaries([a, b])
    assert m["layers"]["x"] == {"self_s": 1.5, "total_s": 3.0, "spans": 4}
    assert m["calls"] == {"x.f": 4, "y.g": 1}
    assert (m["searches"], m["distinct"], m["root_s"]) == (5, 4, 3.0)


# -- relations.distinct_ratio -------------------------------------------------


def test_distinct_inputs_are_keyed_by_values_height_and_tol_per_op():
    import semiabel.relations as relations

    values = [1.0, math.sqrt(2.0), math.sqrt(3.0)]
    tracer = Tracer()
    tracer.install([relations])
    try:
        def op():
            relations.detect_integer_relation(values)
            # same key: defaults written out, values as complex
            relations.detect_integer_relation([complex(v) for v in values], 1000, 1e-9)
            relations.detect_integer_relation(values, max_height=50)  # new key
            relations.detect_integer_relation(values, tol=1e-8)  # new key
            relations.detect_integer_relation(values[:2])  # new key

        tracer.op(op)
        tracer.op(op)  # keys start afresh in every op
    finally:
        tracer.uninstall()
    s = tracer.summary()
    assert (s["searches"], s["distinct"]) == (10, 8)
    metrics = run.layer_metrics(s, ops=2)
    assert metrics["relations.searches"] == 5.0
    assert metrics["relations.distinct_ratio"] == 0.8


def test_distinct_ratio_without_searches_is_zero():
    s = {"layers": {}, "calls": {}, "searches": 0, "distinct": 0, "root_s": 0.0}
    assert run.layer_metrics(s, ops=4)["relations.distinct_ratio"] == 0.0


def test_parse_importtime_sums_top_level_semiabel_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       500 |      80000 |   numpy",
        "import time:      2000 |     120000 | semiabel",
        "import time:       300 |        300 |   semiabel.errors",
        "import time:      4000 |       9000 | semiabel.cli",
    ])
    assert clirun.parse_importtime(stderr) == 129.0


# -- short runs ---------------------------------------------------------------


def _run(workload, trace, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_shortest_timed_run_checks_outputs(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    counts = []
    for _ in range(2):
        proc = _run("elliptic-eval", 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["relations.searches"] == 0.0
    assert counts[0]["kernels.theta_calls"] > 0


def test_run_without_the_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "semibench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("elliptic-eval", 0, cwd=tmp_path, script=tmp_path / "semibench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
