"""Benchmark of semiabel: three workloads timed end to end, or traced
module by module.

Usage:
    python3 semibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: classify-table, elliptic-eval, cli-verify (see README.md).
Each run is one process acting as one closed-loop client.  With --trace 0
it sets up several times, then runs whole rounds of ops until --seconds
have passed, checks every output, and reports setup_s, ops_per_s,
op_ms_p50 and peak_rss_mb.  With --trace 1 it runs a fixed number of
rounds twice, plain and then under the span tracer, and reports the
per-layer counts and self times per op.  The last line of stdout is the
result as JSON; a record of the run is written under semibench/out/.
"""

import argparse
import array
import cmath
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("classify-table", "elliptic-eval", "cli-verify")
SETUP_REPEATS = 3
# rounds whose (input, output) pairs are kept for the final checks
FINISH_ROUNDS = 2
MAX_ERRORS_KEPT = 10

# On a machine whose cores are shared with other tenants the CPU speed can
# drift by 2x within seconds, and the program's speed follows it.  Every
# time reported by --trace 0 is therefore scaled to a reference speed: it
# is multiplied by REF_NOMINAL_S over the time reference_work() took in
# speed samples taken around it (see README.md).  The raw times are kept
# in the run's record.
REF_ITERS = 400
REF_NOMINAL_S = 1.0e-3
REF_REPEATS = 3
# op time between two speed samples
WINDOW_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "relations.searches": "count",
    "relations.distinct_ratio": "ratio",
    "relations.lll_calls": "count",
    "relations.self_ms": "ms",
    "classifier.calls": "count",
    "classifier.self_ms": "ms",
    "kernels.theta_calls": "count",
    "kernels.rf_calls": "count",
    "kernels.eisenstein_calls": "count",
    "kernels.self_ms": "ms",
    "lattice.self_ms": "ms",
    "elliptic.calls": "count",
    "elliptic.self_ms": "ms",
    "periods.elliptic_log_calls": "count",
    "periods.self_ms": "ms",
    "semiabelian.calls": "count",
    "semiabelian.self_ms": "ms",
    "pairing.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.process_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def rate(count, seconds):
    """Ops per second from a count and the seconds they took in total."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive duration")
    return count / seconds


def reference_work(iters=REF_ITERS):
    """A fixed pure-Python computation of the kind the program does:
    complex exponentials and products, and integer row operations."""
    acc = 0j
    row = [3, 1, 4, 1, 5, 9, 2, 6]
    for k in range(iters):
        z = complex(k % 17, k % 5) * 0.05
        acc = acc * 0.5 + cmath.exp(z) * cmath.sin(z)
        q = k % 3 - 1
        row = [(a - q * b) % 1000003 for a, b in zip(row, reversed(row))]
    return acc, row


def reference_tick():
    """The time of one run of reference_work()."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_sample():
    """The machine's current speed: the median time of a few runs of
    reference_work()."""
    return median([reference_tick() for _ in range(REF_REPEATS)])


def scale(seconds, before, after):
    """A time measured between two speed samples, at the reference speed."""
    return seconds * REF_NOMINAL_S / ((before + after) / 2.0)


def scale_by_ticks(seconds, ticks):
    """A time at the reference speed, from reference_work() times taken
    while it ran."""
    return seconds * REF_NOMINAL_S / median(ticks)


def measure(fn, ticks=lambda: None):
    """(result of fn(), raw seconds, seconds at the reference speed).  The
    speed is that of the ticks ``ticks()`` returns after fn() when there
    are any, else the mean of speed samples just before and after."""
    before = speed_sample()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = speed_sample()
    during = ticks()
    if during:
        return result, raw, scale_by_ticks(raw, during)
    return result, raw, scale(raw, before, after)


class Scaler:
    """Scales op times to the reference speed.  An op with speed ticks of
    its own (a subprocess, ticked from here while it ran) is scaled by
    their median.  Other ops are scaled one window at a time: a speed
    sample is taken after every WINDOW_S of op time, and the ops of a
    window are scaled by the samples on either side of it."""

    def __init__(self):
        self.samples = [speed_sample()]
        self.scaled = array.array("d")
        self._window = []

    def add(self, seconds, ticks=None):
        if ticks:
            self.flush()
            self.samples.extend(ticks)
            self.scaled.append(scale_by_ticks(seconds, ticks))
            return
        self._window.append(seconds)
        if sum(self._window) >= WINDOW_S:
            self.flush()

    def flush(self):
        if not self._window:
            return
        self.samples.append(speed_sample())
        before, after = self.samples[-2:]
        self.scaled.extend(scale(t, before, after) for t in self._window)
        self._window = []


def load_workload(name, seed):
    """(workload, raw and scaled seconds spent importing the program; None
    when the program runs in child processes)."""
    if name == "cli-verify":
        import clirun

        return clirun.CliVerify(seed, tick=reference_tick), None

    def load():
        import library

        return library

    library, raw, scaled = measure(load)
    cls = library.ClassifyTable if name == "classify-table" else library.EllipticEval
    return cls(seed), (raw, scaled)


class Outcome:
    """Op times of the ops that returned, ops failed, and their errors."""

    def __init__(self, *parts):
        # packed doubles: the per-op bookkeeping barely moves peak_rss_mb
        self.times = array.array("d", (t for p in parts for t in p.times))
        self.failed = sum(p.failed for p in parts)
        self.errors = [e for p in parts for e in p.errors][:MAX_ERRORS_KEPT]

    @property
    def attempted(self):
        return len(self.times) + self.failed

    def error(self, message):
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)


def run_op(workload, inp, outcome, run=None):
    """Time one op and return its output; an op that raises counts as
    failed and returns None."""
    start = time.perf_counter()
    try:
        out = (run or workload.run)(inp)
    except Exception:
        outcome.failed += 1
        outcome.error("op raised: " + traceback.format_exc(limit=3))
        return None
    outcome.times.append(time.perf_counter() - start)
    return out


def timed_run(workload, seconds, import_s):
    ticks = lambda: getattr(workload, "op_ticks", None)  # noqa: E731
    setups = [measure(workload.setup, ticks)[1:] for _ in range(SETUP_REPEATS)]
    outcome = Outcome()
    scaler = Scaler()
    wrong, kept = [], []
    rounds = workload.rounds()
    deadline = time.perf_counter() + seconds
    n_round = 0
    while True:
        for inp in next(rounds):
            out = run_op(workload, inp, outcome)
            if out is None:
                continue
            scaler.add(outcome.times[-1], ticks())
            error = workload.check(inp, out)
            if error:
                wrong.append(error)
            if n_round < FINISH_ROUNDS:
                kept.append((inp, out))
        n_round += 1
        if time.perf_counter() >= deadline:
            break
    scaler.flush()
    rss = workload.peak_rss_mb()
    wrong += workload.finish(kept)
    import_raw, import_scaled = import_s or (0.0, 0.0)
    metrics = {
        "setup_s": import_scaled + median([s for _, s in setups]),
        "ops_per_s": rate(len(scaler.scaled), sum(scaler.scaled)),
        "op_ms_p50": 1000.0 * median(scaler.scaled),
        "peak_rss_mb": rss,
    }
    detail = {
        "rounds": n_round,
        "raw": {
            "setup_s": import_raw + median([r for r, _ in setups]),
            "ops_per_s": rate(len(outcome.times), sum(outcome.times)),
            "op_ms_p50": 1000.0 * median(outcome.times),
        },
        "import_s": import_s,
        "setup_samples_s": setups,
        "speed_samples_ms": [1000.0 * x for x in statistics.quantiles(scaler.samples, n=4)],
        "speed_sample_count": len(scaler.samples),
    }
    return outcome, wrong, metrics, detail


def _calls(calls, layer, prefixes=("",)):
    return sum(n for key, n in calls.items()
               if key.startswith(layer + ".")
               and key[len(layer) + 1:].startswith(prefixes))


def layer_metrics(summary, ops, process_ms=0.0, import_ms=0.0, overhead_pct=0.0):
    """The per-layer metrics, per op, from a (merged) tracer summary."""
    layers, calls = summary["layers"], summary["calls"]

    def self_ms(layer):
        return 1000.0 * layers.get(layer, {}).get("self_s", 0.0) / ops

    searches = summary["searches"]
    return {
        "relations.searches": searches / ops,
        "relations.distinct_ratio": summary["distinct"] / searches if searches else 0.0,
        "relations.lll_calls": _calls(calls, "relations", ("lll_reduce",)) / ops,
        "relations.self_ms": self_ms("relations"),
        "classifier.calls": _calls(calls, "classifier") / ops,
        "classifier.self_ms": self_ms("classifier"),
        "kernels.theta_calls": _calls(calls, "kernels", ("theta1_bundle",)) / ops,
        "kernels.rf_calls": _calls(calls, "kernels", ("carlson_rf",)) / ops,
        "kernels.eisenstein_calls": _calls(calls, "kernels", ("eisenstein_e4_e6",)) / ops,
        "kernels.self_ms": self_ms("kernels"),
        "lattice.self_ms": self_ms("lattice"),
        "elliptic.calls": _calls(calls, "elliptic") / ops,
        "elliptic.self_ms": self_ms("elliptic"),
        "periods.elliptic_log_calls": _calls(calls, "periods", ("elliptic_log",)) / ops,
        "periods.self_ms": self_ms("periods"),
        "semiabelian.calls": _calls(calls, "semiabelian") / ops,
        "semiabelian.self_ms": self_ms("semiabelian"),
        "pairing.self_ms": self_ms("pairing"),
        "cli.import_ms": import_ms,
        "cli.process_ms": process_ms / ops,
        "cli.self_ms": self_ms("cli"),
        "trace.overhead_pct": overhead_pct,
    }


def traced_run(workload):
    """A fixed number of rounds, so that the counts repeat exactly for a
    given seed.  Every input runs once plain and once traced, in
    alternating order, so that drift of the machine's speed cancels out of
    the tracing overhead."""
    import clirun
    from spans import Tracer, merge_summaries

    workload.setup()
    rounds = workload.rounds()
    inputs = [inp for _ in range(workload.trace_rounds) for inp in next(rounds)]
    in_process = not hasattr(workload, "traced_command")
    tracer = Tracer()
    summaries = []
    plain, traced = Outcome(), Outcome()
    wrong, outputs = [], []
    process_s = 0.0
    with tempfile.TemporaryDirectory(prefix="spans-", dir=OUT) as tmp:
        for k, inp in enumerate(inputs):
            for mode in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
                if mode == "plain":
                    out = run_op(workload, inp, plain)
                elif in_process:
                    # installed around the timed call only; checks run unwrapped
                    tracer.install()
                    try:
                        out = run_op(workload, inp, traced,
                                     run=lambda i: tracer.op(workload.run, i))
                    finally:
                        tracer.uninstall()
                else:
                    path = Path(tmp) / f"op-{k}.json"
                    out = run_op(workload, inp, traced,
                                 run=lambda i: workload.run(i, workload.traced_command(i, path)))
                    if out is not None:
                        summaries.append(json.loads(path.read_text(encoding="utf-8")))
                        process_s += traced.times[-1] - summaries[-1]["root_s"]
                if out is None:
                    continue
                if error := workload.check(inp, out):
                    wrong.append(error)
                if mode == "traced":
                    outputs.append((inp, out))
    per_round = len(inputs) // workload.trace_rounds
    wrong += workload.finish(outputs[: FINISH_ROUNDS * per_round])
    summary = tracer.summary() if in_process else merge_summaries(summaries)
    overhead = 100.0 * (sum(traced.times) / len(traced.times)
                        / (sum(plain.times) / len(plain.times)) - 1.0)
    metrics = layer_metrics(summary, len(outputs), process_ms=1000.0 * process_s,
                            import_ms=clirun.import_ms(), overhead_pct=overhead)
    detail = {"ops": len(inputs), "summary": summary,
              "plain_op_s": list(plain.times), "traced_op_s": list(traced.times)}
    return Outcome(plain, traced), wrong, metrics, detail


def pin_to_one_cpu():
    """Keep the run, and the subprocesses it starts, on one CPU, so that
    the speed samples and the ops they scale run on the same core.  The
    CPU, or None where the affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment():
    from semiabel._kernels import NUMBA_ENABLED
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_enabled": NUMBA_ENABLED,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "semiabel" / "__init__.py").is_file():
        print(f"error: no semiabel source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()
    workload, import_s = load_workload(args.workload, args.seed)
    try:
        if args.trace:
            outcome, wrong, metrics, detail = traced_run(workload)
            units = PER_LAYER_UNITS
        else:
            outcome, wrong, metrics, detail = timed_run(workload, args.seconds, import_s)
            units = END_TO_END_UNITS
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()
    result = {
        "correct": not wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, wrong=wrong[:MAX_ERRORS_KEPT],
                  errors=outcome.errors, environment=dict(environment(), cpu=cpu),
                  detail=detail)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in wrong[:MAX_ERRORS_KEPT]:
        print("wrong:", line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
