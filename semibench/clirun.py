"""The ``cli-verify`` workload: the ``verify`` command as users run it, one
subprocess per op, with interpreter start and import counted.

``semiabel`` is not installed as a script (its numba dependency cannot be
resolved offline), so each op runs ``python -m semiabel.cli`` with the
source tree on PYTHONPATH.
"""

import json
import os
import re
import resource
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# verify seeds every run cycles through; all of them pass at the parent
VERIFY_SEEDS = (0, 1, 2)

ENTRIES = frozenset((
    "dimension-formula-consistency",
    "dimension-table",
    "exp-log-round-trip",
    "kernel-lattice",
    "legendre-relation",
    "quasi-period-linear-form",
    "sigma-ratio-pairing",
    "third-kind-periods-contour",
    "third-kind-periods-ratio",
    "theta-automorphy",
    "torsion-weil-roots",
    "weierstrass-ode",
))

OP_TIMEOUT_S = 120
IMPORTTIME_REPEATS = 3
# interval of the speed ticks taken while a verify subprocess runs
TICK_S = 0.1


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def curve_configs(rng):
    """Two seeded curves: one given by invariants, one by a lattice basis."""
    while True:
        g2, g3 = rng.uniform(1.0, 6.0), rng.uniform(-2.0, 2.0)
        if abs(g2**3 - 27 * g3**2) > 0.05 * max(g2**3, 27 * g3**2):
            break
    tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.0, 2.0))
    scale = rng.uniform(1.0, 3.0)
    return (
        {"curve": {"g2": g2, "g3": g3}},
        {"curve": {"lattice": {"w1": scale,
                               "w2": {"re": scale * tau.real, "im": scale * tau.imag}}}},
    )


def check_verify(stdout, returncode, seed):
    """None when the verify run exited 0 and all twelve entries passed."""
    if returncode != 0:
        return f"verify seed {seed}: exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"verify seed {seed}: stdout is not JSON"
    names = [e["name"] for e in doc.get("entries", ())]
    if len(names) != len(ENTRIES) or set(names) != ENTRIES:
        return f"verify seed {seed}: entries {sorted(names)}"
    failed = [e["name"] for e in doc["entries"] if e["pass"] is not True]
    if failed or doc.get("overall_pass") is not True or doc.get("seed") != seed:
        return f"verify seed {seed}: failed entries {failed}"
    return None


def import_ms():
    """Median over a few fresh interpreters of the time ``python -X
    importtime`` reports for ``import semiabel.cli`` (the top-level
    ``semiabel`` entries, which include numpy)."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import semiabel.cli"],
            env=_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S, check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    samples.sort()
    return samples[len(samples) // 2]


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(stderr):
    """Sum, in ms, of the cumulative times of the top-level ``semiabel``
    imports in ``-X importtime`` output."""
    total_us = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and len(m.group(3)) == 1 and (
            m.group(4) == "semiabel" or m.group(4).startswith("semiabel.")
        ):
            total_us += int(m.group(2))
    return total_us / 1000.0


class CliVerify:
    name = "cli-verify"
    trace_rounds = 1

    def __init__(self, seed, tick=None):
        """``tick``, when given, is called every TICK_S while a verify
        subprocess runs; its results for the last op are in ``op_ticks``."""
        self.seed = seed
        self.tick = tick
        self.op_ticks = []
        self._tmp = None
        self.configs = None
        self.stdout_by_seed = {}

    def setup(self):
        """Write the seeded configs and run one untimed verify subprocess,
        which also compiles the package's .pyc files."""
        self.close()
        (HERE / "out").mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="cfg-", dir=HERE / "out")
        self.configs = []
        for k, doc in enumerate(curve_configs(np.random.default_rng(self.seed))):
            path = Path(self._tmp.name) / f"curve-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.configs.append(path)
        inp = (VERIFY_SEEDS[0], self.configs[0])
        error = self.check(inp, self.run(inp))
        if error:
            raise RuntimeError(f"warm-up op failed its check: {error}")

    def close(self):
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def rounds(self):
        while True:
            yield [(s, self.configs[i % len(self.configs)])
                   for i, s in enumerate(VERIFY_SEEDS)]

    @staticmethod
    def cli_args(inp):
        seed, config = inp
        return ["verify", "--config", str(config), "--json", "--seed", str(seed)]

    def run(self, inp, command=None):
        """(stdout, exit code) of one verify subprocess.  Output goes to
        files, not pipes, so the child never blocks on a full pipe while
        the parent ticks; a pidfd wakes the parent the moment it exits."""
        command = command or [sys.executable, "-m", "semiabel.cli"] + self.cli_args(inp)
        self.op_ticks = []
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            proc = subprocess.Popen(command, env=_env(), cwd=ROOT, stdout=out, stderr=err)
            try:
                self._wait(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            out.seek(0)
            return out.read(), proc.returncode

    def _wait(self, proc):
        deadline = time.monotonic() + OP_TIMEOUT_S
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], TICK_S)[0]:
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(proc.args, OP_TIMEOUT_S)
                if self.tick is not None:
                    self.op_ticks.append(self.tick())
        finally:
            os.close(pidfd)

    def check(self, inp, out):
        seed = inp[0]
        stdout, returncode = out
        error = check_verify(stdout, returncode, seed)
        if error:
            return error
        first = self.stdout_by_seed.setdefault(seed, stdout)
        if stdout != first:
            return f"verify seed {seed}: stdout differs from an earlier run"
        return None

    def finish(self, done):
        return []

    @staticmethod
    def peak_rss_mb():
        """Largest resident set of any child that has been waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- traced mode -----------------------------------------------------

    def traced_command(self, inp, summary_path):
        """The op's command with ``child.py`` in place of ``-m semiabel.cli``."""
        return [sys.executable, str(HERE / "child.py"), str(summary_path)] + \
            self.cli_args(inp)
