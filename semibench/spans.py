"""Span tracer for the benchmark's traced mode.

The tracer wraps the public functions of the semiabel modules from the
outside, at every module-level name they are bound to.  A caller looks a
function up in its own module's namespace (``classifier`` calls the
``detect_integer_relation`` that ``from .relations import ...`` bound in
``semiabel.classifier``), so wrapping only the defining module would miss
those calls.  Each call records one span with its parent; a layer's self
time is the time of its spans minus the time of their direct children.

Nothing here touches the program unless ``Tracer.install`` is called, and
``Tracer.uninstall`` puts every original binding back.
"""

import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

# defining module -> layer name used in the metric names
LAYERS = {
    "semiabel._kernels": "kernels",
    "semiabel.lattice": "lattice",
    "semiabel.elliptic": "elliptic",
    "semiabel.periods": "periods",
    "semiabel.semiabelian": "semiabelian",
    "semiabel.pairing": "pairing",
    "semiabel.relations": "relations",
    "semiabel.classifier": "classifier",
    "semiabel.cli": "cli",
}

RELATION_SEARCH = ("semiabel.relations", "detect_integer_relation")


def relation_key(bound):
    """Key of one relation search: the exact input values with the height
    bound and tolerance the search ran with, defaults filled in."""
    args = bound.arguments
    values = tuple(complex(v) for v in args["values"])
    return values, args["max_height"], args["tol"]


def self_times(spans):
    """Per-layer (self seconds, total seconds, calls) from spans given as
    (span_id, parent_id, layer, start, end); parent_id None marks a root.

    A span's self time is its duration minus the durations of its direct
    children, so a grandchild is subtracted from its own parent only."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for sid, _, layer, start, end in spans:
        acc = out[layer]
        acc[0] += (end - start) - child_time[sid]
        acc[1] += end - start
        acc[2] += 1
    return {layer: tuple(v) for layer, v in out.items()}


class Tracer:
    """Records spans of wrapped calls and relation-search keys per op.

    Spans are kept in memory as (span_id, parent_id, layer, start, end)
    tuples; ``summary`` reduces them to per-layer and per-function totals.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = Counter()  # (layer, function name) -> calls
        self.searches = 0
        self.distinct = 0
        self._stack = []
        self._op_keys = None
        self._patched = []
        self._wrappers = {}
        self._next_id = 0

    # -- recording -------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, layer, start):
        end = self.clock()
        self._stack.pop()
        self.spans.append((sid, parent, layer, start, end))

    def op(self, fn, *args):
        """Run one benchmark op as a root span of layer ``bench``; relation
        searches are keyed afresh for each op."""
        self._op_keys = set()
        sid, parent = self._open()
        start = self.clock()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, "bench", start)
            self.distinct += len(self._op_keys)
            self._op_keys = None

    def wrap(self, fn, layer):
        name = fn.__name__
        signature = None
        if (fn.__module__, name) == RELATION_SEARCH:
            signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer, name] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.searches += 1
                if tracer._op_keys is not None:
                    tracer._op_keys.add(relation_key(bound))
            sid, parent = tracer._open()
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, layer, start)

        return traced

    # -- installation ----------------------------------------------------

    def install(self, modules=None, layers=LAYERS):
        """Replace every module-level binding of a public function defined
        in one of ``layers`` by its wrapper, in each of ``modules``
        (default: every loaded ``semiabel`` module)."""
        if modules is None:
            modules = [
                m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "semiabel" or n.startswith("semiabel."))
            ]
        wrappers = self._wrappers
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                layer = layers.get(value.__module__)
                if layer is None or value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(value, layer)
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))
        return len({id(v) for _, _, v in self._patched})

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    # -- reduction -------------------------------------------------------

    def summary(self):
        """Per-layer self/total seconds and calls, per-function calls, the
        relation-search counts, and the time spent inside root spans."""
        per_layer = self_times(self.spans)
        roots = sum(end - start for _, parent, _, start, end in self.spans
                    if parent is None)
        return {
            "layers": {k: {"self_s": v[0], "total_s": v[1], "spans": v[2]}
                       for k, v in sorted(per_layer.items())},
            "calls": {f"{layer}.{name}": n
                      for (layer, name), n in sorted(self.calls.items())},
            "searches": self.searches,
            "distinct": self.distinct,
            "root_s": roots,
        }


def merge_summaries(summaries):
    """Sum of several ``Tracer.summary`` results (one per traced process)."""
    out = {"layers": {}, "calls": Counter(), "searches": 0, "distinct": 0,
           "root_s": 0.0}
    for s in summaries:
        for layer, v in s["layers"].items():
            acc = out["layers"].setdefault(layer, {"self_s": 0.0, "total_s": 0.0,
                                                   "spans": 0})
            for k in acc:
                acc[k] += v[k]
        out["calls"].update(s["calls"])
        for k in ("searches", "distinct", "root_s"):
            out[k] += s[k]
    out["calls"] = dict(sorted(out["calls"].items()))
    return out
