"""Span-recording and output-recording wrappers around rwpot's public
functions, installed from outside the package.

`Hooks` replaces each chosen function at every ``rwpot.*`` module attribute
bound to it (modules import names directly, so patching the defining module
alone would miss most calls) and restores the originals on `uninstall`.
A function that the package no longer defines is listed in `absent` and
skipped, not treated as an error.

Spans are kept in memory: (key, start, end, parent span, thread, counters).
A span opened in a worker thread with nothing open in that thread gets the
innermost span open in the main thread as its parent, which is the
`parallel_map` that submitted it. Counter bookkeeping runs after the span
has ended, inside a `bench.trace` span, so it is charged to the benchmark
and not to the layer being measured.
"""

import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

BOOKKEEPING = "bench.trace"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _travel_weight_counts(args, kwargs, res):
    source = _arg(args, kwargs, 2, "source")
    i = res.siteset.index_one(tuple(source))
    log_e = float(res.log_e[i])
    return {"unknowns": len(res.siteset),
            "rescaled": int(res.e_values[i] == 0.0 and log_e > float("-inf")),
            "residual_max": float(res.residual)}


def _bytes_written(args, kwargs, res):
    return {"bytes": os.path.getsize(str(_arg(args, kwargs, 0, "path")))}


# (module, function, counters taken from (args, kwargs, result)); the order is
# the order of the per-layer table
TARGETS = (
    ("potential", "sample_field",
     lambda a, k, r: {"sites": _arg(a, k, 1, "region").site_count}),
    ("solver", "travel_weight", _travel_weight_counts),
    ("solver", "weighted_functionals",
     lambda a, k, r: {"unknowns": len(r.siteset)}),
    ("solver", "visit_probabilities", None),
    ("solver", "exit_functional", None),
    ("solver", "return_probability", None),
    ("oracle", "enumerate_paths", None),
    ("oracle", "sample_walk_weight",
     lambda a, k, r: {"episodes": int(_arg(a, k, 3, "n_samples"))}),
    ("lattice", "enumerate_animals", None),
    ("lyapunov", "estimate_alpha", None),
    ("concentration", "compare_restricted", None),
    ("concentration", "entropy_global_probe", None),
    ("concentration", "tail_experiment", None),
    ("concentration", "truncation_gap", None),
    ("concentration", "rank_one_verify", None),
    ("concentration", "entropy_suite", None),
    ("concentration", "psi_herbst", None),
    ("coarse", "chi_upper_probe",
     lambda a, k, r: {"accepted": int(_arg(a, k, 3, "n_configs"))}),
    ("coarse", "supermartingale_step_check", None),
    ("coarse", "animal_occupancy_check", None),
    ("harness", "run", None),
    ("io", "write_csv", _bytes_written),
    ("io", "write_json", _bytes_written),
    ("io", "sha256_of_file", None),
    ("io", "parallel_map",
     lambda a, k, r: {"threads": max(1, int(_arg(a, k, 2, "threads", 1)))}),
)


class Tracer:
    """In-memory span store. `window` marks the wall time being accounted."""

    def __init__(self):
        self.spans = {}
        self.windows = []
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _stack(self):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return tid, stack

    def _parent(self, tid, stack):
        if stack:
            return stack[-1]
        if tid != self._main:
            main = self._stacks.get(self._main)
            if main:
                return main[-1]
        return None

    def wrap(self, key, fn, counts, record):
        tracer = self

        def traced(*args, **kwargs):
            tid, stack = tracer._stack()
            parent = tracer._parent(tid, stack)
            idx = next(tracer._ids)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                tracer.spans[idx] = (key, t0, t1, parent, tid, {"failed": 1})
                raise
            t1 = perf_counter()
            stack.pop()
            extra = counts(args, kwargs, res) if counts else None
            if record is not None:
                record(args, kwargs, res)
            tracer.spans[idx] = (key, t0, t1, parent, tid, extra)
            if extra is not None or record is not None:
                tracer.spans[next(tracer._ids)] = (
                    BOOKKEEPING, t1, perf_counter(), parent, tid, None)
            return res

        traced.__wrapped__ = fn
        return traced

    def window(self, t0, t1):
        self.windows.append((t0, t1))


def _recorded(fn, record):
    def recorded(*args, **kwargs):
        res = fn(*args, **kwargs)
        record(args, kwargs, res)
        return res

    recorded.__wrapped__ = fn
    return recorded


def _rwpot_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rwpot" or name.startswith("rwpot."))]


class Hooks:
    """The patches for one process: `records` are output recorders keyed by
    "module.function", `tracer` (optional) gets a span wrapper on every
    function in TARGETS."""

    def __init__(self, records=None, tracer=None):
        import rwpot  # noqa: F401  (loads the package and its modules)

        records = records or {}
        modules = _rwpot_modules()
        self.absent = []
        self._patches = []
        for mod_name, fn_name, counts in TARGETS:
            key = f"{mod_name}.{fn_name}"
            module = sys.modules.get(f"rwpot.{mod_name}")
            fn = getattr(module, fn_name, None) if module else None
            if not callable(fn):
                self.absent.append(key)
                continue
            record = records.get(key)
            if tracer is not None:
                wrapper = tracer.wrap(key, fn, counts, record)
            elif record is not None:
                wrapper = _recorded(fn, record)
            else:
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn, wrapper))

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn, _ in self._patches:
            setattr(m, attr, fn)


def self_times(spans):
    """Self time of every span, and the wall time covered by any span.

    At each instant the wall time is shared equally by the leaves of the
    open-span forest (open spans with no open child, across all threads).
    With one thread this is a span's duration minus the part its children
    cover; with several it splits concurrent work so that the self times add
    up to the covered wall time.
    """
    events = []
    for idx, (_, t0, t1, parent, _, _) in spans.items():
        events.append((t0, 1, idx, parent))
        events.append((t1, 0, idx, parent))
    events.sort()
    open_children = defaultdict(int)
    active = set()
    own = defaultdict(float)
    covered = 0.0
    last = None
    for t, starts, idx, parent in events:
        if active and t > last:
            leaves = [j for j in active if open_children[j] == 0]
            share = (t - last) / len(leaves)
            for j in leaves:
                own[j] += share
            covered += t - last
        last = t
        if starts:
            active.add(idx)
            if parent is not None:
                open_children[parent] += 1
        else:
            active.discard(idx)
            if parent is not None:
                open_children[parent] -= 1
    return own, covered


def aggregate(tracer):
    """Additive per-layer totals of a tracer's spans (summed across traced
    calls and processes by `run.py`, then divided per call there)."""
    spans = tracer.spans
    own, covered = self_times(spans)
    out = defaultdict(float)
    children = defaultdict(list)
    for idx, (_, _, _, parent, _, _) in spans.items():
        if parent is not None:
            children[parent].append(idx)
    bookkeeping = 0.0
    for idx, (key, t0, t1, parent, _, extra) in spans.items():
        if key == BOOKKEEPING:
            bookkeeping += own[idx]
            continue
        out[f"{key}.calls"] += 1
        out[f"{key}.s"] += own[idx]
        for name, value in (extra or {}).items():
            if name == "residual_max":
                out[f"{key}.residual_max"] = max(out[f"{key}.residual_max"], value)
            elif name == "bytes":
                out["io.bytes_written"] += value
            elif name == "threads":
                out["io.parallel_map.busy"] += sum(
                    spans[c][2] - spans[c][1] for c in children[idx]
                    if spans[c][0] != BOOKKEEPING)
                out["io.parallel_map.capacity"] += (t1 - t0) * value
            elif name == "accepted":
                out["coarse.chi_upper_probe.accepted"] += value
            else:
                out[f"{key}.{name}"] += value
        if key == "potential.sample_field" and _has_ancestor(
                spans, parent, "coarse.chi_upper_probe"):
            out["coarse.chi_upper_probe.attempts"] += 1
    wall = sum(t1 - t0 for t0, t1 in tracer.windows)
    out["bench.wall_s"] += wall
    out["bench.self_s"] += wall - covered + bookkeeping
    return dict(out)


def _has_ancestor(spans, idx, key):
    while idx is not None:
        if spans[idx][0] == key:
            return True
        idx = spans[idx][3]
    return False
