"""Layer spans around robfcp's public functions, kept in memory.

The tracer wraps every public function of each trial-path layer module and
installs the wrapper in every ``robfcp`` module that holds the original
(``robfcp.simulation.rank_reports``, ``robfcp.count_estimator.pairwise_distances``,
calls inside the defining module itself, ...).  Nothing in ``src/`` changes;
uninstalling restores the originals.  Spans are only recorded on the thread
that runs the traced trials, so the traced phase must be serial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "robfcp"
#: Modules on the per-trial path.  ``io``, ``cli`` and ``errors`` are not.
LAYERS = ("simulation", "scores", "sketch", "attacks", "detection", "count_estimator",
          "calibration", "certify")


class Span:
    __slots__ = ("id", "parent", "trial", "layer", "name", "t0", "t1", "cpu0", "cpu1")

    def __init__(self, id, parent, trial, layer, name, t0, t1=0, cpu0=0, cpu1=0):
        self.id, self.parent, self.trial = id, parent, trial
        self.layer, self.name = layer, name
        self.t0, self.t1, self.cpu0, self.cpu1 = t0, t1, cpu0, cpu1

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _covered(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping children
    count once, so self times are never negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[s.id]]
        out[s.id] = (s.t1 - s.t0) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_self_times(spans) -> dict:
    """Layer -> summed self time of its spans (same units as the span clocks)."""
    totals = dict.fromkeys(LAYERS, 0)
    by_id = self_times(spans)
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0) + by_id[s.id]
    return totals


def outermost_cpu_per_wall(spans, layer: str) -> float:
    """Process CPU time over wall time inside the outermost spans of ``layer``.

    CPU time is process-wide, so values above 1 mean other threads (BLAS) ran
    during the layer's calls.  0.0 when the layer was never called.
    """
    by_id = {s.id: s for s in spans}
    wall = cpu = 0
    for s in spans:
        parent = by_id.get(s.parent)
        if s.layer == layer and (parent is None or parent.layer != layer):
            wall += s.t1 - s.t0
            cpu += s.cpu1 - s.cpu0
    return cpu / wall if wall else 0.0


def _vector_shape(vectors) -> tuple[int, int]:
    """(K, H) of a report list or a stacked vector matrix."""
    if hasattr(vectors, "shape"):
        return int(vectors.shape[0]), int(vectors.shape[1])
    first = vectors[0]
    return len(vectors), int(getattr(first, "v", first).size)


def _count_work(counts: Counter, qualname: str, args: dict, result) -> None:
    """Work counters measured at the layer boundary, beyond call counts."""
    if qualname == "simulation.generate_client_data":
        counts["simulation.generate_client_data.rows"] += args["profile"].n + args.get("n_test", 0)
    elif qualname in ("scores.lac_scores", "scores.aps_scores", "scores.label_score_matrix"):
        rows, classes = args["probs"].shape[0], args["probs"].shape[-1]
        counts["scores.rows"] += rows
        if qualname == "scores.label_score_matrix":
            # Cells of the intermediate the call builds: (n, C, C) for aps, (n, C) for lac.
            counts["scores.label_cells"] += rows * classes * (classes if args.get("kind") == "aps" else 1)
    elif qualname == "count_estimator.estimate_benign_count":
        counts["count_estimator.scan_iterations"] += result.iterations
    elif qualname == "detection.pairwise_distances":
        k, h = _vector_shape(args["reports"])
        counts["detection.pairwise_bytes"] += k * k * h * 8  # the (K, K, H) float64 difference tensor


_WORK_COUNTED = {"simulation.generate_client_data", "scores.lac_scores", "scores.aps_scores",
                 "scores.label_score_matrix", "count_estimator.estimate_benign_count",
                 "detection.pairwise_distances"}


class Tracer:
    """Records one span per wrapped call and per-trial work counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trial = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        signature = inspect.signature(fn) if qualname in _WORK_COUNTED else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock, cpu_clock = time.perf_counter_ns, time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1].id if stack else None
            span = Span(len(spans), parent, self.trial, layer, name, clock(), cpu0=cpu_clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1, span.cpu1 = clock(), cpu_clock()
                stack.pop()
            counts[qualname + ".calls"] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                _count_work(counts, qualname, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
