"""Span tracing for the benchmark's traced run.

install() wraps the public functions of the six library modules, plus the
RepTable and IncrementalReducer methods the layer metrics need, from outside
the library: each call records a span (name, start, end, parent) in memory.
The library calls its own functions through module attributes, so a wrapped
attribute also sees the library's internal calls. layer_metrics() turns the
spans into the per-layer counts and self times; Tracer.write() saves them.

A layer's self time is its span's duration minus the durations of its child
spans (calls run on one thread, so children nest and do not overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from lyident import evallab, exactla, freealg, liftgen, pipeline, symrep

MODULES = (freealg, liftgen, symrep, exactla, pipeline, evallab)


class Tracer:
    """Spans in parallel arrays; parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # counts recorded at span boundaries: rows offered, rank gained, ...
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        k = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(k)
        return k

    def close(self, k: int) -> None:
        self.end[k] = perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.start)

    def write(self, path: Path) -> None:
        """Save every span as one JSON document of parallel lists."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _wrap(tracer: Tracer, name: str, fn, on_exit=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        k = tracer.open(name(*args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(k)
        if on_exit is not None:
            on_exit(args, out)
        return out

    return traced


def _field_tag(reducer, *_):
    return "gf" if reducer.field.characteristic else "qq"


def install(tracer: Tracer):
    """Wrap the library; returns a function that restores every original."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if callable(fn) and not inspect.isclass(fn) and (mod, attr) != (evallab, "evaluate"):
                patch(mod, attr, _wrap(tracer, f"{short}.{attr}", fn))

    def evaluate_name(item, *_):
        alt = isinstance(item, pipeline.ExplicitIdentity) and item.alternating
        return "evallab.evaluate_alt" if alt else "evallab.evaluate_poly"

    patch(evallab, "evaluate", _wrap(tracer, evaluate_name, evallab.evaluate))

    table = symrep.RepTable
    patch(table, "__init__", _wrap(tracer, "symrep.RepTable.init", table.__init__))
    patch(table, "matrix", _wrap(tracer, "symrep.RepTable.matrix", table.matrix))

    red = exactla.IncrementalReducer

    def append_exit(args, gain):
        r, rows = args[0], args[1]
        tag = _field_tag(r)
        tracer.counts[f"exactla.append_{tag}.rows"] += len(rows)
        tracer.counts[f"exactla.append_{tag}.rank_gain"] += gain
        # computed, not measured: the basis a dense float64 store would hold
        mb = r.rank * r.cols * 8 / 1e6
        tracer.maxima["exactla.basis_mb"] = max(tracer.maxima["exactla.basis_mb"], mb)

    patch(red, "append", _wrap(tracer, lambda r, *_: f"exactla.append_{_field_tag(r)}", red.append, append_exit))
    patch(red, "contains", _wrap(tracer, lambda r, *_: f"exactla.contains_{_field_tag(r)}", red.contains))
    patch(red, "tail_rows", _wrap(tracer, "exactla.tail_rows", red.tail_rows))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def span_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds of outermost spans, self
    seconds, and the longest single span."""
    n = len(tracer)
    dur = [tracer.end[k] - tracer.start[k] for k in range(n)]
    child = [0.0] * n
    for k in range(n):
        p = tracer.parent[k]
        if p >= 0:
            child[p] += dur[k]
    out: dict[str, dict[str, float]] = {}
    for k in range(n):
        name = tracer.names[tracer.name[k]]
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur[k] - child[k]
        row["max_s"] = max(row["max_s"], dur[k])
        p = tracer.parent[k]
        while p >= 0 and tracer.name[p] != tracer.name[k]:
            p = tracer.parent[p]
        if p < 0:
            row["s"] += dur[k]
    return out


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced iteration (set-up plus one round).

    A layer the workload never calls reads 0.
    """
    tot = span_totals(tracer)

    def per(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0) / iterations

    def count(key: str) -> float:
        return tracer.counts.get(key, 0) / iterations

    rows, gain = count("exactla.append_gf.rows"), count("exactla.append_gf.rank_gain")
    evaluations = per("evallab.evaluate_poly", "calls") + per("evallab.evaluate_alt", "calls")
    checking = per("evallab.check_identity", "s")
    return {
        "liftgen.generate.s": (per("liftgen.generate", "s"), "s"),
        "freealg.expand.calls": (per("freealg.expand", "calls"), "count"),
        "freealg.expand.self_s": (per("freealg.expand", "self_s"), "s"),
        "liftgen.filter_redundant.s": (per("liftgen.filter_redundant", "s"), "s"),
        "liftgen.identity_rows.calls": (per("liftgen.identity_rows", "calls"), "count"),
        "liftgen.identity_rows.self_s": (per("liftgen.identity_rows", "self_s"), "s"),
        "symrep.RepTable.init.calls": (per("symrep.RepTable.init", "calls"), "count"),
        "symrep.RepTable.init.self_s": (per("symrep.RepTable.init", "self_s"), "s"),
        "symrep.RepTable.matrix.calls": (per("symrep.RepTable.matrix", "calls"), "count"),
        "symrep.RepTable.matrix.self_s": (per("symrep.RepTable.matrix", "self_s"), "s"),
        "exactla.append_gf.calls": (per("exactla.append_gf", "calls"), "count"),
        "exactla.append_gf.rows": (rows, "count"),
        "exactla.append_gf.rank_gain": (gain, "count"),
        "exactla.append_gf.useful_ratio": (gain / rows if rows else 0.0, "ratio"),
        "exactla.append_gf.self_s": (per("exactla.append_gf", "self_s"), "s"),
        "exactla.contains_gf.calls": (per("exactla.contains_gf", "calls"), "count"),
        "exactla.contains_gf.self_s": (per("exactla.contains_gf", "self_s"), "s"),
        "exactla.tail_rows.self_s": (per("exactla.tail_rows", "self_s"), "s"),
        "exactla.basis_mb.max": (tracer.maxima.get("exactla.basis_mb", 0.0), "MB"),
        "exactla.append_qq.calls": (per("exactla.append_qq", "calls"), "count"),
        "exactla.append_qq.self_s": (per("exactla.append_qq", "self_s"), "s"),
        "exactla.contains_qq.self_s": (per("exactla.contains_qq", "self_s"), "s"),
        "pipeline.reduce_identities.calls": (per("pipeline.reduce_identities", "calls"), "count"),
        "pipeline.reduce_identities.self_s": (per("pipeline.reduce_identities", "self_s"), "s"),
        "pipeline.analyze_partition.self_s": (per("pipeline.analyze_partition", "self_s"), "s"),
        "pipeline.partition_max_s": (tot.get("pipeline.analyze_partition", {}).get("max_s", 0.0), "s"),
        "pipeline.certify_new.self_s": (per("pipeline.certify_new", "self_s"), "s"),
        "evallab.validate.self_s": (per("evallab.validate", "self_s"), "s"),
        "evallab.evaluate_poly.calls": (per("evallab.evaluate_poly", "calls"), "count"),
        "evallab.evaluate_poly.self_s": (per("evallab.evaluate_poly", "self_s"), "s"),
        "evallab.evaluate_alt.calls": (per("evallab.evaluate_alt", "calls"), "count"),
        "evallab.evaluate_alt.self_s": (per("evallab.evaluate_alt", "self_s"), "s"),
        "evallab.assignments_per_s": (evaluations / checking if checking else 0.0, "1/s"),
    }
