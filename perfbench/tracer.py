"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps the public entry points of each layer in place: class
methods on their class, module functions in every module that binds them by
name (``merge_many_partials`` and friends are imported by name, so patching
only their home module would miss most calls).  Each call becomes a span
``(id, name, start, end, parent)``.  Self time — a span's duration minus the
time its child spans cover — and call counts are folded per layer as spans
close.  While a tracer is installed with ``keep_spans`` the spans themselves
are also kept in memory, packed into one integer array (a traced iteration
of a cluster workload makes several hundred thousand), and written as
gzip-compressed JSONL when the benchmark ends.

Wrappers are installed for one traced iteration and removed afterwards, so
untraced iterations run the unmodified program.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from contextlib import contextmanager

__all__ = ["TARGETS", "Tracer"]

#: (layer, owner module, attribute path, modules that bind it by name).
#: An attribute path ``Class.method`` is patched on the class.
TARGETS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("interface", "repro.interface.parser", "parse_query", ("repro.interface.session",)),
    ("interface", "repro.interface.session", "DesisSession.submit", ()),
    ("interface", "repro.interface.session", "DesisSession.process_many", ()),
    ("interface", "repro.interface.session", "DesisSession.close", ()),
    ("analyzer", "repro.core.analyzer", "analyze",
     ("repro.core.engine", "repro.cluster.desis")),
    ("engine", "repro.core.engine", "AggregationEngine.process", ()),
    ("engine", "repro.core.engine", "AggregationEngine.process_batch", ()),
    ("engine", "repro.core.engine", "AggregationEngine.process_many", ()),
    ("engine", "repro.core.engine", "AggregationEngine.advance", ()),
    ("engine", "repro.core.engine", "AggregationEngine.close", ()),
    ("engine", "repro.core.engine", "GroupRuntime.process", ()),
    ("engine", "repro.core.engine", "GroupRuntime.process_batch", ()),
    ("engine", "repro.core.engine", "GroupRuntime.begin_run", ()),
    ("engine", "repro.core.engine", "GroupRuntime.advance", ()),
    ("engine", "repro.core.engine", "GroupRuntime.close", ()),
    ("slices", "repro.core.slices", "Slice.insert", ()),
    ("slices", "repro.core.slices", "Slice.insert_run", ()),
    ("slices", "repro.core.operators", "OperatorSetState.insert", ()),
    ("slices", "repro.core.operators", "OperatorSetState.insert_many", ()),
    ("operators", "repro.core.operators", "merge_partials",
     ("repro.core.incmerge", "repro.cluster.merger", "repro.cluster.root")),
    ("operators", "repro.core.operators", "merge_many_partials",
     ("repro.core.engine", "repro.cluster.root", "repro.parallel.reduce")),
    ("incmerge", "repro.core.incmerge", "IncrementalMergeLayer.merge_window", ()),
    ("incmerge", "repro.core.incmerge", "FifoAggregator.push", ()),
    ("incmerge", "repro.core.incmerge", "FifoAggregator.evict_below", ()),
    ("incmerge", "repro.core.incmerge", "FifoAggregator.query", ()),
    ("functions", "repro.core.functions", "finalize",
     ("repro.core.engine", "repro.cluster.root", "repro.parallel.reduce")),
    ("codec", "repro.network.codec", "BinaryCodec.encode", ()),
    ("codec", "repro.network.codec", "BinaryCodec.decode", ()),
    ("simnet", "repro.network.simnet", "SimNetwork.inject_stream", ()),
    ("simnet", "repro.network.simnet", "SimNetwork.run", ()),
    ("simnet", "repro.network.simnet", "SimNetwork.send", ()),
    ("local", "repro.cluster.local", "LocalNode.on_event", ()),
    ("local", "repro.cluster.local", "LocalNode.on_events", ()),
    ("local", "repro.cluster.local", "LocalNode.on_message", ()),
    ("local", "repro.cluster.local", "LocalNode.on_tick", ()),
    ("local", "repro.cluster.local", "LocalNode.on_finish", ()),
    ("intermediate", "repro.cluster.intermediate", "IntermediateNode.on_message", ()),
    ("intermediate", "repro.cluster.intermediate", "IntermediateNode.on_tick", ()),
    ("intermediate", "repro.cluster.intermediate", "IntermediateNode.on_finish", ()),
    ("merger", "repro.cluster.merger", "GroupMerger.on_batch", ()),
    ("merger", "repro.cluster.merger", "GroupMerger.advance", ()),
    ("root", "repro.cluster.root", "RootNode.on_message", ()),
    ("root", "repro.cluster.root", "RootNode.on_tick", ()),
    ("root", "repro.cluster.root", "RootNode.finish", ()),
    ("assembler", "repro.cluster.root", "RootAssembler.consume", ()),
    ("assembler", "repro.cluster.root", "RootAssembler.finish", ()),
    ("cluster", "repro.cluster.desis", "DesisCluster.run", ()),
)

#: span names whose return value's length is summed as the span's units
_UNITS = {"codec.BinaryCodec.encode"}

#: node handlers: every call is one dispatch by the simulated network
HANDLERS = frozenset(
    f"{layer}.{path}"
    for layer, _, path, _ in TARGETS
    if layer in ("local", "intermediate", "root") and path != "RootNode.finish"
)


class Tracer:
    """In-memory span recorder with per-layer self-time folding."""

    def __init__(self) -> None:
        #: name -> [calls, total_ns, self_ns, units]
        self.stats: dict[str, list[int]] = {}
        self.layer_of: dict[str, str] = {}
        #: name -> its index in ``_names``, the name field of a kept span
        self._name_index: dict[str, int] = {}
        self._names: list[str] = []
        #: kept spans, five integers each: id, name index, start_ns, end_ns,
        #: parent id (0 for none)
        self._spans = array("q")
        self._keep = False
        #: wall time covered by top-level spans
        self.covered_ns = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list[int]:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [0, self._next_id, parent, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[int], units: int = 0) -> None:
        end = time.perf_counter_ns()
        child_ns, span_id, parent, start = frame
        self._stack.pop()
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        entry[3] += units
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.covered_ns += duration
        if self._keep:
            self._spans.extend((span_id, self._name_index[name], start, end, parent))

    def _register(self, layer: str, name: str) -> None:
        if name not in self.stats:
            self.layer_of[name] = layer
            self.stats[name] = [0, 0, 0, 0]
            self._name_index[name] = len(self._names)
            self._names.append(name)

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around a call made from the benchmark's own code."""
        full = f"{layer}.{name}"
        self._register(layer, full)
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(full, frame)

    def _wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit
        if name in _UNITS:
            def wrapper(*args, **kwargs):
                frame = enter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    exit_(name, frame, len(result) if result is not None else 0)
        else:
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(name, frame)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; raises if one no longer exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path, bound_in in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{path}"
            self._register(layer, name)
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            wrapped = self._wrap(name, getattr(module, path))
            self._patch(module, path, wrapped)
            for other in bound_in:
                importer = importlib.import_module(other)
                if importer.__dict__.get(path) is not wrapped.__wrapped__:
                    raise RuntimeError(f"{other} does not bind {path} by name")
                self._patch(importer, path, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, *, keep_spans: bool):
        """Wrap every target for the block; ``keep_spans`` keeps its spans."""
        self.install()
        self._keep = keep_spans
        try:
            yield self
        finally:
            self._keep = False
            self.uninstall()

    # -- results -------------------------------------------------------------

    @property
    def spans_kept(self) -> int:
        return len(self._spans) // 5

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def units(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0, 0))[3]

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "self_s"}}`` summed over the layer's spans."""
        table: dict[str, dict[str, float]] = {}
        for name, (calls, _, self_ns, _) in self.stats.items():
            row = table.setdefault(self.layer_of[name], {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_ns / 1e9
        return table

    def write_jsonl(self, path) -> None:
        """Write the kept spans as gzip-compressed JSONL, one span a line."""
        spans = self._spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i in range(0, len(spans), 5):
                span_id, index, start, end, parent = spans[i:i + 5]
                name = self._names[index]
                out.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "layer": self.layer_of[name],
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent or None,
                }) + "\n")
