"""The benchmark's workloads, driven through the public API only.

Each workload builds its inputs from a seed before anything is timed, then
runs iterations of one job: a set-up step (the deployment's constructor)
and an execute step (handing every event in and collecting every window).
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field

from repro.cluster import ClusterConfig, DesisCluster
from repro.core.event import merge_streams
from repro.core.types import AggFunction, WindowType
from repro.datagen.events import DataGenerator, DataGeneratorConfig
from repro.datagen.queries import QueryGenerator, QueryGeneratorConfig
from repro.harness.experiments import tumbling_queries
from repro.interface import DesisSession
from repro.interface.parser import parse_query
from repro.network.simnet import FaultPlan
from repro.network.topology import three_tier

from reference import expected_windows

__all__ = ["WORKLOADS", "Iteration", "derive_seed"]

KEYS = tuple(f"k{i}" for i in range(10))


def derive_seed(seed: int, label: str) -> int:
    """A sub-seed for one input of the run (events, queries, faults)."""
    return zlib.crc32(f"{seed}:{label}".encode())


def _scaled(n: int, scale: float) -> int:
    return max(int(n * scale), 50)


@dataclass(slots=True)
class Iteration:
    """What one execution of a workload's job produced."""

    setup_s: float
    wall_s: float
    events: int
    #: emitted windows as (query_id, start, end, event_count, value)
    rows: list[tuple]
    #: emitted_at - end per window (simulated / stream ms)
    lags: list[int]
    #: deterministic work counters; identical for identical inputs
    counters: dict[str, float]
    #: wall seconds of each process_many call (session workload only)
    call_s: list[float] = field(default_factory=list)
    #: handler seconds per node (cluster workloads only)
    node_cpu: dict[str, float] = field(default_factory=dict)
    #: set-up times measured with this iteration, its own included
    setup_samples: list[float] = field(default_factory=list)
    #: mean time of the calibration loop around this iteration
    calibration_s: float = 0.0


def _rows_and_lags(sink) -> tuple[list[tuple], list[int]]:
    rows = [(r.query_id, r.start, r.end, r.event_count, r.value) for r in sink]
    lags = [r.emitted_at - r.end for r in sink]
    return rows, lags


# -- decentralized workloads ---------------------------------------------------


class ClusterWorkload:
    """A :class:`DesisCluster` replaying per-local streams."""

    def __init__(self, name: str, *, n_locals: int, n_intermediates: int,
                 events_per_local: int) -> None:
        self.name = name
        self.n_locals = n_locals
        self.n_intermediates = n_intermediates
        self.events_per_local = events_per_local

    def data_config(self) -> DataGeneratorConfig:
        return DataGeneratorConfig(keys=KEYS)

    def queries(self, seed: int):
        raise NotImplementedError

    def config(self, seed: int) -> ClusterConfig:
        raise NotImplementedError

    def make_inputs(self, seed: int, scale: float) -> dict:
        generator = DataGenerator(self.data_config(), seed=derive_seed(seed, "events"))
        streams = generator.streams(
            self.n_locals, _scaled(self.events_per_local, scale)
        )
        return {
            "seed": seed,
            "streams": streams,
            "queries": self.queries(seed),
            "events": sum(len(s) for s in streams.values()),
        }

    def setup(self, inputs: dict) -> DesisCluster:
        return DesisCluster(
            inputs["queries"],
            three_tier(self.n_locals, self.n_intermediates),
            config=self.config(inputs["seed"]),
        )

    def execute(self, cluster: DesisCluster, inputs: dict) -> Iteration:
        started = time.perf_counter()
        result = cluster.run(inputs["streams"])
        wall = time.perf_counter() - started
        rows, lags = _rows_and_lags(result.sink)
        net = result.network
        engine = list(result.local_stats.values())
        counters = {
            "windows": len(rows),
            "net_bytes": net.total_bytes,
            "net_data_bytes": net.data_bytes,
            "net_goodput_data_bytes": net.goodput_data_bytes,
            "net.messages": net.total_messages,
            "net.retransmits": net.retransmits,
            "net.drops": net.drops,
            "net.duplicates": net.duplicates,
            "net.dedup_dropped": net.dedup_dropped,
            "net.acks": net.acks,
            "engine.events": sum(s.events for s in engine),
            "engine.calculations": sum(s.calculations for s in engine),
            "engine.slices_closed": sum(s.slices_closed for s in engine),
            "engine.windows_closed": sum(s.windows_closed for s in engine),
            "engine.merge_ops": sum(s.merge_ops for s in engine),
            "engine.peak_live_slices": max(s.peak_live_slices for s in engine),
            "root.merge_ops": result.root_merge_ops,
            "emit_lag_sum": sum(lags),
        }
        return Iteration(
            setup_s=0.0, wall_s=wall, events=result.events, rows=rows,
            lags=lags, counters=counters, node_cpu=dict(result.node_cpu),
        )

    def reference(self, inputs: dict):
        streams = inputs["streams"]
        merged = list(merge_streams(*(streams[k] for k in sorted(streams))))
        config = self.config(inputs["seed"])
        tick = config.tick_interval
        last = max([config.origin] + [s[-1].time for s in streams.values() if s])
        final = (last // tick + 1) * tick
        queries = inputs["queries"]
        return queries, expected_windows(queries, merged, final, origin=config.origin)


class ClusterTumbling(ClusterWorkload):
    def __init__(self) -> None:
        super().__init__("cluster-tumbling", n_locals=3, n_intermediates=1,
                         events_per_local=60_000)

    def queries(self, seed: int):
        return tumbling_queries(100)

    def config(self, seed: int) -> ClusterConfig:
        return ClusterConfig()


#: two single-key queries per (window type, function) pair, so every seed
#: runs the same mix of work and the seed only moves lengths (2-6 s), slides,
#: gaps and keys
_MIXED_TYPES = (WindowType.TUMBLING, WindowType.SLIDING, WindowType.SESSION)
_MIXED_FUNCTIONS = (
    AggFunction.SUM,
    AggFunction.COUNT,
    AggFunction.AVERAGE,
    AggFunction.MIN,
    AggFunction.MAX,
    AggFunction.MEDIAN,
    AggFunction.QUANTILE,
)


class ClusterMixedLossy(ClusterWorkload):
    def __init__(self) -> None:
        super().__init__("cluster-mixed-lossy", n_locals=4, n_intermediates=2,
                         events_per_local=20_000)

    def data_config(self) -> DataGeneratorConfig:
        # Pauses longer than every session gap below, so sessions close.
        return DataGeneratorConfig(keys=KEYS, gap_every_ms=3_000, gap_ms=2_500)

    def queries(self, seed: int):
        out = []
        for window_type in _MIXED_TYPES:
            for fn in _MIXED_FUNCTIONS:
                for copy in range(2):
                    label = f"queries:{window_type.value}:{fn.value}:{copy}"
                    generator = QueryGenerator(
                        QueryGeneratorConfig(
                            keys=KEYS,
                            window_types=(window_type,),
                            functions=(fn,),
                            min_length_ms=2_000,
                            max_length_ms=6_000,
                            session_gap_ms=(500, 2_000),
                        ),
                        seed=derive_seed(seed, label),
                    )
                    out.extend(generator.queries(1, prefix=f"q{len(out)}-"))
        return out

    def config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(
            fault_plan=FaultPlan(
                seed=derive_seed(seed, "faults"),
                drop_rate=0.02,
                duplicate_rate=0.02,
                reorder_rate=0.05,
                jitter_ms=2.0,
            )
        )


# -- in-process session ----------------------------------------------------------

_SESSION_FUNCTIONS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
#: overlap 1 is a tumbling window
_SESSION_OVERLAPS = (1, 2, 4, 8, 16, 32, 64)
_SESSION_SLIDES = tuple(range(10, 51, 5))


def session_query_texts(seed: int, n: int = 40) -> list[str]:
    """``n`` queries over a fixed mix of slides, overlaps and functions.

    Slides cycle over the multiples of 5 ms in 10..50 ms, so every seed
    emits about as many windows over the same slice grid; the seed shuffles
    which slide goes with which overlap and function, and picks each
    query's key (every fourth query reads all keys).
    """
    rng = random.Random(derive_seed(seed, "queries"))
    slides = [_SESSION_SLIDES[i % len(_SESSION_SLIDES)] for i in range(n)]
    rng.shuffle(slides)
    texts = []
    for i, slide in enumerate(slides):
        overlap = _SESSION_OVERLAPS[i % len(_SESSION_OVERLAPS)]
        fn = _SESSION_FUNCTIONS[i % len(_SESSION_FUNCTIONS)]
        where = "" if i % 4 == 0 else f" WHERE key = '{rng.choice(KEYS)}'"
        if overlap == 1:
            window = f"TUMBLING {slide}ms"
        else:
            window = f"SLIDING {slide * overlap}ms EVERY {slide}ms"
        texts.append(f"SELECT {fn}(value) FROM stream{where} WINDOW {window}")
    return texts


class SessionOverlap:
    """A closed loop: one caller hands ``process_many`` fixed-size batches."""

    name = "session-overlap"
    events_total = 400_000
    batch_size = 250
    rate = 32_000.0

    def make_inputs(self, seed: int, scale: float) -> dict:
        generator = DataGenerator(
            DataGeneratorConfig(keys=KEYS, rate=self.rate),
            seed=derive_seed(seed, "events"),
        )
        events = list(generator.events(_scaled(self.events_total, scale)))
        size = self.batch_size
        return {
            "seed": seed,
            "texts": session_query_texts(seed),
            "stream": events,
            "batches": [events[i:i + size] for i in range(0, len(events), size)],
            "events": len(events),
        }

    def setup(self, inputs: dict) -> DesisSession:
        session = DesisSession()
        for text in inputs["texts"]:
            session.submit(text)
        return session

    def execute(self, session: DesisSession, inputs: dict) -> Iteration:
        calls = []
        clock = time.perf_counter
        started = clock()
        for batch in inputs["batches"]:
            before = clock()
            session.process_many(batch)
            calls.append(clock() - before)
        sink = session.close()
        wall = clock() - started
        rows, lags = _rows_and_lags(sink)
        stats = session.stats
        counters = {
            "windows": len(rows),
            "engine.events": stats.events,
            "engine.calculations": stats.calculations,
            "engine.slices_closed": stats.slices_closed,
            "engine.windows_closed": stats.windows_closed,
            "engine.merge_ops": stats.merge_ops,
            "engine.peak_live_slices": stats.peak_live_slices,
            "emit_lag_sum": sum(lags),
        }
        return Iteration(
            setup_s=0.0, wall_s=wall, events=stats.events, rows=rows,
            lags=lags, counters=counters, call_s=calls,
        )

    def reference(self, inputs: dict):
        queries = [
            parse_query(text, query_id=f"q{i}")
            for i, text in enumerate(inputs["texts"])
        ]
        stream = inputs["stream"]
        # A session anchors fixed windows at its first event and closes at
        # the last event's time.
        return queries, expected_windows(queries, stream, stream[-1].time)


WORKLOADS = {
    w.name: w for w in (ClusterTumbling(), ClusterMixedLossy(), SessionOverlap())
}
