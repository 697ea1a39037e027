"""Desis benchmark: end-to-end and per-layer metrics on three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster-tumbling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

Each run builds its inputs from ``--seed`` before anything is timed, warms
up with one untimed iteration, then repeats the workload's job (set-up plus
execute) until ``--seconds`` have passed and reports medians.  Every
emitted window of every iteration is checked against the conformance
oracle (``perfbench/reference.py``) outside the timed region; the run
exits 1 if any window is missing, extra or wrong.

Wall-clock speed on a shared VM drifts by up to 2x over minutes, so a
fixed pure-Python calibration loop (``calibration_s``) is timed around
every iteration.  The gated timings, ``events_per_ref_s`` and ``setup_s``,
are scaled to the speed the reference box shows that loop at
(``CALIBRATION_REF_S``); the raw ``events_per_s`` and ``setup_wall_s`` are
printed next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced iterations with iterations run under per-layer spans
(``perfbench/tracer.py``), prints the per-layer table and metrics, the
tracing overhead, and the sharded-vs-in-process comparison, and writes the
spans of the first traced iteration as gzip-compressed JSONL under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (windows the reference expects, summed over the
checked iterations), ``failed`` and ``metrics``.  Lines before it print
every metric as ``metric <name> <value> <unit>``, the deterministic work
counters (identical for identical seeds) and an environment fingerprint.

Seed 7919 is held out: it was not used while the benchmark was tuned, so a
claimed gain can be confirmed on it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("cluster-tumbling", "cluster-mixed-lossy", "session-overlap")
HELD_OUT_SEED = 7919
#: set-ups timed per iteration; spread over the run like the iterations,
#: so set-up time is a median of many samples taken at different moments
SETUP_SAMPLES = 4
MIN_ITERATIONS = 3
#: shards for the parallel comparison: the cores of the reference box
PARALLEL_SHARDS = 2
#: seconds ``calibration_s`` takes on the reference box (2-core VM, Python
#: 3.11).  The gated timings are scaled by calibration time over this:
#: ``events_per_ref_s`` and ``setup_s`` are what the reference box shows at
#: that speed, so host speed drift cancels while program changes do not
CALIBRATION_REF_S = 0.025

#: end-to-end metrics (untraced): name -> unit; ``applies`` says on which
#: workloads each is printed
END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "events_per_ref_s": "events/ref_s",
    "setup_s": "s",
    "setup_wall_s": "s",
    "call_latency_p50_ms": "ms",
    "call_latency_p99_ms": "ms",
    "emit_lag_p50_ms": "sim_ms",
    "emit_lag_p95_ms": "sim_ms",
    "net_bytes_per_event": "bytes/event",
    "peak_rss_mb": "MB",
    "windows_failed_frac": "fraction",
}

#: spans opened around a whole step (set-up, or the cluster's whole run):
#: their self time is work no layer span explains, so the traced run counts
#: it as uncovered, with the time outside every span
CONTAINER_SPANS = ("cluster.setup", "interface.setup", "cluster.DesisCluster.run")

#: counters compared exactly between same-seed runs
DETERMINISTIC = (
    "windows",
    "net_bytes_per_event",
    "net.messages",
    "engine.calculations",
    "engine.merge_ops",
    "root.merge_ops",
)


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one iteration ----------------------------------------------------------------


def calibration_s() -> float:
    """Time a fixed pure-Python loop: allocation, dict updates, a sort.

    It exercises the interpreter the way the program does but runs none of
    the program's code, so its time follows only the host's current speed,
    which drifts by up to 2x over minutes on a shared 2-core VM.
    """
    started = time.perf_counter()
    rng = random.Random(1)
    totals: dict[int, float] = {}
    items = []
    for i in range(20_000):
        key = (i * 7919) % 1000
        value = rng.random()
        items.append((key, value))
        totals[key] = totals.get(key, 0.0) + value
    items.sort()
    return time.perf_counter() - started


def run_iteration(workload, inputs, tracer=None, extra_setups: int = 0,
                  previous=None):
    """Set up and execute once; under ``tracer`` both steps are spans.

    ``extra_setups`` more set-ups are timed first, from the same freshly
    collected heap, and kept with the iteration's own in ``setup_samples``.
    The calibration loop runs before and after.  An output equal to the
    ``previous`` iteration's shares its lists, so memory does not grow with
    the number of iterations.
    """
    gc.collect()
    before = calibration_s()
    samples = time_setups(workload, inputs, extra_setups)
    layer = "interface" if workload.name.startswith("session") else "cluster"
    started = time.perf_counter()
    if tracer is None:
        deployment = workload.setup(inputs)
    else:
        with tracer.span(layer, "setup"):
            deployment = workload.setup(inputs)
    setup_s = time.perf_counter() - started
    iteration = workload.execute(deployment, inputs)
    del deployment
    iteration.calibration_s = (before + calibration_s()) / 2
    iteration.setup_s = setup_s
    iteration.setup_samples = samples + [setup_s]
    if previous is not None:
        if iteration.rows == previous.rows:
            iteration.rows = previous.rows
        if iteration.lags == previous.lags:
            iteration.lags = previous.lags
    return iteration


def time_setups(workload, inputs, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        workload.setup(inputs)
        samples.append(time.perf_counter() - started)
    return samples


def derived_counters(iteration) -> dict:
    counters = dict(iteration.counters)
    counters["net_bytes_per_event"] = (
        counters.get("net_bytes", 0) / iteration.events
    )
    counters.setdefault("net.messages", 0)
    counters.setdefault("root.merge_ops", 0)
    return counters


# -- correctness --------------------------------------------------------------------


def check_iterations(workload, inputs, iterations):
    """Check every iteration's windows.

    Returns the windows expected over all iterations, the failures among
    them, their breakdown with a few examples, and the names of counters
    that differ between iterations of the same input.
    """
    from reference import check_rows

    queries, expected = workload.reference(inputs)
    attempted = failed = 0
    detail = {"missing": 0, "extra": 0, "wrong": 0, "examples": []}
    checked = {}  # id of a shared rows list -> its check
    for iteration in iterations:
        result = checked.get(id(iteration.rows))
        if result is None:
            result = checked[id(iteration.rows)] = check_rows(
                queries, expected, iteration.rows
            )
        attempted += result.expected
        failed += result.failed
        detail["missing"] += result.missing
        detail["extra"] += result.extra
        detail["wrong"] += result.wrong
        if not detail["examples"]:
            detail["examples"] = result.examples
    first = derived_counters(iterations[0])
    unstable = sorted(
        name for it in iterations[1:]
        for name, value in derived_counters(it).items()
        if first.get(name) != value
    )
    return max(attempted, 1), failed, detail, sorted(set(unstable))


# -- reports -------------------------------------------------------------------------


def to_ref(seconds: float, iteration) -> float:
    """``seconds`` measured around ``iteration``, at reference speed."""
    return seconds * CALIBRATION_REF_S / iteration.calibration_s


def end_to_end(iterations, rss_mb, failed_frac) -> dict:
    metrics = {
        "events_per_s": statistics.median(it.events / it.wall_s for it in iterations),
        "events_per_ref_s": statistics.median(
            it.events / to_ref(it.wall_s, it) for it in iterations
        ),
        "setup_s": statistics.median(
            to_ref(s, it) for it in iterations for s in it.setup_samples
        ),
        "setup_wall_s": statistics.median(
            s for it in iterations for s in it.setup_samples
        ),
    }
    calls = [c for it in iterations for c in it.call_s]
    if calls:
        metrics["call_latency_p50_ms"] = percentile(calls, 0.50) * 1e3
        metrics["call_latency_p99_ms"] = percentile(calls, 0.99) * 1e3
    lags = iterations[0].lags
    metrics["emit_lag_p50_ms"] = percentile(lags, 0.50)
    metrics["emit_lag_p95_ms"] = percentile(lags, 0.95)
    if "net_bytes" in iterations[0].counters:
        metrics["net_bytes_per_event"] = derived_counters(iterations[0])[
            "net_bytes_per_event"
        ]
    metrics["peak_rss_mb"] = rss_mb
    metrics["windows_failed_frac"] = failed_frac
    return metrics


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    suffix = f"  # {note}" if note else ""
    print(f"metric {name} {value!r} {unit}{suffix}")


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(correct, attempted, failed, metrics, wanted) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    })


# -- measured (untraced) run -----------------------------------------------------------


def measured_run(workload, inputs, seconds: float):
    first = run_iteration(workload, inputs)  # warm-up, checked only
    iterations = [first]
    measured = []
    started = time.perf_counter()
    while len(measured) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        measured.append(run_iteration(
            workload, inputs, extra_setups=SETUP_SAMPLES - 1, previous=first
        ))
    rss = peak_rss_mb()
    iterations.extend(measured)
    return iterations, measured, rss


# -- traced run ------------------------------------------------------------------------------


def parallel_comparison(seed: int, scale: float, session_inputs=None) -> dict:
    """Sharded (``shards=PARALLEL_SHARDS``) vs in-process on session-overlap's input."""
    from repro.interface import DesisSession
    from workloads import WORKLOADS

    workload = WORKLOADS["session-overlap"]
    inputs = session_inputs or workload.make_inputs(seed, scale)
    rows = {}
    wall = {}
    stats = None
    for label, shards in (("inprocess", None), ("sharded", PARALLEL_SHARDS)):
        gc.collect()
        session = DesisSession(shards=shards)
        for text in inputs["texts"]:
            session.submit(text)
        started = time.perf_counter()
        for batch in inputs["batches"]:
            session.process_many(batch)
        sink = session.close()
        wall[label] = time.perf_counter() - started
        rows[label] = [
            (r.query_id, r.start, r.end, r.event_count, r.value) for r in sink
        ]
        if shards:
            stats = session.shard_stats
    from reference import check_rows

    queries, expected = workload.reference(inputs)
    failed = sum(check_rows(queries, expected, rows[k]).failed for k in rows)
    events = inputs["events"]
    return {
        "parallel.events_per_s": events / wall["sharded"],
        "parallel.speedup_vs_inprocess": wall["inprocess"] / wall["sharded"],
        "parallel.parent_s": (stats.parent_ns + stats.reduce_ns) / 1e9,
        "parallel.busiest_worker_s": max(stats.busy_ns) / 1e9,
        "_attempted": 2 * len(expected),
        "_failed": failed,
    }


def traced_run(workload, inputs, seconds: float, tracer):
    first = run_iteration(workload, inputs)  # warm-up
    iterations = [first]
    untraced, traced = [], []
    traced_wall = 0.0
    covered_ns = 0
    started = time.perf_counter()
    while (
        len(traced) < MIN_ITERATIONS - 1
        or time.perf_counter() - started < seconds
    ):
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                untraced.append(run_iteration(workload, inputs, previous=first))
                continue
            before = tracer.covered_ns
            # The first traced iteration's spans are kept for the JSONL file.
            with tracer.installed(keep_spans=not traced):
                iteration = run_iteration(workload, inputs, tracer, previous=first)
            # The timed regions: set-up plus execute, as in untraced runs.
            traced_wall += iteration.setup_s + iteration.wall_s
            covered_ns += tracer.covered_ns - before
            traced.append(iteration)
    iterations.extend(untraced + traced)
    outside_s = max(traced_wall - covered_ns / 1e9, 0.0)
    return iterations, untraced, traced, traced_wall, outside_s


def uncovered_s(tracer, outside_s: float) -> float:
    """Traced time no layer span explains: outside every span, or the self
    time of a container span."""
    return outside_s + tracer.self_s(*CONTAINER_SPANS)


def per_layer(tracer, untraced, traced, traced_wall, outside_s, datagen_s,
              inputs) -> dict:
    """Per-layer metrics: span figures per traced iteration, plus counters."""
    from tracer import HANDLERS

    n = len(traced)
    table = tracer.layer_table()

    def layer(name: str, field: str = "self_s") -> float:
        return table.get(name, {field: 0})[field] / n

    def spans(*names: str) -> float:
        return tracer.self_s(*names) / n

    def calls(*names: str) -> float:
        return sum(tracer.calls(name) for name in names) / n

    encode = "codec.BinaryCodec.encode"
    stats = traced[0].counters
    events = stats["engine.events"]
    eps_untraced = statistics.median(it.events / it.wall_s for it in untraced)
    eps_traced = statistics.median(it.events / it.wall_s for it in traced)
    data_bytes = stats.get("net_data_bytes", 0)
    first_calls = [it.call_s[0] for it in untraced if it.call_s]
    metrics = {
        "datagen.s": datagen_s,
        "datagen.events": inputs["events"],
        "interface.parse_s": spans("interface.parse_query"),
        "interface.first_call_s": (
            statistics.median(first_calls) if first_calls else 0.0
        ),
        "analyzer.s": layer("analyzer"),
        "engine.ingest_calls": calls(*(
            f"engine.{cls}.{method}"
            for cls in ("AggregationEngine", "GroupRuntime")
            for method in ("process", "process_batch", "process_many", "begin_run")
        )),
        "engine.self_s": layer("engine"),
        "engine.calcs_per_event": stats["engine.calculations"] / events,
        "slices.insert_s": layer("slices"),
        "operators.merge_s": layer("operators"),
        "operators.merge_calls": layer("operators", "calls"),
        "incmerge.s": layer("incmerge"),
        "incmerge.calls": calls("incmerge.FifoAggregator.query"),
        "functions.finalize_s": layer("functions"),
        "codec.encode_s": spans(encode),
        "codec.decode_s": spans("codec.BinaryCodec.decode"),
        "codec.frames": calls(encode),
        "codec.bytes": tracer.units(encode) / n,
        "simnet.inject_s": spans("simnet.SimNetwork.inject_stream"),
        "simnet.dispatch_self_s": spans("simnet.SimNetwork.run"),
        "simnet.send_self_s": spans("simnet.SimNetwork.send"),
        "simnet.handler_calls": calls(*HANDLERS),
        "net.goodput_frac": (
            stats.get("net_goodput_data_bytes", 0) / data_bytes if data_bytes else 1.0
        ),
        "local.self_s": layer("local"),
        "local.calls": layer("local", "calls"),
        "intermediate.self_s": layer("intermediate"),
        "merger.s": layer("merger"),
        "root.self_s": layer("root"),
        "root.assemble_s": layer("assembler"),
        "trace.overhead_frac": eps_untraced / eps_traced - 1.0,
        "trace.uncovered_frac": uncovered_s(tracer, outside_s) / traced_wall,
    }
    for name in ("engine.events", "engine.calculations", "engine.slices_closed",
                 "engine.windows_closed", "engine.merge_ops",
                 "engine.peak_live_slices", "net.messages", "net.retransmits",
                 "net.drops", "net.duplicates", "net.dedup_dropped", "net.acks",
                 "root.merge_ops"):
        metrics[name] = stats.get(name, 0)
    if untraced[0].node_cpu:
        # The node that is busiest in most iterations, and its median time.
        busiest: dict[str, list[float]] = {}
        for it in untraced:
            node = max(it.node_cpu, key=it.node_cpu.__getitem__)
            busiest.setdefault(node, []).append(it.node_cpu[node])
        node = max(busiest, key=lambda k: len(busiest[k]))
        metrics["cluster.busiest_node_s"] = statistics.median(busiest[node])
        metrics["_busiest_node"] = node
    return metrics


#: per-layer metric units, for the printed table
PER_LAYER_UNITS = {
    "datagen.s": "s", "datagen.events": "count",
    "interface.parse_s": "s", "interface.first_call_s": "s",
    "analyzer.s": "s",
    "engine.ingest_calls": "count", "engine.self_s": "s",
    "engine.events": "count", "engine.calculations": "count",
    "engine.calcs_per_event": "ratio", "engine.slices_closed": "count",
    "engine.windows_closed": "count", "engine.merge_ops": "count",
    "engine.peak_live_slices": "count",
    "slices.insert_s": "s",
    "operators.merge_s": "s", "operators.merge_calls": "count",
    "incmerge.s": "s", "incmerge.calls": "count",
    "functions.finalize_s": "s",
    "codec.encode_s": "s", "codec.decode_s": "s",
    "codec.frames": "count", "codec.bytes": "bytes",
    "simnet.inject_s": "s", "simnet.dispatch_self_s": "s",
    "simnet.send_self_s": "s", "simnet.handler_calls": "count",
    "net.messages": "count", "net.retransmits": "count", "net.drops": "count",
    "net.duplicates": "count", "net.dedup_dropped": "count", "net.acks": "count",
    "net.goodput_frac": "fraction",
    "local.self_s": "s", "local.calls": "count",
    "intermediate.self_s": "s", "merger.s": "s",
    "root.self_s": "s", "root.assemble_s": "s", "root.merge_ops": "count",
    "cluster.busiest_node_s": "s",
    "parallel.events_per_s": "events/s", "parallel.speedup_vs_inprocess": "x",
    "parallel.parent_s": "s", "parallel.busiest_worker_s": "s",
    "trace.overhead_frac": "fraction", "trace.uncovered_frac": "fraction",
}

#: layers that only exist in the decentralized deployments
_CLUSTER_ONLY = ("codec.", "simnet.", "net.", "local.", "intermediate.",
                 "merger.", "root.", "cluster.")
_SESSION_ONLY = ("interface.",)


def applies(name: str, workload_name: str) -> bool:
    """Whether a metric is meaningful on a workload."""
    session = workload_name.startswith("session")
    if name in ("call_latency_p50_ms", "call_latency_p99_ms") or name.startswith(_SESSION_ONLY):
        return session
    if name == "net_bytes_per_event" or name.startswith(_CLUSTER_ONLY):
        return not session
    return True


def print_layer_table(tracer, traced_wall: float, outside_s: float, n: int) -> str:
    lines = [f"{'layer':<14}{'calls/it':>12}{'self_s/it':>12}{'share':>8}"]
    rows = sorted(tracer.layer_table().items(), key=lambda kv: -kv[1]["self_s"])
    for layer, row in rows:
        if not row["calls"] or layer == "datagen":  # datagen runs before the iterations
            continue
        lines.append(
            f"{layer:<14}{row['calls'] / n:>12.0f}{row['self_s'] / n:>12.4f}"
            f"{row['self_s'] / traced_wall:>8.1%}"
        )
    lines.append(f"{'(no span)':<14}{'':>12}{outside_s / n:>12.4f}"
                 f"{outside_s / traced_wall:>8.1%}")
    uncovered = uncovered_s(tracer, outside_s)
    lines.append(f"uncovered: {uncovered / n:.4f} s/it, {uncovered / traced_wall:.1%} "
                 f"(no span + self time of {', '.join(CONTAINER_SPANS)})")
    text = "\n".join(lines)
    print(text)
    return text


# -- entry points ------------------------------------------------------------------------------


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401 - fail early when the program is absent
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    manifest = load_manifest()
    workload = WORKLOADS[args.workload]
    env = fingerprint()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} scale {args.scale}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    if tracer is None:
        inputs = workload.make_inputs(args.seed, args.scale)
    else:
        with tracer.span("datagen", "generate"):
            inputs = workload.make_inputs(args.seed, args.scale)
    datagen_s = time.perf_counter() - started

    report = {"workload": workload.name, "seed": args.seed, "env": env,
              "trace": args.trace, "scale": args.scale,
              "held_out_seed": HELD_OUT_SEED}
    if not args.trace:
        iterations, measured, rss = measured_run(workload, inputs, args.seconds)
        attempted, failed, detail, unstable = check_iterations(
            workload, inputs, iterations
        )
        metrics = end_to_end(measured, rss, failed / attempted)
        eps = [it.events / it.wall_s for it in measured]
        ref = [it.events / to_ref(it.wall_s, it) for it in measured]
        notes = {
            "events_per_s": f"median of {len(eps)} iterations, "
                            f"iqr/median {spread(eps):.3f}",
            "events_per_ref_s": f"iqr/median {spread(ref):.3f}, calibration "
            f"{statistics.median(it.calibration_s for it in measured):.4f} s",
            "setup_s": "median of "
            f"{sum(len(it.setup_samples) for it in measured)} set-ups",
            "call_latency_p99_ms": "over "
            f"{sum(len(it.call_s) for it in measured)} calls",
            "emit_lag_p95_ms": f"over {len(measured[0].lags)} windows",
        }
        for name, unit in END_TO_END_UNITS.items():
            if applies(name, workload.name):
                print_metric(name, metrics[name], unit, notes.get(name, ""))
        wanted = manifest["end_to_end"]
    else:
        iterations, untraced, traced, traced_wall, outside_s = traced_run(
            workload, inputs, args.seconds, tracer
        )
        attempted, failed, detail, unstable = check_iterations(
            workload, inputs, iterations
        )
        OUT.mkdir(exist_ok=True)
        # One file per workload, overwritten by the next traced run: a
        # cluster iteration's spans take tens of MB.
        spans_path = OUT / f"{workload.name}-spans.jsonl.gz"
        tracer.write_jsonl(spans_path)
        table = print_layer_table(tracer, traced_wall, outside_s, len(traced))
        metrics = per_layer(tracer, untraced, traced, traced_wall, outside_s,
                            datagen_s, inputs)
        parallel = parallel_comparison(
            args.seed, args.scale,
            inputs if workload.name == "session-overlap" else None,
        )
        attempted += parallel.pop("_attempted")
        failed += parallel.pop("_failed")
        metrics.update(parallel)
        busiest = metrics.pop("_busiest_node", None)
        for name, unit in PER_LAYER_UNITS.items():
            if applies(name, workload.name):
                note = f"node {busiest}" if name == "cluster.busiest_node_s" else ""
                print_metric(name, metrics[name], unit, note)
        print(f"spans of the first traced iteration: {tracer.spans_kept}, "
              f"written to {spans_path}; {len(traced)} traced + "
              f"{len(untraced)} untraced iterations")
        report["layer_table"] = table
        wanted = manifest["per_layer"]
    counters = derived_counters(iterations[0])
    deterministic = {k: counters[k] for k in DETERMINISTIC}
    print("counters " + json.dumps(deterministic, sort_keys=True))
    if unstable:
        print(f"unstable counters across iterations: {unstable}")
    print("check " + json.dumps(dict(detail, attempted=attempted, failed=failed),
                                default=str))
    correct = failed == 0 and not unstable
    report.update(metrics=metrics, counters=deterministic, check=detail,
                  attempted=attempted, failed=failed, correct=correct)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(result_line(correct, attempted, failed, metrics, wanted))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; exits 1 if any fails its check."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", str(args.scale)]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps({"all": summary}))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test runs tiny inputs)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
