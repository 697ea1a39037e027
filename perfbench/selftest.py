"""Self-test of the benchmark at tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every metric is printed with its unit on each workload it applies to,
  untraced and traced, and the last line carries every metric
  ``BENCHMARK.json`` names for that mode, none of them 0;
* a copy of a workload's emitted windows with one value perturbed, or one
  window dropped, yields ``windows_failed_frac > 0`` (and the untouched
  copy yields 0);
* two runs with the same seed print identical deterministic counters;
* without the program's sources next to it the benchmark exits non-zero
  and prints no result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"
SECONDS = "0.2"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402 - after the path set-up
from reference import check_rows  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def parse(stdout: str):
    metrics, counters = {}, None
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split("  #")[0].split()
            metrics[name] = (float(value), unit)
        elif line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    return metrics, counters, json.loads(stdout.strip().splitlines()[-1])


def check_printed_metrics(manifest) -> None:
    for name in WORKLOADS:
        for trace, units, section in (
            (0, run.END_TO_END_UNITS, "end_to_end"),
            (1, run.PER_LAYER_UNITS, "per_layer"),
        ):
            done = bench(name, 3, trace)
            label = f"{name} --trace {trace}"
            expect(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
            if done.returncode != 0:
                continue
            metrics, _, result = parse(done.stdout)
            for metric, unit in units.items():
                if not run.applies(metric, name):
                    expect(metric not in metrics, f"{label}: {metric} printed but does not apply")
                    continue
                expect(metric in metrics, f"{label}: {metric} not printed")
                if metric in metrics:
                    expect(metrics[metric][1] == unit,
                           f"{label}: {metric} unit {metrics[metric][1]} != {unit}")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: result not correct")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in manifest[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: result metrics {sorted(got)} != {sorted(wanted)}")
            zero = sorted(k for k, v in result["metrics"].items() if v["value"] == 0)
            expect(not zero, f"{label}: result metrics that are 0: {zero}")
            if trace:
                uncovered = metrics.get("trace.uncovered_frac", (1.0, ""))[0]
                expect(uncovered < 0.10, f"{label}: {uncovered:.1%} of wall outside spans")


def check_perturbed_sink() -> None:
    for name, workload in WORKLOADS.items():
        inputs = workload.make_inputs(5, float(SCALE))
        iteration = workload.execute(workload.setup(inputs), inputs)
        queries, expected = workload.reference(inputs)
        clean = check_rows(queries, expected, iteration.rows)
        expect(clean.failed_frac == 0.0, f"{name}: clean rows fail the check")
        rows = list(iteration.rows)
        index = next(i for i, row in enumerate(rows) if isinstance(row[4], float))
        query_id, start, end, count, value = rows[index]
        rows[index] = (query_id, start, end, count, value * 1.001 + 1.0)
        perturbed = check_rows(queries, expected, rows)
        expect(perturbed.failed_frac > 0.0 and perturbed.wrong == 1,
               f"{name}: a perturbed value went unnoticed")
        dropped = check_rows(queries, expected, iteration.rows[1:])
        expect(dropped.failed_frac > 0.0 and dropped.missing == 1,
               f"{name}: a dropped window went unnoticed")


def check_deterministic_counters() -> None:
    for name in WORKLOADS:
        first = parse(bench(name, 9, 0).stdout)[1]
        second = parse(bench(name, 9, 0).stdout)[1]
        expect(first is not None and first == second,
               f"{name}: same-seed counters differ: {first} vs {second}")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = bench("cluster-tumbling", 1, 0, cwd=bare)
        expect(done.returncode != 0, "bare directory: exit code 0")
        expect("{" not in done.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    manifest = run.load_manifest()
    check_printed_metrics(manifest)
    check_perturbed_sink()
    check_deterministic_counters()
    check_bare_directory()
    print("selftest " + ("FAILED: %d" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
