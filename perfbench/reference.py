"""Correctness check of emitted windows against the conformance oracle.

The reference follows :mod:`repro.conformance.oracle` window by window:
fixed windows are laid out from ``origin`` every ``slide`` while
``start <= final``; a window whose end lies past ``final`` holds only the
events up to and including ``final``; empty windows are not emitted;
values come from :func:`~repro.conformance.oracle.naive_value`; session
and other data-driven windows come from
:func:`~repro.conformance.oracle.naive_windows` unchanged.

The oracle's ``_fixed_windows`` scans every event for every window, which
is quadratic at benchmark scale.  Here each window's values are gathered by
bisecting the time-sorted matching input instead.  For SUM, COUNT, AVG, MIN
and MAX the values are folded per ``gcd(length, slide)`` chunk once and a
window folds its chunks, which re-associates float additions only: the
comparison uses ``tolerance_for(query, cross_fold=True)``, the oracle's own
policy for independently ordered folds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.conformance.oracle import (
    naive_value,
    naive_windows,
    tolerance_for,
    values_match,
)
from repro.core.types import AggFunction, WindowMeasure, WindowType

__all__ = ["Check", "expected_windows", "check_rows"]

#: failures kept per check, to print with the result
_EXAMPLES = 5

_CHUNKED = {
    AggFunction.SUM,
    AggFunction.COUNT,
    AggFunction.AVERAGE,
    AggFunction.MIN,
    AggFunction.MAX,
}


def _finish(fn, total: float, count: int, low: float, high: float):
    if fn is AggFunction.SUM:
        return total
    if fn is AggFunction.COUNT:
        return count
    if fn is AggFunction.AVERAGE:
        return total / count
    if fn is AggFunction.MIN:
        return low
    return high


def _fold(times, values, lo: int, hi: int):
    """(sum, count, min, max) of ``values`` whose time lies in [lo, hi)."""
    a = bisect_left(times, lo)
    b = bisect_left(times, hi)
    if a == b:
        return 0.0, 0, math.inf, -math.inf
    part = values[a:b]
    return sum(part), b - a, min(part), max(part)


def _fixed_chunked(query, times, values, origin: int, final: int):
    length = query.window.length
    slide = query.window.effective_slide
    grid = math.gcd(length, slide)
    per_window = length // grid
    fn = query.function.fn
    chunks: list[tuple[float, int, float, float]] = []

    def chunk(k: int):
        while len(chunks) <= k:
            lo = origin + len(chunks) * grid
            chunks.append(_fold(times, values, lo, lo + grid))
        return chunks[k]

    out = []
    start = origin
    while start <= final:
        end = start + length
        first = (start - origin) // grid
        if end <= final:
            parts = [chunk(first + i) for i in range(per_window)]
        else:
            # Still open at close: only events up to and including final.
            limit = final + 1
            whole = (limit - start) // grid
            parts = [chunk(first + i) for i in range(whole)]
            tail = start + whole * grid
            parts.append(_fold(times, values, tail, limit))
        count = sum(p[1] for p in parts)
        if count:
            total = sum(p[0] for p in parts)
            low = min(p[2] for p in parts)
            high = max(p[3] for p in parts)
            out.append((start, end, count, _finish(fn, total, count, low, high)))
        start += slide
    return out


def _fixed_direct(query, times, values, origin: int, final: int):
    length = query.window.length
    slide = query.window.effective_slide
    out = []
    start = origin
    while start <= final:
        end = start + length
        a = bisect_left(times, start)
        b = bisect_left(times, end) if end <= final else bisect_right(times, final)
        if b > a:
            part = values[a:b]
            out.append((start, end, b - a, naive_value(query, part)))
        start += slide
    return out


def expected_windows(queries, merged, final: int, *, origin: int | None = None):
    """``{(query_id, start, end): (event_count, value)}`` the oracle emits.

    ``merged`` is the whole input in time order; ``origin=None`` anchors
    fixed windows at the first event, as a single engine does.
    """
    if not merged:
        return {}
    anchor = merged[0].time if origin is None else origin
    matching: dict[object, tuple[list[int], list[float]]] = {}
    expected = {}
    for query in queries:
        window = query.window
        fixed = window.measure is WindowMeasure.TIME and window.window_type in (
            WindowType.TUMBLING,
            WindowType.SLIDING,
        )
        if not fixed:
            for w in naive_windows(query, merged, final, origin=origin):
                if w.values:
                    expected[(query.query_id, w.start, w.end)] = (
                        len(w.values),
                        naive_value(query, w.values),
                    )
            continue
        selection = query.selection
        columns = matching.get(selection)
        if columns is None:
            events = [e for e in merged if selection.matches(e)]
            columns = matching[selection] = (
                [e.time for e in events],
                [e.value for e in events],
            )
        times, values = columns
        build = _fixed_chunked if query.function.fn in _CHUNKED else _fixed_direct
        for start, end, count, value in build(query, times, values, anchor, final):
            expected[(query.query_id, start, end)] = (count, value)
    return expected


@dataclass(slots=True)
class Check:
    """Outcome of comparing emitted rows with the reference."""

    expected: int = 0
    missing: int = 0
    extra: int = 0
    wrong: int = 0
    #: the first few failures, as (kind, emitted row, expected count/value)
    examples: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.extra + self.wrong

    @property
    def failed_frac(self) -> float:
        return self.failed / self.expected if self.expected else float(self.failed > 0)


def check_rows(queries, expected, rows) -> Check:
    """Compare ``rows`` of ``(query_id, start, end, count, value)``."""
    policies = {q.query_id: tolerance_for(q, cross_fold=True) for q in queries}
    check = Check(expected=len(expected))
    seen = set()

    def note(kind: str, row, want) -> None:
        if len(check.examples) < _EXAMPLES:
            check.examples.append((kind, row, want))

    for row in rows:
        query_id, start, end, count, value = row
        key = (query_id, start, end)
        want = expected.get(key)
        if want is None or key in seen:
            check.extra += 1
            note("extra", row, want)
            continue
        seen.add(key)
        want_count, want_value = want
        if count != want_count or not values_match(
            want_value, value, policies[query_id]
        ):
            check.wrong += 1
            note("wrong", row, want)
    check.missing = len(expected) - len(seen)
    if check.missing:
        for key, want in expected.items():
            if key not in seen:
                note("missing", key, want)
    return check
