"""Trace analysis: flame summaries, per-stage histograms, trace diffs.

Works on the wire-dict span records of a JSONL trace file (see
:func:`repro.obs.export.read_trace`) or live :class:`~repro.obs.spans.
Span` objects. *Self time* is a span's duration minus the summed
durations of its direct children — the flame-graph notion, so a parent
that only coordinates shows near zero while the leaf doing the work
shows its true cost.

The ``python -m repro trace`` subcommand renders these as text; the
same aggregates back the trace-diff mode (before/after comparisons for
perf PRs).
"""

from __future__ import annotations

import dataclasses

from repro.obs.metrics import Histogram

#: Span-name prefix of pipeline pass spans (the per-stage rows).
PASS_PREFIX = "pass."


def _format_table(header, rows, title):
    # Deferred: repro.pipeline imports the obs package (the instrumented
    # passes), so a module-level import here would be circular.
    from repro.pipeline.report import format_table

    return format_table(header, rows, title=title)


def _wire(span) -> dict:
    return span if isinstance(span, dict) else span.to_wire()


@dataclasses.dataclass
class NameStats:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def self_times(spans) -> dict[int, float]:
    """Span id → self time (duration minus direct children)."""
    records = [_wire(span) for span in spans]
    child_sum: dict[int, float] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + record["dur"]
    return {
        record["id"]: max(0.0, record["dur"] - child_sum.get(record["id"], 0.0))
        for record in records
    }


def aggregate(spans) -> dict[str, NameStats]:
    """Per-name totals, self times and error counts."""
    records = [_wire(span) for span in spans]
    selfs = self_times(records)
    stats: dict[str, NameStats] = {}
    for record in records:
        entry = stats.setdefault(record["name"], NameStats(record["name"]))
        entry.count += 1
        entry.total += record["dur"]
        entry.self_time += selfs[record["id"]]
        if record.get("error"):
            entry.errors += 1
    return stats


def _seconds(value: float) -> str:
    return f"{value:.4f}"


def flame_summary(spans, top: int = 15) -> str:
    """Top-N span names by self time, as an aligned text table."""
    stats = sorted(aggregate(spans).values(), key=lambda s: -s.self_time)
    rows = [
        [
            entry.name,
            entry.count,
            _seconds(entry.self_time),
            _seconds(entry.total),
            _seconds(entry.mean),
            entry.errors,
        ]
        for entry in stats[:top]
    ]
    table = _format_table(
        ["span", "count", "self s", "total s", "mean s", "errors"],
        rows,
        f"top {min(top, len(stats))} spans by self time",
    )
    wall = sum(e.self_time for e in stats)
    return f"{table}\ntotal self time {wall:.4f}s across {len(stats)} span names"


def stage_summary(spans, prefix: str = PASS_PREFIX) -> str:
    """Per-stage duration histograms (fixed log-scale buckets).

    One :class:`~repro.obs.metrics.Histogram` per span name under
    ``prefix`` (the pipeline pass spans by default, the one record of
    per-stage compile time): exact count, total, mean and max, and
    bucketed ~p50/~p90 that never exceed the max.
    """
    histograms: dict[str, Histogram] = {}
    for span in spans:
        record = _wire(span)
        if not record["name"].startswith(prefix):
            continue
        histograms.setdefault(
            record["name"], Histogram(record["name"])
        ).observe(record["dur"])
    if not histograms:
        return f"no {prefix}* spans in this trace"
    rows = [
        [
            name,
            hist.count,
            _seconds(hist.total),
            _seconds(hist.mean),
            _seconds(hist.quantile(0.5)),
            _seconds(hist.quantile(0.9)),
            _seconds(hist.max),
        ]
        for name, hist in sorted(
            histograms.items(), key=lambda kv: -kv[1].total
        )
    ]
    return _format_table(
        ["stage", "count", "total s", "mean s", "~p50 s", "~p90 s", "max s"],
        rows,
        "per-stage durations (log-bucket histograms)",
    )


def diff_summary(spans_a, spans_b, top: int = 20) -> str:
    """Compare two traces' per-name self times (B minus A)."""
    a = aggregate(spans_a)
    b = aggregate(spans_b)
    rows = []
    for name in sorted(set(a) | set(b)):
        self_a = a[name].self_time if name in a else 0.0
        self_b = b[name].self_time if name in b else 0.0
        delta = self_b - self_a
        pct = (delta / self_a * 100.0) if self_a else float("inf")
        rows.append((abs(delta), name, self_a, self_b, delta, pct))
    rows.sort(key=lambda row: -row[0])
    table_rows = [
        [
            name,
            _seconds(self_a),
            _seconds(self_b),
            f"{delta:+.4f}",
            "new" if pct == float("inf") else f"{pct:+.1f}%",
        ]
        for _, name, self_a, self_b, delta, pct in rows[:top]
    ]
    total_a = sum(e.self_time for e in a.values())
    total_b = sum(e.self_time for e in b.values())
    table = _format_table(
        ["span", "A self s", "B self s", "delta s", "delta %"],
        table_rows,
        "trace diff (self time, B - A)",
    )
    return (
        f"{table}\n"
        f"total self time: A {total_a:.4f}s, B {total_b:.4f}s "
        f"({total_b - total_a:+.4f}s)"
    )
