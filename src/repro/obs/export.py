"""Trace files: JSONL span streams and Chrome trace-event documents.

Finished spans (:mod:`repro.obs.spans`) are written one
``{"type": "span", ...}`` JSON object per line (their wire form, see
:meth:`~repro.obs.spans.Span.to_wire`) by :func:`write_spans`, and read
back by :func:`read_trace`, which keeps only the span lines. The Chrome
trace-event writer (:func:`chrome_trace` / :func:`write_chrome_trace`)
produces output that loads directly into ``chrome://tracing`` or
https://ui.perfetto.dev.
"""

from __future__ import annotations

import json


def _wire(span) -> dict:
    """Accept both Span objects and wire dicts."""
    return span if isinstance(span, dict) else span.to_wire()


def write_spans(spans, path: str) -> int:
    """Append finished spans to a JSONL trace file; returns the count."""
    count = 0
    with open(path, "a", encoding="utf-8") as handle:
        for span in spans:
            record = {"type": "span", **_wire(span)}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def read_trace(path: str) -> list[dict]:
    """Load the span records of a JSONL trace file (wire dicts)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type", "span") == "span":
                records.append(record)
    return records


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------


def chrome_trace(spans) -> dict:
    """Convert spans to a Chrome trace-event JSON document.

    Each span becomes one complete (``"ph": "X"``) event; timestamps
    are microseconds relative to the earliest span so the viewer opens
    at t=0. Process lanes are labelled ``engine`` (the coordinating
    process, i.e. the pid hosting the root spans) or ``worker``.
    """
    records = [_wire(span) for span in spans]
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(record["start"] for record in records)
    root_pids = {r["pid"] for r in records if r.get("parent") is None}
    events = []
    for pid in sorted({record["pid"] for record in records}):
        label = "engine" if pid in root_pids else f"worker-{pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for record in records:
        args = dict(record.get("attrs", {}))
        args["span_id"] = record["id"]
        if record.get("parent") is not None:
            args["parent_id"] = record["parent"]
        if record.get("error"):
            args["error"] = True
        events.append(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round((record["start"] - base) * 1e6, 3),
                "dur": round(record["dur"] * 1e6, 3),
                "pid": record["pid"],
                "tid": record["tid"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path: str) -> int:
    """Write the Chrome trace JSON for ``spans``; returns the event count."""
    document = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])
