"""``python -m repro top`` — a live text dashboard for one server.

Polls ``GET /stats`` (typed metrics export, job counts, cache stats)
and ``GET /metrics`` (the Prometheus exposition, exercising the same
path a real scraper uses) on an interval and renders a plain-text
dashboard: jobs/s, queue depth, p50/p95 request latency, cache hit
rate. Stdlib only — the "refresh" is an ANSI
clear-and-home, so it works in any terminal without curses.

Rates and interval percentiles come from *deltas* between consecutive
samples: counters and histogram bucket vectors are cumulative, so the
difference between two polls is exactly the traffic of that window.
The rendering is a pure function over two samples
(:func:`render_dashboard`), so tests drive it with canned data and the
loop is just fetch → render → print.
"""

from __future__ import annotations

import dataclasses
import sys
import time

#: ANSI: clear screen, cursor home.
CLEAR = "\x1b[2J\x1b[H"


@dataclasses.dataclass
class Sample:
    """One poll of a server: monotonic timestamp + both endpoints."""

    at: float
    stats: dict
    exposition: dict


def fetch_sample(client) -> Sample:
    """Poll ``/stats`` + ``/metrics`` through a ``ServeClient``."""
    from repro.obs.prometheus import parse_exposition

    stats = client.stats()
    exposition = parse_exposition(client.metrics())
    return Sample(at=time.monotonic(), stats=stats, exposition=exposition)


def percentile_from_buckets(
    bounds: list[float], counts: list[int], q: float
) -> float:
    """Approximate quantile of a (non-cumulative) bucket vector.

    Returns the upper bound of the covering bucket — the same
    approximation :meth:`repro.obs.metrics.Histogram.quantile` makes —
    so dashboard numbers agree with ``/stats``. ``counts`` may include
    the overflow slot (one longer than ``bounds``); the overflow
    quantile reports the largest finite bound.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    running = 0
    for index, bucket in enumerate(counts):
        running += bucket
        if running >= target and bucket:
            if index < len(bounds):
                return bounds[index]
            return bounds[-1] if bounds else 0.0
    return bounds[-1] if bounds else 0.0


def _histogram(stats: dict, name: str) -> dict | None:
    record = stats.get("metrics", {}).get(name)
    if isinstance(record, dict) and record.get("type") == "histogram":
        return record
    return None


def _counter(stats: dict, name: str) -> float:
    record = stats.get("metrics", {}).get(name)
    if isinstance(record, dict):
        return float(record.get("value", 0.0))
    return 0.0


def _delta_counts(
    current: dict | None, previous: dict | None
) -> tuple[list[float], list[int]]:
    """Bucket-wise histogram delta (bounds, counts) between samples."""
    if current is None:
        return [], []
    bounds = list(current.get("bounds", []))
    counts = [int(c) for c in current.get("counts", [])]
    if (
        previous is not None
        and list(previous.get("bounds", [])) == bounds
        and len(previous.get("counts", [])) == len(counts)
    ):
        counts = [
            now - before
            for now, before in zip(counts, previous["counts"])
        ]
        # A restarted server resets its registry; negative deltas mean
        # the previous sample is from another life — fall back to totals.
        if any(c < 0 for c in counts):
            counts = [int(c) for c in current.get("counts", [])]
    return bounds, counts


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def render_dashboard(
    current: Sample, previous: Sample | None, url: str
) -> str:
    """Render one dashboard frame from (up to) two samples."""
    stats = current.stats
    lines = [f"repro top — {url}"]

    jobs = stats.get("jobs", {})
    done_now = float(jobs.get("done", 0))
    interval = None
    if previous is not None and current.at > previous.at:
        interval = current.at - previous.at
        done_before = float(previous.stats.get("jobs", {}).get("done", 0))
        jobs_rate = max(0.0, done_now - done_before) / interval
        requests_rate = (
            max(
                0.0,
                current.exposition.get("repro_serve_http_requests_total", 0.0)
                - previous.exposition.get("repro_serve_http_requests_total", 0.0),
            )
            / interval
        )
        lines.append(
            f"  throughput   {jobs_rate:6.1f} jobs/s   "
            f"{requests_rate:6.1f} req/s   (last {interval:.1f}s)"
        )
    else:
        lines.append("  throughput   (need two samples)")

    admission = stats.get("admission", {})
    lines.append(
        f"  jobs         queued {jobs.get('queued', 0)}  "
        f"running {jobs.get('running', 0)}  done {jobs.get('done', 0)}"
    )
    lines.append(
        f"  queue        depth {admission.get('queue_depth', 0)}"
        f"/{admission.get('queue_limit', '?')}"
        f"{'  DRAINING' if admission.get('draining') else ''}"
    )

    request_seconds = _histogram(stats, "serve.http.request_seconds")
    if request_seconds is not None:
        previous_hist = (
            _histogram(previous.stats, "serve.http.request_seconds")
            if previous is not None
            else None
        )
        bounds, window = _delta_counts(request_seconds, previous_hist)
        p50 = percentile_from_buckets(bounds, window, 0.50)
        p95 = percentile_from_buckets(bounds, window, 0.95)
        scope = "window" if previous_hist is not None else "lifetime"
        lines.append(
            f"  latency      p50 {_format_seconds(p50)}  "
            f"p95 {_format_seconds(p95)}  ({scope}, "
            f"{sum(window)} requests)"
        )

    cache = stats.get("cache", {})
    lookups = float(cache.get("hits", 0)) + float(cache.get("misses", 0))
    hit_rate = float(cache.get("hits", 0)) / lookups if lookups else 0.0
    lines.append(
        f"  cache        {100.0 * hit_rate:5.1f}% hits  "
        f"({cache.get('hits', 0)}/{int(lookups)} lookups, "
        f"{cache.get('entries', 0)} entries)"
    )
    deduped = _counter(stats, "serve.deduped")
    rejected_total = sum(
        float(record.get("value", 0.0))
        for name, record in stats.get("metrics", {}).items()
        if name.startswith("admission.rejected") and isinstance(record, dict)
    )
    lines.append(
        f"  admission    deduped {deduped:g}  rejected {rejected_total:g}"
    )
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: int | None = None,
    once: bool = False,
    out=None,
) -> int:
    """The ``repro top`` loop; returns a process exit code."""
    from repro.serve.client import ServeClient, ServeError

    out = out if out is not None else sys.stdout
    client = ServeClient(url, client_id="top")
    previous: Sample | None = None
    seen = 0
    while True:
        try:
            current = fetch_sample(client)
        except (ServeError, OSError, ValueError) as exc:
            print(f"repro top: cannot sample {url}: {exc}", file=sys.stderr)
            return 1
        frame = render_dashboard(current, previous, url)
        if once:
            print(frame, file=out)
            return 0
        print(f"{CLEAR}{frame}", file=out, flush=True)
        previous = current
        seen += 1
        if iterations is not None and seen >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
