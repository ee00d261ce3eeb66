"""Prometheus text exposition for a :class:`MetricsRegistry`.

:func:`render_exposition` serializes every instrument in a registry as
Prometheus text format (version 0.0.4 — the ``GET /metrics`` wire
form): counters get a ``_total`` suffix, histograms expand to the
cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``, and
dotted repro metric names map to underscore-separated Prometheus names
under one ``repro_`` namespace (``serve.job_seconds`` →
``repro_serve_job_seconds``).

:func:`parse_exposition` reads the same format back into
``{sample_name: value}`` (labels kept verbatim in the key), and
:func:`validate_exposition` checks a payload line-by-line against the
text-format grammar — both are used by the serve smoke check and the
tests, so the renderer can never drift from what its consumers
accept.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Prefix namespacing every exported metric.
NAMESPACE = "repro"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_COMMENT_LINE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?"
    r"|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped))$"
)


def metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """Map a dotted repro metric name to a Prometheus metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return f"{namespace}_{cleaned}" if namespace else cleaned


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_histogram(name: str, histogram: Histogram, lines: list[str]) -> None:
    lines.append(f"# TYPE {name} histogram")
    cumulative = 0
    for bound, bucket in zip(histogram.bounds, histogram.counts):
        cumulative += bucket
        lines.append(f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
    lines.append(f"{name}_sum {_format_value(histogram.total)}")
    lines.append(f"{name}_count {histogram.count}")


def render_exposition(
    registry: MetricsRegistry, namespace: str = NAMESPACE
) -> str:
    """Serialize every instrument as Prometheus text format."""
    lines: list[str] = []
    for raw_name, instrument in sorted(registry.instruments().items()):
        name = metric_name(raw_name, namespace)
        if isinstance(instrument, Histogram):
            _render_histogram(name, instrument, lines)
        elif isinstance(instrument, Counter):
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_float(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def parse_exposition(text: str) -> dict[str, float]:
    """Parse text exposition into ``{sample_key: value}``.

    The key is the sample name with any label set appended verbatim
    (``repro_serve_job_seconds_bucket{le="0.001"}``), so histogram
    buckets stay distinct. Comment and blank lines are skipped;
    malformed sample lines raise ``ValueError``.
    """
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a sample line: {line!r}")
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = _parse_float(match.group("value"))
    return samples


def validate_exposition(text: str) -> list[str]:
    """Grammar-check an exposition payload; returns a list of problems.

    An empty list means every line is a well-formed comment, blank, or
    sample line with a parseable value. Used by the serve smoke check
    so CI fails when ``/metrics`` stops being scrapable.
    """
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if not _COMMENT_LINE.match(stripped):
                problems.append(f"line {lineno}: malformed comment: {line!r}")
            continue
        match = _SAMPLE_LINE.match(stripped)
        if match is None:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        try:
            _parse_float(match.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: bad value: {line!r}")
    return problems
