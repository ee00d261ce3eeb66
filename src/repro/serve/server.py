"""Compilation-as-a-service: the asyncio HTTP/JSON front end.

Stdlib only — the server speaks just enough HTTP/1.1 over asyncio
streams to serve a JSON API; there is no framework dependency to
install. Endpoints:

* ``POST /jobs`` — submit a :class:`~repro.engine.jobs.CompileJob`,
  either by content (``{"job": <wire payload>}``, see
  :meth:`CompileJob.to_wire`) or by key (``{"key": "<sha256>"}``,
  which only completes against the result cache). Returns the job
  status document; 202 when queued, 200 when already known/cached,
  400 when the payload does not parse or names a machine or scheme
  that does not resolve, 429 + ``Retry-After`` under backpressure,
  503 while draining.
* ``GET /jobs/<key>`` — poll one job's status/result summary (the
  summary carries the result's semantic fingerprint so clients can
  assert equivalence with a local compile).
* ``GET /jobs/<key>/events`` — the job's engine event stream as NDJSON:
  full history first, then live events until the job is terminal.
* ``GET /healthz`` — liveness (+ drain state).
* ``GET /stats`` — job counts, queue depth, cache stats, and a typed
  metrics export (histograms keep their buckets and carry p50/p95/p99).
* ``GET /metrics`` — the same registry in Prometheus text exposition
  format (see :mod:`repro.obs.prometheus`), scrapable by any
  Prometheus-compatible collector.

Every request runs under a ``serve.request`` span; when the caller
sent a ``traceparent`` header (see :mod:`repro.obs.propagate`) the
span continues the caller's trace, so a client-side span, the server's
request handling, and the shipped worker spans stitch into one trace.
Request latency, per-status counts and in-flight depth are recorded
under the ``serve.http`` metrics scope whether or not tracing is on.

Clients identify themselves with the ``X-Repro-Client`` header (used
for per-client in-flight caps); anonymous requests share one bucket.

Job keys are the 64-hex-digit content hashes the engine computes; any
other key is refused with 400 before it can reach the cache, whose
entry paths are built from it. Malformed framing (a bad
``Content-Length``, a request or header line over the stream limit) is
a 400 as well. A request line and headers not received within
:data:`HEAD_TIMEOUT_SECONDS` get 408, and more than
:data:`MAX_HEADER_LINES` header lines get 431, so a slow or endless
head cannot hold a connection or fill memory.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import re
import time

from repro.engine.cache import ResultCache, cache_root
from repro.engine.events import EventBus
from repro.obs import spans as obs
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_exposition
from repro.obs.propagate import TRACEPARENT_HEADER, parse_traceparent
from repro.serve.admission import AdmissionController
from repro.serve.manager import JobManager

_log = get_logger("serve")

#: Largest accepted request body (a wire-format DDG is a few KiB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: How long a client may keep sending after its response before we close.
LINGER_SECONDS = 2.0

#: How long a client may take to send its request line and headers.
HEAD_TIMEOUT_SECONDS = 10.0

#: Most header lines one request may carry.
MAX_HEADER_LINES = 100

#: Client-identity header for per-client admission accounting.
CLIENT_HEADER = "x-repro-client"

#: A job key: the sha256 hex digest :meth:`CompileJob.content_hash` returns.
_KEY = re.compile(r"[0-9a-f]{64}")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclasses.dataclass
class ServeConfig:
    """Deployment knobs for one server (CLI flags map 1:1).

    By default the server's store is the local cache root, so a server
    and the ``repro bench`` CLI share results.
    """

    host: str = "127.0.0.1"
    port: int = 8774
    data_dir: str | None = None
    workers: int = 2
    timeout: float | None = None
    queue_limit: int = 256
    max_inflight: int = 16

    def resolved_data_dir(self) -> pathlib.Path:
        """Result store root (default: the engine's local cache root)."""
        if self.data_dir:
            return pathlib.Path(self.data_dir).expanduser()
        return cache_root()


def build_service(
    config: ServeConfig, bus: EventBus | None = None
) -> tuple[ResultCache, AdmissionController, JobManager, MetricsRegistry]:
    """Wire up the cache/admission/manager stack for one deployment."""
    metrics = MetricsRegistry()
    cache = ResultCache(root=config.resolved_data_dir(), enabled=True)
    admission = AdmissionController(
        max_queue=config.queue_limit,
        max_inflight_per_client=config.max_inflight,
        metrics=metrics,
    )
    manager = JobManager(
        cache=cache,
        admission=admission,
        workers=config.workers,
        timeout=config.timeout,
        bus=bus,
        metrics=metrics,
    )
    return cache, admission, manager, metrics


class ServeServer:
    """One HTTP listener bound to a :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        cache: ResultCache,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.cache = cache
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._http = manager.metrics.scoped("serve.http")

    async def start(self) -> None:
        """Bind and begin accepting (port 0 picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    async def shutdown(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful drain: stop accepting, finish admitted jobs, then
        let open connections finish their responses."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.drain(timeout=drain_timeout)
        if self._connections:
            await asyncio.wait(self._connections, timeout=LINGER_SECONDS)

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._handle_request(reader, writer)
            await _discard_input(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except Exception as exc:
            _log.error("request handler failed", error=f"{type(exc).__name__}: {exc}")
            try:
                await _respond(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass
            self._connections.discard(task)

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(_read_head(reader), HEAD_TIMEOUT_SECONDS)
        except asyncio.TimeoutError:
            await _respond(writer, 408, {"error": "request head too slow"})
            return
        except _TooManyHeaders:
            await _respond(
                writer, 431, {"error": f"over {MAX_HEADER_LINES} header lines"}
            )
            return
        except ValueError as exc:
            await _respond(writer, 400, {"error": f"bad request: {exc}"})
            return
        if head is None:
            return
        method, path, headers, length = head
        if length > MAX_BODY_BYTES:
            await _respond(writer, 413, {"error": "body too large"})
            return
        body = await reader.readexactly(length) if length else b""
        client = headers.get(CLIENT_HEADER, "")
        remote = parse_traceparent(headers.get(TRACEPARENT_HEADER))
        self._http.counter("requests").inc()
        inflight = self._http.gauge("inflight")
        inflight.set(inflight.value + 1)
        started = time.perf_counter()
        try:
            with obs.span(
                "serve.request", remote=remote, method=method, path=path
            ) as span:
                status = await self._route(method, path, body, client, writer)
                span.set(status=status)
            self._http.counter(f"status.{status}").inc()
        finally:
            inflight.set(inflight.value - 1)
            self._http.histogram("request_seconds").observe(
                time.perf_counter() - started
            )

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        client: str,
        writer: asyncio.StreamWriter,
    ) -> int:
        if path == "/healthz" and method == "GET":
            state = "draining" if self.manager.admission.draining else "ok"
            return await _respond(writer, 200, {"status": state})
        if path == "/stats" and method == "GET":
            return await _respond(writer, 200, await self._stats_payload())
        if path == "/metrics" and method == "GET":
            return await _respond_text(
                writer, 200, render_exposition(self.manager.metrics)
            )
        if path == "/jobs":
            if method != "POST":
                return await _respond(writer, 405, {"error": "POST /jobs"})
            return await self._submit(body, client, writer)
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            if method != "GET":
                return await _respond(writer, 405, {"error": "GET only"})
            key = rest.removesuffix("/events")
            if not _KEY.fullmatch(key):
                return await _bad_key(writer)
            if key != rest:
                return await self._stream_events(key, writer)
            return await self._status(key, writer)
        return await _respond(writer, 404, {"error": f"no route {method} {path}"})

    # -- endpoints -------------------------------------------------------

    async def _submit(
        self, body: bytes, client: str, writer: asyncio.StreamWriter
    ) -> int:
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, RecursionError) as exc:
            return await _respond(writer, 400, {"error": f"bad JSON body: {exc}"})
        if "key" in payload and "job" not in payload:
            key = payload["key"]
            if not isinstance(key, str) or not _KEY.fullmatch(key):
                return await _bad_key(writer)
            record = self.manager.lookup(key)
            if record is None:
                return await _respond(
                    writer,
                    404,
                    {"error": "unknown key; submit the job content instead"},
                )
            return await _respond(writer, 200, record.to_payload())
        try:
            from repro.engine.jobs import CompileJob, resolve_machine
            from repro.pipeline.driver import Scheme

            job = CompileJob.from_wire(payload["job"])
            # A name that resolves to nothing is refused here, before
            # the job takes an admission slot and a worker round trip.
            resolve_machine(job.machine)
            Scheme(job.scheme)
        except Exception as exc:
            return await _respond(
                writer, 400, {"error": f"bad job payload: {type(exc).__name__}: {exc}"}
            )
        existed = job.content_hash() in self.manager.records
        record, decision = self.manager.submit(job, client=client)
        if record is None:
            return await _respond(
                writer,
                decision.http_status,
                {"error": decision.reason, "retry_after": decision.retry_after},
                extra_headers={"Retry-After": f"{decision.retry_after:g}"},
            )
        status = 200 if existed or record.status.value == "done" else 202
        return await _respond(writer, status, record.to_payload())

    async def _status(self, key: str, writer: asyncio.StreamWriter) -> int:
        record = self.manager.lookup(key)
        if record is None:
            return await _respond(writer, 404, {"error": f"unknown job {key[:16]}"})
        return await _respond(writer, 200, record.to_payload())

    async def _stream_events(self, key: str, writer: asyncio.StreamWriter) -> int:
        record = self.manager.lookup(key)
        if record is None:
            return await _respond(writer, 404, {"error": f"unknown job {key[:16]}"})
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        async for event in self.manager.stream_events(record):
            line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
            writer.write(line.encode("utf-8"))
            await writer.drain()
        return 200

    async def _stats_payload(self) -> dict:
        # The store scan stats every entry file: run it off the event
        # loop, so the requests in flight do not wait through it.
        cache_stats = await asyncio.to_thread(self.cache.stats)
        return {
            "jobs": self.manager.counts(),
            "admission": {
                "queue_depth": self.manager.admission.depth,
                "queue_limit": self.manager.admission.max_queue,
                "draining": self.manager.admission.draining,
            },
            "cache": {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "writes": cache_stats.writes,
                "entries": cache_stats.entries,
                "total_bytes": cache_stats.total_bytes,
            },
            # Typed export (not snapshot()): histograms keep their
            # bucket vectors and precomputed p50/p95/p99 instead of
            # being flattened to count/sum/max scalars.
            "metrics": {
                name: record
                for name, record in sorted(self.manager.metrics.export().items())
            },
        }


class _TooManyHeaders(Exception):
    """A request head carried more than :data:`MAX_HEADER_LINES` headers."""


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], int] | None:
    """Method, path, headers and body length of one request head.

    None when the client closed without sending a request line.
    readline() raises ValueError for a line over the stream's limit, as
    int() does for a Content-Length that is no number.
    """
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        return None
    parts = request_line.split()
    if len(parts) != 3:
        raise ValueError("malformed request line")
    method, path, _version = parts
    headers: dict[str, str] = {}
    lines = 0
    while True:
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        lines += 1
        if lines > MAX_HEADER_LINES:
            raise _TooManyHeaders
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length") or 0)
    if length < 0:
        raise ValueError("negative Content-Length")
    return method, path, headers, length


async def _discard_input(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drop what the client still sends, until its EOF.

    Closing a socket with unread input (a refused request's remainder,
    bytes past ``Content-Length``) makes the kernel send a reset, which
    can destroy the response just written. Well-behaved clients close
    once they have read the response, so this returns at once for them.
    """

    async def until_eof() -> None:
        while await reader.read(65536):
            pass

    try:
        writer.write_eof()
    except OSError:
        return  # the client is already gone
    try:
        await asyncio.wait_for(until_eof(), LINGER_SECONDS)
    except asyncio.TimeoutError:
        pass


async def _bad_key(writer: asyncio.StreamWriter) -> int:
    return await _respond(
        writer, 400, {"error": "job key must be 64 lowercase hex digits"}
    )


async def _respond_text(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    content_type: str = "text/plain; version=0.0.4; charset=utf-8",
) -> int:
    """Write one plain-text response (the ``/metrics`` exposition)."""
    body = text.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    return status


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    extra_headers: dict[str, str] | None = None,
) -> int:
    """Write one JSON response and return the status (for span attrs)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    return status
