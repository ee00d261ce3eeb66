"""In-process serve deployments: the test harness and the smoke check.

:class:`ServeCluster` boots the full serving stack — result cache,
admission, job manager with its process pool, optionally the real HTTP
listener — inside a background thread running its own asyncio loop,
and exposes a plain synchronous facade. Tier-1 tests get a hermetic
deployment (its store in a temp directory, an ephemeral port when HTTP
is requested) that runs exactly the code a production deployment runs,
compile pool included; nothing is mocked.

:func:`run_smoke` is the CI entry point (``python -m repro serve
--smoke``): boot a server, push one job over real HTTP, poll it to
completion, stream its events, and assert the served result's
fingerprint matches a local ``compile_loop`` of the same cell.
"""

from __future__ import annotations

import asyncio
import pathlib
import tempfile
import threading

from repro.engine.jobs import CompileJob, JobResult, Outcome
from repro.serve.manager import JobRecord
from repro.serve.server import ServeConfig, ServeServer, build_service


class ServeCluster:
    """A whole deployment in one process, driven synchronously.

    Args:
        root: the result store's directory.
        workers: compile pool size (worker processes).
        timeout: per-job timeout handed to the manager.
        queue_limit / max_inflight: admission knobs.
        http: also bind a real listener on ``127.0.0.1:<ephemeral>``.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        workers: int = 2,
        timeout: float | None = None,
        queue_limit: int = 1024,
        max_inflight: int = 1024,
        http: bool = False,
    ) -> None:
        self.config = ServeConfig(
            host="127.0.0.1",
            port=0,
            data_dir=str(root),
            workers=workers,
            timeout=timeout,
            queue_limit=queue_limit,
            max_inflight=max_inflight,
        )
        self.http = http
        self.cache = None
        self.manager = None
        self.metrics = None
        self.server: ServeServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._failure: BaseException | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServeCluster":
        """Boot the loop thread; blocks until the stack is serving."""
        self._thread = threading.Thread(
            target=self._thread_main, name="serve-cluster", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError("cluster failed to start") from self._failure
        if not self._ready.is_set():
            raise RuntimeError("cluster did not start within 30s")
        return self

    def stop(self) -> None:
        """Graceful drain and shutdown; joins the loop thread."""
        if self.loop is not None and self._stop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)

    def __enter__(self) -> "ServeCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface boot failures to start()
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.cache, _admission, self.manager, self.metrics = build_service(
            self.config
        )
        if self.http:
            self.server = ServeServer(
                self.manager, self.cache, host=self.config.host, port=0
            )
            await self.server.start()
        self._ready.set()
        await self._stop.wait()
        if self.server is not None:
            await self.server.shutdown()
        else:
            await self.manager.drain()

    @property
    def url(self) -> str:
        """Base URL of the HTTP listener (requires ``http=True``)."""
        if self.server is None:
            raise RuntimeError("cluster was started without http=True")
        return self.server.url

    # -- synchronous facade ---------------------------------------------

    def _call(self, coro, timeout: float = 300.0):
        if self.loop is None:
            raise RuntimeError("cluster is not started")
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def run_jobs(
        self, jobs: list[CompileJob], timeout: float = 300.0
    ) -> list[JobResult]:
        """Serve a batch through the manager; results in input order.

        Backpressured submissions retry until admitted, so a batch
        larger than the queue limit still completes (as a well-behaved
        client would).
        """
        return self._call(self._submit_and_wait(jobs), timeout)

    async def _submit_and_wait(self, jobs: list[CompileJob]) -> list[JobResult]:
        records = []
        for job in jobs:
            while True:
                record, decision = self.manager.submit(job)
                if record is not None:
                    break
                await asyncio.sleep(min(decision.retry_after, 0.02))
            records.append(record)
        results = []
        for job, record in zip(jobs, records):
            await record.done.wait()
            results.append(self._result(job, record))
        return results

    def _result(self, job: CompileJob, record: JobRecord) -> JobResult:
        """A finished record as a :class:`JobResult`: its status fields,
        and for an OK job the result read back from the store."""
        summary = record.summary
        return JobResult(
            key=record.key,
            tag=record.tag,
            outcome=summary.outcome,
            result=(
                self.cache.get(record.key, ddg=job.ddg)
                if summary.outcome is Outcome.OK
                else None
            ),
            error=summary.error,
            error_kind=summary.error_kind,
            duration=summary.duration,
            cached=summary.cached,
        )

    def forget_records(self) -> None:
        """Drop job records so resubmissions re-walk the cache path."""
        self._call(self._forget())

    async def _forget(self) -> None:
        self.manager.forget()


def run_smoke(quiet: bool = False) -> int:
    """Boot a server, compile one job over HTTP, verify it.

    Returns a process exit code (0 = the served result is
    fingerprint-identical to a local compile and the event stream is
    sane).
    """
    from repro.engine.fingerprint import result_fingerprint
    from repro.machine.config import parse_config
    from repro.obs.prometheus import parse_exposition, validate_exposition
    from repro.pipeline.driver import Scheme, compile_loop
    from repro.serve.client import ServeClient
    from repro.workloads.patterns import daxpy

    machine = "2c1b2l64r"

    def say(message: str) -> None:
        if not quiet:
            print(message)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        cluster = ServeCluster(root=tmp, workers=2, http=True)
        with cluster:
            client = ServeClient(cluster.url, client_id="smoke")
            say(f"server up at {cluster.url} ({cluster.config.workers} workers)")
            job = CompileJob(
                ddg=daxpy(), machine=machine, scheme=Scheme.REPLICATION,
                tag="smoke/daxpy",
            )
            submitted = client.submit(job)
            key = submitted["key"]
            say(f"submitted {key[:16]}... status={submitted['status']}")
            done = client.wait(key, timeout=120.0)
            events = client.events(key)
            say(
                f"done: outcome={done.get('outcome')} ii={done.get('ii')} "
                f"events={len(events)}"
            )
            local = compile_loop(
                daxpy(), parse_config(machine), scheme=Scheme.REPLICATION
            )
            expected = result_fingerprint(local)
            exposition = client.metrics()
            problems = validate_exposition(exposition)
            samples = parse_exposition(exposition) if not problems else {}
            stats = client.stats()
            request_seconds = stats["metrics"].get("serve.http.request_seconds", {})
            checks = {
                "outcome ok": done.get("outcome") == "ok",
                "fingerprint matches local compile": done.get("fingerprint")
                == expected,
                "event stream terminates": bool(events)
                and events[-1]["kind"] in ("finished", "cache_hit"),
                "resubmit hits the cache/records": client.submit(job)["status"]
                == "done",
                "stats count the job and its cache write": stats["jobs"]["done"]
                == 1
                and stats["cache"]["writes"] == 1
                and stats["cache"]["entries"] == 1,
                "stats report admission": stats["admission"]["queue_depth"] == 0
                and not stats["admission"]["draining"],
                "stats metrics are typed": request_seconds.get("type")
                == "histogram"
                and len(request_seconds.get("counts", [])) > 0,
                "/metrics is valid Prometheus text": not problems,
                "/metrics counts requests": samples.get(
                    "repro_serve_http_requests_total", 0.0
                )
                > 0,
                "/metrics has latency buckets": any(
                    key.startswith("repro_serve_http_request_seconds_bucket")
                    for key in samples
                ),
            }
        for name, passed in checks.items():
            say(f"  [{'ok' if passed else 'FAIL'}] {name}")
        if all(checks.values()):
            say("serve smoke: OK")
            return 0
        say("serve smoke: FAILED")
        return 1
