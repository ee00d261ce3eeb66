"""Parallel job execution: cache check, fan-out, timeout, retry.

``run_jobs`` is the engine's front door. For every job it:

1. looks the content hash up in the persistent cache (hit → done; the
   hit binds the job's own DDG and rebuilds its kernel from the entry);
2. otherwise compiles and verifies the kernel
   (:func:`repro.engine.jobs.run_job`), either in-process (``jobs ==
   1`` — bit-identical to calling
   :func:`repro.pipeline.driver.compile_loop` directly) or on a
   :class:`CompilePool`. A pool worker returns a verified result as its
   sealed store entry (:func:`~repro.engine.cache.encode_entry`), never
   as a ``CompileResult``: the pool decodes it against the job's own
   DDG, as a cache hit does (:func:`accept_entry`);
3. enforces a per-job wall-clock timeout *inside* the worker (SIGALRM)
   so an exploding search records a ``TIMEOUT`` outcome instead of
   hanging the suite or poisoning the pool;
4. turns a pool call that raised into a result (:func:`pool_failure`):
   a job whose worker process died (``BrokenProcessPool``) is retried
   once on a one-worker pool of its own, then degrades to a structured
   ``ERROR``;
5. writes fresh successes back to the cache (a pool job's entry bytes
   unchanged) and emits a structured event per transition.

Results come back in submission order, one :class:`JobResult` per job,
and never as an exception: unschedulable loops, timeouts and worker
deaths are data, so one bad cell cannot abort a 678-loop sweep.

A batch runs its misses on a :class:`CompilePool` of its own and joins
its workers before it returns. The serving layer
(:mod:`repro.serve.manager`) keeps one pool for its whole life and
awaits :meth:`CompilePool.run` per job.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.ddg.graph import Ddg
from repro.engine.cache import ResultCache, decode_entry, default_cache, encode_entry
from repro.engine.events import Event, EventBus, EventKind
from repro.engine.jobs import CompileJob, ErrorKind, JobResult, Outcome, run_job
from repro.obs import spans as obs
from repro.obs.log import get_logger

_log = get_logger("engine")

#: Environment variable with the default worker count for library use.
JOBS_ENV = "REPRO_ENGINE_JOBS"

#: Environment variable with the default per-job timeout (seconds).
TIMEOUT_ENV = "REPRO_ENGINE_TIMEOUT"

#: Extra attempts a job gets after its worker process died. A compile
#: error or a timeout is deterministic and is never retried.
WORKER_RETRIES = 1


def configured_jobs(default: int = 1) -> int:
    """Worker count from ``REPRO_ENGINE_JOBS`` (>= 1), or ``default``."""
    raw = os.environ.get(JOBS_ENV, "").strip().lower()
    if not raw:
        return default
    if raw in {"auto", "max"}:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer or 'auto', got {raw!r}"
        ) from exc


def configured_timeout() -> float | None:
    """Per-job timeout from ``REPRO_ENGINE_TIMEOUT``, or None."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from exc
    return value if value > 0 else None


@dataclasses.dataclass
class EngineConfig:
    """Knobs for one :func:`run_jobs` batch.

    Attributes:
        jobs: worker processes; 1 runs in-process (deterministic, no
            pool overhead). None reads ``REPRO_ENGINE_JOBS`` (default 1).
        timeout: per-job wall-clock seconds; None reads
            ``REPRO_ENGINE_TIMEOUT`` (default: unlimited).
        cache: result store; None uses the process-wide default, which
            honours ``REPRO_CACHE``/``REPRO_CACHE_DIR``.
    """

    jobs: int | None = None
    timeout: float | None = None
    cache: ResultCache | None = None

    def resolved_jobs(self) -> int:
        """Effective worker count."""
        if self.jobs is not None:
            return max(1, self.jobs)
        return configured_jobs(default=1)

    def resolved_timeout(self) -> float | None:
        """Effective per-job timeout."""
        if self.timeout is not None:
            return self.timeout if self.timeout > 0 else None
        return configured_timeout()

    def resolved_cache(self) -> ResultCache:
        """Effective result store."""
        return self.cache if self.cache is not None else default_cache()


class _JobTimeout(Exception):
    """Internal: the SIGALRM deadline fired."""


def _raise_timeout(signum, frame):  # pragma: no cover - signal plumbing
    raise _JobTimeout()


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """Arm a wall-clock alarm for the enclosed block (POSIX only).

    A no-op when ``seconds`` is falsy, SIGALRM is unavailable, or we
    are not on the main thread (signal handlers require it); in those
    cases the job simply runs without a timeout. Pool workers, batch
    and serve alike, run every job on their main thread.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _timed_run(job: CompileJob, key: str, timeout: float | None) -> JobResult:
    """Run one job under the deadline; classify every ending."""
    start = time.perf_counter()
    try:
        with _deadline(timeout):
            result = run_job(job, key=key)
    except _JobTimeout:
        result = JobResult(
            key=key,
            tag=job.tag,
            outcome=Outcome.TIMEOUT,
            error=f"exceeded {timeout:g}s wall-clock budget",
            error_kind=ErrorKind.TIMEOUT,
        )
    result.duration = time.perf_counter() - start
    return result


def execute_wire(
    wire: dict, key: str, timeout: float | None
) -> tuple[JobResult, bytes | None]:
    """Worker-process entry point: rebuild the job, run it, and return
    its result with the result's sealed store entry.

    Every :class:`CompilePool` job runs through it. An OK, verified
    result crosses back as :func:`~repro.engine.cache.encode_entry`
    bytes, and the :class:`JobResult` beside them holds no
    ``CompileResult``; every other ending carries no entry. The caller
    binds the entry with :func:`accept_entry`.

    When tracing is on (the worker inherits ``REPRO_TRACE``), the job
    runs under a worker-side ``engine.job`` span; every span the job
    produced is drained from the worker tracer and shipped back on the
    result, where the caller adopts it into its own trace
    (:meth:`repro.obs.spans.Tracer.adopt`).
    """
    job = CompileJob.from_wire(wire)
    with obs.span("engine.job", tag=job.tag, key=key[:12], worker=True) as job_span:
        result = _timed_run(job, key, timeout)
        entry = None
        if result.ok:
            entry = encode_entry(result.result, key)
            result.result = None
        job_span.set(outcome=result.outcome.value)
    if obs.enabled():
        result.spans = obs.tracer().drain_wire()
    return result, entry


def accept_entry(
    result: JobResult, entry: bytes | None, ddg: Ddg, cache: ResultCache
) -> JobResult:
    """``result`` as :func:`execute_wire` returned it, with its ``entry``
    decoded against the job's own ``ddg`` (the decode a cache hit makes)
    and stored unchanged in ``cache``.

    An entry that does not decode ends the job ``INTERNAL`` and is not
    stored. A result without an entry is returned as it is.
    """
    if entry is None:
        return result
    try:
        result.result = decode_entry(entry, result.key, ddg)
    except Exception as exc:  # any decode failure refuses the entry
        result.outcome = Outcome.ERROR
        result.error = f"worker entry does not decode: {type(exc).__name__}: {exc}"
        result.error_kind = ErrorKind.INTERNAL
        _log.error(
            "worker entry refused",
            tag=result.tag,
            key=result.key[:12],
            error=result.error,
        )
        return result
    cache.put_entry(result.key, entry)
    return result


def pool_failure(
    exc: Exception, key: str, tag: str, attempt: int
) -> JobResult | None:
    """The result of a pool call that raised ``exc`` on try ``attempt``.

    A worker process dying (OOM kill, segfault in an extension, …)
    breaks the whole pool: every outstanding call raises
    ``BrokenProcessPool``. That says nothing about the job, so the
    answer is None, "retry", until the job has had
    :data:`WORKER_RETRIES` retries; then it is ``WORKER_DIED``.
    Anything else the worker raised is deterministic and ``INTERNAL``
    at once.
    """
    if not isinstance(exc, BrokenProcessPool):
        return JobResult(
            key=key,
            tag=tag,
            outcome=Outcome.ERROR,
            error=f"{type(exc).__name__}: {exc}",
            error_kind=ErrorKind.INTERNAL,
        )
    if attempt <= WORKER_RETRIES:
        _log.warning(
            "worker died, retrying job", tag=tag, key=key[:12], attempt=attempt
        )
        return None
    _log.error(
        "worker died, retries exhausted", tag=tag, key=key[:12], attempts=attempt
    )
    return JobResult(
        key=key,
        tag=tag,
        outcome=Outcome.ERROR,
        error="worker process died (retry exhausted)",
        error_kind=ErrorKind.WORKER_DIED,
    )


class CompilePool:
    """The process pool a batch's misses and a server's compiles run on.

    :meth:`run` compiles one job in a worker (:func:`execute_wire`),
    adopts the worker's spans under the caller's span, and decodes and
    stores the worker's entry (:func:`accept_entry`). A worker process
    dying breaks the whole shared pool, so every job outstanding on it
    fails at once: the first job to see the broken pool replaces it,
    and each such job is retried, as :func:`pool_failure` rules, on a
    one-worker pool of its own, ``workers`` of them at a time. So only
    a job whose own compile kills its worker ends ``WORKER_DIED``, and
    a batch or a server goes on compiling. Retry pools start their
    worker the way the shared pool does, so a retry runs the job as its
    first try did, and each is joined once its job is done.

    Args:
        workers: worker processes of the shared pool.
        cache: the store each job's entry is written to.
        timeout: per-job wall-clock seconds, enforced in the worker.
    """

    def __init__(
        self, workers: int, cache: ResultCache, timeout: float | None
    ) -> None:
        # asyncio is imported where a pool runs, so importing the engine
        # (as every CLI command does) does not pay for it.
        import asyncio

        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self._shared = ProcessPoolExecutor(max_workers=workers)
        self._alone = asyncio.Semaphore(workers)

    async def run(self, job: CompileJob, key: str, parent) -> JobResult:
        """``job``'s result, compiled under ``key``; never raises.

        ``parent`` is the caller's open span (a no-op one while tracing
        is off): the worker's spans are adopted under it, with its trace
        id. A failed pool call's ``duration`` is the time since the job
        was handed to the pool.
        """
        started = time.perf_counter()
        wire = job.to_wire()
        attempt = 1
        while True:
            try:
                done, entry = await self._call(wire, key, alone=attempt > 1)
                break
            except Exception as exc:
                failed = pool_failure(exc, key, job.tag, attempt)
                if failed is not None:
                    failed.duration = time.perf_counter() - started
                    return failed
                attempt += 1
        if done.spans and parent.trace_id:
            obs.tracer().adopt(done.spans, parent.span_id, parent.trace_id)
        done.spans = []
        return accept_entry(done, entry, job.ddg, self.cache)

    async def _call(
        self, wire: dict, key: str, alone: bool
    ) -> tuple[JobResult, bytes | None]:
        """One try on the shared pool or, when ``alone``, on a one-worker
        pool of its own: what :func:`execute_wire` returned. Raises what
        the pool call raised."""
        import asyncio

        loop = asyncio.get_running_loop()
        call = (execute_wire, wire, key, self.timeout)
        if not alone:
            shared = self._shared
            try:
                return await loop.run_in_executor(shared, *call)
            except BrokenProcessPool:
                if self._shared is shared:  # the first job to see it
                    self._shared = ProcessPoolExecutor(max_workers=self.workers)
                    await asyncio.to_thread(shared.shutdown)
                raise
        async with self._alone:
            pool = ProcessPoolExecutor(max_workers=1)
            try:
                return await loop.run_in_executor(pool, *call)
            finally:
                await asyncio.to_thread(pool.shutdown)

    def shutdown(self, wait: bool) -> None:
        """Stop the shared pool: join its workers when ``wait``, else
        cancel the jobs not yet started and return at once."""
        self._shared.shutdown(wait=wait, cancel_futures=not wait)


def event_for_result(result: JobResult) -> Event:
    """Terminal event matching a job result."""
    kind = {
        Outcome.OK: EventKind.CACHE_HIT if result.cached else EventKind.FINISHED,
        Outcome.ERROR: EventKind.ERROR,
        Outcome.TIMEOUT: EventKind.TIMEOUT,
    }[result.outcome]
    return Event(
        kind=kind,
        key=result.key,
        tag=result.tag,
        duration=result.duration,
        ii=result.result.ii if result.ok else None,
        mii=result.result.mii if result.ok else None,
        error=result.error,
        error_kind=result.error_kind.value,
    )


def run_jobs(
    jobs: list[CompileJob],
    config: EngineConfig | None = None,
    bus: EventBus | None = None,
) -> list[JobResult]:
    """Run a batch through cache + executor; results in input order.

    A batch with misses and ``jobs > 1`` drives its pool with
    :func:`asyncio.run`, so it must not be called from a running event
    loop.
    """
    config = config or EngineConfig()
    bus = bus or EventBus()
    cache = config.resolved_cache()
    timeout = config.resolved_timeout()
    workers = config.resolved_jobs()

    keys = [job.content_hash() for job in jobs]
    results: list[JobResult | None] = [None] * len(jobs)

    with obs.span("engine.run_jobs", jobs=len(jobs), workers=workers) as batch:
        pending: list[int] = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            cached = cache.get(key, ddg=job.ddg)
            if cached is not None:
                results[index] = JobResult(
                    key=key,
                    tag=job.tag,
                    outcome=Outcome.OK,
                    result=cached,
                    cached=True,
                )
                bus.emit(event_for_result(results[index]))
            else:
                pending.append(index)
        batch.set(cache_hits=len(jobs) - len(pending))

        if pending and workers <= 1:
            for index in pending:
                bus.emit(
                    Event(kind=EventKind.STARTED, key=keys[index], tag=jobs[index].tag)
                )
                with obs.span(
                    "engine.job", tag=jobs[index].tag, key=keys[index][:12]
                ) as job_span:
                    results[index] = _timed_run(jobs[index], keys[index], timeout)
                    job_span.set(outcome=results[index].outcome.value)
                if results[index].ok:
                    cache.put(keys[index], results[index].result)
        elif pending:
            import asyncio

            for index in pending:
                bus.emit(
                    Event(kind=EventKind.STARTED, key=keys[index], tag=jobs[index].tag)
                )
            pool = CompilePool(min(workers, len(pending)), cache, timeout)

            async def run_pending() -> list[JobResult]:
                return await asyncio.gather(
                    *(pool.run(jobs[i], keys[i], batch) for i in pending)
                )

            try:
                for index, result in zip(pending, asyncio.run(run_pending())):
                    results[index] = result
            finally:
                pool.shutdown(wait=True)

        for index in pending:
            bus.emit(event_for_result(results[index]))
    return results  # type: ignore[return-value] — every slot is filled
