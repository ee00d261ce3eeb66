"""Executor edge cases: serial parity, timeouts, retries, corruption."""

import dataclasses
import io
import os
import pickle
import time

import pytest

from repro.ddg.graph import Ddg
from repro.engine import executor as executor_mod
from repro.engine import jobs as jobs_mod
from repro.engine.cache import CacheEntryError, ResultCache, decode_entry
from repro.engine.events import CollectingSink, EventBus, EventKind
from repro.engine.executor import (
    EngineConfig,
    configured_jobs,
    execute_wire,
    run_jobs,
)
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob, ErrorKind, Outcome
from repro.pipeline import passes as passes_mod
from repro.pipeline.driver import CompileResult, Scheme, compile_loop
from repro.pipeline.metrics import loop_metrics
from repro.schedule.kernel import Kernel
from repro.workloads.specfp import benchmark_loops


def suite_jobs(benchmark="mgrid", limit=3, scheme=Scheme.REPLICATION):
    loops = benchmark_loops(benchmark, limit=limit)
    return loops, [
        CompileJob(
            ddg=loop.ddg,
            machine="2c1b2l64r",
            scheme=scheme,
            tag=f"{benchmark}/{loop.name}",
        )
        for loop in loops
    ]


def no_cache():
    return ResultCache(enabled=False)


class TestSerialParity:
    def test_jobs_1_no_cache_matches_compile_loop_exactly(self):
        """--jobs 1 + cache off is bit-identical to the serial path."""
        loops, jobs = suite_jobs("su2cor", limit=4)
        engine = run_jobs(jobs, EngineConfig(jobs=1, cache=no_cache()))
        for loop, job, result in zip(loops, jobs, engine):
            serial = compile_loop(
                loop.ddg, jobs_mod.resolve_machine(job.machine), scheme=job.scheme
            )
            assert result.ok
            assert result.result.ii == serial.ii
            assert result.result.mii == serial.mii
            assert result.result.causes == serial.causes
            assert result.result.kernel.length == serial.kernel.length
            engine_metric = loop_metrics(loop, result.result)
            serial_metric = loop_metrics(loop, serial)
            assert engine_metric.cycles == serial_metric.cycles
            assert engine_metric.useful_ops == serial_metric.useful_ops

    def test_pool_matches_inline(self):
        loops, jobs = suite_jobs("mgrid", limit=4)
        inline = run_jobs(jobs, EngineConfig(jobs=1, cache=no_cache()))
        pooled = run_jobs(jobs, EngineConfig(jobs=2, cache=no_cache()))
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert a.result.ii == b.result.ii
            assert a.result.causes == b.result.causes
            assert a.result.kernel.length == b.result.kernel.length

    def test_results_preserve_submission_order(self):
        _, jobs = suite_jobs("mgrid", limit=3)
        results = run_jobs(jobs, EngineConfig(jobs=2, cache=no_cache()))
        assert [r.tag for r in results] == [j.tag for j in jobs]


class TestTimeout:
    def test_timeout_records_outcome_and_continues(self, monkeypatch):
        """A stuck job records TIMEOUT; the rest of the batch completes."""
        real_compile = compile_loop

        def stuck_on_marker(ddg, machine, **kwargs):
            if ddg.name == "stuck":
                time.sleep(60.0)
            return real_compile(ddg, machine, **kwargs)

        monkeypatch.setattr(jobs_mod, "compile_loop", stuck_on_marker)
        loops, jobs = suite_jobs("mgrid", limit=2)
        stuck_ddg = loops[0].ddg.copy()
        stuck_ddg.name = "stuck"
        batch = [
            CompileJob(ddg=stuck_ddg, machine="2c1b2l64r", scheme=Scheme.BASELINE,
                       tag="stuck"),
            jobs[1],
        ]
        started = time.perf_counter()
        results = run_jobs(
            batch, EngineConfig(jobs=1, timeout=0.2, cache=no_cache())
        )
        assert time.perf_counter() - started < 30.0  # did not hang
        assert results[0].outcome is Outcome.TIMEOUT
        assert "0.2" in results[0].error
        assert results[1].ok  # the batch carried on

    def test_timeout_event_emitted(self, monkeypatch):
        monkeypatch.setattr(
            jobs_mod, "compile_loop", lambda *a, **k: time.sleep(60.0)
        )
        _, jobs = suite_jobs("mgrid", limit=1)
        sink = CollectingSink()
        run_jobs(
            jobs,
            EngineConfig(jobs=1, timeout=0.1, cache=no_cache()),
            EventBus([sink]),
        )
        kinds = [e.kind for e in sink.events]
        assert EventKind.TIMEOUT in kinds


class TestFailureIsolation:
    def test_compile_error_does_not_abort_batch(self):
        from repro.ddg.graph import Ddg

        loops, jobs = suite_jobs("mgrid", limit=2)
        batch = [
            jobs[0],
            CompileJob(ddg=Ddg("hollow"), machine="2c1b2l64r",
                       scheme=Scheme.BASELINE, tag="hollow"),
            jobs[1],
        ]
        results = run_jobs(batch, EngineConfig(jobs=1, cache=no_cache()))
        assert results[0].ok and results[2].ok
        assert results[1].outcome is Outcome.ERROR
        assert "hollow" in results[1].error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_machine_name_fails_only_its_job(self, workers):
        """In-process and on the pool, a machine name that does not
        resolve ends its own job as bad input; its batch mate compiles."""
        _, jobs = suite_jobs("mgrid", limit=1)
        bogus = dataclasses.replace(jobs[0], machine="bogus", tag="bogus")
        results = run_jobs(
            [bogus, jobs[0]], EngineConfig(jobs=workers, cache=no_cache())
        )
        assert results[0].outcome is Outcome.ERROR
        assert results[0].error_kind is ErrorKind.INVALID_INPUT
        assert "bad machine name 'bogus'" in results[0].error
        assert results[1].ok

    def test_worker_death_degrades_to_error(self, monkeypatch):
        """A dying worker process is retried once, then reported."""

        def die(ddg, machine, **kwargs):
            os._exit(13)

        monkeypatch.setattr(jobs_mod, "compile_loop", die)
        _, jobs = suite_jobs("mgrid", limit=1)
        results = run_jobs(jobs, EngineConfig(jobs=2, cache=no_cache()))
        assert results[0].outcome is Outcome.ERROR
        assert "worker" in results[0].error

    def test_a_dying_job_takes_no_pool_mate_down(self, monkeypatch, tmp_path):
        """The jobs that shared a pool with one that kills its worker are
        retried each on a pool of its own, and compile."""
        jobs = applu_batch_with_a_dying_job(monkeypatch)
        store = ResultCache(root=tmp_path, enabled=True)
        results = run_jobs(jobs, EngineConfig(jobs=2, cache=store))
        assert_only_the_dying_job_failed(jobs, results, store)


def applu_batch_with_a_dying_job(monkeypatch) -> list[CompileJob]:
    """applu_0..applu_5 on 4c1b2l64r, where applu_0's compile kills its
    worker process every time it runs."""
    real = jobs_mod.compile_loop

    def die_on_applu_0(ddg, machine, **kwargs):
        if ddg.name == "applu_0":
            os._exit(13)
        return real(ddg, machine, **kwargs)

    monkeypatch.setattr(jobs_mod, "compile_loop", die_on_applu_0)
    return [
        CompileJob(
            ddg=loop.ddg, machine="4c1b2l64r", scheme=Scheme.REPLICATION, tag=loop.name
        )
        for loop in benchmark_loops("applu", limit=6)
    ]


def assert_only_the_dying_job_failed(jobs, results, store):
    """applu_0 ended WORKER_DIED and stored nothing; its pool-mates
    compiled and are stored."""
    assert [result.error_kind for result in results] == (
        [ErrorKind.WORKER_DIED] + [ErrorKind.NONE] * 5
    )
    assert [result.outcome for result in results[1:]] == [Outcome.OK] * 5
    for job, result in zip(jobs[1:], results[1:]):
        assert store.get(result.key, ddg=job.ddg).ii == result.result.ii
    assert not store.path_for(results[0].key).exists()


def tamper_scheduler(monkeypatch):
    """Make the pass pipeline's scheduler return an illegal kernel: one
    op with an in-edge from another op moved to cycle -100, as the
    verifier tests do."""
    from tests.sim.test_verifier import tamper

    real = passes_mod.schedule

    def tampered(graph, machine, ii, **kwargs):
        kernel = real(graph, machine, ii, **kwargs)
        victim = next(
            iid
            for iid in kernel.ops
            if any(edge.src != iid for edge in graph.in_edges(iid))
        )
        return tamper(kernel, victim, start=-100)

    monkeypatch.setattr(passes_mod, "schedule", tampered)


class TestVerification:
    def test_illegal_kernel_is_an_error_and_never_stored(self, monkeypatch, tmp_path):
        tamper_scheduler(monkeypatch)
        _, jobs = suite_jobs("mgrid", limit=1)
        store = ResultCache(root=tmp_path, enabled=True)
        (result,) = run_jobs(jobs, EngineConfig(jobs=1, cache=store))
        assert result.outcome is Outcome.ERROR
        assert result.error_kind is ErrorKind.ILLEGAL_KERNEL
        assert "dependence violated" in result.error
        assert list(tmp_path.rglob("*")) == []


class TestCacheIntegration:
    def test_second_run_hits_and_preserves_metrics(self, tmp_path):
        loops, jobs = suite_jobs("mgrid", limit=2)
        store = ResultCache(root=tmp_path, enabled=True)
        cold = run_jobs(jobs, EngineConfig(jobs=1, cache=store))
        warm = run_jobs(jobs, EngineConfig(jobs=1, cache=store))
        assert all(not r.cached for r in cold)
        assert all(r.cached for r in warm)
        for a, b in zip(cold, warm):
            assert a.result.ii == b.result.ii
            assert a.result.causes == b.result.causes

    def test_corrupted_entry_is_recompiled(self, tmp_path):
        _, jobs = suite_jobs("mgrid", limit=1)
        store = ResultCache(root=tmp_path, enabled=True)
        first = run_jobs(jobs, EngineConfig(jobs=1, cache=store))
        store.path_for(first[0].key).write_bytes(b"\x00garbage")
        again = run_jobs(jobs, EngineConfig(jobs=1, cache=store))
        assert not again[0].cached  # corrupt entry = miss, not crash
        assert again[0].ok
        assert again[0].result.ii == first[0].result.ii

    def test_cache_hit_events(self, tmp_path):
        _, jobs = suite_jobs("mgrid", limit=1)
        store = ResultCache(root=tmp_path, enabled=True)
        run_jobs(jobs, EngineConfig(jobs=1, cache=store))
        sink = CollectingSink()
        run_jobs(jobs, EngineConfig(jobs=1, cache=store), EventBus([sink]))
        assert [e.kind for e in sink.events] == [EventKind.CACHE_HIT]


class TestConfiguredJobs:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_JOBS", raising=False)
        assert configured_jobs() == 1

    def test_numeric(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "3")
        assert configured_jobs() == 3

    def test_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "auto")
        assert configured_jobs() >= 1

    def test_malformed_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_ENGINE_JOBS"):
            configured_jobs()


def pickled_types(value) -> set[type]:
    """The type of every object pickling ``value`` writes: what would
    cross a process pool if ``value`` were a worker's return value."""
    seen: set[type] = set()

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            seen.add(type(obj))
            return None

    Spy(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return seen


class TestEntryWire:
    """A pool job crosses back as its sealed store entry, is decoded
    against the job's own DDG, and is stored as the same bytes."""

    def test_worker_returns_entry_bytes_and_no_compile_result(self):
        _, (job,) = suite_jobs("mgrid", limit=1)
        key = job.content_hash()
        done, entry = execute_wire(job.to_wire(), key, None)
        assert done.outcome is Outcome.OK and done.result is None
        crossing = pickled_types((done, entry))
        assert not crossing & {CompileResult, Ddg, Kernel}, crossing
        fresh = compile_loop(
            job.ddg, jobs_mod.resolve_machine(job.machine), scheme=job.scheme
        )
        decoded = decode_entry(entry, key, job.ddg)
        assert result_fingerprint(decoded) == result_fingerprint(fresh)
        assert decoded.diagnostics.ii_trajectory == fresh.diagnostics.ii_trajectory

    def test_a_job_run_twice_returns_identical_entry_bytes(self):
        """An entry holds no wall time, and the worker rebuilds the loop
        from the wire, so its analysis memo starts cold each time: the
        entry is a pure function of the job."""
        (loop,) = benchmark_loops("tomcatv", limit=1)
        for scheme in Scheme:
            job = CompileJob(ddg=loop.ddg, machine="4c1b2l64r", scheme=scheme)
            key = job.content_hash()
            (done, first), (_, second) = (
                execute_wire(job.to_wire(), key, None) for _ in range(2)
            )
            assert done.outcome is Outcome.OK and first == second, scheme

    def test_two_pool_fills_write_identical_stores(self, tmp_path):
        _, jobs = suite_jobs("tomcatv", limit=3)
        stored = []
        for name in ("a", "b"):
            store = ResultCache(root=tmp_path / name, enabled=True)
            run_jobs(jobs, EngineConfig(jobs=2, cache=store))
            stored.append({p.name: p.read_bytes() for p in store.root.rglob("*.pkl")})
        assert len(stored[0]) == len(jobs)
        assert stored[0] == stored[1]

    def test_errors_carry_no_entry(self):
        job = CompileJob(ddg=Ddg("hollow"), machine="2c1b2l64r", scheme=Scheme.BASELINE)
        done, entry = execute_wire(job.to_wire(), job.content_hash(), None)
        assert done.outcome is Outcome.ERROR and entry is None

    def test_pool_results_match_inline_and_store_their_entries(self, tmp_path):
        _, jobs = suite_jobs("tomcatv", limit=3)
        store = ResultCache(root=tmp_path, enabled=True)
        pooled = run_jobs(jobs, EngineConfig(jobs=2, cache=store))
        inline = run_jobs(jobs, EngineConfig(jobs=1, cache=no_cache()))
        for job, a, b in zip(jobs, pooled, inline):
            assert a.ok and b.ok and not a.cached
            assert result_fingerprint(a.result) == result_fingerprint(b.result)
            assert a.result.partition.ddg is job.ddg
            assert a.result.diagnostics.counters == b.result.diagnostics.counters
            raw = store.path_for(a.key).read_bytes()
            stored = decode_entry(raw, a.key, job.ddg)
            assert result_fingerprint(stored) == result_fingerprint(b.result)

    def test_an_entry_that_does_not_decode_is_internal_and_not_stored(
        self, monkeypatch, tmp_path
    ):
        def refuse(raw, key, ddg=None):
            raise CacheEntryError("planted")

        monkeypatch.setattr(executor_mod, "decode_entry", refuse)
        _, jobs = suite_jobs("mgrid", limit=2)
        store = ResultCache(root=tmp_path, enabled=True)
        results = run_jobs(jobs, EngineConfig(jobs=2, cache=store))
        assert [r.error_kind for r in results] == [ErrorKind.INTERNAL] * 2
        assert all(r.outcome is Outcome.ERROR for r in results)
        assert "planted" in results[0].error
        assert list(tmp_path.rglob("*.pkl")) == []
