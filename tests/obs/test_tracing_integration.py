"""Tracing through the real pipeline and across worker processes."""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executor import EngineConfig, run_jobs
from repro.engine.jobs import CompileJob
from repro.obs import spans as obs
from repro.obs.summary import aggregate
from repro.pipeline.driver import Scheme, compile_loop
from repro.pipeline.passes import run_pass_pipeline
from repro.workloads.patterns import stencil5
from repro.workloads.specfp import benchmark_loops


@pytest.fixture()
def tracing():
    with obs.force_enabled() as tracer:
        tracer.drain()
        yield tracer
    obs.tracer().drain()


def machine():
    from repro.machine.config import parse_config

    return parse_config("4c1b2l64r")


class TestPipelineSpans:
    def test_compile_emits_the_span_hierarchy(self, tracing):
        compile_loop(stencil5(), machine(), scheme=Scheme.REPLICATION)
        spans = tracing.drain()
        names = {s.name for s in spans}
        assert "pipeline.compile" in names
        assert "pipeline.attempt" in names
        assert "pass.partition" in names
        assert "pass.schedule" in names
        assert "partition.refine" in names
        assert "schedule.place" in names
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.name.startswith("pass."):
                assert by_id[span.parent_id].name == "pipeline.attempt"
            if span.name == "pipeline.attempt":
                assert by_id[span.parent_id].name == "pipeline.compile"

    def test_span_totals_agree_with_stage_seconds(self, tracing):
        result = compile_loop(stencil5(), machine(), scheme=Scheme.REPLICATION)
        stats = aggregate([s.to_wire() for s in tracing.drain()])
        for stage, seconds in result.diagnostics.stage_seconds.items():
            span_total = stats[f"pass.{stage}"].total
            # Both time exactly the pass run() calls, so they agree to
            # within the bookkeeping overhead around the clock calls.
            assert span_total == pytest.approx(seconds, rel=0.25, abs=2e-3)

    def test_raising_pass_closes_its_span_with_error(self, tracing, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("not a StageFailure")

        monkeypatch.setattr("repro.pipeline.passes.schedule", explode)
        with pytest.raises(RuntimeError):
            run_pass_pipeline(stencil5(), machine(), Scheme.REPLICATION)
        spans = {s.name: s for s in tracing.drain()}
        assert spans["pass.schedule"].error is True
        assert spans["pipeline.attempt"].error is True
        assert spans["pipeline.compile"].error is True

    def test_failed_attempts_record_the_cause_not_an_error(self, tracing):
        # A clustered run that needs II escalation: the failed attempt
        # spans carry failed=<cause> and stay error-free.
        loops = benchmark_loops("su2cor", limit=2)
        for loop in loops:
            compile_loop(loop.ddg, machine(), scheme=Scheme.BASELINE)
        attempts = [
            s for s in tracing.drain() if s.name == "pipeline.attempt"
        ]
        failed = [s for s in attempts if "failed" in s.attrs]
        assert all(not s.error for s in attempts)
        if failed:  # cause values come from the FailureCause enum
            assert all(
                s.attrs["failed"]
                in {"bus", "recurrences", "registers", "resources"}
                for s in failed
            )

    def test_disabled_tracing_produces_no_spans(self):
        obs.disable()
        try:
            compile_loop(stencil5(), machine(), scheme=Scheme.REPLICATION)
            assert obs.tracer().snapshot() == []
        finally:
            obs._refresh_from_env()

    def test_metrics_land_namespaced_in_diagnostics(self):
        result = compile_loop(stencil5(), machine(), scheme=Scheme.REPLICATION)
        counters = result.diagnostics.counters
        assert "partition.pseudo_evaluations" in counters
        assert "schedule.attempts" in counters
        assert not any("." not in name for name in counters)


class TestCrossProcess:
    def test_worker_spans_reparent_under_the_batch(self, tracing):
        loops = benchmark_loops("mgrid", limit=2)
        jobs = [
            CompileJob(
                ddg=loop.ddg,
                machine="2c1b2l64r",
                scheme=Scheme.REPLICATION,
                tag=f"mgrid/{loop.name}",
            )
            for loop in loops
        ]
        results = run_jobs(
            jobs, EngineConfig(jobs=2, cache=ResultCache(enabled=False))
        )
        assert all(r.ok for r in results)
        # Spans were adopted engine-side; nothing left on the results.
        assert all(r.spans == [] for r in results)

        spans = tracing.drain()
        by_id = {s.span_id: s for s in spans}
        batches = [s for s in spans if s.name == "engine.run_jobs"]
        assert len(batches) == 1
        job_spans = [s for s in spans if s.name == "engine.job"]
        assert len(job_spans) == len(jobs)
        for job_span in job_spans:
            assert job_span.parent_id == batches[0].span_id
            assert job_span.attrs.get("worker") is True
            assert job_span.attrs.get("outcome") == "ok"
        # Worker-side pipeline spans hang off their engine.job span.
        compiles = [s for s in spans if s.name == "pipeline.compile"]
        assert len(compiles) == len(jobs)
        for comp in compiles:
            assert by_id[comp.parent_id].name == "engine.job"
        # Ids were remapped: unique across the adopted forest.
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)

    def test_serial_engine_places_jobs_under_the_batch(self, tracing):
        loops = benchmark_loops("mgrid", limit=2)
        jobs = [
            CompileJob(
                ddg=loop.ddg,
                machine="2c1b2l64r",
                scheme=Scheme.BASELINE,
                tag=f"mgrid/{loop.name}",
            )
            for loop in loops
        ]
        run_jobs(jobs, EngineConfig(jobs=1, cache=ResultCache(enabled=False)))
        spans = tracing.drain()
        by_id = {s.span_id: s for s in spans}
        job_spans = [s for s in spans if s.name == "engine.job"]
        assert len(job_spans) == len(jobs)
        for job_span in job_spans:
            assert by_id[job_span.parent_id].name == "engine.run_jobs"
