"""Acceptance: one served job produces ONE stitched trace.

The distributed-tracing contract of the serve boundary: a client-side
``client.request`` span, the server's ``serve.request``, the manager's
``serve.job``, and the worker's ``engine.job`` (plus the pipeline pass
spans under it) must share a single trace id and parent each other
correctly — across the HTTP hop via the ``traceparent`` header, and
across the process-pool hop by adopting the spans the worker ships
back.

``ServeCluster`` runs client and server in one process, so their spans
land in one tracer; the worker's spans travel back on the job result
and are adopted into the same tracer, so the whole tree can be drained
and checked.
"""

import pytest

from repro import obs
from repro.engine.jobs import CompileJob
from repro.pipeline.driver import Scheme
from repro.serve.client import ServeClient
from repro.serve.cluster import ServeCluster
from repro.workloads.patterns import daxpy, dot_product

MACHINE = "2c1b2l64r"


def _job(ddg=None, tag="stitch/daxpy"):
    return CompileJob(
        ddg=ddg if ddg is not None else daxpy(),
        machine=MACHINE,
        scheme=Scheme.REPLICATION,
        tag=tag,
    )


def _by_name(spans, name):
    return [span for span in spans if span.name == name]


def _serve_and_drain(tmp_path, ddg, tag):
    """Submit one job over HTTP under tracing; return (spans, events)."""
    with obs.force_enabled():
        obs.tracer().drain()  # stray spans from earlier tests
        with ServeCluster(root=tmp_path, workers=1, http=True) as cluster:
            client = ServeClient(cluster.url, client_id="stitch")
            submitted = client.submit(_job(ddg=ddg, tag=tag))
            client.wait(submitted["key"], timeout=120.0)
            # events() blocks until the terminal event, which the
            # manager emits only after the serve.job span is finished —
            # so every span is exported once this returns.
            events = client.events(submitted["key"])
        spans = obs.tracer().drain()
    return spans, events


class TestProcessExecutorStitching:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        return _serve_and_drain(
            tmp_path_factory.mktemp("stitch"), daxpy(), "stitch/daxpy"
        )

    def test_one_trace_spans_client_server_and_worker(self, traced):
        spans, _events = traced
        submit = [
            span
            for span in _by_name(spans, "client.request")
            if span.attrs.get("method") == "POST"
        ]
        assert len(submit) == 1
        trace_id = submit[0].trace_id
        assert trace_id

        requests = [
            span
            for span in _by_name(spans, "serve.request")
            if span.trace_id == trace_id
        ]
        jobs = [
            span for span in _by_name(spans, "serve.job")
            if span.trace_id == trace_id
        ]
        engine = [
            span for span in _by_name(spans, "engine.job")
            if span.trace_id == trace_id
        ]
        assert len(requests) == 1, "POST serve.request joins the client trace"
        assert len(jobs) == 1
        assert len(engine) == 1

    def test_parent_links_are_correct(self, traced):
        spans, _events = traced
        submit = [
            span
            for span in _by_name(spans, "client.request")
            if span.attrs.get("method") == "POST"
        ][0]
        request = [
            span
            for span in _by_name(spans, "serve.request")
            if span.trace_id == submit.trace_id
        ][0]
        job = _by_name(spans, "serve.job")[0]
        engine = [
            span for span in _by_name(spans, "engine.job")
            if span.trace_id == submit.trace_id
        ][0]
        assert submit.parent_id is None  # the trace root
        assert request.parent_id == submit.span_id
        assert job.parent_id == request.span_id
        assert engine.parent_id == job.span_id

    def test_pipeline_pass_spans_join_the_trace(self, traced):
        spans, _events = traced
        trace_id = _by_name(spans, "serve.job")[0].trace_id
        members = [span for span in spans if span.trace_id == trace_id]
        # client + request + job + engine.job + at least one pass span.
        assert len(members) >= 5
        assert any(span.name == "pipeline.attempt" for span in members)

    def test_ndjson_events_carry_the_trace(self, traced):
        spans, events = traced
        trace_id = _by_name(spans, "serve.job")[0].trace_id
        assert events, "expected a started + terminal event"
        for event in events:
            assert event["trace"] == trace_id
            assert event["span"] == _by_name(spans, "serve.job")[0].span_id

    def test_polling_requests_root_their_own_traces(self, traced):
        spans, _events = traced
        job_trace = _by_name(spans, "serve.job")[0].trace_id
        polls = [
            span
            for span in _by_name(spans, "client.request")
            if span.attrs.get("method") == "GET"
        ]
        assert polls, "client.wait must have polled"
        assert all(span.trace_id != job_trace for span in polls)


    def test_shipped_worker_spans_are_adopted_into_the_trace(self, traced):
        spans, _events = traced
        job = _by_name(spans, "serve.job")[0]
        engine = [
            span for span in _by_name(spans, "engine.job")
            if span.trace_id == job.trace_id
        ]
        assert len(engine) == 1
        assert engine[0].parent_id == job.span_id
        assert engine[0].attrs.get("worker") is True
        assert engine[0].pid != job.pid, "engine.job ran in a worker process"
        # The worker's whole pass tree came along and was re-idd locally.
        members = [span for span in spans if span.trace_id == job.trace_id]
        assert any(span.name == "pipeline.attempt" for span in members)
        assert len({span.span_id for span in members}) == len(members)


class TestCacheHitStitching:
    def test_cache_hit_joins_the_submitting_request_trace(self, tmp_path):
        with obs.force_enabled():
            obs.tracer().drain()
            with ServeCluster(root=tmp_path, workers=1, http=True) as cluster:
                client = ServeClient(cluster.url, client_id="stitch")
                job = _job(ddg=dot_product(), tag="stitch/cachehit")
                first = client.submit(job)
                client.wait(first["key"], timeout=120.0)
                client.events(first["key"])
                obs.tracer().drain()
                # Drop the record so the resubmission walks the cache
                # path (not dedupe) inside a fresh request span.
                cluster.forget_records()
                second = client.submit(job)
                events = client.events(first["key"])
            spans = obs.tracer().drain()
        assert second["status"] == "done"
        assert second["cached"] is True
        resubmit = [
            span
            for span in _by_name(spans, "client.request")
            if span.attrs.get("method") == "POST"
        ]
        assert len(resubmit) == 1
        request = [
            span
            for span in _by_name(spans, "serve.request")
            if span.trace_id == resubmit[0].trace_id
        ]
        assert len(request) == 1
        # The payload and the cache_hit event are stamped with the
        # resubmitting request's trace.
        assert second.get("trace") == resubmit[0].trace_id
        assert events[-1]["kind"] == "cache_hit"
        assert events[-1]["trace"] == resubmit[0].trace_id
        assert events[-1]["span"] == request[0].span_id

    def test_dedupe_keeps_the_original_trace(self, tmp_path):
        with obs.force_enabled():
            obs.tracer().drain()
            with ServeCluster(root=tmp_path, workers=1, http=True) as cluster:
                client = ServeClient(cluster.url, client_id="stitch")
                job = _job(ddg=dot_product(), tag="stitch/dedupe")
                first = client.submit(job)
                client.wait(first["key"], timeout=120.0)
                client.events(first["key"])
                duplicate = client.submit(job)
            spans = obs.tracer().drain()
        job_span = _by_name(spans, "serve.job")[0]
        # The duplicate attaches to the existing record: its payload
        # still names the original compile's trace.
        assert duplicate.get("trace") == job_span.trace_id
