"""Hierarchical spans: nesting, exception safety, cross-process adopt."""

import os
import threading

import pytest

from repro.obs import spans as obs
from repro.obs.spans import NOOP_SPAN, Span, Tracer


@pytest.fixture()
def tracing():
    """Enable tracing for one test, restoring the environment after."""
    with obs.force_enabled() as tracer:
        tracer.drain()
        yield tracer
    obs.tracer().drain()


class TestDisabled:
    def test_span_is_shared_noop(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        obs._refresh_from_env()
        assert not obs.enabled()
        assert obs.span("pass.partition", ii=3) is NOOP_SPAN

    def test_noop_span_supports_the_full_protocol(self):
        with NOOP_SPAN as span:
            span.set(anything=1)
        assert span.span_id == 0 and span.error is False

    def test_off_words_disable(self, monkeypatch):
        for value in ("", "0", "off", "false", "no", "OFF"):
            monkeypatch.setenv(obs.TRACE_ENV, value)
            obs._refresh_from_env()
            assert not obs.enabled()
        obs._refresh_from_env()

    def test_path_value_enables_and_names_the_file(self, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, "run.jsonl")
        obs._refresh_from_env()
        assert obs.enabled()
        assert obs.trace_path() == "run.jsonl"
        monkeypatch.delenv(obs.TRACE_ENV)
        obs._refresh_from_env()


class TestNesting:
    def test_children_link_to_the_enclosing_span(self, tracing):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_a_parent(self, tracing):
        with obs.span("parent") as parent:
            with obs.span("a") as a:
                pass
            with obs.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_spans_record_duration_and_attrs(self, tracing):
        with obs.span("work", ii=4) as span:
            span.set(outcome="ok")
        assert span.duration >= 0.0
        assert span.attrs == {"ii": 4, "outcome": "ok"}

    def test_exception_marks_error_and_closes_the_span(self, tracing):
        with pytest.raises(ValueError):
            with obs.span("outer") as outer:
                with obs.span("failing") as failing:
                    raise ValueError("boom")
        assert failing.error is True
        assert outer.error is True
        # Both spans were finished and exported despite the raise.
        names = {s.name for s in tracing.drain()}
        assert names == {"outer", "failing"}
        # The thread's stack unwound fully.
        assert tracing.current_span() is None

    def test_exceptions_are_never_swallowed(self, tracing):
        with pytest.raises(KeyError):
            with obs.span("s"):
                raise KeyError("x")


class TestTracer:
    def test_drain_returns_and_clears(self, tracing):
        with obs.span("one"):
            pass
        assert [s.name for s in tracing.drain()] == ["one"]
        assert tracing.drain() == []

    def test_snapshot_does_not_clear(self, tracing):
        with obs.span("one"):
            pass
        assert len(tracing.snapshot()) == 1
        assert len(tracing.snapshot()) == 1

    def test_ids_are_unique(self, tracing):
        for _ in range(5):
            with obs.span("s"):
                pass
        ids = [s.span_id for s in tracing.drain()]
        assert len(set(ids)) == len(ids)

    def test_thread_spans_do_not_interleave(self, tracing):
        errors = []

        def worker(name):
            try:
                with obs.span(name) as outer:
                    with obs.span(f"{name}.child") as child:
                        assert child.parent_id == outer.span_id
            except AssertionError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracing.drain()
        assert len(spans) == 16
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].name == span.name.split(".")[0]


class TestWire:
    def test_round_trip(self, tracing):
        with obs.span("pass.schedule", ii=7) as span:
            pass
        back = Span.from_wire(span.to_wire())
        assert back.name == span.name
        assert back.span_id == span.span_id
        assert back.attrs == {"ii": 7}
        assert back.pid == os.getpid()

    def test_error_flag_survives_the_wire(self, tracing):
        with pytest.raises(RuntimeError):
            with obs.span("bad") as span:
                raise RuntimeError
        assert Span.from_wire(span.to_wire()).error is True


class TestAdopt:
    def test_roots_reparent_and_internal_links_survive(self):
        remote = Tracer()
        local = Tracer()
        with local.span("engine.run_jobs") as batch:
            with remote.span("engine.job"):
                with remote.span("pass.partition"):
                    pass
            shipped = remote.drain_wire()
            adopted = local.adopt(shipped, parent_id=batch.span_id)
        by_name = {s.name: s for s in adopted}
        job = by_name["engine.job"]
        assert job.parent_id == batch.span_id
        assert by_name["pass.partition"].parent_id == job.span_id

    def test_ids_are_remapped_onto_the_local_sequence(self):
        local = Tracer()
        for _ in range(3):  # advance the local id counter past the remote's
            with local.span("spacer"):
                pass
        remote = Tracer()
        with remote.span("engine.job"):
            pass
        adopted = local.adopt(remote.drain_wire(), parent_id=None)
        local_ids = {s.span_id for s in local.drain()}
        assert adopted[0].span_id in local_ids
        assert len(local_ids) == 4  # no collision with the spacers

    def test_shipped_spans_take_the_callers_trace_id(self):
        remote = Tracer()
        with remote.span("engine.job"):
            with remote.span("pass.schedule"):
                pass
        shipped = remote.drain_wire()
        assert {record["trace"] for record in shipped} != {""}
        local = Tracer()
        with local.span("serve.job") as job:
            adopted = local.adopt(
                shipped, parent_id=job.span_id, trace_id=job.trace_id
            )
        assert job.trace_id not in {record["trace"] for record in shipped}
        assert [span.trace_id for span in adopted] == [job.trace_id] * 2
