"""What the server keeps of a job once it is done.

A finished record holds its status fields only: the result itself is in
the store, and the submitted job goes when the job finishes.
The status document and the event stream stay field for field what a
client saw before, and the oldest finished records past a fixed bound
are evicted and answered from the store.
"""

import dataclasses

import pytest

from repro.ddg.graph import Ddg
from repro.engine import executor as executor_mod
from repro.engine.cache import CacheEntryError
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob, ErrorKind, JobResult, Outcome
from repro.machine.config import parse_config
from repro.pipeline.driver import CompileResult, Scheme, compile_loop
from repro.serve import manager as manager_mod
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ServeCluster
from repro.serve.manager import JobStatus
from repro.workloads.patterns import daxpy, dot_product, stencil5

MACHINE = "2c1b2l64r"

#: The status document of a compiled job, and of a failed one (a traced
#: server adds ``trace``).
OK_FIELDS = {
    "key", "tag", "status", "submitted_at",
    "outcome", "cached", "duration", "ii", "mii", "scheme", "fingerprint",
}
ERROR_FIELDS = {
    "key", "tag", "status", "submitted_at",
    "outcome", "cached", "duration", "error", "error_kind",
}


def _job(ddg, scheme=Scheme.REPLICATION):
    return CompileJob(
        ddg=ddg, machine=MACHINE, scheme=scheme, tag=f"records/{ddg.name}"
    )


def _local(job):
    return compile_loop(job.ddg, parse_config(MACHINE), scheme=job.scheme)


def _reaches(value, kinds, seen=None) -> bool:
    """Whether ``value`` holds an instance of ``kinds`` through dataclass
    fields, lists, tuples, sets and dicts."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return False
    seen.add(id(value))
    if isinstance(value, kinds):
        return True
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        return False
    return any(_reaches(child, kinds, seen) for child in children)


@pytest.fixture
def cluster(tmp_path):
    with ServeCluster(root=tmp_path / "store", workers=2, http=True) as up:
        yield up


def test_done_records_keep_only_their_status(cluster):
    jobs = [_job(daxpy()), _job(stencil5()), _job(Ddg("hollow"))]
    first = cluster.run_jobs(jobs)
    assert [r.outcome for r in first] == [Outcome.OK, Outcome.OK, Outcome.ERROR]
    records = list(cluster.manager.records.values())
    cluster.forget_records()
    (again,) = cluster.run_jobs(jobs[:1])
    assert again.cached
    records += cluster.manager.records.values()
    assert len(records) == 4
    for record in records:
        assert record.status is JobStatus.DONE
        assert record.job is None
        assert not _reaches(record, (CompileResult, JobResult, Ddg)), record.key


def test_status_document_and_finished_event_are_unchanged(cluster):
    client = ServeClient(cluster.url, client_id="records")
    job = _job(dot_product())
    client.submit(job)
    done = client.wait(job.content_hash(), timeout=120.0)
    local = _local(job)
    assert set(done) - {"trace"} == OK_FIELDS
    assert done["status"] == "done" and done["outcome"] == "ok"
    assert done["cached"] is False and done["duration"] > 0
    assert (done["ii"], done["mii"]) == (local.ii, local.mii)
    assert done["scheme"] == "replication"
    assert done["fingerprint"] == result_fingerprint(local)
    assert client.status(job.content_hash()) == done
    finished = client.events(job.content_hash())[-1]
    assert finished["kind"] == "finished"
    assert (finished["ii"], finished["mii"]) == (local.ii, local.mii)
    assert finished["duration"] > 0

    hollow = _job(Ddg("hollow"))
    client.submit(hollow)
    failed = client.wait(hollow.content_hash(), timeout=120.0)
    assert set(failed) - {"trace"} == ERROR_FIELDS
    assert failed["outcome"] == "error"
    assert failed["error_kind"] == "invalid_input"


def test_an_entry_that_does_not_decode_ends_internal(cluster, monkeypatch):
    def refuse(raw, key, ddg=None):
        raise CacheEntryError("planted")

    monkeypatch.setattr(executor_mod, "decode_entry", refuse)
    job = _job(daxpy())
    (result,) = cluster.run_jobs([job])
    assert result.outcome is Outcome.ERROR
    assert result.error_kind is ErrorKind.INTERNAL
    record = cluster.manager.records[job.content_hash()]
    assert record.status is JobStatus.DONE
    assert record.to_payload()["error_kind"] == "internal"
    assert not cluster.cache.path_for(job.content_hash()).exists()


def test_oldest_done_records_are_evicted_and_answered_from_the_store(
    cluster, monkeypatch
):
    monkeypatch.setattr(manager_mod, "MAX_DONE_RECORDS", 2)
    client = ServeClient(cluster.url, client_id="records")
    hollow = _job(Ddg("hollow"))
    jobs = [hollow, _job(daxpy()), _job(dot_product()), _job(stencil5())]
    documents = {}
    for job in jobs:
        client.submit(job)
        documents[job.content_hash()] = client.wait(job.content_hash(), timeout=120.0)
    manager = cluster.manager
    assert manager.counts() == {"queued": 0, "running": 0, "done": 2}
    assert set(manager.records) == {job.content_hash() for job in jobs[2:]}

    # GET and /events of an evicted key answer from the store; the
    # record they bring back evicts the oldest one again.
    evicted = jobs[1].content_hash()
    events = client.events(evicted)
    assert [event["kind"] for event in events] == ["cache_hit"]
    answered = client.status(evicted)
    assert answered["cached"] is True
    assert answered["fingerprint"] == documents[evicted]["fingerprint"]
    assert set(manager.records) == {jobs[3].content_hash(), evicted}

    again = jobs[2].content_hash()
    resubmitted = client.submit(jobs[2])
    assert resubmitted["cached"] is True
    assert resubmitted["fingerprint"] == documents[again]["fingerprint"]
    assert manager.counts()["done"] == 2

    with pytest.raises(ServeError) as gone:
        client.status(hollow.content_hash())
    assert gone.value.status == 404
    status, _payload = client.try_submit(hollow)
    assert status == 202  # errors are never stored: it compiles again
