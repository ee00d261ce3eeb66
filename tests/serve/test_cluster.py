"""The serving stack against the local single-process path.

An in-process deployment serves a slice of the bench matrix with
results semantically identical to local compiles, replays it from its
store once the job records are gone, and shares that store's layout
with any :class:`ResultCache` in both directions.
"""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob, ErrorKind, Outcome
from repro.machine.config import parse_config
from repro.pipeline.driver import Scheme, compile_loop
from repro.serve.cluster import ServeCluster
from repro.workloads.specfp import benchmark_loops

MACHINE = "4c1b4l64r"
SCHEMES = (Scheme.BASELINE, Scheme.REPLICATION)
BENCHMARKS = ("tomcatv", "mgrid")
LOOPS_PER_BENCHMARK = 2


def _matrix() -> list[CompileJob]:
    """A small but real slice of the bench matrix: 2 benchmarks x 2
    loops x 2 schemes = 8 distinct jobs."""
    jobs = []
    for benchmark in BENCHMARKS:
        for i, loop in enumerate(
            benchmark_loops(benchmark, limit=LOOPS_PER_BENCHMARK)
        ):
            for scheme in SCHEMES:
                jobs.append(
                    CompileJob(
                        ddg=loop.ddg,
                        machine=MACHINE,
                        scheme=scheme,
                        tag=f"{benchmark}/{i}/{scheme.value}",
                    )
                )
    return jobs


@pytest.fixture(scope="module")
def expected():
    """Local single-process fingerprints, the ground truth."""
    config = parse_config(MACHINE)
    return {
        job.content_hash(): result_fingerprint(
            compile_loop(job.ddg, config, scheme=job.scheme)
        )
        for job in _matrix()
    }


def _fingerprints(results):
    return {
        r.key: result_fingerprint(r.result) for r in results
    }


def test_served_matrix_matches_local_and_replays_from_cache(tmp_path, expected):
    jobs = _matrix()
    with ServeCluster(root=tmp_path / "store", workers=2) as cluster:
        # -- the matrix, served -------------------------------------------
        results = cluster.run_jobs(jobs)
        assert len(results) == len(jobs)
        assert all(r.outcome is Outcome.OK for r in results)
        assert _fingerprints(results) == expected
        assert not any(r.cached for r in results)

        # -- without job records, every resubmission is a cache hit ------
        cluster.forget_records()
        replayed = cluster.run_jobs(jobs)
        assert all(r.outcome is Outcome.OK for r in replayed)
        assert all(r.cached for r in replayed)
        assert _fingerprints(replayed) == expected


def test_cluster_dedupes_concurrent_submissions(tmp_path):
    jobs = _matrix()[:2]
    with ServeCluster(root=tmp_path / "dedupe", workers=2) as cluster:
        first = cluster.run_jobs(jobs + jobs)
        assert len(first) == 4
        # same key submitted twice resolves to the same record/result
        assert first[0].key == first[2].key
        assert result_fingerprint(first[0].result) == result_fingerprint(
            first[2].result
        )


def test_store_is_the_local_cache_layout(tmp_path):
    """Served results land where ResultCache looks, and the reverse."""
    served_job, stored_job = _matrix()[:2]
    root = tmp_path / "store"
    local = compile_loop(
        stored_job.ddg, parse_config(MACHINE), scheme=stored_job.scheme
    )
    ResultCache(root=root, enabled=True).put(stored_job.content_hash(), local)
    with ServeCluster(root=root, workers=1) as cluster:
        served, stored = cluster.run_jobs([served_job, stored_job])
    assert served.outcome is Outcome.OK and not served.cached
    assert stored.outcome is Outcome.OK and stored.cached
    assert result_fingerprint(stored.result) == result_fingerprint(local)
    key = served_job.content_hash()
    assert (root / key[:2] / f"{key}.pkl").exists()
    from_disk = ResultCache(root=root, enabled=True).get(key)
    assert result_fingerprint(from_disk) == result_fingerprint(served.result)


def test_illegal_kernel_is_served_as_error_and_never_stored(tmp_path, monkeypatch):
    """The serve path verifies too: an illegal kernel is an error and
    leaves the store empty."""
    from tests.engine.test_executor import tamper_scheduler

    tamper_scheduler(monkeypatch)
    root = tmp_path / "store"
    with ServeCluster(root=root, executor="thread", workers=1) as cluster:
        (result,) = cluster.run_jobs(_matrix()[:1])
    assert result.outcome is Outcome.ERROR
    assert result.error_kind is ErrorKind.ILLEGAL_KERNEL
    assert list(root.rglob("*.pkl")) == []
