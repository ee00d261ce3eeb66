"""The serving stack against the local single-process path.

An in-process deployment serves a slice of the bench matrix with
results semantically identical to local compiles, replays it from its
store once the job records are gone, and shares that store's layout
with any :class:`ResultCache` in both directions. Its compile pool
enforces the per-job timeout and outlives a dead worker.
"""

import os
import time

import pytest

from repro.engine import jobs as jobs_mod
from repro.engine.cache import ResultCache
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob, ErrorKind, Outcome
from repro.machine.config import parse_config
from repro.pipeline.driver import Scheme, compile_loop
from repro.serve.cluster import ServeCluster
from repro.workloads.patterns import daxpy, stencil5
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
    with ServeCluster(root=root, workers=1) as cluster:
        (result,) = cluster.run_jobs(_matrix()[:1])
    assert result.outcome is Outcome.ERROR
    assert result.error_kind is ErrorKind.ILLEGAL_KERNEL
    assert list(root.rglob("*.pkl")) == []


def test_dead_worker_is_retried_once_and_serving_goes_on(tmp_path, monkeypatch):
    """A job whose worker dies gets one retry on a fresh pool, then ends
    WORKER_DIED; the jobs after it compile and are stored."""
    deaths = tmp_path / "deaths"
    real = jobs_mod.compile_loop

    def die_on_daxpy(ddg, machine, **kwargs):
        if ddg.name == "daxpy":
            with open(deaths, "a") as handle:
                handle.write("died\n")
            os._exit(13)
        return real(ddg, machine, **kwargs)

    monkeypatch.setattr(jobs_mod, "compile_loop", die_on_daxpy)
    doomed = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.REPLICATION)
    later = [
        CompileJob(ddg=stencil5(), machine=machine, scheme=Scheme.REPLICATION)
        for machine in ("2c1b2l64r", "4c1b2l64r")
    ]
    root = tmp_path / "store"
    with ServeCluster(root=root, workers=1) as cluster:
        (died,) = cluster.run_jobs([doomed])
        compiled = cluster.run_jobs(later)
    assert died.outcome is Outcome.ERROR
    assert died.error_kind is ErrorKind.WORKER_DIED
    assert deaths.read_text().splitlines() == ["died", "died"]
    assert all(result.outcome is Outcome.OK for result in compiled)
    store = ResultCache(root=root, enabled=True)
    for job, result in zip(later, compiled):
        stored = store.get(result.key, ddg=job.ddg)
        assert result_fingerprint(stored) == result_fingerprint(result.result)
    assert not store.path_for(died.key).exists()


def test_a_dying_job_takes_no_pool_mate_down(tmp_path, monkeypatch):
    """Jobs submitted together with one that kills its worker are each
    retried on a pool of their own, and compile."""
    from tests.engine.test_executor import (
        applu_batch_with_a_dying_job,
        assert_only_the_dying_job_failed,
    )

    jobs = applu_batch_with_a_dying_job(monkeypatch)
    root = tmp_path / "store"
    with ServeCluster(root=root, workers=2) as cluster:
        results = cluster.run_jobs(jobs)
    assert_only_the_dying_job_failed(
        jobs, results, ResultCache(root=root, enabled=True)
    )


def test_timeout_ends_a_slow_compile_and_stores_nothing(tmp_path, monkeypatch):
    real = jobs_mod.compile_loop

    def slow(ddg, machine, **kwargs):
        time.sleep(1.0)
        return real(ddg, machine, **kwargs)

    monkeypatch.setattr(jobs_mod, "compile_loop", slow)
    root = tmp_path / "store"
    with ServeCluster(root=root, workers=1, timeout=0.2) as cluster:
        (result,) = cluster.run_jobs(_matrix()[:1])
    assert result.outcome is Outcome.TIMEOUT
    assert result.error_kind is ErrorKind.TIMEOUT
    assert list(root.rglob("*.pkl")) == []
