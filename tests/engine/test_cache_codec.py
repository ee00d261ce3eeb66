"""The result store's compact entries: decisions in, equal results out.

An entry holds plain values only. A load binds the caller's DDG (or
parses the stored one) and rebuilds the kernel from the stored rows.
These tests hold loaded results to fresh compiles across schemes and
machines, pin the one build per load, the recompile of an entry whose
rows do not fit, and the position-based node mapping, plant an entry
that would run code, and fuzz the entry bytes. Tests that hand-damage
a body seal it again with a correct digest, so the damage reaches the
decoder's own validation instead of the checksum.
"""

import dataclasses
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import cache as cache_mod
from repro.engine.cache import (
    CacheEntryError,
    ResultCache,
    decode_entry,
    encode_entry,
    seal,
    unseal,
)
from repro.engine.executor import EngineConfig, run_jobs
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import ENGINE_SCHEMA_VERSION, CompileJob, run_job
from repro.machine.resources import OpClass
from repro.pipeline.driver import Scheme
from repro.sim import simulate, verify_kernel
from repro.workloads.patterns import daxpy, dot_product, stencil5
from repro.workloads.specfp import benchmark_loops

MACHINES = ("2c1b2l64r", "4c1b2l64r", "4c2b4l64r")

#: Every built-in scheme, plus the two section 5.1 variants.
VARIANTS = {
    "baseline": {"scheme": Scheme.BASELINE},
    "replication": {"scheme": Scheme.REPLICATION},
    "repl-part": {"scheme": "repl-part"},
    "macro_replication": {"scheme": Scheme.MACRO_REPLICATION},
    "value_cloning": {"scheme": Scheme.VALUE_CLONING},
    "length_replication": {"scheme": Scheme.REPLICATION, "length_replication": True},
    "zero_copy_latency": {"scheme": Scheme.REPLICATION, "copy_latency_override": 0},
}


def _suite_loop(benchmark):
    return lambda: benchmark_loops(benchmark, limit=1)[0].ddg


LOOPS = {
    "daxpy": daxpy,
    "dot_product": dot_product,
    "stencil5": stencil5,
    "tomcatv_0": _suite_loop("tomcatv"),
    "su2cor_0": _suite_loop("su2cor"),
    "hydro2d_0": _suite_loop("hydro2d"),
    "mgrid_0": _suite_loop("mgrid"),
}

ITERATIONS = 12


def _shifted_daxpy():
    """daxpy with a node added and its first node removed: uids 1..8."""
    ddg = daxpy()
    extra = ddg.add_node("k", OpClass.INT_ARITH)
    ddg.add_edge(extra, ddg.node_by_name("addr_x"))
    ddg.remove_node(ddg.node_by_name("i"))
    return ddg


@pytest.fixture
def store(tmp_path):
    return ResultCache(root=tmp_path / "store", enabled=True)


@pytest.fixture
def builds(monkeypatch):
    """Counts the placed-graph builds the codec makes."""
    calls = []
    real = cache_mod.build_placed_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "build_placed_graph", counting)
    return calls


def _stored(store, ddg, machine="4c1b2l64r", **variant):
    """Compile one cell into ``store``; returns (job, key, fresh result)."""
    job = CompileJob(ddg=ddg, machine=machine, **(variant or VARIANTS["replication"]))
    fresh = run_job(job)
    assert fresh.ok, fresh.error
    key = job.content_hash()
    store.put(key, fresh.result)
    return job, key, fresh.result


class TestRoundTrip:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("loop", LOOPS)
    def test_loaded_result_matches_fresh_compile(self, store, loop, machine, variant):
        ddg = LOOPS[loop]()
        job, key, fresh = _stored(store, ddg, machine, **VARIANTS[variant])
        expected = simulate(fresh.kernel, ITERATIONS).cycles
        for loaded in (store.get(key, ddg=job.ddg), store.get(key)):
            assert result_fingerprint(loaded) == result_fingerprint(fresh)
            verify_kernel(loaded.kernel)
            assert simulate(loaded.kernel, ITERATIONS).cycles == expected
            assert loaded.kernel.length == fresh.kernel.length
            assert loaded.kernel.stage_count == fresh.kernel.stage_count
            assert loaded.kernel.n_copy_ops() == fresh.kernel.n_copy_ops()

    def test_bound_ddg_is_the_callers(self, store):
        job, key, _ = _stored(store, daxpy())
        assert store.get(key, ddg=job.ddg).partition.ddg is job.ddg
        parsed = store.get(key).partition.ddg
        assert parsed is not job.ddg and len(parsed) == len(job.ddg)

    def test_diagnostics_survive(self, store):
        _, key, fresh = _stored(store, stencil5())
        loaded = store.get(key)
        assert loaded.diagnostics == fresh.diagnostics

    @pytest.mark.parametrize("variant", ("baseline", "replication", "repl-part"))
    @pytest.mark.parametrize("loop", LOOPS)
    def test_entry_bytes_equal_an_asdict_encoding(self, loop, variant):
        """The diagnostics dict is built by hand; the bytes are those an
        encoder using ``dataclasses.asdict`` writes, so stores filled
        with either replay on the other."""
        job = CompileJob(ddg=LOOPS[loop](), machine="4c1b2l64r", **VARIANTS[variant])
        result = run_job(job).result
        assert result.diagnostics.counters and result.diagnostics.ii_trajectory
        raw = encode_entry(result, job.content_hash())
        entry = pickle.loads(unseal(raw))
        entry["diagnostics"] = dataclasses.asdict(result.diagnostics)
        assert seal(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)) == raw


def _damage(store, key, change):
    """Rewrite ``key``'s entry with ``change(entry)`` applied and sealed
    again; returns the entry's path and its new bytes."""
    path = store.path_for(key)
    entry = pickle.loads(unseal(path.read_bytes()))
    change(entry)
    raw = seal(pickle.dumps(entry))
    path.write_bytes(raw)
    return path, raw


def _drop_last_row(entry):
    """Rows that pass decode's own checks but miss one placed instance."""
    last = len(entry["rows"]) - 1
    entry["rows"] = tuple(row for row in entry["rows"] if row[0] != last)


def _duplicate_a_replica(entry):
    """A replica in node 0's own home cluster duplicates its original."""
    entry["replicas"] = [(0, (entry["clusters"][0],))]
    entry["removed"] = []


class TestRebuiltKernel:
    def test_a_load_builds_the_kernel_once(self, store, builds):
        job, key, _ = _stored(store, stencil5())
        loaded = store.get(key, ddg=job.ddg)
        assert len(builds) == 1
        assert loaded.kernel is loaded.kernel
        assert len(loaded.kernel.ops) == len(loaded.kernel.graph)
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "change, error",
        [
            (_drop_last_row, "placed instances"),
            (_duplicate_a_replica, "does not place"),
        ],
    )
    def test_an_entry_whose_kernel_does_not_build_is_a_miss(
        self, store, change, error
    ):
        _, key, _ = _stored(store, daxpy())
        path, raw = _damage(store, key, change)
        with pytest.raises(CacheEntryError, match=error):
            decode_entry(raw, key)
        assert store.get(key) is None
        assert not path.exists()

    def test_run_jobs_recompiles_an_entry_missing_a_row(self, store):
        job = CompileJob(ddg=daxpy(), machine="4c1b2l64r", scheme=Scheme.REPLICATION)
        config = EngineConfig(jobs=1, cache=store)
        (first,) = run_jobs([job], config)
        _damage(store, first.key, _drop_last_row)
        (again,) = run_jobs([job], config)
        assert again.ok and not again.cached
        assert result_fingerprint(again.result) == result_fingerprint(first.result)
        assert store.stats().evicted_corrupt == 1
        (replayed,) = run_jobs([job], config)
        assert replayed.cached
        assert result_fingerprint(replayed.result) == result_fingerprint(first.result)


class TestNodePositions:
    def test_noncontiguous_uids_bind_the_callers_nodes(self, store):
        """Workers renumber uids from 0; the load maps back by position."""
        ddg = _shifted_daxpy()
        assert list(ddg.node_ids()) == list(range(1, 9))
        job = CompileJob(ddg=ddg, machine="4c1b2l64r", scheme=Scheme.REPLICATION)
        other = CompileJob(ddg=daxpy(), machine="4c1b2l64r", scheme=Scheme.BASELINE)
        pooled = run_jobs([job, other], EngineConfig(jobs=2, cache=store))
        assert all(result.ok and not result.cached for result in pooled)
        loaded = store.get(job.content_hash(), ddg=ddg)
        assert set(loaded.partition.assignment()) == set(ddg.node_ids())
        assert all(uid in ddg for uid in loaded.plan.replicas)
        fresh = run_job(job).result
        assert loaded.partition.assignment() == fresh.partition.assignment()
        assert result_fingerprint(loaded) == result_fingerprint(fresh)

    def test_fingerprint_ignores_uid_numbering(self):
        """In-process and pool compiles of one job fingerprint alike."""
        job = CompileJob(
            ddg=_shifted_daxpy(), machine="4c1b2l64r", scheme=Scheme.REPLICATION
        )
        off = ResultCache(enabled=False)
        inline = run_jobs([job], EngineConfig(jobs=1, cache=off))[0]
        pooled = run_jobs([job], EngineConfig(jobs=2, cache=off))[0]
        assert inline.result.kernel.rows() == pooled.result.kernel.rows()
        assert result_fingerprint(inline.result) == result_fingerprint(pooled.result)


PLANTED_CALLS = []


def _planted_call(*args):
    PLANTED_CALLS.append(args)


class _Planted:
    def __reduce__(self):
        return _planted_call, ("ran",)


class TestUntrustedBytes:
    def test_planted_entry_never_runs(self, store):
        key = CompileJob(
            ddg=daxpy(), machine="4c1b2l64r", scheme=Scheme.REPLICATION
        ).content_hash()
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            seal(pickle.dumps({"schema": ENGINE_SCHEMA_VERSION, "result": _Planted()}))
        )
        assert store.get(key) is None
        assert PLANTED_CALLS == []
        assert not path.exists()

    def test_decode_refuses_any_global(self):
        with pytest.raises(pickle.UnpicklingError, match="no globals"):
            decode_entry(seal(pickle.dumps(OpClass.LOAD)), "0" * 64)


@pytest.fixture(scope="module")
def entries():
    """Two cells' entry bytes, the first's key and its caller DDG."""
    made = []
    for ddg in (daxpy(), stencil5()):
        job = CompileJob(ddg=ddg, machine="4c1b2l64r", scheme=Scheme.REPLICATION)
        made.append((job, encode_entry(run_job(job).result, job.content_hash())))
    (job, first), (_, second) = made
    return job.content_hash(), job.ddg, first, second


@st.composite
def damaged(draw, first: bytes, second: bytes) -> bytes:
    """A truncation, byte flips, or a splice of two entries."""
    kind = draw(st.sampled_from(("truncate", "flip", "splice")))
    if kind == "truncate":
        return first[: draw(st.integers(0, len(first) - 1))]
    if kind == "flip":
        raw = bytearray(first)
        for _ in range(draw(st.integers(1, 4))):
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return bytes(raw)
    return first[: draw(st.integers(0, len(first)))] + second[
        draw(st.integers(0, len(second))) :
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bind=st.booleans())
def test_damaged_entry_misses_or_loads(entries, data, bind):
    """Damaged bytes never load: each is a miss that removes the file,
    refused by the checksum before anything is unpickled. A splice can
    rebuild either entry intact; those bytes are not damaged, so they
    are not drawn."""
    key, ddg, first, second = entries
    intact = (first, second)
    raw = data.draw(damaged(first, second).filter(lambda raw: raw not in intact))
    with pytest.raises(CacheEntryError, match="checksum"):
        decode_entry(raw, key)
    with tempfile.TemporaryDirectory() as root:
        store = ResultCache(root=root, enabled=True)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        assert store.get(key, ddg=ddg if bind else None) is None
        assert not path.exists()
