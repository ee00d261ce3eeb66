"""The cache's documented durability rules, under real concurrency.

The docstring of :mod:`repro.engine.cache` promises two things:

* writers land entries atomically (tmp file + ``os.replace``), so a
  reader never observes a torn entry — it sees a complete old copy, a
  complete new copy, or a miss;
* concurrent writers of the same key are last-writer-wins with either
  writer's bytes intact.

These tests exercise both with real processes hammering one store on
real disk — no monkeypatching, no fault injection. Each writer puts a
different compile result under the same key, so the entry on disk names
its writer by fingerprint. Readers take the entry file's raw bytes, so
a torn file shows up as bytes whose digest does not match or that do
not unpickle. A barrier lines the
processes up so writes and reads genuinely overlap.
"""

import hashlib
import multiprocessing
import pickle
import time

import pytest

from repro.engine.cache import ResultCache, decode_entry, unseal
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import ENGINE_SCHEMA_VERSION
from repro.machine.config import parse_config
from repro.pipeline.driver import Scheme, compile_loop
from repro.workloads.patterns import daxpy

KEY = hashlib.sha256(b"concurrency-test-key").hexdigest()


@pytest.fixture(scope="module")
def results():
    """Three distinguishable compile results, one per writer."""
    made = {
        writer: compile_loop(daxpy(), parse_config(machine), scheme=Scheme.BASELINE)
        for writer, machine in ((1, "2c1b2l64r"), (2, "4c1b2l64r"), (3, "2c2b4l64r"))
    }
    fingerprints = {result_fingerprint(result) for result in made.values()}
    assert len(fingerprints) == len(made)
    return made


def _entry_writer(results, root):
    """Which writer's result the entry on disk holds (None: no writer's)."""
    raw = ResultCache(root=root, enabled=True).path_for(KEY).read_bytes()
    stored = decode_entry(raw, KEY)  # must not raise: bytes are intact
    found = result_fingerprint(stored)
    for writer, result in results.items():
        if result_fingerprint(result) == found:
            return writer
    return None


def _writer(root, key, result, rounds, barrier):
    """Rewrite ``key`` with ``result`` as fast as possible."""
    cache = ResultCache(root=root, enabled=True)
    barrier.wait(timeout=60)
    for _ in range(rounds):
        cache.put(key, result)


def _reader(root, key, min_observed, deadline_s, queue, barrier):
    """Read ``key`` until enough observations land; report torn ones."""
    path = ResultCache(root=root, enabled=True).path_for(key)
    barrier.wait(timeout=60)
    deadline = time.monotonic() + deadline_s
    torn = 0
    observed = 0
    while observed < min_observed and time.monotonic() < deadline:
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            continue
        observed += 1
        try:
            envelope = pickle.loads(unseal(raw))
            if envelope.get("schema") != ENGINE_SCHEMA_VERSION:
                torn += 1
        except Exception:
            torn += 1
    queue.put((observed, torn))


def test_concurrent_same_key_writers_never_tear_readers(tmp_path, results):
    """Two processes rewrite one key while readers watch: no torn reads."""
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    barrier = context.Barrier(4)
    writers = [
        context.Process(
            target=_writer, args=(str(tmp_path), KEY, results[m], 400, barrier)
        )
        for m in (1, 2)
    ]
    readers = [
        context.Process(
            target=_reader, args=(str(tmp_path), KEY, 200, 30.0, queue, barrier)
        )
        for _ in range(2)
    ]
    for process in writers + readers:
        process.start()
    for process in writers + readers:
        process.join(timeout=120)
        assert process.exitcode == 0
    total_observed = 0
    for _ in readers:
        observed, torn = queue.get(timeout=10)
        assert torn == 0, "a reader observed a torn / mid-write entry"
        total_observed += observed
    assert total_observed > 0, "readers never saw the entry at all"


def test_last_writer_wins_with_intact_bytes(tmp_path, results):
    """After the dust settles the entry is exactly one writer's bytes."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    writers = [
        context.Process(
            target=_writer, args=(str(tmp_path), KEY, results[m], 100, barrier)
        )
        for m in (1, 2)
    ]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
        assert process.exitcode == 0
    assert _entry_writer(results, tmp_path) in (1, 2)


def test_no_temp_files_survive_the_stampede(tmp_path, results):
    """The write path cleans up its tmp files even under contention."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(3)
    writers = [
        context.Process(
            target=_writer, args=(str(tmp_path), KEY, results[m], 50, barrier)
        )
        for m in (1, 2, 3)
    ]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
        assert process.exitcode == 0
    assert list(tmp_path.rglob("*.tmp")) == []
    # and the surviving entry is one of the writers', intact
    assert _entry_writer(results, tmp_path) in (1, 2, 3)
