"""The persistent content-addressed result store."""

import pathlib
import pickle

import pytest

from repro.engine import cache as cache_mod
from repro.engine.cache import CacheStats, ResultCache, cache_enabled, cache_root
from repro.engine.jobs import CompileJob, run_job
from repro.pipeline.driver import Scheme
from repro.workloads.patterns import daxpy, stencil5


@pytest.fixture
def store(tmp_path):
    return ResultCache(root=tmp_path / "cache", enabled=True)


@pytest.fixture
def compiled():
    job = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.REPLICATION)
    return job.content_hash(), run_job(job).result


class TestRoundTrip:
    def test_preserves_result_metrics(self, store, compiled):
        key, result = compiled
        store.put(key, result)
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.ii == result.ii
        assert loaded.mii == result.mii
        assert loaded.causes == result.causes
        assert loaded.scheme is result.scheme
        assert loaded.kernel.length == result.kernel.length
        assert loaded.kernel.stage_count == result.kernel.stage_count

    def test_missing_key_is_miss(self, store):
        assert store.get("0" * 64) is None

    def test_no_temp_files_left_behind(self, store, compiled):
        key, result = compiled
        store.put(key, result)
        leftovers = [
            p for p in store.root.rglob("*") if p.is_file() and p.suffix != ".pkl"
        ]
        assert leftovers == []


class TestCorruptionTolerance:
    def test_garbage_bytes_are_a_miss(self, store, compiled):
        key, result = compiled
        store.put(key, result)
        store.path_for(key).write_bytes(b"not a pickle at all")
        assert store.get(key) is None
        # ... and the bad entry was evicted so it can be rebuilt.
        assert not store.path_for(key).exists()

    def test_truncated_pickle_is_a_miss(self, store, compiled):
        key, result = compiled
        store.put(key, result)
        blob = store.path_for(key).read_bytes()
        store.path_for(key).write_bytes(blob[: len(blob) // 2])
        assert store.get(key) is None

    def test_flipped_bit_is_refused_before_unpickling(self, store, compiled):
        key, result = compiled
        store.put(key, result)
        raw = bytearray(store.path_for(key).read_bytes())
        raw[-2] ^= 1
        with pytest.raises(cache_mod.CacheEntryError, match="checksum"):
            cache_mod.decode_entry(bytes(raw), key)
        store.path_for(key).write_bytes(bytes(raw))
        assert store.get(key) is None
        assert not store.path_for(key).exists()

    def test_wrong_schema_is_a_miss(self, store, compiled):
        key, result = compiled
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(cache_mod.seal(pickle.dumps({"schema": -1, "result": 0})))
        with pytest.raises(cache_mod.CacheEntryError, match="stale"):
            cache_mod.decode_entry(path.read_bytes(), key)
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "stale_schema", range(1, cache_mod.ENGINE_SCHEMA_VERSION)
    )
    def test_previous_schema_version_is_a_clean_miss(
        self, store, compiled, stale_schema
    ):
        """Entries written under ANY earlier schema — v1 (pre-
        diagnostics) through v12, each written here as a pickled
        ``CompileResult`` without the digest v11 put in front — must
        read as misses and be evicted, never deserialised as-if
        current."""
        key, result = compiled
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stale = pickle.dumps({"schema": stale_schema, "result": result})
        path.write_bytes(stale)
        assert store.get(key) is None
        assert not path.exists()
        # A fresh put under the current schema then hits normally.
        store.put(key, result)
        assert store.get(key) is not None

    def test_current_layout_under_the_previous_schema_is_a_miss(
        self, store, compiled
    ):
        """A well-formed entry whose schema field is one behind is
        refused by the schema check itself, and evicted."""
        key, result = compiled
        entry = pickle.loads(cache_mod.unseal(cache_mod.encode_entry(result, key)))
        entry["schema"] = cache_mod.ENGINE_SCHEMA_VERSION - 1
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(cache_mod.seal(pickle.dumps(entry)))
        with pytest.raises(cache_mod.CacheEntryError, match="stale"):
            cache_mod.decode_entry(path.read_bytes(), key)
        assert store.get(key) is None
        assert not path.exists()

    def test_entry_under_another_key_is_a_miss(self, store):
        """An intact entry copied to another job's path is refused by a
        key-only and a DDG-bound lookup alike, and removed."""
        mine, theirs = (
            CompileJob(ddg=ddg, machine="2c1b2l64r", scheme=Scheme.REPLICATION)
            for ddg in (daxpy(), stencil5())
        )
        key, other = mine.content_hash(), theirs.content_hash()
        store.put(other, run_job(theirs).result)
        raw = store.path_for(other).read_bytes()
        path = store.path_for(key)
        for bound in (None, mine.ddg):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(raw)
            assert store.get(key, ddg=bound) is None
            assert not path.exists()
        assert store.get(other) is not None
        with pytest.raises(cache_mod.CacheEntryError, match="another job key"):
            cache_mod.decode_entry(raw, key)

    def test_non_result_payload_is_a_miss(self, store, compiled):
        key, _ = compiled
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        bogus = pickle.dumps({"schema": 1, "result": "bogus"})
        path.write_bytes(cache_mod.seal(bogus))
        assert store.get(key) is None


class TestEnvironmentKnobs:
    def test_cache_off_switch(self, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_SWITCH_ENV, "off")
        assert not cache_enabled()

    def test_cache_on_by_default(self, monkeypatch):
        monkeypatch.delenv(cache_mod.CACHE_SWITCH_ENV, raising=False)
        assert cache_enabled()

    def test_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(tmp_path / "x"))
        assert cache_root() == tmp_path / "x"

    def test_xdg_cache_home_honored(self, monkeypatch, tmp_path):
        monkeypatch.delenv(cache_mod.CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cache_root() == tmp_path / "xdg" / "repro-engine"

    def test_explicit_override_beats_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(tmp_path / "explicit"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cache_root() == tmp_path / "explicit"

    def test_home_fallback_without_xdg(self, monkeypatch):
        monkeypatch.delenv(cache_mod.CACHE_DIR_ENV, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        root = cache_root()
        assert root == pathlib.Path.home() / ".cache" / "repro-engine"

    def test_blank_xdg_is_ignored(self, monkeypatch):
        monkeypatch.delenv(cache_mod.CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "  ")
        assert cache_root() == pathlib.Path.home() / ".cache" / "repro-engine"

    def test_disabled_store_never_stores(self, tmp_path, compiled):
        key, result = compiled
        disabled = ResultCache(root=tmp_path, enabled=False)
        disabled.put(key, result)
        assert disabled.get(key) is None
        assert list(tmp_path.rglob("*.pkl")) == []


class TestStats:
    def test_counters_and_disk_scan(self, store, compiled):
        key, result = compiled
        assert store.get(key) is None  # miss
        store.put(key, result)
        assert store.get(key) is not None  # hit
        stats = store.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.writes == 1
        assert stats.entries == 1 and stats.total_bytes > 0
        assert stats.lookups == 2 and stats.hit_rate == 0.5
        assert "50.0%" in stats.summary()

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0 and stats.lookups == 0

    def test_clear_removes_entries(self, store, compiled):
        key, result = compiled
        store.put(key, result)
        assert store.clear() == 1
        assert store.get(key) is None
