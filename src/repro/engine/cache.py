"""Persistent content-addressed store for compilation results.

Entries live under a two-level fan-out (``<root>/<key[:2]>/<key>.pkl``)
keyed by :meth:`repro.engine.jobs.CompileJob.content_hash`. The schema
version is both folded into the key and stored in the entry, so stale
formats simply miss.

Entry format
------------
An entry stores the compiler's decisions, not its objects: one pickled
dict made only of built-in values (str, int, float, bool, None, and
lists, tuples and dicts of them), behind the 32-byte sha256 digest of
the pickle (:func:`seal`). :func:`encode_entry` writes it and
:func:`decode_entry` reads it; there is no other layout. Its keys:

* ``schema``: :data:`~repro.engine.jobs.ENGINE_SCHEMA_VERSION`;
* ``key``: the job key the entry was stored under;
* ``ddg``: the loop, as one string: :func:`repro.ddg.io.canonical_json`,
  the text the job key hashes;
* ``machine`` (the name :func:`~repro.engine.jobs.resolve_machine`
  parses), ``scheme``, ``mii``, ``ii`` and ``causes``;
* ``clusters``: each node's cluster, and ``replicas``, ``removed`` and
  ``removed_comms``: the plan's node sets, with ``initial_coms`` and
  ``feasible``. Nodes are named by *position* in the DDG's node order
  (the order ``to_dict`` writes and ``from_dict`` restores), never by
  uid: a worker's rebuilt DDG numbers its nodes from 0, while the
  caller's may not;
* ``rows``: the kernel, as ``(iid, start, bus)`` rows in the order of
  ``Kernel.ops``;
* ``copy_latency_override`` and ``diagnostics``.

The same bytes are the process pool's wire: a worker encodes its
verified result, and the parent decodes them against the job's own DDG
(the decode a hit makes) and stores them unchanged with
:meth:`ResultCache.put_entry` (see :mod:`repro.engine.executor`).

DDG binding and the rebuilt kernel
----------------------------------
A read names the key it expects, and an entry stored under any other
key is refused: a file copied or written to another key's path is a
miss, on a key-only lookup too. ``get(key, ddg)`` binds the DDG it is
given, which the key guarantees is the stored one: node positions map
back through its ``node_ids()``. Without one (a key-only lookup), the
stored JSON is parsed. Decoding checks what the entry says on its own
(row shape, iids ``0..k-1``, starts and buses in range, the
partition's cover and cluster range), then rebuilds the placed graph with
:func:`~repro.schedule.placed.build_placed_graph`, a pure function of
DDG, partition, machine and plan, and binds the stored rows to its
instances. A plan that does not place, or rows that do not cover
exactly the rebuilt instances, raise :class:`CacheEntryError`; so the
:class:`~repro.pipeline.driver.CompileResult` a hit returns always has
its kernel.

Reading runs no code from the file, and reads no damaged bytes: the
digest is checked before anything is unpickled (:func:`unseal`), so a
flipped bit or a torn write is refused before it can decode to other
decisions. The pickle is then read by an unpickler that refuses every
global (:class:`_EntryUnpickler`), so a planted pickle that would
construct an object or call a function is refused before it can. A
refused entry, like any entry that fails to decode, is a miss.

Durability rules:

* **atomic writes**: payloads land in a same-directory temp file and
  are ``os.replace``d into place, so readers never observe a torn
  entry and concurrent writers of the same key are last-writer-wins
  with either writer's bytes intact;
* **corruption-tolerant reads**: any failure to read or decode an
  entry (truncation, garbage, a checksum mismatch, wrong schema,
  another key's entry, a refused global, a validation failure) is a
  cache *miss*, never a crash; the bad file is best-effort deleted so
  it is rebuilt.

``REPRO_CACHE_DIR`` overrides the default location (which is
``$XDG_CACHE_HOME/repro-engine`` when ``XDG_CACHE_HOME`` is set, else
``~/.cache/repro-engine``); ``REPRO_CACHE=off|0|false`` disables the
store (every lookup misses, writes are dropped).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pathlib
import pickle
import tempfile

from repro.core.plan import ReplicationPlan
from repro.ddg import io as ddg_io
from repro.ddg.graph import Ddg
from repro.engine.jobs import ENGINE_SCHEMA_VERSION, resolve_machine
from repro.machine.config import MachineConfig
from repro.partition.partition import Partition
from repro.pipeline.driver import CompileDiagnostics, CompileResult, Scheme
from repro.schedule.kernel import Kernel, ScheduledOp
from repro.schedule.placed import PlacementError, build_placed_graph
from repro.schedule.scheduler import FailureCause


#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache (``off``/``0``/``false``).
CACHE_SWITCH_ENV = "REPRO_CACHE"

_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})

#: Length of the sha256 digest in front of every entry's pickle.
_DIGEST_BYTES = hashlib.sha256().digest_size


def cache_enabled() -> bool:
    """Whether the persistent cache is on (per ``REPRO_CACHE``)."""
    return os.environ.get(CACHE_SWITCH_ENV, "").strip().lower() not in _OFF_VALUES


def cache_root() -> pathlib.Path:
    """Configured cache directory.

    Resolution order: ``REPRO_CACHE_DIR`` (explicit override), then
    ``$XDG_CACHE_HOME/repro-engine`` (the XDG base-directory spec),
    then ``~/.cache/repro-engine``.
    """
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return pathlib.Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        return pathlib.Path(xdg).expanduser() / "repro-engine"
    return pathlib.Path.home() / ".cache" / "repro-engine"


class CacheEntryError(ValueError):
    """A stored entry does not describe a result for the bound DDG."""


class _EntryUnpickler(pickle.Unpickler):
    """Unpickler for entries: plain built-in values only, no globals."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(
            f"cache entries hold no globals; refused {module}.{name}"
        )


def seal(body: bytes) -> bytes:
    """``body`` behind its sha256 digest: the bytes a store file holds."""
    return hashlib.sha256(body).digest() + body


def unseal(raw: bytes) -> bytes:
    """The body :func:`seal` wrapped in ``raw``.

    Raises:
        CacheEntryError: the digest does not match the body.
    """
    digest, body = raw[:_DIGEST_BYTES], raw[_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise CacheEntryError("entry checksum mismatch")
    return body


def encode_entry(result: CompileResult, key: str) -> bytes:
    """The store's bytes for ``result`` under job ``key`` (see the
    module docstring)."""
    ddg = result.partition.ddg
    uids = list(ddg.node_ids())
    position = {uid: index for index, uid in enumerate(uids)}
    plan = result.plan
    kernel = result.kernel
    diagnostics = result.diagnostics
    entry = {
        "schema": ENGINE_SCHEMA_VERSION,
        "key": key,
        "ddg": ddg_io.canonical_json(ddg),
        "machine": kernel.machine.name,
        "scheme": result.scheme_name,
        "mii": result.mii,
        "ii": result.ii,
        "causes": [cause.value for cause in result.causes],
        "clusters": [result.partition.cluster_of(uid) for uid in uids],
        "replicas": sorted(
            (position[uid], tuple(sorted(clusters)))
            for uid, clusters in plan.replicas.items()
        ),
        "removed": sorted(position[uid] for uid in plan.removed),
        "removed_comms": sorted(position[uid] for uid in plan.removed_comms),
        "initial_coms": plan.initial_coms,
        "feasible": plan.feasible,
        "rows": tuple((iid, op.start, op.bus) for iid, op in kernel.ops.items()),
        "copy_latency_override": kernel.copy_latency_override,
        # Built by hand: ``dataclasses.asdict`` deep-copies every value,
        # which is most of an encode. The pickled bytes are the same.
        "diagnostics": (
            None
            if diagnostics is None
            else {
                "stage_seconds": dict(diagnostics.stage_seconds),
                "ii_trajectory": list(diagnostics.ii_trajectory),
                "counters": dict(diagnostics.counters),
            }
        ),
    }
    return seal(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))


def _index(value, bound: int, what: str) -> int:
    """``value``, checked to be an int in ``range(bound)``."""
    if type(value) is not int or not 0 <= value < bound:
        raise CacheEntryError(f"{what} {value!r} out of range")
    return value


def _check_rows(rows, machine: MachineConfig) -> None:
    """Rows are ``(iid, start, bus)`` triples whose iids are ``0..k-1``."""
    if type(rows) is not tuple or not all(
        type(row) is tuple and len(row) == 3 for row in rows
    ):
        raise CacheEntryError("kernel rows are not (iid, start, bus) triples")
    if sorted(iid for iid, _, _ in rows) != list(range(len(rows))):
        raise CacheEntryError("kernel row iids are not 0..k-1")
    for iid, start, bus in rows:
        if type(start) is not int or start < 0:
            raise CacheEntryError(f"kernel row {iid} starts at {start!r}")
        if bus is not None:
            _index(bus, machine.bus.count, "bus")


def decode_entry(raw: bytes, key: str, ddg: Ddg | None = None) -> CompileResult:
    """The result stored as ``raw`` for job ``key``, bound to ``ddg``
    (see module docstring).

    Raises:
        CacheEntryError: a checksum mismatch, a stale schema, an entry
            stored under another key, or an entry that fails
            validation, including rows that do not cover the rebuilt
            placed graph.
        pickle.UnpicklingError: a sealed body that is no pickle, or that
            names a global.
        Exception: anything else a sealed but malformed body provokes
            while it is read; :meth:`ResultCache.get` treats every
            failure as a miss.
    """
    entry = _EntryUnpickler(io.BytesIO(unseal(raw))).load()
    if not isinstance(entry, dict) or entry.get("schema") != ENGINE_SCHEMA_VERSION:
        raise CacheEntryError("stale or malformed cache entry")
    if entry.get("key") != key:
        raise CacheEntryError("entry belongs to another job key")
    if ddg is None:
        ddg = ddg_io.from_dict(json.loads(entry["ddg"]))
    machine = resolve_machine(entry["machine"])
    uids = list(ddg.node_ids())
    clusters = entry["clusters"]
    if len(clusters) != len(uids):
        raise CacheEntryError(
            f"{len(clusters)} stored clusters for {len(uids)} DDG nodes"
        )
    partition = Partition(ddg, dict(zip(uids, clusters)), machine.n_clusters)
    nodes = len(uids)
    plan = ReplicationPlan(
        replicas={
            uids[_index(index, nodes, "node")]: frozenset(
                _index(cluster, machine.n_clusters, "cluster") for cluster in homes
            )
            for index, homes in entry["replicas"]
        },
        removed=frozenset(uids[_index(i, nodes, "node")] for i in entry["removed"]),
        removed_comms=frozenset(
            uids[_index(i, nodes, "node")] for i in entry["removed_comms"]
        ),
        initial_coms=entry["initial_coms"],
        feasible=entry["feasible"],
    )
    mii, ii = entry["mii"], entry["ii"]
    if not (type(mii) is int and type(ii) is int and 1 <= mii <= ii):
        raise CacheEntryError(f"bad MII/II {mii!r}/{ii!r}")
    rows = entry["rows"]
    _check_rows(rows, machine)
    try:
        graph = build_placed_graph(ddg, partition, machine, plan)
    except PlacementError as exc:
        raise CacheEntryError(f"stored plan does not place: {exc}") from exc
    # Rows are iids 0..k-1 and the graph numbers its own instances from
    # 0, so equal counts mean equal iid sets.
    if len(graph) != len(rows):
        raise CacheEntryError(
            f"{len(rows)} kernel rows for {len(graph)} placed instances"
        )
    instance = graph.instance
    kernel = Kernel(
        graph=graph,
        machine=machine,
        ii=ii,
        ops={
            iid: ScheduledOp(instance(iid), start, bus) for iid, start, bus in rows
        },
        copy_latency_override=entry["copy_latency_override"],
    )
    diagnostics = entry["diagnostics"]
    return CompileResult(
        kernel=kernel,
        partition=partition,
        plan=plan,
        mii=mii,
        ii=ii,
        causes=[FailureCause(cause) for cause in entry["causes"]],
        scheme=Scheme(entry["scheme"]),
        diagnostics=(
            None if diagnostics is None else CompileDiagnostics(**diagnostics)
        ),
    )


@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance plus disk usage."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evicted_corrupt: int = 0
    entries: int = 0
    total_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.hits}/{self.lookups} hits ({100.0 * self.hit_rate:.1f}%), "
            f"{self.writes} writes, {self.entries} entries on disk "
            f"({self.total_bytes / 1024:.0f} KiB)"
        )


class ResultCache:
    """On-disk content-addressed store of :class:`CompileResult`.

    Args:
        root: cache directory (default: :func:`cache_root`).
        enabled: force on/off (default: :func:`cache_enabled`).
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else cache_root()
        self.enabled = cache_enabled() if enabled is None else enabled
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evicted = 0

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path for a content hash."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str, ddg: Ddg | None = None) -> CompileResult | None:
        """Stored result for ``key``, or None (miss, never a crash).

        ``ddg`` is the loop of the job whose key this is; the result
        binds it instead of parsing the stored copy. Without it the
        stored copy is parsed, so a lookup by key alone still works.
        """
        if not self.enabled:
            self._misses += 1
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            result = decode_entry(raw, key, ddg)
        except FileNotFoundError:
            self._misses += 1
            return None
        except Exception:
            # Torn write, flipped bits, schema drift, another key's entry,
            # a refused global: treat as a miss and drop the entry so the
            # next run rebuilds it.
            self._misses += 1
            self._evicted += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._hits += 1
        return result

    def put(self, key: str, result: CompileResult) -> None:
        """Persist a result atomically (see :meth:`put_entry`)."""
        if self.enabled:
            self.put_entry(key, encode_entry(result, key))

    def put_entry(self, key: str, raw: bytes) -> None:
        """Persist :func:`encode_entry` bytes for ``key`` atomically
        (tmp file + rename). A pool worker's entry is stored this way,
        unchanged."""
        if not self.enabled:
            return
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(raw)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk degrades to "no cache", silently:
            # compilation results are always recomputable.
            return
        self._writes += 1

    def stats(self) -> CacheStats:
        """Current counters plus a disk scan of entries/bytes."""
        entries = 0
        total = 0
        if self.enabled and self.root.is_dir():
            for path in self.root.glob("*/*.pkl"):
                try:
                    total += path.stat().st_size
                    entries += 1
                except OSError:
                    continue
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            evicted_corrupt=self._evicted,
            entries=entries,
            total_bytes=total,
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


_DEFAULT: ResultCache | None = None


def default_cache() -> ResultCache:
    """Process-wide shared cache (counters accumulate per process).

    The instance is created on first use from the environment; tests
    that monkeypatch ``REPRO_CACHE_DIR``/``REPRO_CACHE`` should build
    their own :class:`ResultCache` or call :func:`reset_default_cache`.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ResultCache()
    return _DEFAULT


def reset_default_cache() -> None:
    """Forget the shared instance (re-read env on next use)."""
    global _DEFAULT
    _DEFAULT = None
