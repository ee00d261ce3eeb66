"""Compile jobs: the engine's unit of work, content-addressed.

A :class:`CompileJob` bundles everything :func:`repro.pipeline.driver.
compile_loop` needs for one (loop, machine, scheme, flags) cell, plus a
deterministic content hash. The hash is derived from the DDG's
canonical JSON form (:mod:`repro.ddg.io`) — not Python object identity
— so the same loop built twice, loaded from a file, or regenerated by
the deterministic suite generator hashes identically, while any change
to the graph, the machine string, the scheme, or any compile flag
produces a different key. :data:`ENGINE_SCHEMA_VERSION` is folded into
the hash so cached results are invalidated wholesale whenever the
result format (or compiler semantics worth a cold cache) changes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json

from repro.ddg import io as ddg_io
from repro.ddg.graph import Ddg
from repro.machine.config import (
    ConfigError,
    MachineConfig,
    parse_config,
    unified_machine,
)
from repro.pipeline.driver import (
    CompileError,
    CompileResult,
    Scheme,
    UnschedulableError,
    compile_loop,
)
from repro.sim.verifier import VerificationError, verify_kernel

#: Bump to invalidate every cached result (hash input + payload check).
#: v2: CompileResult gained the ``diagnostics`` payload (per-stage wall
#: time, attempt counts, II trajectory) from the pass-pipeline refactor.
#: v3: diagnostics gained the ``counters`` payload (incremental-evaluator
#: effort, lazy-length skip rate, analysis memo hit rate) from the
#: incremental refinement engine.
#: v4: diagnostics counters are namespaced per stage
#: (``partition.pseudo_evaluations``, …) and produced by the
#: ``repro.obs`` metrics registry instead of hand-merged dicts.
#: v5: counters gained the kernel-backend dispatch keys (``kernels.*``),
#: the incremental replicator's walk/reuse keys (``replicate.*``), the
#: schedule memo keys (``schedule.memo_*``) and the partition length-memo
#: and analysis-prefill keys from the vectorized/incremental engine.
#: v6: counters gained the per-move-kind partition keys
#: (``partition.moves.plain``, ``partition.moves.replicate``, their
#: accepted/rejected splits and ``partition.moves.replicas_surviving``)
#: from the replication-aware partitioning engine.
#: v7: a plan never lists a replica in the node's home cluster; a
#: removed original needed there again is revived instead, which
#: rewrites the plans of the cells that hit that case.
#: v8: counters lost every ``kernels.*`` key but ``python_calls`` and
#: ``numpy_calls``, and every ``schedule.memo_*`` key, when the NumPy
#: kernel backend and the cross-II schedule memo were deleted.
#: v9: an entry stores the decisions as plain built-in values (the DDG
#: as canonical JSON, node-indexed data by node position, the kernel as
#: ``(iid, start, bus)`` rows) instead of a pickled ``CompileResult``;
#: a load rebinds the caller's DDG and rebuilds the kernel from the
#: rows. Every kernel now passes the verifier before it is stored.
#: v10: diagnostics lost the partition attempt count (always
#: ``len(ii_trajectory)``) and the schedule attempt count (the
#: ``schedule.attempts`` counter holds it). Counters describe exactly
#: one compile, and the ``partition.refine_seconds`` key and the four
#: per-compile rates (``partition.lazy_skip_rate``,
#: ``partition.length_memo_hit_rate``,
#: ``partition.analysis_memo_hit_rate``,
#: ``replicate.rescore_skip_rate``) are gone.
#: v11: an entry's pickle sits behind its sha256 digest, checked before
#: anything is unpickled, so a damaged entry is a miss.
#: v12: an entry stores its job key, and a read under any other key
#: refuses it, so an intact entry at another key's path is a miss.
#: v13: diagnostics lost the per-stage wall time (the pass spans hold
#: it), so a worker's entry is a pure function of its job.
ENGINE_SCHEMA_VERSION = 13


@functools.lru_cache(maxsize=64)
def resolve_machine(name: str) -> MachineConfig:
    """Parse a machine config name, accepting ``"unified"``.

    Memoized per name: a :class:`MachineConfig` is frozen, and every
    cache hit names its machine. A bad name is not cached, so it raises
    :class:`~repro.machine.config.ConfigError` on every call.
    """
    if name == "unified":
        return unified_machine()
    return parse_config(name)


class Outcome(enum.Enum):
    """How a job ended."""

    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Outcome.{self.name}"


class ErrorKind(enum.Enum):
    """Why a non-OK job ended the way it did (the error taxonomy).

    ``UNSCHEDULABLE`` is a genuine result — the loop exhausted the II
    safety bound — while ``INVALID_INPUT`` flags a malformed cell (e.g.
    an empty loop) that should be fixed, not averaged over.
    ``ILLEGAL_KERNEL`` means the compiler produced a kernel the
    independent verifier rejects: a compiler bug, never cached.
    """

    NONE = ""
    UNSCHEDULABLE = "unschedulable"
    INVALID_INPUT = "invalid_input"
    TIMEOUT = "timeout"
    WORKER_DIED = "worker_died"
    INTERNAL = "internal"
    ILLEGAL_KERNEL = "illegal_kernel"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ErrorKind.{self.name}"


@dataclasses.dataclass(frozen=True)
class CompileJob:
    """One compilation cell: a DDG against a machine/scheme/flag tuple.

    Attributes:
        ddg: the loop body.
        machine: machine config name (``wcxbylzr`` or ``"unified"``).
        scheme: compiler variant — a :class:`Scheme` member or its
            value (both forms of one scheme hash identically). A name
            no member has ends the job ``INVALID_INPUT``.
        length_replication: run the section 5.1 pass as well.
        copy_latency_override: section 5.1's zero-latency upper bound.
        spare_comms: over-replication ablation knob (0 = paper).
        max_ii: II safety bound override (None = driver default).
        tag: free-form label carried through events and results
            (e.g. ``"su2cor/loop_17"``); not part of the hash.
    """

    ddg: Ddg
    machine: str
    scheme: Scheme | str
    length_replication: bool = False
    copy_latency_override: int | None = None
    spare_comms: int = 0
    max_ii: int | None = None
    tag: str = ""

    @property
    def scheme_key(self) -> str:
        """The scheme's name, its :class:`Scheme` value (hash- and
        wire-stable)."""
        return (
            self.scheme.value if isinstance(self.scheme, Scheme) else self.scheme
        )

    def _settings(self) -> dict:
        """The canonical payload without its DDG."""
        return {
            "schema": ENGINE_SCHEMA_VERSION,
            "machine": self.machine,
            "scheme": self.scheme_key,
            "flags": {
                "length_replication": self.length_replication,
                "copy_latency_override": self.copy_latency_override,
                "spare_comms": self.spare_comms,
                "max_ii": self.max_ii,
            },
        }

    def canonical_payload(self) -> dict:
        """JSON-ready dict that fully determines the compilation."""
        return {"ddg": ddg_io.to_dict(self.ddg), **self._settings()}

    def content_hash(self) -> str:
        """Deterministic sha256 hex digest of the canonical payload.

        The digest of ``json.dumps(canonical_payload(), sort_keys=True,
        separators=(",", ":"))``, fed in three parts so the DDG's text
        comes from the :func:`~repro.ddg.io.canonical_json` memo:
        ``"ddg"`` sorts before every settings key, so the payload's text
        is ``{"ddg":`` + the DDG's text + ``,`` + the settings' text
        without its opening brace.
        """
        settings = json.dumps(self._settings(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(b'{"ddg":')
        digest.update(ddg_io.canonical_json(self.ddg).encode("utf-8"))
        digest.update(b",")
        digest.update(settings[1:].encode("utf-8"))
        return digest.hexdigest()

    def to_wire(self) -> dict:
        """Pickle-friendly plain-dict form for cross-process submission."""
        return {**self.canonical_payload(), "tag": self.tag}

    @staticmethod
    def from_wire(payload: dict) -> "CompileJob":
        """Rebuild a job from :meth:`to_wire` output."""
        flags = payload["flags"]
        return CompileJob(
            ddg=ddg_io.from_dict(payload["ddg"]),
            machine=payload["machine"],
            scheme=payload["scheme"],
            length_replication=flags["length_replication"],
            copy_latency_override=flags["copy_latency_override"],
            spare_comms=flags["spare_comms"],
            max_ii=flags["max_ii"],
            tag=payload.get("tag", ""),
        )

    def execute(self) -> CompileResult:
        """Run the compilation in-process (raises :class:`CompileError`)."""
        return compile_loop(
            self.ddg,
            resolve_machine(self.machine),
            scheme=self.scheme,
            length_replication=self.length_replication,
            copy_latency_override=self.copy_latency_override,
            max_ii=self.max_ii,
            spare_comms=self.spare_comms,
        )


@dataclasses.dataclass
class JobResult:
    """Structured outcome of one job — never an exception.

    ``ERROR`` outcomes carry the :class:`CompileError` text so one
    unschedulable loop reports itself instead of aborting a sweep;
    ``TIMEOUT`` outcomes mean the per-job wall-clock budget expired.
    ``error_kind`` classifies the failure (II-bound exhaustion vs bad
    input vs infrastructure) so consumers need not parse the text.
    ``spans`` carries a pool worker's finished trace spans (wire dicts;
    empty unless ``REPRO_TRACE`` is on) back to the
    :class:`~repro.engine.executor.CompilePool`, which adopts them into
    the caller's trace (under the batch's ``engine.run_jobs`` span or
    serve's ``serve.job``) and empties the list. A pool worker's result
    crosses back without its ``result``: the compiled result travels as
    its store entry, which the pool decodes into ``result``
    (:func:`repro.engine.executor.accept_entry`).
    """

    key: str
    tag: str
    outcome: Outcome
    result: CompileResult | None = None
    error: str = ""
    error_kind: ErrorKind = ErrorKind.NONE
    duration: float = 0.0
    cached: bool = False
    spans: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when a :class:`CompileResult` is available."""
        return self.outcome is Outcome.OK and self.result is not None

    @property
    def ii(self) -> int | None:
        """Achieved II, when compiled."""
        return self.result.ii if self.ok else None


def run_job(job: CompileJob, key: str | None = None) -> JobResult:
    """Execute one job in-process, catching compile failures.

    Timeouts are the executor's concern; this helper converts
    :class:`CompileError` and a machine name that does not resolve
    (:class:`~repro.machine.config.ConfigError`) into a structured
    ``ERROR`` result, and runs
    :func:`~repro.sim.verifier.verify_kernel` on every kernel, so an
    illegal one ends as ``ILLEGAL_KERNEL`` and never reaches a cache.
    """
    if key is None:
        key = job.content_hash()
    try:
        result = job.execute()
    except UnschedulableError as exc:
        return JobResult(
            key=key,
            tag=job.tag,
            outcome=Outcome.ERROR,
            error=str(exc),
            error_kind=ErrorKind.UNSCHEDULABLE,
        )
    except (CompileError, ConfigError) as exc:
        return JobResult(
            key=key,
            tag=job.tag,
            outcome=Outcome.ERROR,
            error=str(exc),
            error_kind=ErrorKind.INVALID_INPUT,
        )
    try:
        verify_kernel(result.kernel)
    except VerificationError as exc:
        return JobResult(
            key=key,
            tag=job.tag,
            outcome=Outcome.ERROR,
            error=str(exc),
            error_kind=ErrorKind.ILLEGAL_KERNEL,
        )
    return JobResult(key=key, tag=job.tag, outcome=Outcome.OK, result=result)
