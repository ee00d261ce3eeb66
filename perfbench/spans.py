"""In-memory spans that the benchmark wraps around calls into each layer.

Nothing under ``src/`` is instrumented for this. The traced run replaces
the attributes listed in :data:`WINDOW_CALLS` with timing wrappers for
the length of one phase and puts the originals back afterwards. A span
records its name, start, end, parent and the id of the job it belongs
to. Spans stay in per-thread lists in memory and are written out once,
when the run ends.

A span's *self time* is its duration minus the time its child spans
cover. Summed over the spans of one thread, self times telescope to the
time that thread spent inside top-level spans, so ``wall - sum(self)``
is the part of a phase no layer accounts for.

Collector pauses are observed through :data:`gc.callbacks` and charged,
as an overlay, to the innermost span open when the pause began. They
are already part of that span's self time: the overlay says how much of
a layer's time was collector work, it does not add to it.
"""

from __future__ import annotations

import collections
import gc
import gzip
import importlib
import itertools
import json
import threading
import time

#: (module, attribute path, span name) of the engine calls made by the
#: benchmark process itself, both while filling a store and while
#: measuring. Each attribute is patched where its caller looks it up.
ENGINE_CALLS = (
    ("repro.engine.jobs", "CompileJob.content_hash", "engine.hash"),
    ("repro.engine.cache", "ResultCache.get", "engine.cache_get"),
)

#: Wrapped while set-up fills a store: the engine calls and the writes.
SETUP_CALLS = ENGINE_CALLS + (
    ("repro.engine.cache", "ResultCache.put", "engine.cache_put"),
)

#: Every layer boundary wrapped during an in-process measurement window.
#: Cache writes are left out: the window's cache is either off or
#: already full, so a write there is engine overhead, not store work.
WINDOW_CALLS = ENGINE_CALLS + (
    ("repro.pipeline.passes", "run_pass_pipeline", "pipeline.compile"),
    ("repro.pipeline.passes", "mii", "ddg.mii"),
    (
        "repro.partition.multilevel",
        "MultilevelPartitioner.partition",
        "partition.partition",
    ),
    (
        "repro.partition.multilevel",
        "MultilevelPartitioner.partition_replicating",
        "partition.partition",
    ),
    ("repro.partition.multilevel", "coarsen", "partition.coarsen"),
    ("repro.partition.multilevel", "refine", "partition.refine"),
    ("repro.partition.multilevel", "refine_replicating", "partition.refine"),
    ("repro.partition.incremental", "MoveEvaluator.length", "partition.pseudo"),
    ("repro.pipeline.passes", "replicate", "core.replicate"),
    ("repro.pipeline.passes", "build_placed_graph", "schedule.place"),
    ("repro.pipeline.passes", "schedule", "schedule.schedule"),
)

#: Owner charged with collector pauses that began outside every span.
OUTSIDE = "(outside spans)"


class Tracer:
    """Spans from any number of threads, plus collector pauses."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._jobs = itertools.count(1)
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self.gc_by_owner: dict[str, float] = collections.defaultdict(float)
        self._gc_started = 0.0
        self._gc_owner = OUTSIDE

    def _buffers(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.records, local.stack
        except AttributeError:
            local.records, local.stack = [], []
            with self._lock:
                self._threads.append(local.records)
            return local.records, local.stack

    def begin_job(self) -> None:
        """Give the calling thread's following spans a new job id."""
        self._local.job = next(self._jobs)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``.

        A record is ``(name, start, end, parent index, job id, raised)``.
        """
        buffers = self._buffers
        perf_counter = time.perf_counter
        local = self._local

        def traced(*args, **kwargs):
            records, stack = buffers()
            index = len(records)
            records.append(None)
            stack.append((index, name))
            raised = True
            start = perf_counter()
            try:
                value = fn(*args, **kwargs)
                raised = False
                return value
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else -1
                records[index] = (
                    name, start, end, parent, getattr(local, "job", 0), raised
                )

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            stack = getattr(self._local, "stack", None)
            self._gc_owner = stack[-1][1] if stack else OUTSIDE
            self._gc_started = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_started
        self.gc_seconds += pause
        self.gc_by_owner[self._gc_owner] += pause
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def install(self, calls) -> None:
        """Patch every listed call site and start observing the collector."""
        for module_name, path, name in calls:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Undo :meth:`install`; safe to call more than once."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _snapshot(self) -> list[list]:
        with self._lock:
            return [list(records) for records in self._threads]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, summed over threads."""
        totals: dict[str, float] = collections.defaultdict(float)
        for records in self._snapshot():
            for name, start, end, parent, _job, _raised in records:
                totals[name] += end - start
                if parent >= 0:
                    totals[records[parent][0]] -= end - start
        return dict(totals)

    def calls(self) -> collections.Counter:
        """Spans recorded per name."""
        return collections.Counter(
            record[0] for records in self._snapshot() for record in records
        )

    def raised(self) -> collections.Counter:
        """Spans per name whose call raised."""
        return collections.Counter(
            record[0]
            for records in self._snapshot()
            for record in records
            if record[5]
        )

    def write(self, handle, phase: str) -> int:
        """Append every span as one JSON line; returns the span count."""
        written = 0
        for thread, records in enumerate(self._snapshot()):
            for index, (name, start, end, parent, job, raised) in enumerate(records):
                handle.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "thread": thread,
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "job": job,
                            "start": start,
                            "end": end,
                            "raised": raised,
                        }
                    )
                    + "\n"
                )
                written += 1
        return written


def write_traces(path, tracers: dict[str, Tracer]) -> int:
    """Write the spans of every phase to one gzipped JSON-lines file."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        return sum(tracer.write(handle, phase) for phase, tracer in tracers.items())
