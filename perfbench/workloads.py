"""The three workloads: set-up, measurement window and output checks.

Cells are (loop, machine, scheme) triples over the 678 generated loops,
the six Fig. 7 machines and the ``baseline``/``replication``/
``repl-part`` schemes. A seed yields a sequence of *rounds*; a round
holds every loop once, and inside each benchmark the loops are dealt
(machine, scheme) pairs from shuffled decks of all 18 pairs, so every
round reaches the tail loops and is balanced across machines and
schemes. Round 0 is the seed's *quality set*: all three workloads
compute ``ipc_hmean``, ``bus_copies`` and ``added_ops_pct`` over it, so
those figures depend on the seed alone.

* ``cold-compile`` compiles the rounds in order, in-process, one
  ``run_jobs`` call per job, with the result cache off.
* ``warm-replay`` fills a store with round 0 during set-up, then
  replays round 0 in seeded orders, one ``run_jobs`` call per job,
  keeping the latest result of every cell alive as a figure
  regeneration would.
* ``serve-mixed`` pre-stores round 0 and two thirds of a round more in
  a server's data directory, boots ``python -m repro serve`` on it and
  drives it with two closed-loop clients (see :mod:`serve_load`); new
  submissions come from the later rounds.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import itertools
import math
import os
import pathlib
import random
import shutil
import time

from repro.engine import CompileJob, EngineConfig, ResultCache, run_jobs
from repro.engine.fingerprint import result_fingerprint
from repro.machine.config import PAPER_CONFIG_NAMES
from repro.pipeline.metrics import (
    added_instruction_stats,
    benchmark_metrics,
    harmonic_mean,
    loop_metrics,
)
from repro.serve.client import ServeClient
from repro.sim import VerificationError, simulate, verify_kernel
from repro.workloads.specfp import BENCHMARK_ORDER, benchmark_loops

import hostspeed
import serve_load
from spans import WINDOW_CALLS

SCHEMES = ("baseline", "replication", "repl-part")
PAIRS = tuple((machine, scheme) for machine in PAPER_CONFIG_NAMES for scheme in SCHEMES)

#: Worker processes that compile a store during set-up (the machine
#: the load is sized for has two CPUs).
SETUP_WORKERS = 2
#: Kernels run through the lockstep simulator per run (about 11 ms each).
SIMULATED_KERNELS = 24
#: Cells recompiled in-process after the window to check fingerprints.
RECOMPILED_CELLS = 24
#: ``peak_rss_mb`` is read once this many jobs have completed, so that
#: it measures a fixed amount of work whatever the machine's speed.
RSS_AFTER_JOBS = 1000


def _untraced(_name: str, fn):
    return fn


def generate_loops(limit: int | None, span=_untraced) -> list:
    """Fresh loops (and ``Ddg`` objects) for every benchmark."""
    generate = span("workloads.generate", benchmark_loops)
    return [loop for name in BENCHMARK_ORDER for loop in generate(name, limit)]


def draw_round(rng: random.Random, loops: list, sizes: list[int]) -> list[tuple]:
    """Every loop once, as a (loop, machine, scheme) cell.

    Within a benchmark, loops in size order are dealt (machine, scheme)
    pairs from shuffled decks of all 18, so loops of similar size get
    different pairs. The round is then ordered so that every prefix
    spans all sizes: the size-sorted cells are cut into strata of 18
    and the round takes one cell of every stratum in turn. A window that
    ends inside a round has still seen its share of the heavy tail,
    which narrows the spread of p99 across seeds.
    """
    by_benchmark = collections.defaultdict(list)
    for index, loop in enumerate(loops):
        by_benchmark[loop.benchmark].append(index)
    cells = []
    for indices in by_benchmark.values():
        rng.shuffle(indices)
        indices.sort(key=sizes.__getitem__)
        deck: list = []
        while len(deck) < len(indices):
            pairs = list(PAIRS)
            rng.shuffle(pairs)
            deck.extend(pairs)
        cells.extend((index, *pair) for index, pair in zip(indices, deck))
    cells.sort(key=lambda cell: sizes[cell[0]])
    strata = [cells[at : at + len(PAIRS)] for at in range(0, len(cells), len(PAIRS))]
    for stratum in strata:
        rng.shuffle(stratum)
    ordered = []
    for turn in range(len(PAIRS)):
        block = [stratum[turn] for stratum in strata if turn < len(stratum)]
        rng.shuffle(block)
        ordered.extend(block)
    return ordered


def rounds(seed: int, loops: list):
    """The seed's rounds, round 0 first, without end."""
    rng = random.Random(seed)
    sizes = [len(loop.ddg) + sum(1 for _ in loop.ddg.edges()) for loop in loops]
    while True:
        yield draw_round(rng, loops, sizes)


def fresh_cells(seed: int, loops: list, exclude):
    """Cells of rounds 1, 2, ... that are not in ``exclude``, each once.

    Ends once every (loop, machine, scheme) cell has been seen.
    """
    seen = set(exclude)
    total = len(loops) * len(PAIRS)
    later = rounds(seed, loops)
    next(later)
    for cells in later:
        if len(seen) >= total:
            return
        for cell in cells:
            if cell not in seen:
                seen.add(cell)
                yield cell


def make_job(loops: list, cell: tuple) -> CompileJob:
    index, machine, scheme = cell
    return CompileJob(ddg=loops[index].ddg, machine=machine, scheme=scheme)


def describe(loops: list, cell: tuple) -> str:
    index, machine, scheme = cell
    return f"{loops[index].benchmark}/{loops[index].name}@{machine}/{scheme}"


def percentile(values: list[float], share: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def entry_bytes(root: pathlib.Path) -> float:
    """Mean size of the entry files of the store at ``root``."""
    stats = ResultCache(root=root, enabled=True).stats()
    return stats.total_bytes / stats.entries if stats.entries else 0.0


def quality(pairs, loops: list) -> dict[str, float]:
    """The paper's figures over (cell, CompileResult) pairs.

    ``ipc_hmean`` is the harmonic mean of profile-weighted IPC over the
    (benchmark, machine, scheme) groups, like Fig. 7's HMEAN bar;
    ``bus_copies`` sums COPY instances over the kernels;
    ``added_ops_pct`` is Fig. 10's added-instruction share over the
    replicating cells.
    """
    groups = collections.defaultdict(list)
    replicating = []
    copies = 0
    for (index, machine, scheme), result in sorted(pairs, key=lambda pair: pair[0]):
        loop = loops[index]
        metrics = loop_metrics(loop, result)
        groups[(loop.benchmark, machine, scheme)].append(metrics)
        copies += result.kernel.n_copy_ops()
        if scheme != "baseline":
            replicating.append(metrics)
    return {
        "ipc_hmean": harmonic_mean(
            [benchmark_metrics(key[0], group).ipc for key, group in groups.items()]
        ),
        "bus_copies": copies,
        "added_ops_pct": added_instruction_stats(replicating).total_percent,
    }


def check_kernels(pairs, loops: list, rng: random.Random, span=_untraced) -> list[str]:
    """Verifier on every kernel, lockstep simulator on a seeded subset."""
    verify = span("sim.verify", verify_kernel)
    run_simulator = span("sim.simulate", simulate)
    rejected = []
    for cell, result in pairs:
        try:
            verify(result.kernel)
        except VerificationError as exc:
            rejected.append(f"{describe(loops, cell)}: verifier: {exc}")
    for cell, result in rng.sample(pairs, min(SIMULATED_KERNELS, len(pairs))):
        loop = loops[cell[0]]
        try:
            run = run_simulator(result.kernel, loop.iterations)
        except VerificationError as exc:
            rejected.append(f"{describe(loops, cell)}: simulator: {exc}")
            continue
        expected_cycles = result.kernel.execution_cycles(loop.iterations)
        expected_ops = len(loop.ddg) * loop.iterations
        if (run.cycles, run.useful_ops) != (expected_cycles, expected_ops):
            rejected.append(
                f"{describe(loops, cell)}: simulated {run.cycles} cycles and "
                f"{run.useful_ops} ops, analytic {expected_cycles} and {expected_ops}"
            )
    return rejected


def run_cells(loops: list, cells: list, cache: ResultCache, jobs: int = 1) -> dict:
    """One ``run_jobs`` batch over ``cells``: ``{cell: JobResult}``."""
    config = EngineConfig(jobs=jobs, cache=cache)
    return dict(zip(cells, run_jobs([make_job(loops, cell) for cell in cells], config)))


def fill_store(loops: list, cells: list, root: pathlib.Path) -> dict:
    """Compile ``cells`` on the engine's process pool into a store at ``root``."""
    return run_cells(loops, cells, ResultCache(root=root, enabled=True), SETUP_WORKERS)


def recompile(loops: list, cells: list) -> dict:
    """Compile ``cells`` in-process with the cache off."""
    return run_cells(loops, cells, ResultCache(enabled=False))


@dataclasses.dataclass
class Window:
    """What one measurement window produced.

    ``wall`` leaves out the time spent sampling host speed. ``speeds``
    holds the host's speed while each job ran, ``speed`` its mean over
    the window, and ``reference_wall`` is ``wall`` at reference speed
    (see :mod:`hostspeed`).
    """

    latencies: list[float]
    wall: float
    attempted: int
    failures: list[str]
    kept: list  # (cell, CompileResult) pairs held for the checks
    compiled: list  # CompileResults compiled inside the window
    speeds: list[float]
    speed: float
    reference_wall: float
    cache_hits: int = 0
    peak_rss_mb: float = 0.0
    extra: dict = dataclasses.field(default_factory=dict)

    def reference_latencies(self) -> list[float]:
        """Job latencies at reference speed."""
        return [latency * speed for latency, speed in zip(self.latencies, self.speeds)]


@dataclasses.dataclass
class Checked:
    """Outcome of the post-window checks."""

    failures: list[str]
    rejected: int
    figures: dict[str, float]


def reset_peak_rss() -> bool:
    """Lower this process's VmHWM to its current RSS; False if refused."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _process_peak_rss_mb() -> float:
    return serve_load.vm_hwm_kb(os.getpid()) / 1024.0


class Workload:
    """Set-up, window and checks of one workload; one object per run."""

    def __init__(self, seed: int, limit: int | None, run_dir: pathlib.Path) -> None:
        self.seed = seed
        self.limit = limit
        self.run_dir = run_dir

    def settle(self, state: dict) -> None:
        """Untimed preparation between set-up and the window."""

    def teardown(self, state) -> None:
        if state is not None and state.get("dir") is not None:
            shutil.rmtree(state["dir"], ignore_errors=True)


class InProcess(Workload):
    """Shared window loop of the two in-process workloads."""

    def _measure(self, loops, cells, config, seconds, tracer, keep) -> Window:
        run = tracer.wrap("engine.run_jobs", run_jobs) if tracer else run_jobs
        latencies: list[float] = []
        starts: list[float] = []
        peak_rss = 0.0
        failures: list[str] = []
        compiled: list = []
        hits = 0
        samples = hostspeed.Samples()
        sampling = 0.0
        gc.collect()
        # The window's peak, not set-up's: the store fill holds every
        # result it compiled until ``settle``.
        rss_reset = reset_peak_rss()
        if tracer is not None:
            tracer.install(WINDOW_CALLS)
        try:
            start = time.perf_counter()
            deadline = start + seconds
            end = due = start
            for cell in cells:
                # Sampled between jobs, on the thread and vCPU that runs them.
                now = time.perf_counter()
                if now >= due:
                    due = samples.take()
                    sampling += due - now
                    due += hostspeed.INTERVAL_S
                job = make_job(loops, cell)
                if tracer is not None:
                    tracer.begin_job()
                began = time.perf_counter()
                result = run([job], config)[0]
                end = time.perf_counter()
                latencies.append(end - began)
                starts.append(began)
                if len(latencies) == RSS_AFTER_JOBS:
                    peak_rss = _process_peak_rss_mb()
                if result.ok:
                    keep(cell, result.result)
                    if result.cached:
                        hits += 1
                    else:
                        compiled.append(result.result)
                else:
                    failures.append(
                        f"{describe(loops, cell)}: {result.outcome.value} "
                        f"{result.error}"
                    )
                if end >= deadline:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        samples.take()
        near = samples.near()
        speeds = [near(b, b + t) for b, t in zip(starts, latencies)]
        wall = end - start - sampling
        # Jobs run one after another: each at the speed it ran at, the
        # harness between them at the window's mean.
        between = wall - sum(latencies)
        return Window(
            latencies=latencies,
            wall=wall,
            attempted=len(latencies),
            failures=failures,
            kept=[],
            compiled=compiled,
            speeds=speeds,
            speed=samples.mean(),
            reference_wall=(
                sum(t * v for t, v in zip(latencies, speeds))
                + between * samples.mean()
            ),
            cache_hits=hits,
            peak_rss_mb=peak_rss or _process_peak_rss_mb(),
            extra={"rss_reset": rss_reset},
        )


class ColdCompile(InProcess):
    """Compile seeded cells in-process with the result cache off."""

    def setup(self, rep: int, span=_untraced) -> dict:
        return {"loops": generate_loops(self.limit, span), "dir": None}

    def window(self, state: dict, seconds: float, tracer=None) -> Window:
        loops = state["loops"]
        config = EngineConfig(jobs=1, cache=ResultCache(enabled=False))
        kept: list = []
        stream = itertools.chain.from_iterable(rounds(self.seed, loops))
        window = self._measure(
            loops, stream, config, seconds, tracer, lambda c, r: kept.append((c, r))
        )
        window.kept = kept
        return window

    def check(self, state: dict, window: Window, span=_untraced) -> Checked:
        loops = state["loops"]
        quality_set = next(rounds(self.seed, loops))
        done = {cell for cell, _ in window.kept}
        # A slow machine may leave part of round 0 for after the window.
        rest = [cell for cell in quality_set if cell not in done]
        failures = []
        for cell, result in recompile(loops, rest).items():
            if result.ok:
                window.kept.append((cell, result.result))
            else:
                failures.append(f"{describe(loops, cell)}: {result.outcome.value}")
        rng = random.Random(f"check-{self.seed}")
        rejected = check_kernels(window.kept, loops, rng, span)
        # Later rounds can repeat a round-0 cell; count each cell once.
        in_set = set(quality_set)
        firsts = {cell: r for cell, r in reversed(window.kept) if cell in in_set}
        figures = quality(list(firsts.items()), loops)
        return Checked(failures + rejected, len(rejected), figures)


class WarmReplay(InProcess):
    """Replay round 0 in-process against a store filled during set-up."""

    def setup(self, rep: int, span=_untraced) -> dict:
        loops = generate_loops(self.limit, span)
        cells = next(rounds(self.seed, loops))
        store = self.run_dir / f"store-{rep}"
        results = fill_store(loops, cells, store)
        return {"loops": loops, "cells": cells, "dir": store, "results": results}

    def settle(self, state: dict) -> None:
        # Keep only fingerprints: results held through the window would
        # enlarge the heap every collection walks.
        state["fingerprints"] = {
            cell: result_fingerprint(r.result) if r.ok else ""
            for cell, r in state.pop("results").items()
        }

    def window(self, state: dict, seconds: float, tracer=None) -> Window:
        loops, cells = state["loops"], state["cells"]
        store = ResultCache(root=state["dir"], enabled=True)
        config = EngineConfig(jobs=1, cache=store)
        rng = random.Random(f"replay-{self.seed}")

        def passes():
            while True:
                order = list(cells)
                rng.shuffle(order)
                yield from order

        latest: dict = {}
        window = self._measure(
            loops, passes(), config, seconds, tracer, latest.__setitem__
        )
        window.kept = list(latest.items())
        if window.compiled:
            window.failures.append(f"{len(window.compiled)} replays missed the store")
        window.extra["entry_bytes"] = entry_bytes(state["dir"])
        return window

    def check(self, state: dict, window: Window, span=_untraced) -> Checked:
        loops, expected = state["loops"], state["fingerprints"]
        failures = [
            f"{describe(loops, cell)}: setup compile failed"
            for cell, fingerprint in expected.items() if not fingerprint
        ]
        # A slow machine may not finish one pass inside the window.
        replayed = {cell for cell, _ in window.kept}
        rest = [cell for cell in state["cells"] if cell not in replayed]
        store = ResultCache(root=state["dir"], enabled=True)
        for cell, result in run_cells(loops, rest, store).items():
            if result.ok:
                window.kept.append((cell, result.result))
            else:
                failures.append(f"{describe(loops, cell)}: {result.outcome.value}")
        for cell, result in window.kept:
            if result_fingerprint(result) != expected[cell]:
                failures.append(f"{describe(loops, cell)}: replay differs from set-up")
        rng = random.Random(f"check-{self.seed}")
        sample = rng.sample(state["cells"], min(RECOMPILED_CELLS, len(state["cells"])))
        for cell, result in recompile(loops, sample).items():
            if not result.ok or result_fingerprint(result.result) != expected[cell]:
                failures.append(f"{describe(loops, cell)}: in-process compile differs")
        rejected = check_kernels(window.kept, loops, rng, span)
        return Checked(failures + rejected, len(rejected), quality(window.kept, loops))


class ServeMixed(Workload):
    """Closed-loop clients against ``python -m repro serve``."""

    def __init__(self, seed: int, limit: int | None, run_dir: pathlib.Path, src, env):
        super().__init__(seed, limit, run_dir)
        self.src = src
        self.env = env

    def setup(self, rep: int, span=_untraced) -> dict:
        loops = generate_loops(self.limit, span)
        cells = next(rounds(self.seed, loops))
        # Round 0 plus two thirds of a round more (1130 cells), so that a
        # third of the submissions stay pre-stored hits through a 20 s
        # window at up to about 170 submissions per second.
        stored = cells + list(
            itertools.islice(fresh_cells(self.seed, loops, cells), 2 * len(cells) // 3)
        )
        data_dir = self.run_dir / f"serve-{rep}"
        results = fill_store(loops, stored, data_dir)
        server = serve_load.ServerProcess(self.src, data_dir, self.env)
        state = {
            "loops": loops, "cells": cells, "stored": stored, "dir": data_dir,
            "results": results, "server": server,
        }
        try:
            server.start()
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state) -> None:
        if state is not None:
            state["server"].stop()
        super().teardown(state)

    def window(self, state: dict, seconds: float, tracer=None) -> Window:
        loops, server = state["loops"], state["server"]
        stream = serve_load.Stream(
            self.seed,
            state["stored"],
            fresh_cells(self.seed, loops, state["stored"]),
            lambda cell: make_job(loops, cell),
        )
        gc.collect()
        # The clients are load, not the program under test: keep this
        # process's collector off the loops and set-up results it holds
        # (a single pass over them stalled both clients for 0.4 s).
        gc.freeze()
        if tracer is not None:
            tracer.install(())
        try:
            milestone = (RSS_AFTER_JOBS, server.peak_rss_mb)
            # The server's processes move over every CPU: sample them all.
            with hostspeed.Background() as host:
                samples, wall, busy, peak_rss = serve_load.drive(
                    server.url, stream, seconds, milestone, tracer
                )
        finally:
            if tracer is not None:
                tracer.uninstall()
            gc.unfreeze()
        stats = ServeClient(server.url, client_id="perfbench-stats").stats()
        done = [s for s in samples if s.ok]
        near = host.near()
        window = Window(
            latencies=[s.finished - s.started for s in done],
            wall=wall,
            attempted=len(samples),
            failures=[
                f"{describe(loops, s.cell)} ({s.kind}): {s.error}"
                for s in samples
                if not s.ok
            ],
            kept=[],
            compiled=[],
            speeds=[near(s.started, s.finished) for s in done],
            speed=host.mean(),
            reference_wall=wall * host.mean(),
            cache_hits=sum(1 for s in done if s.payload.get("cached")),
            peak_rss_mb=peak_rss or server.peak_rss_mb(),
            extra={
                "samples": samples,
                "busy": busy,
                "kinds": dict(stream.kinds),
                "records": sum(stats["jobs"].values()),
                "entry_bytes": entry_bytes(state["dir"]),
            },
        )
        return window

    def check(self, state: dict, window: Window, span=_untraced) -> Checked:
        loops, setup_results = state["loops"], state["results"]
        failures = [
            f"{describe(loops, cell)}: setup compile failed"
            for cell, result in setup_results.items() if not result.ok
        ]
        kept = [(cell, r.result) for cell, r in setup_results.items() if r.ok]
        expected = {cell: result_fingerprint(result) for cell, result in kept}
        served: dict = {}
        misses = []
        for sample in window.extra["samples"]:
            if not sample.ok:
                continue
            fingerprint = sample.payload.get("fingerprint")
            first = served.setdefault(sample.cell, fingerprint)
            if fingerprint != first or (
                sample.cell in expected and fingerprint != expected[sample.cell]
            ):
                failures.append(
                    f"{describe(loops, sample.cell)}: served fingerprint differs"
                )
            if sample.kind == "miss":
                misses.append(sample.cell)
        rng = random.Random(f"check-{self.seed}")
        sample_cells = rng.sample(misses, min(RECOMPILED_CELLS, len(misses)))
        for cell, result in recompile(loops, sample_cells).items():
            if not result.ok or result_fingerprint(result.result) != served[cell]:
                failures.append(f"{describe(loops, cell)}: in-process compile differs")
            else:
                kept.append((cell, result.result))
        rejected = check_kernels(kept, loops, rng, span)
        in_set = set(state["cells"])
        figures = quality([pair for pair in kept if pair[0] in in_set], loops)
        return Checked(failures + rejected, len(rejected), figures)

