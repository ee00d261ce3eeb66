"""Each compile's counters describe that compile and nothing else."""

from __future__ import annotations

import sys
import threading

from repro.machine.config import parse_config, unified_machine
from repro.pipeline.driver import Scheme, compile_loop
from repro.workloads.patterns import daxpy
from repro.workloads.specfp import benchmark_loops

MACHINE = "4c1b2l64r"

#: Keys whose values depend on what ran before in the process: the
#: analysis memo lives with the graph object, so a later compile of the
#: same object finds it warm, and skips the kernel calls behind a miss.
_MEMO_DEPENDENT = ("partition.analysis_memo_", "kernels.python_calls")


def _counters(ddg, scheme=Scheme.REPLICATION, machine=MACHINE) -> dict:
    return compile_loop(ddg, parse_config(machine), scheme=scheme).diagnostics.counters


def _cells() -> list[tuple]:
    """Eight suite loops, each with its scheme."""
    loops = [
        loop
        for bench in ("tomcatv", "su2cor", "mgrid", "applu")
        for loop in benchmark_loops(bench, limit=2)
    ]
    schemes = (Scheme.REPLICATION, Scheme.REPL_PART, Scheme.BASELINE)
    return [(loop, schemes[index % 3]) for index, loop in enumerate(loops)]


class TestPerCompileCounters:
    def test_repeat_compiles_of_one_graph_count_alike(self):
        ddg = benchmark_loops("tomcatv", limit=1)[0].ddg
        runs = [_counters(ddg) for _ in range(3)]
        for counters in runs[1:]:
            assert counters.keys() == runs[0].keys()
            for name, value in counters.items():
                if not name.startswith(_MEMO_DEPENDENT):
                    assert value == runs[0][name], name
        lookups = [
            run["partition.analysis_memo_hits"]
            + run["partition.analysis_memo_misses"]
            for run in runs
        ]
        assert lookups == [lookups[0]] * 3

    def test_concurrent_compiles_count_as_if_alone(self):
        """Two threads of one process compile at once; a shortened
        switch interval interleaves them often."""
        cells = _cells()
        alone = [_counters(loop.ddg.copy(), scheme) for loop, scheme in cells]
        together: list[dict | None] = [None] * len(cells)
        barrier = threading.Barrier(2)

        def work(offset: int) -> None:
            barrier.wait(timeout=60)
            for index in range(offset, len(cells), 2):
                loop, scheme = cells[index]
                together[index] = _counters(loop.ddg.copy(), scheme)

        threads = [threading.Thread(target=work, args=(n,)) for n in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (loop, scheme), expected, seen in zip(cells, alone, together):
            assert seen == expected, (loop.name, scheme)

    def test_fresh_copies_give_equal_counters(self):
        loop = benchmark_loops("su2cor", limit=1)[0]
        assert _counters(loop.ddg.copy(), Scheme.REPL_PART) == _counters(
            loop.ddg.copy(), Scheme.REPL_PART
        )


#: Every counter a replicating compile writes (the baseline scheme
#: writes these minus ``replicate.*``).
_KEYS = {
    "kernels.python_calls",
    "kernels.numpy_calls",
    "partition.pseudo_evaluations",
    "partition.lengths_computed",
    "partition.lengths_skipped",
    "partition.lengths_memoized",
    "partition.moves_applied",
    "partition.moves_reverted",
    "partition.moves_accepted",
    "partition.moves.plain",
    "partition.moves.replicate",
    "partition.moves.plain_accepted",
    "partition.moves.plain_rejected",
    "partition.moves.replicate_accepted",
    "partition.moves.replicate_rejected",
    "partition.moves.replicas_surviving",
    "partition.refine_calls",
    "partition.analysis_memo_hits",
    "partition.analysis_memo_misses",
    "partition.analysis_memo_prefills",
    "replicate.rounds",
    "replicate.candidates_scored",
    "replicate.subgraph_walks",
    "replicate.subgraph_reused",
    "replicate.removable_walks",
    "replicate.removable_reused",
    "schedule.attempts",
}


class TestCounterKeys:
    def test_every_key_is_written_zeros_included(self):
        """An unclustered machine never refines or replicates, and its
        compile still lists every key, at zero."""
        counters = compile_loop(
            daxpy(), unified_machine(), scheme=Scheme.REPLICATION
        ).diagnostics.counters
        assert counters.keys() == _KEYS
        assert counters["partition.refine_calls"] == 0
        assert counters["replicate.rounds"] == 0

    def test_schemes_write_the_same_keys_on_a_clustered_machine(self):
        ddg = daxpy()
        assert _counters(ddg, Scheme.REPLICATION).keys() == _KEYS
        assert _counters(ddg, Scheme.REPL_PART).keys() == _KEYS
        assert _counters(ddg, Scheme.BASELINE).keys() == {
            key for key in _KEYS if not key.startswith("replicate.")
        }
