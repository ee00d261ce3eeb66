"""Headline paper claims on a fast deterministic sample.

The benchmark harness checks these at full scale; this test makes the
same claims visible to a plain ``pytest tests/`` run (a few seconds,
four loops per benchmark).
"""

import pytest

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import clear_cache, compile_suite, ipc_by_benchmark
from repro.pipeline.metrics import comm_stats
from repro.workloads.specfp import BENCHMARK_ORDER

LIMIT = 4


@pytest.fixture(scope="module")
def series():
    clear_cache()
    machine = resolve_machine("4c1b2l64r")
    base = ipc_by_benchmark(machine, Scheme.BASELINE, limit=LIMIT)
    repl = ipc_by_benchmark(machine, Scheme.REPLICATION, limit=LIMIT)
    yield machine, base, repl
    clear_cache()


class TestHeadlineClaims:
    def test_replication_speeds_up_the_suite(self, series):
        _, base, repl = series
        assert repl["hmean"] > base["hmean"] * 1.05

    def test_no_benchmark_materially_hurt(self, series):
        _, base, repl = series
        for bench in BENCHMARK_ORDER:
            assert repl[bench] >= base[bench] * 0.97, bench

    def test_mgrid_gains_least(self, series):
        """Figure 8's story: mgrid partitions communication-free."""
        _, base, repl = series
        gains = {
            bench: repl[bench] / base[bench] for bench in BENCHMARK_ORDER
        }
        assert gains["mgrid"] <= min(gains["su2cor"], gains["swim"])

    def test_about_a_third_of_comms_removed(self, series):
        machine, _, _ = series
        results = []
        for bench in BENCHMARK_ORDER:
            results.extend(
                m.result
                for m in compile_suite(
                    bench, machine, Scheme.REPLICATION, limit=LIMIT
                )
            )
        stats = comm_stats(results)
        assert 0.10 <= stats.removed_fraction <= 0.75
        assert 1.0 <= stats.replicas_per_removed_comm <= 5.0
