"""Iterative modulo scheduling: the backtracking ablation."""

import pytest

from repro.core.plan import EMPTY_PLAN
from repro.core.replicator import replicate
from repro.ddg.analysis import mii
from repro.machine.config import parse_config, unified_machine
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.partition import Partition
from repro.pipeline.passes import find_min_ii
from repro.schedule.ims import ims_schedule
from repro.schedule.placed import build_placed_graph
from repro.schedule.scheduler import FailureCause, ScheduleFailure, schedule
from repro.sim.verifier import verify_kernel
from repro.workloads.patterns import daxpy, dot_product, stencil5
from repro.workloads.specfp import benchmark_loops


def placed_for(ddg, machine, ii, with_replication=False):
    if machine.is_clustered:
        partitioner = MultilevelPartitioner(ddg=ddg, machine=machine)
        part = partitioner.partition(ii)
    else:
        part = Partition(ddg, {u: 0 for u in ddg.node_ids()}, 1)
    plan = replicate(part, machine, ii) if with_replication else EMPTY_PLAN
    if not plan.feasible:
        plan = EMPTY_PLAN
    return build_placed_graph(ddg, part, machine, plan)


def min_ii_with(scheduler, ddg, machine, lo):
    """Linear search via the driver's shared :func:`find_min_ii`."""

    def attempt(ii):
        graph = placed_for(ddg, machine, ii)
        if machine.is_clustered and graph.n_comms() > machine.bus.capacity(ii):
            raise ScheduleFailure(
                FailureCause.BUS, f"too many communications at II={ii}"
            )
        return scheduler(graph, machine, ii)

    return find_min_ii(attempt, lo, lo + 63)


class TestImsCorrectness:
    @pytest.mark.parametrize("make,ii", [(daxpy, 4), (stencil5, 6), (dot_product, 4)])
    def test_kernels_verify(self, make, ii):
        machine = parse_config("2c1b2l64r")
        graph = placed_for(make(), machine, ii)
        kernel = ims_schedule(graph, machine, ii)
        verify_kernel(kernel)

    def test_suite_loops_verify(self):
        machine = parse_config("4c1b2l64r")
        for loop in benchmark_loops("hydro2d", limit=4):
            lo = mii(loop.ddg, machine)
            _, kernel = min_ii_with(ims_schedule, loop.ddg, machine, lo)
            verify_kernel(kernel)

    def test_unified_machine(self):
        machine = unified_machine()
        graph = placed_for(stencil5(), machine, 2)
        kernel = ims_schedule(graph, machine, 2)
        verify_kernel(kernel)
        assert kernel.ii == 2

    def test_empty_graph(self):
        from repro.ddg.graph import Ddg

        machine = unified_machine()
        graph = build_placed_graph(
            Ddg(), Partition(Ddg(), {}, 1), machine, EMPTY_PLAN
        )
        assert ims_schedule(graph, machine, 1).length == 0

    def test_budget_exhaustion_fails_cleanly(self):
        machine = parse_config("2c1b2l64r")
        graph = placed_for(stencil5(), machine, 6)
        with pytest.raises(ScheduleFailure):
            ims_schedule(graph, machine, 6, budget_factor=0)


class TestImsVsBaseline:
    def test_ims_recovers_tight_iis(self):
        """Backtracking can fit cases the one-pass scheduler bumps.

        On this suite the two schedulers end up close — the paper's
        observation that a good partition makes cheap scheduling
        sufficient — so we assert IMS is never *worse* by more than one
        and never beats the baseline by a wide margin.
        """
        machine = parse_config("4c1b2l64r")
        diffs = []
        for loop in benchmark_loops("apsi", limit=5):
            lo = mii(loop.ddg, machine)
            baseline_ii, _ = min_ii_with(schedule, loop.ddg, machine, lo)
            ims_ii, _ = min_ii_with(ims_schedule, loop.ddg, machine, lo)
            diffs.append(baseline_ii - ims_ii)
        assert all(-1 <= d <= 3 for d in diffs), diffs

    def test_same_ii_on_simple_patterns(self):
        machine = parse_config("2c1b2l64r")
        for make in (daxpy, stencil5, dot_product):
            ddg = make()
            lo = mii(ddg, machine)
            baseline_ii, _ = min_ii_with(schedule, ddg, machine, lo)
            ims_ii, _ = min_ii_with(ims_schedule, ddg, machine, lo)
            assert abs(baseline_ii - ims_ii) <= 1
