"""The independent kernel verifier."""

import dataclasses

import pytest

from repro.core.plan import EMPTY_PLAN
from repro.ddg.builder import DdgBuilder
from repro.machine.config import parse_config, unified_machine
from repro.partition.partition import Partition
from repro.partition.multilevel import initial_partition
from repro.schedule.placed import build_placed_graph
from repro.schedule.scheduler import schedule
from repro.sim.verifier import VerificationError, verify_kernel
from repro.workloads.patterns import stencil5


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


@pytest.fixture
def good_kernel(m2):
    ddg = stencil5()
    part = initial_partition(ddg, m2, 6)
    graph = build_placed_graph(ddg, part, m2, EMPTY_PLAN)
    return schedule(graph, m2, ii=6)


def tamper(kernel, iid, **changes):
    ops = dict(kernel.ops)
    ops[iid] = ops[iid]._replace(**changes)
    return dataclasses.replace(kernel, ops=ops)


class TestVerifier:
    def test_valid_kernel_passes(self, good_kernel):
        verify_kernel(good_kernel)

    def test_dependence_violation_caught(self, good_kernel):
        # Move a non-source op to cycle -100: some dependence breaks.
        victim = next(
            op.instance.iid
            for op in good_kernel.ops.values()
            if good_kernel.graph.in_edges(op.instance.iid)
        )
        bad = tamper(good_kernel, victim, start=-100)
        with pytest.raises(VerificationError):
            verify_kernel(bad)

    def test_fu_overflow_caught(self, m2):
        b = DdgBuilder()
        b.int_op("a").int_op("b").int_op("c")
        g = b.build()
        part = Partition(g, {u: 0 for u in g.node_ids()}, 2)
        graph = build_placed_graph(g, part, m2, EMPTY_PLAN)
        kernel = schedule(graph, m2, ii=2)
        # Force all three INT ops (2 units) into the same modulo slot.
        ops = {
            iid: op._replace(start=0)
            for iid, op in kernel.ops.items()
        }
        bad = dataclasses.replace(kernel, ops=ops)
        with pytest.raises(VerificationError):
            verify_kernel(bad)

    def test_bus_overlap_caught(self, m2):
        b = DdgBuilder()
        b.int_op("p0").fp_op("c0").int_op("p1").fp_op("c1")
        b.dep("p0", "c0").dep("p1", "c1")
        g = b.build()
        part = Partition(
            g,
            {
                g.node_by_name("p0").uid: 0,
                g.node_by_name("p1").uid: 0,
                g.node_by_name("c0").uid: 1,
                g.node_by_name("c1").uid: 1,
            },
            2,
        )
        graph = build_placed_graph(g, part, m2, EMPTY_PLAN)
        kernel = schedule(graph, m2, ii=4)
        copies = [op for op in kernel.ops.values() if op.instance.is_copy]
        assert len(copies) == 2
        # Put both transfers on bus 0 at the same slot.
        ops = dict(kernel.ops)
        for op in copies:
            ops[op.instance.iid] = op._replace(start=20, bus=0)
        bad = dataclasses.replace(kernel, ops=ops)
        with pytest.raises(VerificationError):
            verify_kernel(bad)

    def test_missing_instance_caught(self, good_kernel):
        ops = dict(good_kernel.ops)
        ops.pop(next(iter(ops)))
        bad = dataclasses.replace(good_kernel, ops=ops)
        with pytest.raises(VerificationError):
            verify_kernel(bad)

    def test_copy_without_bus_caught(self, good_kernel):
        copies = [
            op for op in good_kernel.ops.values() if op.instance.is_copy
        ]
        if not copies:
            pytest.skip("partition produced no communications")
        bad = tamper(good_kernel, copies[0].instance.iid, bus=None)
        with pytest.raises(VerificationError):
            verify_kernel(bad)

    def test_loop_carried_dependences_relax(self):
        """distance >= 1 edges allow the consumer to issue 'earlier'."""
        m = unified_machine()
        b = DdgBuilder()
        b.fp_op("acc")
        b.dep("acc", "acc", distance=1)
        g = b.build()
        part = Partition(g, {u: 0 for u in g.node_ids()}, 1)
        graph = build_placed_graph(g, part, m, EMPTY_PLAN)
        kernel = schedule(graph, m, ii=3)
        verify_kernel(kernel)
