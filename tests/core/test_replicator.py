"""The replication driver: stop rule, feasibility, statistics."""

import pytest

from repro.core.replicator import replicate
from repro.ddg.builder import DdgBuilder
from repro.machine.config import parse_config, unified_machine
from repro.machine.resources import OpClass
from repro.partition.partition import Partition
from repro.schedule.placed import Role, build_placed_graph
from repro.schedule.scheduler import schedule
from repro.sim.verifier import verify_kernel


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


def partition_for(ddg, mapping, n):
    return Partition(
        ddg, {ddg.node_by_name(k).uid: v for k, v in mapping.items()}, n
    )


@pytest.fixture
def two_comms():
    """Two cheap communications; bus fits only one at II=2."""
    b = DdgBuilder()
    b.int_op("p0").fp_op("c0")
    b.int_op("p1").fp_op("c1")
    b.dep("p0", "c0").dep("p1", "c1")
    g = b.build()
    return g, partition_for(g, {"p0": 0, "c0": 1, "p1": 0, "c1": 1}, 2)


class TestStopRule:
    def test_removes_exactly_extra_coms(self, two_comms, m2):
        g, part = two_comms
        # II=2, 1 bus latency 2 -> capacity 1, extra_coms = 1.
        plan = replicate(part, m2, ii=2)
        assert plan.feasible
        assert plan.n_removed_comms == 1

    def test_no_over_replication_when_bus_fits(self, two_comms, m2):
        g, part = two_comms
        # II=4 -> capacity 2 >= 2 comms: nothing to do.
        plan = replicate(part, m2, ii=4)
        assert plan.feasible and plan.is_empty

    def test_spare_comms_removes_more(self, two_comms, m2):
        g, part = two_comms
        plan = replicate(part, m2, ii=4, spare_comms=2)
        assert plan.n_removed_comms == 2

    def test_no_comms_no_plan(self, m2):
        b = DdgBuilder()
        b.int_op("a").fp_op("b")
        b.dep("a", "b")
        g = b.build()
        part = partition_for(g, {"a": 0, "b": 0}, 2)
        plan = replicate(part, m2, ii=2)
        assert plan.is_empty and plan.feasible

    def test_unified_machine_trivial(self, two_comms):
        g, _ = two_comms
        part = Partition(g, {u: 0 for u in g.node_ids()}, 1)
        plan = replicate(part, unified_machine(), ii=1)
        assert plan.is_empty


class TestFeasibility:
    def test_infeasible_when_destinations_full(self):
        m = parse_config("4c1b2l64r")  # 1 INT unit per cluster
        b = DdgBuilder()
        # Two INT values crossing into cluster 1, which is INT-saturated.
        b.int_op("p0").int_op("p1")
        b.fp_op("c0").fp_op("c1")
        b.int_op("f0").int_op("f1")
        b.dep("p0", "c0").dep("p1", "c1")
        g = b.build()
        part = partition_for(
            g, {"p0": 0, "p1": 0, "c0": 1, "c1": 1, "f0": 1, "f1": 1}, 4
        )
        # II=2: capacity 1, extra=1, but cluster 1 already has 2 INT ops
        # in 2 slots -> no room for any replica.
        plan = replicate(part, m, ii=2)
        assert not plan.feasible

    def test_feasible_plan_builds_valid_placed_graph(self, two_comms, m2):
        g, part = two_comms
        plan = replicate(part, m2, ii=2)
        placed = build_placed_graph(g, part, m2, plan)
        kernel = schedule(placed, m2, ii=2)
        verify_kernel(kernel)
        assert placed.n_comms() == 1


class TestStatistics:
    def test_initial_coms_recorded(self, two_comms, m2):
        g, part = two_comms
        plan = replicate(part, m2, ii=2)
        assert plan.initial_coms == 2

    def test_replica_and_removal_counts(self, two_comms, m2):
        g, part = two_comms
        plan = replicate(part, m2, ii=2)
        # One producer replicated into one cluster; the original (no
        # remaining local children) is removed.
        assert plan.n_replicated_instructions == 1
        assert len(plan.removed) == 1
        assert plan.net_added_instructions == 0

    def test_cheapest_subgraph_chosen(self, m2):
        """A 1-node subgraph beats a 3-node one."""
        b = DdgBuilder()
        b.int_op("cheap").fp_op("uc")
        b.int_op("g1").int_op("g2").int_op("deep").fp_op("ud")
        b.chain("g1", "g2", "deep")
        b.dep("cheap", "uc").dep("deep", "ud")
        # keep producers alive locally so removal does not tip the scale
        b.fp_op("keep1").fp_op("keep2")
        b.dep("cheap", "keep1").dep("deep", "keep2")
        g = b.build()
        part = partition_for(
            g,
            {
                "cheap": 0, "uc": 1, "g1": 0, "g2": 0, "deep": 0, "ud": 1,
                "keep1": 0, "keep2": 0,
            },
            2,
        )
        plan = replicate(part, m2, ii=2)  # capacity 1, extra 1
        assert plan.n_removed_comms == 1
        (removed,) = plan.removed_comms
        assert g.node(removed).name == "cheap"


class TestRevival:
    def test_removed_original_needed_home_again_is_revived(self):
        """A removed value needed again in its own cluster is the original.

        Here ``n7`` is removed from cluster 2 when its communication is
        replaced, and a later round needs its value in cluster 2 again.
        The plan must revive the original there, not list cluster 2 as a
        replica of ``n7`` while also counting ``n7`` as removed.
        """
        m = parse_config("4c1b2l64r")
        b = DdgBuilder()
        b.op("n0", OpClass.INT_MUL).int_op("n1").int_op("n2")
        b.op("n3", OpClass.INT_MUL).load("n4").int_op("n5")
        b.int_op("n6").load("n7").int_op("n8")
        b.dep("n0", "n5").dep("n0", "n4").dep("n1", "n3").dep("n2", "n7")
        b.dep("n2", "n5").dep("n3", "n8").dep("n5", "n1", 1)
        b.dep("n6", "n1", 1).dep("n7", "n8").dep("n8", "n0", 1)
        g = b.build()
        part = partition_for(
            g,
            {
                "n0": 0, "n1": 1, "n2": 2, "n3": 1, "n4": 0, "n5": 2,
                "n6": 1, "n7": 2, "n8": 0,
            },
            4,
        )
        plan = replicate(part, m, ii=4)
        n7 = g.node_by_name("n7").uid
        for uid, clusters in plan.replicas.items():
            assert part.cluster_of(uid) not in clusters
        assert plan.replicas[n7] == frozenset({0})
        assert n7 not in plan.removed
        placed = build_placed_graph(g, part, m, plan)
        roles = {
            inst.cluster: inst.role
            for inst in placed.instances()
            if inst.origin == n7 and not inst.is_copy
        }
        assert roles == {0: Role.REPLICA, 2: Role.ORIGINAL}
