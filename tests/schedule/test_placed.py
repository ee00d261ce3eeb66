"""Placed-graph construction: instances, copies, operand resolution,
and the tuple records the placed graph and the kernel are made of."""

import pickle

import pytest

from repro.core.plan import EMPTY_PLAN, ReplicationPlan
from repro.ddg.builder import DdgBuilder
from repro.ddg.graph import EdgeKind
from repro.machine.config import parse_config, unified_machine
from repro.machine.resources import OpClass
from repro.partition.partition import Partition
from repro.schedule.placed import (
    PlacementError,
    Role,
    build_placed_graph,
)
from repro.schedule.scheduler import schedule


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


@pytest.fixture
def cross_pair():
    """p (cluster 0) feeds c1 and c2 (cluster 1)."""
    b = DdgBuilder("cross")
    b.int_op("p").int_op("c1").int_op("c2")
    b.dep("p", "c1").dep("p", "c2", distance=2)
    g = b.build()
    assignment = {
        g.node_by_name("p").uid: 0,
        g.node_by_name("c1").uid: 1,
        g.node_by_name("c2").uid: 1,
    }
    return g, Partition(g, assignment, 2)


def by_name(graph, name):
    return next(i for i in graph.instances() if i.name == name)


class TestBaselinePlacement:
    def test_one_copy_for_broadcast_value(self, cross_pair, m2):
        g, part = cross_pair
        placed = build_placed_graph(g, part, m2, EMPTY_PLAN)
        assert placed.n_comms() == 1
        (copy,) = placed.copies()
        assert copy.op_class is OpClass.COPY
        assert copy.cluster == 0  # driven from the producer's cluster

    def test_consumers_read_from_copy_with_original_distances(
        self, cross_pair, m2
    ):
        g, part = cross_pair
        placed = build_placed_graph(g, part, m2, EMPTY_PLAN)
        (copy,) = placed.copies()
        dist = {
            placed.instance(e.dst).name: e.distance
            for e in placed.out_edges(copy.iid)
        }
        assert dist == {"c1": 0, "c2": 2}

    def test_local_consumers_bypass_the_bus(self, m2):
        b = DdgBuilder()
        b.int_op("p").int_op("c")
        b.dep("p", "c")
        g = b.build()
        part = Partition(g, {uid: 0 for uid in g.node_ids()}, 2)
        placed = build_placed_graph(g, part, m2, EMPTY_PLAN)
        assert placed.n_comms() == 0

    def test_unified_machine_never_copies(self, cross_pair):
        g, _ = cross_pair
        part = Partition(g, {uid: 0 for uid in g.node_ids()}, 1)
        placed = build_placed_graph(g, part, unified_machine(), EMPTY_PLAN)
        assert placed.n_comms() == 0

    def test_memory_edges_cross_clusters_freely(self, m2):
        b = DdgBuilder()
        b.store("st").load("ld")
        b.mem_dep("st", "ld", distance=1)
        g = b.build()
        part = Partition(
            g,
            {g.node_by_name("st").uid: 0, g.node_by_name("ld").uid: 1},
            2,
        )
        placed = build_placed_graph(g, part, m2, EMPTY_PLAN)
        assert placed.n_comms() == 0
        ld = by_name(placed, "ld")
        (edge,) = placed.in_edges(ld.iid)
        assert edge.kind is EdgeKind.MEMORY


class TestReplicatedPlacement:
    def test_replica_absorbs_the_communication(self, cross_pair, m2):
        g, part = cross_pair
        p = g.node_by_name("p").uid
        plan = ReplicationPlan(
            replicas={p: frozenset({1})}, removed_comms=frozenset({p})
        )
        placed = build_placed_graph(g, part, m2, plan)
        assert placed.n_comms() == 0
        replica = by_name(placed, "p'")
        assert replica.role is Role.REPLICA
        assert replica.cluster == 1
        c1 = by_name(placed, "c1")
        (edge,) = placed.in_edges(c1.iid)
        assert edge.src == replica.iid

    def test_removed_original_with_replicas(self, cross_pair, m2):
        g, part = cross_pair
        p = g.node_by_name("p").uid
        plan = ReplicationPlan(
            replicas={p: frozenset({1})},
            removed=frozenset({p}),
            removed_comms=frozenset({p}),
        )
        placed = build_placed_graph(g, part, m2, plan)
        names = {i.name for i in placed.instances()}
        assert "p" not in names and "p'" in names

    def test_inconsistent_plan_rejected(self, cross_pair, m2):
        """Removing the comm without replicating strands the consumers."""
        g, part = cross_pair
        p = g.node_by_name("p").uid
        plan = ReplicationPlan(removed_comms=frozenset({p}))
        with pytest.raises(PlacementError):
            build_placed_graph(g, part, m2, plan)

    def test_replica_in_home_cluster_rejected(self, cross_pair, m2):
        g, part = cross_pair
        p = g.node_by_name("p").uid
        plan = ReplicationPlan(replicas={p: frozenset({0})})
        with pytest.raises(PlacementError):
            build_placed_graph(g, part, m2, plan)

    def test_replica_reads_surviving_broadcast(self, m2):
        """A replica's parent with a live comm is read through the bus."""
        b = DdgBuilder()
        b.int_op("g").int_op("p").int_op("c")
        b.dep("g", "p").dep("p", "c")
        b.int_op("g_user")
        b.dep("g", "g_user")
        g = b.build()
        assignment = {
            g.node_by_name("g").uid: 0,
            g.node_by_name("p").uid: 0,
            g.node_by_name("g_user").uid: 1,
            g.node_by_name("c").uid: 1,
        }
        part = Partition(g, assignment, 2)
        p = g.node_by_name("p").uid
        plan = ReplicationPlan(
            replicas={p: frozenset({1})}, removed_comms=frozenset({p})
        )
        placed = build_placed_graph(g, part, m2, plan)
        # g still broadcasts (g_user and now p' consume it in cluster 1).
        assert placed.n_comms() == 1
        replica = by_name(placed, "p'")
        (edge,) = placed.in_edges(replica.iid)
        assert placed.instance(edge.src).is_copy


class TestRecords:
    """``Instance``, ``PlacedEdge`` and ``ScheduledOp`` are values."""

    @pytest.fixture
    def placed(self, m2):
        """A graph, partition and plan that place an original, a replica
        and a copy: g broadcasts to g_user and to p's replica, and p's
        replica feeds c."""
        b = DdgBuilder()
        b.int_op("g").int_op("p").int_op("c").int_op("g_user")
        b.dep("g", "p").dep("p", "c").dep("g", "g_user")
        g = b.build()
        home = {"g": 0, "p": 0, "c": 1, "g_user": 1}
        part = Partition(g, {g.node_by_name(n).uid: c for n, c in home.items()}, 2)
        p = g.node_by_name("p").uid
        plan = ReplicationPlan(
            replicas={p: frozenset({1})}, removed_comms=frozenset({p})
        )
        return g, part, plan

    @staticmethod
    def records(graph, kernel):
        instances = list(graph.instances())
        edges = [edge for inst in instances for edge in graph.out_edges(inst.iid)]
        return instances, edges, [kernel.ops[inst.iid] for inst in instances]

    def test_two_builds_give_equal_equally_hashed_records(self, placed, m2):
        g, part, plan = placed
        first, second = (
            self.records(graph, schedule(graph, m2, ii=4))
            for graph in (
                build_placed_graph(g, part, m2, plan),
                build_placed_graph(g, part, m2, plan),
            )
        )
        # One replica and one copy: every role is there, and every kind
        # of op (plain and on a bus) is scheduled.
        assert {inst.role for inst in first[0]} == set(Role)
        assert any(op.bus is not None for op in first[2])
        for mine, theirs in zip(first, second):
            assert mine and mine == theirs
            assert [hash(record) for record in mine] == [
                hash(record) for record in theirs
            ]

    def test_assigning_an_attribute_raises(self, placed, m2):
        g, part, plan = placed
        graph = build_placed_graph(g, part, m2, plan)
        instances, edges, ops = self.records(graph, schedule(graph, m2, ii=4))
        for record, field in (
            (instances[0], "cluster"),
            (edges[0], "distance"),
            (ops[0], "start"),
        ):
            with pytest.raises(AttributeError):
                setattr(record, field, 7)

    def test_fu_kind_of_a_copy_raises_key_error(self, cross_pair, m2):
        g, part = cross_pair
        (copy,) = build_placed_graph(g, part, m2, EMPTY_PLAN).copies()
        assert copy.is_copy
        with pytest.raises(KeyError):
            copy.fu_kind

    def test_pickled_kernel_round_trips_equal(self, placed, m2):
        """The process pool ships kernels pickled."""
        g, part, plan = placed
        graph = build_placed_graph(g, part, m2, plan)
        kernel = schedule(graph, m2, ii=4)
        loaded = pickle.loads(pickle.dumps(kernel))
        assert loaded.ops == kernel.ops
        assert (loaded.ii, loaded.machine) == (kernel.ii, kernel.machine)
        assert self.records(loaded.graph, loaded) == self.records(graph, kernel)
        assert [type(op) for op in loaded.ops.values()] == [
            type(op) for op in kernel.ops.values()
        ]
