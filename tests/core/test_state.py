"""Direct unit tests of the mutable replication state."""

import pytest

from repro.core.state import ReplicationState
from repro.ddg.builder import DdgBuilder
from repro.machine.config import parse_config
from repro.machine.resources import FuKind
from repro.partition.partition import Partition


@pytest.fixture
def m4():
    return parse_config("4c1b2l64r")


@pytest.fixture
def state(m4):
    """p (c0) -> {local (c0), far_a (c1), far_b (c2)}; q (c1) -> r (c1)."""
    b = DdgBuilder()
    b.int_op("p").fp_op("local").fp_op("far_a").fp_op("far_b")
    b.int_op("q").fp_op("r")
    b.dep("p", "local").dep("p", "far_a").dep("p", "far_b")
    b.dep("q", "r")
    g = b.build()
    part = Partition(
        g,
        {
            g.node_by_name("p").uid: 0,
            g.node_by_name("local").uid: 0,
            g.node_by_name("far_a").uid: 1,
            g.node_by_name("far_b").uid: 2,
            g.node_by_name("q").uid: 1,
            g.node_by_name("r").uid: 1,
        },
        4,
    )
    return ReplicationState(part, m4, ii=4)


def uid(state, name):
    return state.ddg.node_by_name(name).uid


class TestPresence:
    def test_home_cluster_present(self, state):
        assert state.present_clusters(uid(state, "p")) == {0}

    def test_replicas_add_presence(self, state):
        p = uid(state, "p")
        state.add_replicas(p, {1, 2})
        assert state.present_clusters(p) == {0, 1, 2}

    def test_removal_drops_home(self, state):
        p = uid(state, "p")
        state.apply(p, {p: {1}}, removable=[p])
        assert state.present_clusters(p) == {1}


class TestCommQueries:
    def test_destinations_exclude_home(self, state):
        assert state.comm_destinations(uid(state, "p")) == {1, 2}

    def test_local_only_value_has_no_comm(self, state):
        assert not state.has_comm(uid(state, "q"))

    def test_replication_shrinks_destinations(self, state):
        p = uid(state, "p")
        state.add_replicas(p, {1})
        assert state.comm_destinations(p) == {2}

    def test_removed_comm_is_gone(self, state):
        p = uid(state, "p")
        state.apply(p, {}, removable=[])
        assert state.comm_destinations(p) == set()
        assert not state.has_comm(p)

    def test_replica_consumers_extend_destinations(self, state):
        """A replica of a consumer pulls its parents' comms along."""
        far_a = uid(state, "far_a")
        state.add_replicas(far_a, {3})
        assert 3 in state.comm_destinations(uid(state, "p"))

    def test_extra_coms_formula(self, state, m4):
        # One active comm, capacity II//lat*buses = 4//2 = 2.
        assert state.nof_coms() == 1
        assert state.extra_coms() == 0
        tight = ReplicationState(state.partition, m4, ii=1)
        assert tight.extra_coms() == 1  # capacity 0 at II=1


class TestUsage:
    def test_counts_by_kind_and_cluster(self, state):
        assert state.usage(FuKind.INT, 0) == 1  # p
        assert state.usage(FuKind.FP, 1) == 2  # far_a, r

    def test_replicas_counted(self, state):
        p = uid(state, "p")
        state.add_replicas(p, {1})
        assert state.usage(FuKind.INT, 1) == 2  # q and the replica

    def test_removals_uncounted(self, state):
        local = uid(state, "local")
        state.apply(local, {}, removable=[local])
        assert state.usage(FuKind.FP, 0) == 0

    def test_usage_table_matches_pointwise(self, state):
        table = state.usage_table()
        for cluster in range(4):
            for kind in FuKind:
                assert table[cluster][kind] == state.usage(kind, cluster)


class TestApplyAndPlan:
    def test_apply_then_plan_round_trip(self, state, m4):
        p = uid(state, "p")
        state.apply(p, {p: {1, 2}}, removable=[])
        plan = state.to_plan(initial_coms=1)
        assert plan.replicas[p] == frozenset({1, 2})
        assert plan.removed_comms == frozenset({p})
        restored = ReplicationState.from_plan(
            state.partition, m4, 4, plan
        )
        assert restored.present_clusters(p) == {0, 1, 2}
        assert not restored.has_comm(p)

    def test_plan_counters(self, state):
        p = uid(state, "p")
        local = uid(state, "local")
        state.apply(p, {p: {1, 2}}, removable=[local])
        plan = state.to_plan(initial_coms=1)
        assert plan.n_replicated_instructions == 2
        assert plan.net_added_instructions == 1
        assert not plan.is_empty

    def test_instance_wanted_back_home_revives_the_original(self, state):
        local = uid(state, "local")
        state.apply(local, {}, removable=[local])
        assert state.present_clusters(local) == set()
        state.add_replicas(local, {0, 3})
        plan = state.to_plan(initial_coms=1)
        assert state.present_clusters(local) == {0, 3}
        assert state.usage(FuKind.FP, 0) == 1
        assert plan.replicas[local] == frozenset({3})
        assert local not in plan.removed
        # Revived, the original is removable again like any other.
        state.apply(local, {}, removable=[local])
        assert state.present_clusters(local) == {3}
