"""Tests for refinement with replicate moves enabled."""

from __future__ import annotations

import random

from repro.machine.config import parse_config, unified_machine
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.partition import Partition
from repro.partition.pseudo import pseudo_schedule
from repro.partition.refine import refine, refine_replicating
from repro.workloads.generator import LoopSpec, generate_loop


def _case(seed: int, machine_name: str = "4c1b2l64r"):
    rng = random.Random(seed)
    machine = parse_config(machine_name)
    ddg = generate_loop(LoopSpec(name="refrep"), rng, index=seed).ddg
    assignment = {
        uid: rng.randrange(machine.n_clusters) for uid in ddg.node_ids()
    }
    return ddg, machine, Partition(ddg, assignment, machine.n_clusters)


class TestRefineReplicating:
    def test_without_grants_never_worse(self):
        """The homes-only result is scored replica-aware, so its plain
        key is only guaranteed to improve when no replicas survive."""
        for seed in range(5):
            _, machine, partition = _case(seed)
            refined, grants = refine_replicating(partition, machine, 2)
            if not grants:
                before = pseudo_schedule(partition, machine, 2)
                after = pseudo_schedule(refined, machine, 2)
                assert after.key <= before.key

    def test_budget_bounds_surviving_replicas(self):
        for budget in (0, 1, 3):
            _, machine, partition = _case(1)
            with use_registry(MetricsRegistry()) as metrics:
                _, grants = refine_replicating(
                    partition, machine, 2, replication_budget=budget
                )
            counters = metrics.snapshot()
            surviving = sum(len(clusters) for clusters in grants.values())
            assert surviving <= budget
            assert counters["partition.moves.replicas_surviving"] == surviving
            assert counters["partition.moves.replicate_accepted"] <= budget

    def test_zero_budget_matches_plain_refine(self):
        """With no replication budget the move stream is exactly
        ``refine``'s: same accepted moves, same final assignment."""
        for seed in range(4):
            _, machine, partition = _case(seed)
            plain = refine(partition, machine, 2)
            replicating, grants = refine_replicating(
                partition, machine, 2, replication_budget=0
            )
            assert grants == {}
            assert replicating.assignment() == plain.assignment()

    def test_grants_are_frozen_cluster_sets(self):
        _, machine, partition = _case(2)
        _, grants = refine_replicating(partition, machine, 2)
        for uid, clusters in grants.items():
            assert isinstance(clusters, frozenset)
            assert partition.cluster_of(uid) not in clusters

    def test_counters_split_by_kind(self, current_metrics):
        _, machine, partition = _case(3)
        refine_replicating(partition, machine, 2)
        counters = current_metrics.snapshot()
        assert (
            counters["partition.moves.plain_accepted"]
            + counters["partition.moves.replicate_accepted"]
            == counters["partition.moves_accepted"]
        )
        assert (
            counters["partition.moves.plain"]
            >= counters["partition.moves.plain_accepted"]
        )
        assert (
            counters["partition.moves.replicate"]
            >= counters["partition.moves.replicate_accepted"]
        )


class TestPartitionReplicating:
    def test_unclustered_machine_gets_trivial_partition(self):
        rng = random.Random(9)
        ddg = generate_loop(LoopSpec(name="uni"), rng, index=9).ddg
        machine = unified_machine()
        partitioner = MultilevelPartitioner(ddg=ddg, machine=machine)
        partition, grants = partitioner.partition_replicating(2)
        assert grants == {}
        assert set(partition.assignment().values()) == {0}

    def test_clustered_machine_produces_valid_grants(self):
        rng = random.Random(11)
        ddg = generate_loop(LoopSpec(name="clu"), rng, index=11).ddg
        machine = parse_config("4c1b2l64r")
        partitioner = MultilevelPartitioner(ddg=ddg, machine=machine)
        partition, grants = partitioner.partition_replicating(
            3, replication_budget=4
        )
        assert sum(len(clusters) for clusters in grants.values()) <= 4
        for uid, clusters in grants.items():
            assert partition.cluster_of(uid) not in clusters
            assert all(0 <= c < machine.n_clusters for c in clusters)
