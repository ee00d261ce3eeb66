"""Capacity repair on integer tables equals the dict-based original.

:func:`reference_repair` is the repair as first written: ``FuKind``-keyed
load tables rebuilt every step and a :class:`Partition` copied per move.
Random, deliberately lopsided partitions on a heterogeneous machine and
on a small-register paper machine, over generated loops given extra
memory edges, must come out of both with the same assignment in the
same node order, and the input object itself when nothing moved.
"""

from __future__ import annotations

import random

import pytest

from repro.ddg.graph import EdgeKind
from repro.machine.config import MachineConfig, heterogeneous_machine, parse_config
from repro.machine.resources import FuKind
from repro.partition.multilevel import _repair_capacity
from repro.partition.partition import Partition
from repro.workloads.generator import LoopSpec, generate_loop


def _attachment(ddg, partition: Partition, uid: int, cluster: int) -> int:
    """Neighbours of ``uid`` in ``cluster`` over every edge kind."""
    count = 0
    for edge in ddg.out_edges(uid):
        if partition.cluster_of(edge.dst) == cluster and edge.dst != uid:
            count += 1
    for edge in ddg.in_edges(uid):
        if partition.cluster_of(edge.src) == cluster and edge.src != uid:
            count += 1
    return count


def _producer_counts(partition: Partition) -> list[int]:
    counts = [0] * partition.n_clusters
    for uid, cluster in partition.assignment().items():
        if not partition.ddg.node(uid).is_store:
            counts[cluster] += 1
    return counts


def reference_repair(
    partition: Partition, machine: MachineConfig, ii: int
) -> Partition:
    ddg = partition.ddg

    def fu_overflow():
        for cluster, loads in enumerate(partition.load_table()):
            for kind, count in loads.items():
                if count > machine.fu_count(cluster, kind) * ii:
                    return cluster, kind
        return None

    def register_overflow():
        for cluster, producers in enumerate(_producer_counts(partition)):
            if producers > machine.registers(cluster):
                return cluster
        return None

    def move_from(cluster, kind, spare_of):
        spare, target = max(
            (spare_of(c), -c) for c in machine.cluster_ids() if c != cluster
        )
        target = -target
        if spare <= 0:
            return None
        movers = [
            uid
            for uid in partition.nodes_in(cluster)
            if (kind is None and not ddg.node(uid).is_store)
            or ddg.node(uid).fu_kind is kind
        ]
        if not movers:
            return None
        best = min(
            movers,
            key=lambda uid: (_attachment(ddg, partition, uid, cluster), uid),
        )
        return partition.with_move(best, target)

    for _ in range(2 * len(ddg)):
        overflow = fu_overflow()
        if overflow is not None:
            cluster, kind = overflow
            table = partition.load_table()
            moved = move_from(
                cluster,
                kind,
                lambda c: machine.fu_count(c, kind) * ii - table[c][kind],
            )
            if moved is None:
                return partition
            partition = moved
            continue
        reg_cluster = register_overflow()
        if reg_cluster is None:
            return partition
        producers = _producer_counts(partition)
        moved = move_from(
            reg_cluster, None, lambda c: machine.registers(c) - producers[c]
        )
        if moved is None:
            return partition
        partition = moved
    return partition


MACHINES = {
    "heterogeneous": heterogeneous_machine(
        cluster_fus=[
            {FuKind.INT: 2, FuKind.FP: 1, FuKind.MEM: 1},
            {FuKind.INT: 1, FuKind.FP: 3, FuKind.MEM: 1},
            {FuKind.INT: 1, FuKind.FP: 1, FuKind.MEM: 2},
        ],
        bus_count=1,
        bus_latency=2,
        registers=[9, 14, 6],
    ),
    "4c1b2l12r": parse_config("4c1b2l12r"),
}


def _loop_with_memory_edges(rng: random.Random, index: int):
    ddg = generate_loop(LoopSpec(name="repair"), rng, index=index).ddg
    uids = list(ddg.node_ids())
    for _ in range(len(uids) // 3):
        src, dst = rng.sample(uids, 2)
        ddg.add_edge(src, dst, distance=rng.randrange(2), kind=EdgeKind.MEMORY)
    return ddg


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("seed", range(12))
def test_repair_matches_dict_reference(machine_name, seed):
    rng = random.Random(seed)
    machine = MACHINES[machine_name]
    ddg = _loop_with_memory_edges(rng, seed)
    assert any(edge.kind is EdgeKind.MEMORY for edge in ddg.edges())
    moved_any = False
    for ii in (1, 2, 3, 5):
        # Lopsided: most nodes crowd one cluster, in a shuffled dict order.
        crowded = rng.randrange(machine.n_clusters)
        uids = list(ddg.node_ids())
        rng.shuffle(uids)
        assignment = {
            uid: crowded if rng.random() < 0.7 else rng.randrange(machine.n_clusters)
            for uid in uids
        }
        partition = Partition(ddg, assignment, machine.n_clusters)
        expected = reference_repair(partition, machine, ii)
        repaired = _repair_capacity(partition, machine, ii)
        assert list(repaired.assignment().items()) == list(
            expected.assignment().items()
        )
        if expected is partition:
            assert repaired is partition
        else:
            moved_any = True
    assert moved_any
