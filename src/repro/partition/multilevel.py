"""The multilevel partitioner driver.

Combines edge weighting, coarsening and refinement into the partitioning
step of Figure 2: coarsen the DDG down to one macro-node per cluster,
assign macro-nodes to clusters balancing per-kind load, then refine at
the candidate II. The coarsening hierarchy is exposed for the macro-node
replication study (section 5.2).
"""

from __future__ import annotations

import dataclasses

from repro.ddg.analysis import analyze, rec_mii
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig
from repro.machine.resources import FuKind
from repro.obs.spans import span as obs_span
from repro.partition.coarsen import CoarseLevel, coarsen
from repro.partition.partition import Partition
# ``refine`` is not called here; perfbench's traced run patches it in
# this module's namespace (perfbench/spans.py), so the name must exist.
from repro.partition.refine import refine, refine_replicating  # noqa: F401
from repro.partition.weights import edge_weights


def _assign_macro_nodes(
    ddg: Ddg, level: CoarseLevel, machine: MachineConfig
) -> dict[int, int]:
    """Place each macro-node on the cluster minimizing peak kind-load.

    Macro-nodes are placed largest first (greedy bin packing); ties go
    to the lowest cluster id for determinism.
    """
    loads = [
        {kind: 0 for kind in FuKind} for _ in range(machine.n_clusters)
    ]
    assignment: dict[int, int] = {}
    macro_order = sorted(
        level.macro_nodes.values(), key=lambda m: (-m.size, m.uid)
    )
    for macro in macro_order:
        demand = {kind: 0 for kind in FuKind}
        for uid in macro.members:
            demand[ddg.node(uid).fu_kind] += 1

        def overflow(cluster: int) -> tuple[float, int]:
            worst = 0.0
            for kind in FuKind:
                units = machine.fu_count(cluster, kind)
                worst = max(worst, (loads[cluster][kind] + demand[kind]) / units)
            return (worst, cluster)

        target = min(machine.cluster_ids(), key=overflow)
        for uid in macro.members:
            assignment[uid] = target
        for kind in FuKind:
            loads[target][kind] += demand[kind]
    return assignment


def _attachment(ddg: Ddg, partition: Partition, uid: int, cluster: int) -> int:
    """Register neighbours of ``uid`` placed in ``cluster``."""
    count = 0
    for edge in ddg.out_edges(uid):
        if partition.cluster_of(edge.dst) == cluster and edge.dst != uid:
            count += 1
    for edge in ddg.in_edges(uid):
        if partition.cluster_of(edge.src) == cluster and edge.src != uid:
            count += 1
    return count


def _producer_counts(partition: Partition) -> list[int]:
    """Value-producing nodes per cluster (stores produce no value)."""
    counts = [0] * partition.n_clusters
    for uid, cluster in partition.assignment().items():
        if not partition.ddg.node(uid).is_store:
            counts[cluster] += 1
    return counts


def _repair_capacity(
    partition: Partition, machine: MachineConfig, ii: int
) -> Partition:
    """Move nodes until hard per-cluster constraints hold.

    Two constraints are enforced: every (cluster, kind) load must fit
    ``units * II`` issue slots, and the number of value producers per
    cluster must not exceed its register file — beyond that floor no II
    increase can ever make MaxLive fit (each live value costs at least
    one register), so the partition itself must redistribute.

    Best effort: when the whole machine is saturated the overflow is
    unavoidable and the loop exits (the driver will raise the II or
    give up).
    """
    ddg = partition.ddg

    def fu_overflow() -> tuple[int, FuKind] | None:
        for cluster, loads in enumerate(partition.load_table()):
            for kind, count in loads.items():
                if count > machine.fu_count(cluster, kind) * ii:
                    return cluster, kind
        return None

    def register_overflow() -> int | None:
        for cluster, producers in enumerate(_producer_counts(partition)):
            if producers > machine.registers(cluster):
                return cluster
        return None

    def move_from(cluster: int, kind: FuKind | None, spare_of) -> Partition | None:
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


@dataclasses.dataclass
class MultilevelPartitioner:
    """Stateful partitioner for one loop on one machine.

    Keeps the coarsening hierarchy so repeated refinement calls (on II
    bumps) and the section 5.2 experiments can reuse it.

    Attributes:
        ddg: the loop being partitioned.
        machine: the target machine.
        levels: coarsening hierarchy, finest level first.
    """

    ddg: Ddg
    machine: MachineConfig
    levels: list[CoarseLevel] = dataclasses.field(default_factory=list)

    def initial(self, ii: int) -> Partition:
        """Coarsen (cached) and produce the preliminary partition."""
        if not self.levels:
            with obs_span("partition.coarsen", nodes=len(self.ddg)) as sp:
                analysis_ii = max(ii, rec_mii(self.ddg))
                analysis = analyze(self.ddg, analysis_ii)
                weights = edge_weights(self.ddg, analysis, self.machine.bus.latency)
                self.levels = coarsen(self.ddg, weights, self.machine.n_clusters)
                sp.set(levels=len(self.levels))
        assignment = _assign_macro_nodes(self.ddg, self.levels[-1], self.machine)
        return Partition(self.ddg, assignment, self.machine.n_clusters)

    def partition(self, ii: int, move_budget: int = 64) -> Partition:
        """:meth:`partition_replicating` with no replication budget."""
        return self.partition_replicating(ii, move_budget, replication_budget=0)[0]

    def partition_replicating(
        self, ii: int, move_budget: int = 64, replication_budget: int = 8
    ) -> tuple[Partition, dict[int, frozenset[int]]]:
        """Initial partition, capacity repair, then refinement.

        Per the paper (section 2.3.1), the number of instructions per
        cluster is *constrained* by the available resources and the II,
        so capacity is enforced before quality refinement: whenever a
        (cluster, kind) pair exceeds ``units * II`` issue slots, the
        least-attached offending node moves to the cluster with the
        most spare capacity of that kind.

        Refinement may also replicate, up to ``replication_budget``
        replicas (:func:`~repro.partition.refine.refine_replicating`).
        Returns the refined partition plus the ``{uid:
        frozenset(clusters)}`` replica grants for the post-pass
        replicator to treat as already granted. An unclustered machine
        has nowhere to move or replicate into, so it gets the trivial
        partition and no grants.
        """
        if not self.machine.is_clustered:
            assignment = {uid: 0 for uid in self.ddg.node_ids()}
            return Partition(self.ddg, assignment, 1), {}
        initial = self.initial(ii)
        with obs_span("partition.repair", ii=ii):
            repaired = _repair_capacity(initial, self.machine, ii)
        with obs_span(
            "partition.refine",
            ii=ii,
            budget=move_budget,
            replicating=replication_budget > 0,
        ):
            return refine_replicating(
                repaired,
                self.machine,
                ii,
                move_budget,
                replication_budget=replication_budget,
            )


def initial_partition(ddg: Ddg, machine: MachineConfig, ii: int) -> Partition:
    """One-shot convenience wrapper around :class:`MultilevelPartitioner`."""
    return MultilevelPartitioner(ddg=ddg, machine=machine).partition(ii)
