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
from repro.ddg.csr import FU_KINDS, csr_view
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


def _repair_capacity(
    partition: Partition, machine: MachineConfig, ii: int
) -> Partition:
    """Move nodes until hard per-cluster constraints hold.

    Two constraints are enforced: every (cluster, kind) load must fit
    ``units * II`` issue slots, and the number of value producers per
    cluster must not exceed its register file — beyond that floor no II
    increase can ever make MaxLive fit (each live value costs at least
    one register), so the partition itself must redistribute.

    Each step fixes the first overflow found, (cluster, kind) slots
    before register floors, both in cluster then kind order: the
    offending node with the least *attachment* to its cluster — its
    neighbours there over every edge kind, memory edges included, with
    ties to the lowest uid — moves to the cluster with the most spare
    room of that resource (ties to the lowest cluster id). The tables
    are position-indexed lists; one :class:`Partition` is built at the
    end, in the input's node order, and the input itself is returned
    when nothing moved.

    Best effort: when the whole machine is saturated the overflow is
    unavoidable and the loop exits (the driver will raise the II or
    give up).
    """
    ddg = partition.ddg
    csr = csr_view(ddg)
    n_clusters = partition.n_clusters
    clusters = range(n_clusters)
    kinds = range(len(FU_KINDS))
    home = [partition.cluster_of(uid) for uid in csr.uids]
    slots = [
        [machine.fu_count(cluster, kind) * ii for kind in FU_KINDS]
        for cluster in clusters
    ]
    registers = [machine.registers(cluster) for cluster in clusters]
    loads = [[0] * len(FU_KINDS) for _ in clusters]
    producers = [0] * n_clusters
    for position, cluster in enumerate(home):
        loads[cluster][csr.fu_ord[position]] += 1
        if not csr.is_store[position]:
            producers[cluster] += 1
    neighbours: list[list[int]] | None = None  # built on the first move
    moved = False

    def overflow() -> tuple[int, int | None] | None:
        for cluster in clusters:
            for kind in kinds:
                if loads[cluster][kind] > slots[cluster][kind]:
                    return cluster, kind
        for cluster in clusters:
            if producers[cluster] > registers[cluster]:
                return cluster, None
        return None

    for _ in range(2 * len(ddg)):
        found = overflow()
        if found is None:
            break
        cluster, kind = found
        if kind is None:
            spare = [registers[c] - producers[c] for c in clusters]
        else:
            spare = [slots[c][kind] - loads[c][kind] for c in clusters]
        room, target = max((spare[c], -c) for c in clusters if c != cluster)
        target = -target
        if room <= 0:
            break
        movers = [
            position
            for position in range(csr.n_nodes)
            if home[position] == cluster
            and (
                not csr.is_store[position]
                if kind is None
                else csr.fu_ord[position] == kind
            )
        ]
        if not movers:
            break
        if neighbours is None:
            neighbours = [[] for _ in range(csr.n_nodes)]
            for src, dst in zip(csr.edge_src, csr.edge_dst):
                if src != dst:
                    neighbours[src].append(dst)
                    neighbours[dst].append(src)
        best = min(
            movers,
            key=lambda position: (
                sum(1 for other in neighbours[position] if home[other] == cluster),
                csr.uids[position],
            ),
        )
        home[best] = target
        loads[cluster][csr.fu_ord[best]] -= 1
        loads[target][csr.fu_ord[best]] += 1
        if not csr.is_store[best]:
            producers[cluster] -= 1
            producers[target] += 1
        moved = True
    if not moved:
        return partition
    assignment = {
        uid: home[csr.index[uid]] for uid in partition.assignment()
    }
    return Partition(ddg, assignment, n_clusters)


@dataclasses.dataclass
class MultilevelPartitioner:
    """Stateful partitioner for one loop on one machine.

    Keeps the coarsening hierarchy so repeated refinement calls (on II
    bumps) and the section 5.2 experiments can reuse it.

    Attributes:
        ddg: the loop being partitioned.
        machine: the target machine.
        levels: coarsening hierarchy, finest level first.
        macro_assignment: node -> cluster of the coarsest level's
            macro-node placement (cached beside ``levels``; it does not
            depend on the II).
    """

    ddg: Ddg
    machine: MachineConfig
    levels: list[CoarseLevel] = dataclasses.field(default_factory=list)
    macro_assignment: dict[int, int] | None = dataclasses.field(
        default=None, init=False, repr=False
    )

    def initial(self, ii: int) -> Partition:
        """Coarsen (cached) and produce the preliminary partition."""
        if not self.levels:
            with obs_span("partition.coarsen", nodes=len(self.ddg)) as sp:
                analysis_ii = max(ii, rec_mii(self.ddg))
                analysis = analyze(self.ddg, analysis_ii)
                weights = edge_weights(self.ddg, analysis, self.machine.bus.latency)
                self.levels = coarsen(self.ddg, weights, self.machine.n_clusters)
                sp.set(levels=len(self.levels))
            self.macro_assignment = None
        if self.macro_assignment is None:
            self.macro_assignment = _assign_macro_nodes(
                self.ddg, self.levels[-1], self.machine
            )
        return Partition(self.ddg, self.macro_assignment, self.machine.n_clusters)

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
