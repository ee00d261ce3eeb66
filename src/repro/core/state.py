"""Mutable working state of the replication algorithm.

The state tracks, on top of a fixed (DDG, partition) pair, the three
mutations replication performs (section 3): replicas added to clusters,
original instructions removed as useless, and communications
eliminated. Every structural query the algorithm needs — where a value
is present, which clusters still need its broadcast, per-cluster
resource usage — is answered against the *current* state, which is what
makes the section 3.4 subgraph updates fall out naturally: subgraphs
and destinations are simply recomputed against the evolved state.

The answers are O(1)-ish: presence sets, per-cluster usage counts,
per-(producer, cluster) consumer-instance counts and the active
communication set are *maintained* tables, updated in O(degree) by
:meth:`ReplicationState.apply` rather than recomputed by whole-graph
scans (the historical ``usage``/``active_comms`` were O(V·E) per ask
and dominated the replication stage). ``apply`` returns a
:class:`StateDelta` describing exactly what changed — which presence
sets, which clusters, which ``has_comm`` bits flipped — so the
incremental candidate scorer (:mod:`repro.core.incremental`) can
invalidate only the cached subgraphs the mutation could have affected.
"""

from __future__ import annotations

import dataclasses

from repro.core.plan import ReplicationPlan
from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.config import MachineConfig
from repro.machine.resources import FuKind
from repro.partition.partition import Partition


@dataclasses.dataclass(frozen=True)
class StateDelta:
    """What one :meth:`ReplicationState.apply` changed.

    Attributes:
        comm: the producer whose communication was eliminated.
        changed: uids whose presence set changed (replicas gained or
            the original removed).
        touched_clusters: clusters where some presence changed.
        flipped: uids whose ``has_comm`` answer changed.
    """

    comm: int
    changed: frozenset[int]
    touched_clusters: frozenset[int]
    flipped: frozenset[int]


class ReplicationState:
    """Evolving replication decisions for one loop at one II."""

    def __init__(self, partition: Partition, machine: MachineConfig, ii: int) -> None:
        self.partition = partition
        self.machine = machine
        self.ii = ii
        self.replicas: dict[int, set[int]] = {}
        self.removed: set[int] = set()
        self.removed_comms: set[int] = set()
        self._rebuild_tables()

    @classmethod
    def from_plan(
        cls,
        partition: Partition,
        machine: MachineConfig,
        ii: int,
        plan: ReplicationPlan,
    ) -> "ReplicationState":
        """Resume from an earlier plan (used by the section 5.1 pass)."""
        state = cls(partition, machine, ii)
        state.replicas = {uid: set(cs) for uid, cs in plan.replicas.items()}
        state.removed = set(plan.removed)
        state.removed_comms = set(plan.removed_comms)
        state._rebuild_tables()
        return state

    @property
    def ddg(self) -> Ddg:
        """The loop being transformed."""
        return self.partition.ddg

    def _rebuild_tables(self) -> None:
        """Derive every maintained table from the decision sets."""
        ddg = self.partition.ddg
        self._home = {
            uid: self.partition.cluster_of(uid) for uid in ddg.node_ids()
        }
        self._reg_parents: dict[int, list[int]] = {}
        self._reg_children: dict[int, list[int]] = {}
        for uid in ddg.node_ids():
            self._reg_parents[uid] = [
                edge.src
                for edge in ddg.in_edges(uid)
                if edge.kind is EdgeKind.REGISTER
            ]
            self._reg_children[uid] = [
                edge.dst
                for edge in ddg.out_edges(uid)
                if edge.kind is EdgeKind.REGISTER
            ]
        self._present: dict[int, set[int]] = {}
        for uid in ddg.node_ids():
            clusters = set(self.replicas.get(uid, ()))
            if uid not in self.removed:
                clusters.add(self._home[uid])
            self._present[uid] = clusters
        self._usage: list[dict[FuKind, int]] = [
            {kind: 0 for kind in FuKind} for _ in range(self.machine.n_clusters)
        ]
        self._fu_kind = {uid: ddg.node(uid).fu_kind for uid in ddg.node_ids()}
        for uid, clusters in self._present.items():
            kind = self._fu_kind[uid]
            for cluster in clusters:
                self._usage[cluster][kind] += 1
        # consumer_count[u][c]: register out-edges of u whose consumer
        # has an instance in cluster c (>0 means c consumes u's value).
        self._consumer_count: dict[int, dict[int, int]] = {
            uid: {} for uid in ddg.node_ids()
        }
        for uid in ddg.node_ids():
            counts = self._consumer_count[uid]
            for child in self._reg_children[uid]:
                for cluster in self._present[child]:
                    counts[cluster] = counts.get(cluster, 0) + 1
        self._active = {
            uid for uid in ddg.node_ids() if self._compute_has_comm(uid)
        }

    # ------------------------------------------------------------------
    # Presence and communications
    # ------------------------------------------------------------------

    def present_clusters(self, uid: int) -> set[int]:
        """Clusters holding an instance (original or replica) of ``uid``.

        Returns the live maintained set — treat it as read-only.
        """
        return self._present[uid]

    def consumer_clusters(self, uid: int) -> set[int]:
        """Clusters holding an instance of any register consumer."""
        return {
            cluster
            for cluster, count in self._consumer_count[uid].items()
            if count > 0
        }

    def comm_destinations(self, uid: int) -> set[int]:
        """Clusters that still need ``uid``'s value over the bus."""
        if uid in self.removed_comms:
            return set()
        return self.consumer_clusters(uid) - self._present[uid]

    def _compute_has_comm(self, uid: int) -> bool:
        if uid in self.removed_comms:
            return False
        present = self._present[uid]
        for cluster, count in self._consumer_count[uid].items():
            if count > 0 and cluster not in present:
                return True
        return False

    def has_comm(self, uid: int) -> bool:
        """True when ``uid``'s value still crosses clusters."""
        return uid in self._active

    def active_comms(self) -> list[int]:
        """Producers whose values still communicate, in uid order."""
        return sorted(self._active)

    def nof_coms(self) -> int:
        """Current number of communications."""
        return len(self._active)

    def extra_coms(self) -> int:
        """Paper section 3: communications beyond the bus capacity."""
        return max(0, self.nof_coms() - self.machine.bus.capacity(self.ii))

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------

    def usage(self, kind: FuKind, cluster: int) -> int:
        """Instances using ``kind`` units currently placed in ``cluster``."""
        return self._usage[cluster][kind]

    def usage_table(self) -> list[dict[FuKind, int]]:
        """Per-cluster, per-kind instance counts for the current state."""
        return [dict(counts) for counts in self._usage]

    def register_parents(self, uid: int) -> list[int]:
        """Uids producing register values ``uid`` consumes."""
        return self._reg_parents[uid]

    def register_children(self, uid: int) -> list[int]:
        """Uids consuming ``uid``'s register value."""
        return self._reg_children[uid]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _add_presence(self, uid: int, cluster: int) -> None:
        self._present[uid].add(cluster)
        self._usage[cluster][self._fu_kind[uid]] += 1
        for parent in self._reg_parents[uid]:
            counts = self._consumer_count[parent]
            counts[cluster] = counts.get(cluster, 0) + 1

    def _drop_presence(self, uid: int, cluster: int) -> None:
        self._present[uid].discard(cluster)
        self._usage[cluster][self._fu_kind[uid]] -= 1
        for parent in self._reg_parents[uid]:
            self._consumer_count[parent][cluster] -= 1

    def _refresh_active(self, uids: set[int]) -> frozenset[int]:
        """Recompute ``has_comm`` over ``uids``; returns the flips."""
        flipped: set[int] = set()
        for uid in uids:
            now = self._compute_has_comm(uid)
            if now != (uid in self._active):
                flipped.add(uid)
                if now:
                    self._active.add(uid)
                else:
                    self._active.discard(uid)
        return frozenset(flipped)

    def _grant(self, uid: int, clusters: set[int]) -> set[int]:
        """Give ``uid`` an instance in every cluster of ``clusters``.

        An instance wanted back in the home cluster of a removed original
        revives the original instead of becoming a replica there, so
        ``replicas`` never names a node's home cluster. Returns the
        clusters that gained an instance.
        """
        fresh = set(clusters) - self._present[uid]
        home = self._home[uid]
        if home in fresh:
            self.removed.discard(uid)
        foreign = set(clusters) - {home}
        if foreign:
            self.replicas.setdefault(uid, set()).update(foreign)
        for cluster in fresh:
            self._add_presence(uid, cluster)
        return fresh

    def add_replicas(self, uid: int, clusters: set[int]) -> None:
        """Record replicas outside the ``apply`` flow.

        Used by the length-driven passes (section 5.1 and the acyclic
        variant), which replicate into specific clusters without
        eliminating a communication.
        """
        fresh = self._grant(uid, clusters)
        if fresh:
            self._refresh_active({uid, *self._reg_parents[uid]})

    def apply(
        self,
        comm: int,
        needed: dict[int, set[int]],
        removable: list[int],
    ) -> StateDelta:
        """Commit one replication: kill ``comm``, add replicas, remove dead ops.

        Args:
            comm: producer uid whose communication is eliminated.
            needed: node uid -> clusters where a replica must be created.
            removable: original uids that become useless (section 3.2).

        Returns:
            The :class:`StateDelta` of maintained-table changes, which
            the incremental scorer uses for targeted invalidation.
        """
        changed: set[int] = set()
        touched: set[int] = set()

        for uid, clusters in needed.items():
            fresh = self._grant(uid, clusters)
            if fresh:
                changed.add(uid)
                touched.update(fresh)

        self.removed_comms.add(comm)
        for uid in removable:
            if uid in self.removed:
                continue
            self.removed.add(uid)
            home = self._home[uid]
            if home in self._present[uid]:
                self._drop_presence(uid, home)
                changed.add(uid)
                touched.add(home)

        # has_comm can only flip where presence or consumer presence
        # changed: the changed uids themselves, their register parents
        # (their consumer sets moved), and the eliminated comm.
        affected = {comm} | changed
        for uid in changed:
            affected.update(self._reg_parents[uid])
        flipped = self._refresh_active(affected)

        return StateDelta(
            comm=comm,
            changed=frozenset(changed),
            touched_clusters=frozenset(touched),
            flipped=flipped,
        )

    def to_plan(self, initial_coms: int, feasible: bool = True) -> ReplicationPlan:
        """Freeze the state into a :class:`ReplicationPlan`."""
        return ReplicationPlan(
            replicas={
                uid: frozenset(clusters)
                for uid, clusters in self.replicas.items()
                if clusters
            },
            removed=frozenset(self.removed),
            removed_comms=frozenset(self.removed_comms),
            initial_coms=initial_coms,
            feasible=feasible,
        )
