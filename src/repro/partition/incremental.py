"""Incremental move evaluation for the refinement hot path.

Refinement (Figure 2's inner loop) scores hundreds of candidate
single-node moves per loop, and historically paid for each one with a
full :func:`~repro.partition.pseudo.pseudo_schedule` — an O(V·E)
longest-path relaxation plus fresh load tables and a whole-graph
communication recount — on a freshly copied
:class:`~repro.partition.partition.Partition`. This module replaces
that with a :class:`MoveEvaluator` that owns mutable state and updates
it in O(degree) per :meth:`~MoveEvaluator.apply`/:meth:`~MoveEvaluator.undo`:

* per-cluster, per-FU-kind load tables and totals, each (cluster, kind)
  resource bound ``ceil(load / units)``, a count of bounds by value and
  their maximum (the resource II);
* per-cluster value-producer counts (the register floor) and the
  number of clusters over their floor;
* per-node counts of *foreign* register out-edges, so the partition's
  communication count is a running integer, not an edge scan;
* per-node counts of foreign register neighbours, so the boundary (the
  set of profitable move candidates) is *maintained*, not recomputed;
* per-edge bus penalties (the bus latency on a register edge that
  crosses clusters, else 0), so a length is one vector add plus the
  relaxation.

Scoring exploits the pseudo-schedule's lexicographic key: the cheap
prefix (capacity violation, II estimate, communication count) is O(1)
from the maintained state, and the expensive ``length_estimate`` — the
bus-penalized critical path — is only computed when the prefix ties,
via the CSR relaxation kernel (:func:`repro.ddg.csr.relax_length`).
:meth:`~MoveEvaluator.prefix`, :meth:`~MoveEvaluator.length` and
:meth:`~MoveEvaluator.imbalance` also score a *trial* plain move — the
state moving one node would make — without making it: the prefix in
O(degree) from the maintained tables, the length from the maintained
penalties with the moved node's edges re-priced. Every quantity matches
the from-scratch ``pseudo_schedule`` bit for bit (the equivalence
property test drives thousands of random moves to hold this line), so
refinement decisions are unchanged — only cheaper.

Moves come in two kinds, both O(degree) to apply, undo and redo:

* :class:`ReassignMove` — the classic "move node to another cluster";
* :class:`ReplicateMove` — *clone* a node into a target cluster, the
  replication-aware-partitioning move (Papp et al.). The replica is an
  alias of the original (same edges; see
  :class:`repro.ddg.csr.ReplicaView`) whose presence absorbs
  communications: a producer only communicates when some consumer
  instance sits in a cluster holding no instance of the producer —
  the exact rule placement uses to create bus COPYs. Undoing a
  replicate move is the paired de-replication.

The replica tables (per-producer consumer-cluster counts, uncovered
cluster counts, the replica-aware communication total) are built lazily
on the first replicate move, so evaluators that never replicate — the
four paper schemes — run the exact historical code path and generate
bit-identical move streams.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Iterator

from repro.ddg.csr import FU_KINDS, csr_view, edge_weights_at, relax_length
from repro.machine.config import MachineConfig
from repro.obs.metrics import current_registry
from repro.partition.partition import Partition
from repro.partition.pseudo import PseudoSchedule


@dataclasses.dataclass(frozen=True)
class Move:
    """One applied reassignment, undoable via :meth:`MoveEvaluator.undo`."""

    uid: int
    src_cluster: int
    dst_cluster: int


#: The explicit name of the classic move kind; ``Move`` is kept as the
#: historical alias (tests and callers predate the protocol).
ReassignMove = Move


@dataclasses.dataclass(frozen=True)
class ReplicateMove:
    """One applied replication of ``uid`` into ``cluster``.

    Undoing it (:meth:`MoveEvaluator.undo`) is the paired
    de-replication: the replica instance and every table contribution it
    made are removed, in O(degree).
    """

    uid: int
    cluster: int


class MoveEvaluator:
    """Mutable pseudo-schedule state for one (partition, machine, II).

    The evaluator never mutates the partition it was built from; call
    :meth:`to_partition` to materialize the current assignment.

    It counts its work under ``partition.`` in the current registry
    (:func:`~repro.obs.metrics.current_registry`): ``moves_applied`` and
    ``moves_reverted`` over both move kinds (:meth:`redo` and trial
    scoring count nothing); ``moves.plain`` and ``moves.replicate`` per
    kind; ``lengths_computed`` for relaxations run and
    ``lengths_memoized`` for length asks the memo answered.
    """

    def __init__(
        self,
        partition: Partition,
        machine: MachineConfig,
        ii: int,
    ) -> None:
        self._machine = machine
        self._ii = ii
        registry = current_registry()
        self._moves_applied = registry.counter("partition.moves_applied")
        self._moves_reverted = registry.counter("partition.moves_reverted")
        self._plain_moves = registry.counter("partition.moves.plain")
        self._replicate_moves = registry.counter("partition.moves.replicate")
        self._lengths_computed = registry.counter("partition.lengths_computed")
        self._lengths_memoized = registry.counter("partition.lengths_memoized")
        self._ddg = partition.ddg
        self._csr = csr_view(self._ddg)
        self._n_clusters = partition.n_clusters
        self._rounds = len(self._ddg) + 1
        self._bus_count = machine.bus.count
        self._bus_latency = machine.bus.latency
        self._units = [
            [machine.fu_count(cluster, kind) for kind in FU_KINDS]
            for cluster in range(machine.n_clusters)
        ]
        self._registers = [
            machine.registers(cluster) for cluster in machine.cluster_ids()
        ]

        csr = self._csr
        self._cluster = [partition.cluster_of(uid) for uid in csr.uids]
        cluster = self._cluster
        self._load = [[0] * len(FU_KINDS) for _ in range(self._n_clusters)]
        self._totals = [0] * self._n_clusters
        self._producers = [0] * self._n_clusters
        for position in range(csr.n_nodes):
            home = cluster[position]
            self._load[home][csr.fu_ord[position]] += 1
            self._totals[home] += 1
            if not csr.is_store[position]:
                self._producers[home] += 1
        # Resource bounds ceil(load / units) per (cluster, kind), how many
        # pairs sit at each bound value, and the largest: the resource II
        # is max(1, _max_bound). A load moves by one, so a bound does too.
        self._bound = [
            [-(-count // units) if count else 0 for count, units in zip(loads, row)]
            for loads, row in zip(self._load, self._units)
        ]
        self._bound_count = [0] * (csr.n_nodes + 2)
        for row in self._bound:
            for bound in row:
                self._bound_count[bound] += 1
        self._max_bound = max(max(row) for row in self._bound)
        self._over_floor = sum(
            producers > registers
            for producers, registers in zip(self._producers, self._registers)
        )

        # Foreign register out-edges and neighbours per node, and the bus
        # latency on every register edge that crosses clusters (0 on the
        # rest, memory edges included).
        bus = self._bus_latency
        self._foreign_out = [0] * csr.n_nodes
        self._foreign_adj = [0] * csr.n_nodes
        self._penalty = [0] * csr.n_edges
        for edge, src, dst, register in zip(
            range(csr.n_edges), csr.edge_src, csr.edge_dst, csr.edge_is_register
        ):
            if register and cluster[src] != cluster[dst]:
                self._foreign_out[src] += 1
                self._foreign_adj[src] += 1
                self._foreign_adj[dst] += 1
                self._penalty[edge] = bus
        self._n_coms = sum(1 for count in self._foreign_out if count)
        self._boundary = {
            position
            for position, count in enumerate(self._foreign_adj)
            if count
        }
        # (ii_estimate, assignment[, replica pairs]) -> penalized length.
        # Refinement revisits assignments constantly (candidate scans
        # re-score the state they started from, and a trial is keyed as
        # the state it would make), and the length is a pure function of
        # the key, so the memo answer is bit-identical to re-running the
        # kernel.
        self._length_memo: dict[tuple, int] = {}

        # Replica tables, built lazily by the first replicate move so
        # plain-move-only evaluators keep the exact historical path:
        #   _extra[p]          clusters holding a replica of p (never
        #                      the home cluster);
        #   _pairs             the live (p, cluster) replica pairs;
        #   _consumer_count[p] cluster -> register out-edges of p whose
        #                      consumer has an *instance* there (homes
        #                      and replicas alike);
        #   _uncovered[p]      consumer clusters with no instance of p
        #                      (>0 means p's value crosses clusters);
        #   _n_coms_replica    producers with _uncovered > 0 — the
        #                      replica-aware communication count.
        self._extra: list[set[int]] | None = None
        self._pairs: set[tuple[int, int]] = set()
        self._consumer_count: list[dict[int, int]] = []
        self._uncovered: list[int] = []
        self._n_coms_replica = 0

    # ------------------------------------------------------------------
    # Candidate enumeration (the maintained boundary)
    # ------------------------------------------------------------------

    def boundary(self) -> list[int]:
        """Uids with a register neighbour in another cluster, ascending."""
        uids = self._csr.uids
        return [uids[position] for position in sorted(self._boundary)]

    def move_targets(self, uid: int) -> list[int]:
        """Clusters holding register neighbours of ``uid``, sorted.

        Clusters already holding a replica of ``uid`` are excluded:
        moving the home onto its own replica would collapse two
        instances into one, which placement rejects.
        """
        csr = self._csr
        position = csr.index[uid]
        out_offsets, in_offsets = csr.reg_out_offsets, csr.reg_in_offsets
        neighbours = (
            csr.reg_out[out_offsets[position] : out_offsets[position + 1]]
            + csr.reg_in[in_offsets[position] : in_offsets[position + 1]]
        )
        clusters = set(map(self._cluster.__getitem__, neighbours))
        clusters.discard(self._cluster[position])
        if self._extra is not None:
            clusters.difference_update(self._extra[position])
        return sorted(clusters)

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def apply(self, uid: int, cluster: int) -> Move:
        """Move ``uid`` to ``cluster``; O(degree) state update."""
        position = self._csr.index[uid]
        source = self._cluster[position]
        self._moves_applied.inc()
        self._plain_moves.inc()
        self._shift(position, cluster)
        return Move(uid=uid, src_cluster=source, dst_cluster=cluster)

    def apply_replicate(self, uid: int, cluster: int) -> ReplicateMove:
        """Clone ``uid`` into ``cluster``; O(degree) state update.

        The replica adds to the target cluster's loads, totals and
        producer count, and its presence absorbs communications (the
        producer — and ``uid``'s own parents — stop paying for
        consumers in ``cluster``).

        Raises:
            ValueError: an instance of ``uid`` (home or replica)
                already sits in ``cluster`` — placement rejects
                duplicate instances, so the evaluator does too.
        """
        self._activate_replicas()
        position = self._csr.index[uid]
        if cluster == self._cluster[position] or cluster in self._extra[position]:
            raise ValueError(
                f"node {uid} already has an instance in cluster {cluster}"
            )
        self._moves_applied.inc()
        self._replicate_moves.inc()
        self._grow_replica(position, cluster)
        return ReplicateMove(uid=uid, cluster=cluster)

    def undo(self, move: Move | ReplicateMove) -> None:
        """Roll back the most recent apply of ``move`` (LIFO order)."""
        self._moves_reverted.inc()
        if isinstance(move, ReplicateMove):
            self._shrink_replica(self._csr.index[move.uid], move.cluster)
        else:
            self._shift(self._csr.index[move.uid], move.src_cluster)

    def redo(self, move: Move | ReplicateMove) -> None:
        """Re-apply a move just undone (counted by nothing)."""
        if isinstance(move, ReplicateMove):
            self._grow_replica(self._csr.index[move.uid], move.cluster)
        else:
            self._shift(self._csr.index[move.uid], move.dst_cluster)

    def _bump_adjacency(self, position: int, delta: int) -> None:
        count = self._foreign_adj[position] + delta
        self._foreign_adj[position] = count
        if count == 0:
            self._boundary.discard(position)
        elif count == delta:  # crossed up from zero
            self._boundary.add(position)

    def _bump_foreign_out(self, position: int, delta: int) -> None:
        count = self._foreign_out[position]
        self._foreign_out[position] = count + delta
        if count == 0 and delta > 0:
            self._n_coms += 1
        elif count > 0 and count + delta == 0:
            self._n_coms -= 1

    def _bump_load(self, cluster: int, kind: int, delta: int) -> None:
        """Add ``delta`` instances of ``kind`` to ``cluster``'s load."""
        loads = self._load[cluster]
        count = loads[kind] + delta
        loads[kind] = count
        bounds = self._bound[cluster]
        old = bounds[kind]
        new = -(-count // self._units[cluster][kind]) if count else 0
        if new != old:
            bounds[kind] = new
            histogram = self._bound_count
            histogram[old] -= 1
            histogram[new] += 1
            if new > self._max_bound:
                self._max_bound = new
            elif old == self._max_bound and not histogram[old]:
                self._max_bound = new
        self._totals[cluster] += delta

    def _bump_producers(self, cluster: int, delta: int) -> None:
        registers = self._registers[cluster]
        count = self._producers[cluster]
        self._producers[cluster] = count + delta
        self._over_floor += (count + delta > registers) - (count > registers)

    def _shift(self, position: int, to: int) -> None:
        csr = self._csr
        cluster = self._cluster
        source = cluster[position]
        if source == to:
            return
        extra = self._extra
        if extra is not None and to in extra[position]:
            raise ValueError(
                f"node {csr.uids[position]} already has a replica in "
                f"cluster {to}; de-replicate before moving its home there"
            )

        kind = csr.fu_ord[position]
        self._bump_load(source, kind, -1)
        self._bump_load(to, kind, 1)
        if not csr.is_store[position]:
            self._bump_producers(source, -1)
            self._bump_producers(to, 1)

        own_adjacency_delta = 0
        own_out_delta = 0
        for consumer in csr.reg_out_neighbours(position):
            if consumer == position:
                continue  # self loops move with the node
            neighbour_cluster = cluster[consumer]
            delta = (neighbour_cluster != to) - (neighbour_cluster != source)
            if delta:
                own_out_delta += delta
                own_adjacency_delta += delta
                self._bump_adjacency(consumer, delta)
        for producer in csr.reg_in_neighbours(position):
            if producer == position:
                continue
            neighbour_cluster = cluster[producer]
            delta = (neighbour_cluster != to) - (neighbour_cluster != source)
            if delta:
                own_adjacency_delta += delta
                self._bump_adjacency(producer, delta)
                self._bump_foreign_out(producer, delta)
        self._reprice(position, to)
        if own_out_delta:
            self._bump_foreign_out(position, own_out_delta)
        if own_adjacency_delta:
            self._bump_adjacency(position, own_adjacency_delta)
        cluster[position] = to
        if extra is not None:
            self._presence_moved(position, source, to)

    # ------------------------------------------------------------------
    # Replica tables (activated by the first replicate move)
    # ------------------------------------------------------------------

    @property
    def has_replicas(self) -> bool:
        """True when any replica instance is currently live."""
        return bool(self._pairs)

    def replicas(self) -> dict[int, frozenset[int]]:
        """Live replica grants, uid -> clusters (empty sets omitted)."""
        if self._extra is None:
            return {}
        uids = self._csr.uids
        return {
            uids[position]: frozenset(clusters)
            for position, clusters in enumerate(self._extra)
            if clusters
        }

    def replicate_candidates(self) -> list[int]:
        """Uids whose value still crosses clusters, ascending.

        These are the producers a replicate move can help: each has at
        least one consumer cluster with no instance of it.
        """
        self._activate_replicas()
        uids = self._csr.uids
        return [
            uids[position]
            for position, count in enumerate(self._uncovered)
            if count
        ]

    def replicate_targets(self, uid: int) -> list[int]:
        """Consumer clusters with no instance of ``uid``, sorted."""
        self._activate_replicas()
        position = self._csr.index[uid]
        home = self._cluster[position]
        extra = self._extra[position]
        return sorted(
            cluster
            for cluster, count in self._consumer_count[position].items()
            if count > 0 and cluster != home and cluster not in extra
        )

    def _activate_replicas(self) -> None:
        if self._extra is not None:
            return
        csr = self._csr
        cluster = self._cluster
        n = csr.n_nodes
        self._extra = [set() for _ in range(n)]
        self._consumer_count = []
        self._uncovered = [0] * n
        self._n_coms_replica = 0
        for position in range(n):
            counts: dict[int, int] = {}
            for consumer in csr.reg_out_neighbours(position):
                consumer_cluster = cluster[consumer]
                counts[consumer_cluster] = counts.get(consumer_cluster, 0) + 1
            self._consumer_count.append(counts)
        for position in range(n):
            home = cluster[position]
            uncovered = sum(
                1
                for consumer_cluster, count in self._consumer_count[
                    position
                ].items()
                if count and consumer_cluster != home
            )
            self._uncovered[position] = uncovered
            if uncovered:
                self._n_coms_replica += 1

    def _recount_uncovered(self, position: int) -> None:
        """Refresh one producer's uncovered-cluster count; O(clusters)."""
        home = self._cluster[position]
        extra = self._extra[position]
        count = 0
        for consumer_cluster, edges in self._consumer_count[position].items():
            if edges and consumer_cluster != home and consumer_cluster not in extra:
                count += 1
        previous = self._uncovered[position]
        self._uncovered[position] = count
        if previous == 0 and count > 0:
            self._n_coms_replica += 1
        elif previous > 0 and count == 0:
            self._n_coms_replica -= 1

    def _presence_moved(self, position: int, source: int, to: int) -> None:
        """Replica-table follow-up to a home move ``source -> to``."""
        csr = self._csr
        parents = csr.reg_in_neighbours(position)
        for producer in parents:
            counts = self._consumer_count[producer]
            counts[source] = counts.get(source, 0) - 1
            counts[to] = counts.get(to, 0) + 1
        affected = {position}
        affected.update(parents)
        for uid_position in affected:
            self._recount_uncovered(uid_position)

    def _grow_replica(self, position: int, cluster: int) -> None:
        csr = self._csr
        self._extra[position].add(cluster)
        self._pairs.add((position, cluster))
        self._bump_load(cluster, csr.fu_ord[position], 1)
        if not csr.is_store[position]:
            self._bump_producers(cluster, 1)
        self._reprice(position, self._cluster[position])
        parents = csr.reg_in_neighbours(position)
        for producer in parents:
            counts = self._consumer_count[producer]
            counts[cluster] = counts.get(cluster, 0) + 1
        affected = {position}
        affected.update(parents)
        for uid_position in affected:
            self._recount_uncovered(uid_position)

    def _shrink_replica(self, position: int, cluster: int) -> None:
        csr = self._csr
        self._extra[position].discard(cluster)
        self._pairs.discard((position, cluster))
        self._bump_load(cluster, csr.fu_ord[position], -1)
        if not csr.is_store[position]:
            self._bump_producers(cluster, -1)
        self._reprice(position, self._cluster[position])
        parents = csr.reg_in_neighbours(position)
        for producer in parents:
            self._consumer_count[producer][cluster] -= 1
        affected = {position}
        affected.update(parents)
        for uid_position in affected:
            self._recount_uncovered(uid_position)

    # ------------------------------------------------------------------
    # Scoring (lexicographic key, expensive length computed on demand)
    #
    # ``prefix``, ``length`` and ``imbalance`` score the current state,
    # or, given ``uid`` and ``cluster``, the state the plain move of
    # ``uid`` to ``cluster`` would make, without making it.
    # ------------------------------------------------------------------

    def nof_coms(self) -> int:
        """Maintained count of values crossing clusters.

        With replicas live this is the replica-aware count: a producer
        communicates only when some consumer instance sits in a cluster
        holding no instance of the producer.
        """
        if self._extra is not None:
            return self._n_coms_replica
        return self._n_coms

    def _key_prefix(
        self, max_bound: int, coms: int, over_floor: int
    ) -> tuple[bool, int, int]:
        ii_res = max_bound if max_bound > 1 else 1
        if self._bus_count:
            ii_bus = (
                self._bus_latency * -(-coms // self._bus_count) if coms else 1
            )
            stranded_coms = False
        else:
            ii_bus = 1
            stranded_coms = coms > 0
        ii = self._ii
        violation = ii_res > ii or over_floor > 0 or stranded_coms
        return (violation, max(ii, ii_res, ii_bus), coms)

    def prefix(
        self, uid: int | None = None, cluster: int | None = None
    ) -> tuple[bool, int, int]:
        """The cheap key prefix (capacity violation, II estimate, coms).

        O(1) for the current state and O(degree) for a trial move;
        never touches the relaxation kernel.
        """
        if uid is None:
            return self._key_prefix(
                self._max_bound, self.nof_coms(), self._over_floor
            )
        csr = self._csr
        homes = self._cluster
        position = csr.index[uid]
        source = homes[position]
        if cluster == source:
            return self.prefix()
        extra = self._extra
        if extra is not None and cluster in extra[position]:
            raise ValueError(
                f"node {uid} already has a replica in cluster {cluster}"
            )

        # Resource bounds: only (source, kind) and (cluster, kind) move.
        kind = csr.fu_ord[position]
        bound_source = self._bound[source][kind]
        bound_target = self._bound[cluster][kind]
        left = self._load[source][kind] - 1
        new_source = -(-left // self._units[source][kind]) if left else 0
        new_target = -(
            -(self._load[cluster][kind] + 1) // self._units[cluster][kind]
        )
        top = self._max_bound
        if new_target > top:
            max_bound = new_target
        else:
            at_top = (
                self._bound_count[top]
                - (bound_source == top)
                + (new_source == top)
                - (bound_target == top)
                + (new_target == top)
            )
            max_bound = top if at_top else top - 1

        over_floor = self._over_floor
        if not csr.is_store[position]:
            producers = self._producers
            registers = self._registers
            count = producers[source]
            over_floor += (count - 1 > registers[source]) - (
                count > registers[source]
            )
            count = producers[cluster]
            over_floor += (count + 1 > registers[cluster]) - (
                count > registers[cluster]
            )

        # With no replica live the replica-aware count equals the plain
        # one, which the foreign out-edge counts give directly.
        if self._pairs:
            coms = self._trial_coms_replicated(position, source, cluster)
        else:
            coms = self._trial_coms(position, source, cluster)
        return self._key_prefix(max_bound, coms, over_floor)

    def _trial_coms(self, position: int, source: int, target: int) -> int:
        """Communications after a trial move, no replicas live.

        A producer feeds the node through at most one register edge (see
        :class:`~repro.ddg.csr.CsrView`), so a parent's foreign count
        moves by exactly one.
        """
        csr = self._csr
        homes = self._cluster
        foreign_out = self._foreign_out
        coms = self._n_coms
        lo, hi = csr.reg_out_offsets[position], csr.reg_out_offsets[position + 1]
        crosses = False
        for consumer in csr.reg_out[lo:hi]:
            if homes[consumer] != target and consumer != position:
                crosses = True
                break
        coms += crosses - (foreign_out[position] > 0)
        lo, hi = csr.reg_in_offsets[position], csr.reg_in_offsets[position + 1]
        for producer in csr.reg_in[lo:hi]:
            home = homes[producer]
            if home == source:
                if not foreign_out[producer] and producer != position:
                    coms += 1
            elif home == target:
                if foreign_out[producer] == 1:
                    coms -= 1
        return coms

    def _trial_coms_replicated(
        self, position: int, source: int, target: int
    ) -> int:
        """Replica-aware communications after a trial home move.

        The move changes the uncovered count of the node (its home, and
        with a self loop its own consumer count) and of each parent
        (one consumer instance leaves ``source`` for ``target``).
        """
        homes = self._cluster
        extra = self._extra
        uncovered = self._uncovered
        consumer_count = self._consumer_count
        coms = self._n_coms_replica
        self_loop = 0
        for producer in self._csr.reg_in_neighbours(position):
            if producer == position:
                self_loop = 1
                continue
            counts = consumer_count[producer]
            home = homes[producer]
            present = extra[producer]
            before = uncovered[producer]
            after = before
            if source != home and source not in present and counts[source] == 1:
                after -= 1
            if target != home and target not in present and not counts.get(target):
                after += 1
            coms += (after > 0) - (before > 0)
        counts = consumer_count[position]
        before = uncovered[position]
        after = (
            before
            - (counts.get(target, 0) > 0)
            + (counts.get(source, 0) - self_loop > 0)
        )
        return coms + (after > 0) - (before > 0)

    def imbalance(self, uid: int | None = None, cluster: int | None = None) -> int:
        """Max minus min total load over clusters."""
        totals = self._totals
        if not totals:
            return 0
        if uid is not None:
            totals = totals.copy()
            totals[self._cluster[self._csr.index[uid]]] -= 1
            totals[cluster] += 1
        return max(totals) - min(totals)

    def length(self, uid: int | None = None, cluster: int | None = None) -> int:
        """Bus-penalized critical path at the II estimate.

        The expensive O(V·E) part of the score; callers should only ask
        when the cheap prefix ties (:func:`repro.partition.refine.refine`
        does, and counts the asks it skipped as
        ``partition.lengths_skipped``). A trial move's length is
        memoized under the key of the state the move would make, so the
        memo answers the same asks as when the move was applied first.
        """
        csr = self._csr
        if csr.n_nodes == 0:
            self._lengths_computed.inc()
            return 0
        ii_estimate = self.prefix(uid, cluster)[1]
        homes = self._cluster
        if uid is None:
            assignment = tuple(homes)
        else:
            position = csr.index[uid]
            source = homes[position]
            homes[position] = cluster
            assignment = tuple(homes)
            homes[position] = source
        if self._extra is None:
            key: tuple = (ii_estimate, assignment)
        else:
            key = (ii_estimate, assignment, frozenset(self._pairs))
        cached = self._length_memo.get(key)
        if cached is not None:
            self._lengths_memoized.inc()
            return cached
        self._lengths_computed.inc()
        base = edge_weights_at(csr, ii_estimate)
        weights = list(map(operator.add, base, self._penalty))
        if uid is not None and cluster != source:
            for edge, price in self._incident_penalties(position, cluster):
                weights[edge] = base[edge] + price
        value = relax_length(csr, weights, self._rounds)
        self._length_memo[key] = value
        return value

    def _reprice(self, position: int, home: int) -> None:
        """Refresh the penalties of ``position``'s edges, its home at ``home``."""
        penalty = self._penalty
        for edge, price in self._incident_penalties(position, home):
            penalty[edge] = price

    def _incident_penalties(
        self, position: int, home: int
    ) -> Iterator[tuple[int, int]]:
        """(edge, penalty) of ``position``'s register edges, its home at ``home``.

        An edge pays the bus unless the consumer's home holds an
        instance of the producer; self loops never pay.
        """
        csr = self._csr
        homes = self._cluster
        extra = self._extra
        bus = self._bus_latency
        own_extra = () if extra is None else extra[position]
        lo, hi = csr.reg_out_offsets[position], csr.reg_out_offsets[position + 1]
        for consumer, edge in zip(csr.reg_out[lo:hi], csr.reg_out_edge[lo:hi]):
            if consumer != position:
                there = homes[consumer]
                yield edge, (bus if there != home and there not in own_extra else 0)
        lo, hi = csr.reg_in_offsets[position], csr.reg_in_offsets[position + 1]
        for producer, edge in zip(csr.reg_in[lo:hi], csr.reg_in_edge[lo:hi]):
            if producer != position:
                crosses = homes[producer] != home and (
                    extra is None or home not in extra[producer]
                )
                yield edge, (bus if crosses else 0)

    def pseudo(self) -> PseudoSchedule:
        """The full pseudo-schedule of the current state.

        Without live replicas this is bit-identical to
        ``pseudo_schedule(self.to_partition(), ...)``; with replicas the
        same key evaluated replica-aware (loads, producers and
        communications include replica instances, cross-cluster edges
        with a local producer instance pay no bus latency). Forces the
        length, so prefer :meth:`prefix` in hot loops.
        """
        violation, ii_estimate, coms = self.prefix()
        return PseudoSchedule(
            capacity_violation=violation,
            ii_estimate=ii_estimate,
            nof_coms=coms,
            length_estimate=self.length(),
            imbalance=self.imbalance(),
        )

    def to_partition(self) -> Partition:
        """Materialize the current assignment as a fresh partition."""
        assignment = dict(zip(self._csr.uids, self._cluster))
        return Partition(self._ddg, assignment, self._n_clusters)
