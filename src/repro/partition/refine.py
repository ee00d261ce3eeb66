"""Partition refinement by greedy node moves.

Whenever the II grows (Figure 2's feedback arc) every cluster gains
issue slots, so a partition that was bus- or resource-bound may admit a
better shape. Refinement repeatedly tries to move single nodes to other
clusters, keeping any move that improves the pseudo-schedule metric, and
stops at a local optimum or when the move budget runs out.

Move candidates are restricted to *boundary* nodes — nodes with at least
one register neighbour in another cluster — because interior moves can
only create communications, never remove them.

Candidates are scored through :class:`~repro.partition.incremental.MoveEvaluator`
without being made: a plain trial's prefix (capacity, II estimate,
communications) comes from the maintained tables in O(degree), and the
expensive critical-path length is only relaxed when that prefix ties
the incumbent — a comparison that is decision-equivalent to ordering
the full :attr:`~repro.partition.pseudo.PseudoSchedule.key`, because
the first differing component decides a lexicographic order. Only an
accepted plain move is applied. Replicate trials are applied, scored
and undone.

There is one refinement loop, :func:`refine_replicating`; plain
refinement is that loop with no replication budget, which makes the
same moves in the same order.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.obs.metrics import current_registry
from repro.partition.incremental import MoveEvaluator
from repro.partition.partition import Partition

#: Upper bound on accepted moves per refinement call, to bound runtime
#: on large loops (each accepted move rescans the boundary).
_DEFAULT_MOVE_BUDGET = 64

#: Upper bound on replicas granted per replicating refinement call; the
#: pipeline overrides it from ``SchemeConfig.partition_replication_budget``.
_DEFAULT_REPLICATION_BUDGET = 8


def refine(
    partition: Partition,
    machine: MachineConfig,
    ii: int,
    move_budget: int = _DEFAULT_MOVE_BUDGET,
) -> Partition:
    """Improve ``partition`` by single-node moves at a candidate II.

    Returns a partition whose pseudo-schedule key is <= the input's;
    the input object is never mutated (and is returned as-is when no
    move improves it). This is :func:`refine_replicating` with no
    replication budget.
    """
    return refine_replicating(
        partition, machine, ii, move_budget, replication_budget=0
    )[0]


def refine_replicating(
    partition: Partition,
    machine: MachineConfig,
    ii: int,
    move_budget: int = _DEFAULT_MOVE_BUDGET,
    replication_budget: int = _DEFAULT_REPLICATION_BUDGET,
) -> tuple[Partition, dict[int, frozenset[int]]]:
    """Refinement where "replicate into a cluster" is a first-class move.

    Each round first tries plain reassignments of boundary nodes; only
    when no plain move improves the incumbent does it try cloning a
    communicating producer into one of its consumer clusters
    (:meth:`MoveEvaluator.apply_replicate`). Both move kinds are scored
    with the same lazy lexicographic rule — the cheap prefix (capacity,
    II estimate, communications) decides first, and the bus-penalized
    length (which a replica can shorten by localising its register
    edges) is only relaxed on prefix ties. At most
    ``replication_budget`` replicas survive to the returned plan; at 0
    no replicate move is tried.

    Returns the refined partition (home assignment only — replicas are
    *not* partition nodes) plus the replica grants as a
    ``{producer uid: frozenset(clusters)}`` mapping for the post-pass
    replicator to treat as already granted.

    Counts into the current registry under ``partition.``: one
    ``refine_calls``, ``pseudo_evaluations`` per trial move,
    ``lengths_skipped`` per trial decided on the prefix alone,
    ``moves_accepted`` and the ``moves.*_accepted``/``*_rejected``
    splits per kind, and the ``moves.replicas_surviving`` gauge. A
    rejected plain trial is never applied; it still counts as one
    applied (``moves_applied``, ``moves.plain``) and one reverted move,
    so that ``moves_applied`` counts every trial. ``moves_reverted`` no
    longer counts the undo an apply-and-undo loop made to measure the
    incumbent's length on its first prefix tie, except for replicate
    trials, which still make it.
    """
    evaluator = MoveEvaluator(partition, machine, ii)
    best_prefix = evaluator.prefix()
    best_length: int | None = None  # relaxed lazily, on the first prefix tie
    best_imbalance = evaluator.imbalance()
    accepted = 0
    replicas_granted = 0
    # Counted in locals and published once: this loop is the hot path.
    evaluations = skipped = 0
    plain_accepted = plain_rejected = 0
    replicate_accepted = replicate_rejected = 0

    def consider(uid: int, cluster: int, replicate: bool) -> bool:
        """Score one trial move under the shared lazy rule; keep it if better.

        A plain trial is scored without being made and applied only when
        accepted. A replicate trial is applied first and undone unless
        accepted.
        """
        nonlocal best_prefix, best_length, best_imbalance, evaluations, skipped
        evaluations += 1
        if replicate:
            move = evaluator.apply_replicate(uid, cluster)
            trial: tuple[int, ...] = ()
        else:
            trial = (uid, cluster)
        prefix = evaluator.prefix(*trial)
        if prefix > best_prefix:
            skipped += 1
            if replicate:
                evaluator.undo(move)
            return False
        if prefix < best_prefix:
            skipped += 1
            length: int | None = None
            imbalance = evaluator.imbalance(*trial)
        else:
            if best_length is None:
                # The incumbent's length was never needed until now.
                if replicate:
                    evaluator.undo(move)
                    best_length = evaluator.length()
                    evaluator.redo(move)
                else:
                    best_length = evaluator.length()
            length = evaluator.length(*trial)
            imbalance = evaluator.imbalance(*trial)
            if (length, imbalance) >= (best_length, best_imbalance):
                if replicate:
                    evaluator.undo(move)
                return False
        if not replicate:
            evaluator.apply(uid, cluster)
        best_prefix = prefix
        best_length = length
        best_imbalance = imbalance
        return True

    for _ in range(move_budget):
        improved = False
        for uid in evaluator.boundary():
            for cluster in evaluator.move_targets(uid):
                if consider(uid, cluster, False):
                    plain_accepted += 1
                    improved = True
                    break
                plain_rejected += 1
            if improved:
                break
        if not improved and replicas_granted < replication_budget:
            for uid in evaluator.replicate_candidates():
                for cluster in evaluator.replicate_targets(uid):
                    if consider(uid, cluster, True):
                        replicate_accepted += 1
                        replicas_granted += 1
                        improved = True
                        break
                    replicate_rejected += 1
                if improved:
                    break
        if not improved:
            break
        accepted += 1

    grants = evaluator.replicas()
    registry = current_registry()
    for name, count in (
        ("refine_calls", 1),
        ("pseudo_evaluations", evaluations),
        ("lengths_skipped", skipped),
        ("moves_accepted", accepted),
        ("moves.plain_accepted", plain_accepted),
        ("moves.plain_rejected", plain_rejected),
        ("moves.replicate_accepted", replicate_accepted),
        ("moves.replicate_rejected", replicate_rejected),
        ("moves_applied", plain_rejected),
        ("moves.plain", plain_rejected),
        ("moves_reverted", plain_rejected),
    ):
        registry.counter(f"partition.{name}").inc(count)
    registry.gauge("partition.moves.replicas_surviving").set(
        sum(len(clusters) for clusters in grants.values())
    )
    result = evaluator.to_partition() if accepted else partition
    return result, grants
