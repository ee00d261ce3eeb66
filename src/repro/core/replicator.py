"""The replication heuristic driver (section 3.3).

Given a partition at a candidate II, the driver:

1. computes ``extra_coms`` — communications beyond bus capacity;
2. builds the replication subgraph, removable set and weight of every
   active communication against the current state;
3. replicates the feasible subgraph with the smallest weight;
4. repeats — with all subgraphs/weights recomputed against the evolved
   state (the section 3.4 updates) — until the bus is no longer
   overloaded or no feasible replication remains.

No over-replication is possible: once ``extra_coms`` reaches zero the
loop stops. When it cannot reach zero the returned plan is marked
infeasible and the caller must raise the II (Figure 2's feedback arc).

The ``spare_comms`` knob extends the stop rule for experiments: when
positive, the driver keeps removing that many communications below
capacity — deliberately *not* the paper's algorithm; it exists only for
the over-replication ablation.
"""

from __future__ import annotations

from repro.core.incremental import CandidateScorer
from repro.core.plan import ReplicationPlan
from repro.core.removable import find_removable_instructions
from repro.core.scoring import Candidate, candidate_sort_key, score_subgraph
from repro.core.state import ReplicationState
from repro.core.subgraph import find_replication_subgraph
from repro.core.weights import sharing_table
from repro.machine.config import MachineConfig
from repro.partition.partition import Partition

__all__ = ["Candidate", "replicate", "score_candidates"]


def score_candidates(state: ReplicationState) -> list[Candidate]:
    """Score every active communication against the current state.

    The from-scratch reference for :class:`CandidateScorer`: both walk
    everything through :func:`repro.core.scoring.score_subgraph` and
    return feasible candidates sorted by ascending weight (ties by
    fewer new instances, then producer uid, for determinism).
    """
    subgraphs = [
        find_replication_subgraph(state, comm) for comm in state.active_comms()
    ]
    sharing = sharing_table(subgraphs)
    candidates = []
    for subgraph in subgraphs:
        scored = score_subgraph(
            state,
            subgraph,
            lambda sg=subgraph: find_removable_instructions(state, sg),
            sharing,
        )
        if scored is not None:
            candidates.append(scored)
    candidates.sort(key=candidate_sort_key)
    return candidates


def replicate(
    partition: Partition,
    machine: MachineConfig,
    ii: int,
    spare_comms: int = 0,
    max_rounds: int | None = None,
    initial: ReplicationPlan | None = None,
) -> ReplicationPlan:
    """Run the replication algorithm; see the module docstring.

    Args:
        partition: cluster assignment of the loop's DDG.
        machine: target machine (must have buses when comms exist).
        ii: the candidate initiation interval.
        spare_comms: extra communications to remove beyond the paper's
            stop rule (ablation only; 0 reproduces the paper).
        max_rounds: safety bound on replication rounds (defaults to the
            initial communication count).
        initial: replicas already granted upstream (the replication-aware
            partitioner's in-refinement grants). They are folded into the
            starting state as a fait accompli — already present, already
            consuming resources — so this pass only *tops up*: it removes
            whatever communications remain, never re-deciding or revoking
            the earlier grants. ``None`` (every pre-existing scheme)
            starts from the bare partition, bit-identically to before
            this parameter existed.

    Returns:
        A plan; ``plan.feasible`` is False when the bus would still be
        overloaded, in which case the caller raises the II and retries.
    """
    if initial is None:
        state = ReplicationState(partition, machine, ii)
    else:
        state = ReplicationState.from_plan(partition, machine, ii, initial)
    initial_coms = state.nof_coms()
    if initial_coms == 0 or not machine.is_clustered:
        return state.to_plan(initial_coms=initial_coms, feasible=True)

    rounds = max_rounds if max_rounds is not None else initial_coms + spare_comms
    spare = spare_comms
    removed = 0
    scorer = CandidateScorer(state)

    # extra_coms is re-derived from the state every round rather than
    # counted down: removing instructions can silently kill *other*
    # communications (a deleted consumer may have been the only foreign
    # reader of some value).
    while removed < rounds:
        extra = state.extra_coms()
        spare_round = extra == 0 and spare > 0 and state.nof_coms() > 0
        if extra == 0 and not spare_round:
            break
        candidates = scorer.candidates()
        if not candidates:
            return state.to_plan(initial_coms=initial_coms, feasible=extra == 0)
        best = candidates[0]
        delta = state.apply(
            best.subgraph.comm, dict(best.subgraph.needed), best.removable
        )
        scorer.observe(delta)
        removed += 1
        if spare_round:
            spare -= 1

    return state.to_plan(initial_coms=initial_coms, feasible=state.extra_coms() == 0)
