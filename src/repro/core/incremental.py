"""Incrementally maintained candidate scoring for the replicator.

:func:`repro.core.replicator.score_candidates` re-walks every active
communication's subgraph and removable set from scratch each round,
which makes the replication loop quadratic in the number of
communications. But one :meth:`~repro.core.state.ReplicationState.apply`
only perturbs a small neighbourhood of the graph, and both walks read a
precisely characterizable slice of the state:

* the subgraph walk consults ``has_comm`` on its members and on the
  frontier where it stopped, and presence sets of its members, of the
  producer and of the producer's register consumers;
* the removable walk consults ``has_comm`` on the uids it visited and
  presence restricted to the communication's home cluster.

:class:`CandidateScorer` caches both walk results per communication and,
fed the :class:`~repro.core.state.StateDelta` of each ``apply``, drops
exactly the entries whose recorded read set intersects the delta.
Everything *cheap* — the sharing table, resource feasibility, weights —
is still recomputed every round against the live state, which keeps the
scorer's candidate list bit-identical to the from-scratch reference
(``tests/core/test_incremental_replicator.py`` enforces this the same
way ``tests/partition/test_incremental.py`` pins ``MoveEvaluator``).
"""

from __future__ import annotations

import dataclasses

from repro.core.removable import find_removable_instructions_traced
from repro.core.scoring import Candidate, candidate_sort_key, score_subgraph
from repro.core.state import ReplicationState, StateDelta
from repro.core.subgraph import (
    ReplicationSubgraph,
    find_replication_subgraph_traced,
)
from repro.core.weights import sharing_table
from repro.obs.metrics import current_registry


@dataclasses.dataclass
class _CandidateEntry:
    """Cached walk results for one communication, plus their read sets."""

    subgraph: ReplicationSubgraph
    blocked: frozenset[int]
    reg_children: frozenset[int]
    home: int
    removable: list[int] | None = None
    visited: frozenset[int] = frozenset()


class CandidateScorer:
    """Delta-maintained equivalent of :func:`score_candidates`.

    Usage::

        scorer = CandidateScorer(state)
        while ...:
            best = scorer.candidates()[0]
            delta = state.apply(...)
            scorer.observe(delta)

    The scorer only ever reads ``state``; every mutation must be
    reported through :meth:`observe` or cached entries go stale.

    It counts under ``replicate.`` in the current registry
    (:func:`~repro.obs.metrics.current_registry`): ``rounds`` and
    ``candidates_scored``; ``*_walks`` for from-scratch subgraph and
    removable walks, ``*_reused`` for walks answered from the cache.
    """

    def __init__(self, state: ReplicationState) -> None:
        self._state = state
        self._entries: dict[int, _CandidateEntry] = {}
        registry = current_registry()
        self._rounds = registry.counter("replicate.rounds")
        self._scored = registry.counter("replicate.candidates_scored")
        self._subgraph_walks = registry.counter("replicate.subgraph_walks")
        self._subgraph_reused = registry.counter("replicate.subgraph_reused")
        self._removable_walks = registry.counter("replicate.removable_walks")
        self._removable_reused = registry.counter("replicate.removable_reused")

    def observe(self, delta: StateDelta) -> None:
        """Invalidate exactly the cache entries ``delta`` may affect."""
        changed = delta.changed
        flips = delta.flipped
        touched = delta.touched_clusters
        for comm, entry in list(self._entries.items()):
            if comm == delta.comm or comm in flips:
                del self._entries[comm]
                continue
            members = entry.subgraph.members
            subgraph_stale = (
                (flips & members)
                or (flips & entry.blocked)
                or (changed & members)
                or (changed & entry.reg_children)
                or (comm in changed)
            )
            if subgraph_stale:
                del self._entries[comm]
                continue
            if entry.home in touched or (flips & entry.visited):
                # The subgraph survives but the removable walk read
                # state that moved; recompute it lazily on next use.
                entry.removable = None
                entry.visited = frozenset()

    def _entry(self, comm: int) -> _CandidateEntry:
        entry = self._entries.get(comm)
        if entry is None:
            subgraph, blocked = find_replication_subgraph_traced(self._state, comm)
            entry = _CandidateEntry(
                subgraph=subgraph,
                blocked=blocked,
                reg_children=frozenset(self._state.register_children(comm)),
                home=self._state.partition.cluster_of(comm),
            )
            self._entries[comm] = entry
            self._subgraph_walks.inc()
        else:
            self._subgraph_reused.inc()
        return entry

    def _removable(self, entry: _CandidateEntry) -> list[int]:
        if entry.removable is None:
            order, visited = find_removable_instructions_traced(
                self._state, entry.subgraph
            )
            entry.removable = order
            entry.visited = visited
            self._removable_walks.inc()
        else:
            self._removable_reused.inc()
        return entry.removable

    def candidates(self) -> list[Candidate]:
        """Scored feasible candidates, identical to the reference."""
        state = self._state
        self._rounds.inc()
        entries = [self._entry(comm) for comm in state.active_comms()]
        self._scored.inc(len(entries))
        sharing = sharing_table([entry.subgraph for entry in entries])
        candidates = []
        for entry in entries:
            scored = score_subgraph(
                state,
                entry.subgraph,
                lambda cached=entry: self._removable(cached),
                sharing,
            )
            if scored is not None:
                candidates.append(scored)
        candidates.sort(key=candidate_sort_key)
        return candidates
