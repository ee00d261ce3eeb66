"""Incremental candidate scorer: parity with the from-scratch reference.

Mirrors ``tests/partition/test_incremental.py``: every ``apply`` is
cross-checked against :func:`repro.core.replicator.score_candidates`
recomputed from scratch, and the maintained state tables are compared
with a state rebuilt from the frozen plan. Random graphs come from a
seeded generator, so failures reproduce.
"""

import random

import pytest

from repro.cli import _with_rates
from repro.core.incremental import CandidateScorer
from repro.core.replicator import replicate, score_candidates
from repro.core.state import ReplicationState
from repro.ddg.builder import DdgBuilder
from repro.machine.config import parse_config
from repro.partition.partition import Partition


def random_case(rng):
    """A random loop body, partition and machine."""
    n = rng.randrange(6, 26)
    b = DdgBuilder(f"rand{n}")
    for i in range(n):
        kind = rng.choice(("int", "fp", "load"))
        getattr(b, f"{kind}_op" if kind != "load" else "load")(f"n{i}")
    for dst in range(1, n):
        for _ in range(rng.randrange(0, 3)):
            src = rng.randrange(0, dst)
            b.dep(f"n{src}", f"n{dst}")
    # A few loop-carried dependences, possibly backward.
    for _ in range(rng.randrange(0, 3)):
        src = rng.randrange(0, n)
        dst = rng.randrange(0, n)
        if src != dst:
            b.dep(f"n{src}", f"n{dst}", distance=1)
    g = b.build()

    config = rng.choice(("2c1b2l64r", "4c1b2l64r", "4c2b1l64r"))
    machine = parse_config(config)
    assignment = {
        uid: rng.randrange(machine.n_clusters) for uid in g.node_ids()
    }
    partition = Partition(g, assignment, machine.n_clusters)
    ii = rng.randrange(2, 5)
    return partition, machine, ii


def assert_tables_match(state):
    """Maintained tables must equal a from-scratch rebuild."""
    rebuilt = ReplicationState.from_plan(
        state.partition, state.machine, state.ii, state.to_plan(initial_coms=0)
    )
    assert state.usage_table() == rebuilt.usage_table()
    assert state.active_comms() == rebuilt.active_comms()
    for uid in state.ddg.node_ids():
        assert state.present_clusters(uid) == rebuilt.present_clusters(uid)
        assert state.consumer_clusters(uid) == rebuilt.consumer_clusters(uid)
        assert state.comm_destinations(uid) == rebuilt.comm_destinations(uid)


class TestScorerParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_candidates_match_reference_after_every_apply(self, seed):
        rng = random.Random(seed)
        partition, machine, ii = random_case(rng)
        state = ReplicationState(partition, machine, ii)
        scorer = CandidateScorer(state)

        for _ in range(len(partition.ddg) + 1):
            expected = score_candidates(state)
            assert scorer.candidates() == expected
            if not expected:
                break
            # Exercise invalidation on varied picks, not just the best.
            best = expected[rng.randrange(len(expected))]
            delta = state.apply(
                best.subgraph.comm, dict(best.subgraph.needed), best.removable
            )
            scorer.observe(delta)
            assert_tables_match(state)

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_replicate_matches_reference_loop(self, seed):
        rng = random.Random(seed)
        partition, machine, ii = random_case(rng)
        plan = replicate(partition, machine, ii)

        # Reference: the historical loop, re-scoring from scratch.
        state = ReplicationState(partition, machine, ii)
        initial = state.nof_coms()
        if initial and machine.is_clustered:
            removed = 0
            while removed < initial:
                if state.extra_coms() == 0:
                    break
                candidates = score_candidates(state)
                if not candidates:
                    break
                best = candidates[0]
                state.apply(
                    best.subgraph.comm, dict(best.subgraph.needed), best.removable
                )
                removed += 1
        expected = state.to_plan(
            initial_coms=initial, feasible=state.extra_coms() == 0
        )
        assert plan == expected


class TestScorerReuse:
    def test_independent_comms_reuse_cached_walks(self, current_metrics):
        """Replicating one far corner must not re-walk the other."""
        b = DdgBuilder()
        # Two disjoint producer->consumer pairs crossing clusters.
        b.int_op("p0").fp_op("c0").int_op("p1").fp_op("c1")
        b.dep("p0", "c0").dep("p1", "c1")
        g = b.build()
        machine = parse_config("4c1b2l64r")
        partition = Partition(
            g,
            {
                g.node_by_name("p0").uid: 0,
                g.node_by_name("c0").uid: 1,
                g.node_by_name("p1").uid: 2,
                g.node_by_name("c1").uid: 3,
            },
            4,
        )
        state = ReplicationState(partition, machine, ii=2)
        walks = current_metrics.counter("replicate.subgraph_walks")
        reused = current_metrics.counter("replicate.subgraph_reused")
        scorer = CandidateScorer(state)
        first = scorer.candidates()
        assert walks.value == 2
        best = first[0]
        delta = state.apply(
            best.subgraph.comm, dict(best.subgraph.needed), best.removable
        )
        scorer.observe(delta)
        scorer.candidates()
        # The untouched communication's subgraph came from the cache.
        assert reused.value >= 1

    def test_skip_rate_counts_both_walks(self):
        rates = _with_rates(
            {
                "replicate.subgraph_walks": 1,
                "replicate.subgraph_reused": 2,
                "replicate.removable_walks": 1,
            }
        )
        assert rates["replicate.rescore_skip_rate"] == 0.5
        assert "replicate.rescore_skip_rate" not in _with_rates({})
