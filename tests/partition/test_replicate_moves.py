"""Unit tests for the ReplicateMove half of the Move protocol."""

from __future__ import annotations

import random

import pytest

from repro.machine.config import parse_config
from repro.partition.incremental import (
    MoveEvaluator,
    ReassignMove,
    ReplicateMove,
)
from repro.partition.partition import Partition
from repro.workloads.generator import LoopSpec, generate_loop


def _evaluator(seed: int = 3, machine_name: str = "4c1b2l64r", ii: int = 2):
    rng = random.Random(seed)
    machine = parse_config(machine_name)
    ddg = generate_loop(LoopSpec(name="moves"), rng, index=seed).ddg
    assignment = {
        uid: rng.randrange(machine.n_clusters) for uid in ddg.node_ids()
    }
    partition = Partition(ddg, assignment, machine.n_clusters)
    return MoveEvaluator(partition, machine, ii), partition


def _first_candidate(evaluator):
    for uid in evaluator.replicate_candidates():
        targets = evaluator.replicate_targets(uid)
        if targets:
            return uid, targets[0]
    pytest.skip("no replicable communication in this loop")


class TestReplicateMechanics:
    def test_replicate_covers_one_communication(self):
        evaluator, _ = _evaluator()
        before = evaluator.nof_coms()
        uid, target = _first_candidate(evaluator)
        move = evaluator.apply_replicate(uid, target)
        assert isinstance(move, ReplicateMove)
        assert evaluator.nof_coms() <= before
        assert evaluator.replicas()[uid] == frozenset({target})
        assert evaluator.has_replicas

    def test_undo_redo_round_trip(self):
        evaluator, _ = _evaluator()
        reference = evaluator.pseudo()
        uid, target = _first_candidate(evaluator)
        move = evaluator.apply_replicate(uid, target)
        replicated = evaluator.pseudo()
        evaluator.undo(move)
        assert evaluator.pseudo() == reference
        assert not evaluator.has_replicas
        evaluator.redo(move)
        assert evaluator.pseudo() == replicated
        evaluator.undo(move)
        assert evaluator.replicas() == {}

    def test_replicate_onto_home_rejected(self):
        evaluator, partition = _evaluator()
        uid, _ = _first_candidate(evaluator)
        with pytest.raises(ValueError):
            evaluator.apply_replicate(uid, partition.cluster_of(uid))

    def test_replicate_twice_same_cluster_rejected(self):
        evaluator, _ = _evaluator()
        uid, target = _first_candidate(evaluator)
        evaluator.apply_replicate(uid, target)
        with pytest.raises(ValueError):
            evaluator.apply_replicate(uid, target)

    def test_home_move_onto_replica_cluster_guarded(self):
        """Moving a node's home onto its replica cluster would collapse
        two instances into one; both the direct apply and the target
        enumeration must refuse it."""
        evaluator, _ = _evaluator()
        uid, target = _first_candidate(evaluator)
        evaluator.apply_replicate(uid, target)
        assert target not in evaluator.move_targets(uid)
        with pytest.raises(ValueError):
            evaluator.apply(uid, target)

    def test_replicate_targets_exclude_home_and_existing(self):
        evaluator, partition = _evaluator()
        uid, target = _first_candidate(evaluator)
        evaluator.apply_replicate(uid, target)
        remaining = evaluator.replicate_targets(uid)
        assert target not in remaining
        assert partition.cluster_of(uid) not in remaining

    def test_replica_counts_toward_load_and_imbalance(self):
        evaluator, _ = _evaluator()
        uid, target = _first_candidate(evaluator)
        prefix_before = evaluator.prefix()
        evaluator.apply_replicate(uid, target)
        # One more instance exists somewhere: the resource floor can
        # only stay or grow, never shrink.
        assert evaluator.prefix()[1] >= prefix_before[1] or (
            evaluator.prefix()[2] < prefix_before[2]
        )

    def test_activation_is_observably_free(self):
        evaluator, partition = _evaluator()
        machine = parse_config("4c1b2l64r")
        from repro.partition.pseudo import pseudo_schedule

        reference = pseudo_schedule(partition, machine, 2)
        assert evaluator.pseudo() == reference
        evaluator.replicate_candidates()  # activates the replica tables
        assert evaluator.pseudo() == reference

    def test_move_kind_counters(self, current_metrics):
        evaluator, _ = _evaluator()
        uid, target = _first_candidate(evaluator)
        evaluator.apply_replicate(uid, target)
        plain_uid = next(
            u for u in evaluator.boundary() if evaluator.move_targets(u)
        )
        evaluator.apply(plain_uid, evaluator.move_targets(plain_uid)[0])
        counters = current_metrics.snapshot()
        assert counters["partition.moves.plain"] == 1
        assert counters["partition.moves.replicate"] == 1
        assert counters["partition.moves_applied"] == 2

    def test_reassign_move_alias(self):
        """The plain move type is re-exported under the protocol name."""
        evaluator, _ = _evaluator()
        uid = next(
            u for u in evaluator.boundary() if evaluator.move_targets(u)
        )
        move = evaluator.apply(uid, evaluator.move_targets(uid)[0])
        assert isinstance(move, ReassignMove)
