"""Incremental move evaluator: parity with the from-scratch metric."""

import pytest

from repro.cli import _with_rates
from repro.ddg.builder import DdgBuilder
from repro.ddg.graph import EdgeKind
from repro.machine.config import parse_config
from repro.partition.incremental import MoveEvaluator
from repro.partition.partition import Partition
from repro.partition.pseudo import pseudo_schedule


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


@pytest.fixture
def two_chains():
    """Two independent 3-op int chains."""
    b = DdgBuilder()
    for s in range(2):
        for i in range(3):
            b.int_op(f"c{s}_{i}")
        b.chain(f"c{s}_0", f"c{s}_1", f"c{s}_2")
    return b.build()


def split(ddg, mapping, n=2):
    return Partition(
        ddg, {ddg.node_by_name(k).uid: v for k, v in mapping.items()}, n
    )


def scan_boundary(partition):
    """From-scratch boundary, the way the old refine helper computed it."""
    ddg = partition.ddg
    boundary = []
    for uid in ddg.node_ids():
        home = partition.cluster_of(uid)
        neighbours = [
            e.dst for e in ddg.out_edges(uid) if e.kind is EdgeKind.REGISTER
        ] + [e.src for e in ddg.in_edges(uid) if e.kind is EdgeKind.REGISTER]
        if any(partition.cluster_of(n) != home for n in neighbours):
            boundary.append(uid)
    return boundary


class TestMoveEvaluator:
    def test_initial_state_matches_pseudo_schedule(self, two_chains, m2):
        cut = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 0, "c1_2": 1},
        )
        evaluator = MoveEvaluator(cut, m2, 2)
        assert evaluator.pseudo() == pseudo_schedule(cut, m2, 2)

    def test_apply_matches_with_move(self, two_chains, m2):
        cut = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 1, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        evaluator = MoveEvaluator(cut, m2, 2)
        uid = two_chains.node_by_name("c0_0").uid
        evaluator.apply(uid, 1)
        moved = cut.with_move(uid, 1)
        assert evaluator.pseudo() == pseudo_schedule(moved, m2, 2)
        assert evaluator.to_partition().assignment() == moved.assignment()

    def test_undo_restores_everything(self, two_chains, m2):
        cut = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 0, "c1_2": 1},
        )
        evaluator = MoveEvaluator(cut, m2, 2)
        before = evaluator.pseudo()
        boundary_before = evaluator.boundary()
        move = evaluator.apply(two_chains.node_by_name("c0_1").uid, 0)
        evaluator.undo(move)
        assert evaluator.pseudo() == before
        assert evaluator.boundary() == boundary_before
        assert evaluator.to_partition().assignment() == cut.assignment()

    def test_boundary_matches_scan(self, two_chains, m2):
        cut = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 1, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        evaluator = MoveEvaluator(cut, m2, 2)
        assert evaluator.boundary() == scan_boundary(cut)
        move = evaluator.apply(two_chains.node_by_name("c0_0").uid, 1)
        assert evaluator.boundary() == scan_boundary(evaluator.to_partition())
        evaluator.undo(move)
        assert evaluator.boundary() == scan_boundary(cut)

    def test_move_targets_are_neighbour_clusters(self, two_chains, m2):
        cut = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 1, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        evaluator = MoveEvaluator(cut, m2, 2)
        assert evaluator.move_targets(two_chains.node_by_name("c0_0").uid) == [1]
        assert evaluator.move_targets(two_chains.node_by_name("c0_1").uid) == [0]
        # Interior node of the other chain: no foreign neighbours.
        assert evaluator.move_targets(two_chains.node_by_name("c1_1").uid) == []

    def test_prefix_skips_the_relaxation(self, two_chains, m2, current_metrics):
        clean = split(
            two_chains,
            {"c0_0": 0, "c0_1": 0, "c0_2": 0, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        computed = current_metrics.counter("partition.lengths_computed")
        evaluator = MoveEvaluator(clean, m2, 2)
        evaluator.prefix()
        assert computed.value == 0
        evaluator.length()
        assert computed.value == 1

    def test_stats_count_moves(self, two_chains, m2, current_metrics):
        cut = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 0, "c1_2": 1},
        )
        evaluator = MoveEvaluator(cut, m2, 2)
        move = evaluator.apply(two_chains.node_by_name("c0_0").uid, 1)
        evaluator.undo(move)
        counters = current_metrics.snapshot()
        assert counters["partition.moves_applied"] == 1
        assert counters["partition.moves_reverted"] == 1

    def test_skip_rate_counts_both_outcomes(self):
        rates = _with_rates(
            {"partition.lengths_computed": 1, "partition.lengths_skipped": 3}
        )
        assert rates["partition.lazy_skip_rate"] == 0.75
        assert "partition.lazy_skip_rate" not in _with_rates({})
