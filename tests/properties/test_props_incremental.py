"""Equivalence of the incremental evaluator and the from-scratch metric.

Drives long random move sequences over generated SPECfp-like loops and
checks, after *every* apply and undo, that the
:class:`~repro.partition.incremental.MoveEvaluator`'s maintained state
reproduces ``pseudo_schedule`` on a freshly materialized partition —
the invariant the refinement rewrite rests on. Plain ``random.Random``
seeding keeps the walk deterministic without widening the test deps.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.ddg.csr import FU_KINDS
from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.config import MachineConfig, parse_config
from repro.partition.incremental import MoveEvaluator
from repro.partition.partition import Partition
from repro.partition.pseudo import PseudoSchedule, pseudo_schedule
from repro.workloads.generator import LoopSpec, generate_loop

#: (seed, machine, candidate II) cases; together they drive well over
#: the 1000 random moves the acceptance bar asks for.
CASES = [
    (1, "2c1b2l64r", 2),
    (2, "4c1b2l64r", 2),
    (3, "4c2b4l64r", 3),
    (4, "4c1b2l64r", 4),
]

MOVES_PER_CASE = 300  # x4 cases x ~1.5 checks/move >= 1000 comparisons


def scan_boundary(partition: Partition) -> list[int]:
    """From-scratch boundary scan (the old refine helper's definition)."""
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


def check_state(evaluator: MoveEvaluator, machine, ii) -> None:
    partition = evaluator.to_partition()
    assert evaluator.pseudo() == pseudo_schedule(partition, machine, ii)
    assert evaluator.boundary() == scan_boundary(partition)


@pytest.mark.parametrize("seed,machine_name,ii", CASES)
def test_random_walk_matches_from_scratch(seed, machine_name, ii):
    rng = random.Random(seed)
    machine = parse_config(machine_name)
    ddg = generate_loop(LoopSpec(name="walk"), rng, index=seed).ddg
    uids = list(ddg.node_ids())
    assignment = {uid: rng.randrange(machine.n_clusters) for uid in uids}
    partition = Partition(ddg, assignment, machine.n_clusters)

    evaluator = MoveEvaluator(partition, machine, ii)
    check_state(evaluator, machine, ii)

    undo_stack = []
    for _ in range(MOVES_PER_CASE):
        roll = rng.random()
        if undo_stack and roll < 0.3:
            # Unwind in LIFO order — the only order undo guarantees.
            evaluator.undo(undo_stack.pop())
        else:
            uid = rng.choice(uids)
            target = rng.randrange(machine.n_clusters)
            undo_stack.append(evaluator.apply(uid, target))
        check_state(evaluator, machine, ii)

    while undo_stack:
        evaluator.undo(undo_stack.pop())
        check_state(evaluator, machine, ii)

    # Fully unwound: back to the starting partition, bit for bit.
    assert evaluator.to_partition().assignment() == assignment


# ----------------------------------------------------------------------
# Mixed walks: plain reassignments interleaved with replicate moves
# ----------------------------------------------------------------------


def _reference_length(
    ddg: Ddg,
    partition: Partition,
    machine: MachineConfig,
    ii: int,
    extra: dict[int, frozenset[int]],
) -> int:
    """Replica-aware penalized length, from scratch over Ddg objects.

    Deliberately independent of :mod:`repro.ddg.csr`: a dict-based
    Bellman-Ford relaxing edges in ``ddg.edges()`` order (the order the
    kernels pin for bit-identical non-converged partials). A register
    edge pays the bus only when the producer has no instance — home or
    replica — in the consumer's home cluster.
    """
    start = {uid: 0 for uid in ddg.node_ids()}
    bus = machine.bus.latency
    for _ in range(len(ddg) + 1):
        changed = False
        for edge in ddg.edges():
            weight = ddg.node(edge.src).latency - ii * edge.distance
            if bus and edge.kind is EdgeKind.REGISTER:
                dst_cluster = partition.cluster_of(edge.dst)
                if dst_cluster != partition.cluster_of(
                    edge.src
                ) and dst_cluster not in extra.get(edge.src, ()):
                    weight += bus
            bound = start[edge.src] + weight
            if bound > start[edge.dst]:
                start[edge.dst] = bound
                changed = True
        if not changed:
            break
    return max(start[uid] + ddg.node(uid).latency for uid in ddg.node_ids())


def replica_pseudo_reference(
    partition: Partition,
    machine: MachineConfig,
    ii: int,
    extra: dict[int, frozenset[int]],
) -> PseudoSchedule:
    """From-scratch replica-aware pseudo-schedule (whole-graph scans)."""
    ddg = partition.ddg
    present = {
        uid: {partition.cluster_of(uid)} | set(extra.get(uid, ()))
        for uid in ddg.node_ids()
    }
    loads: list[dict] = [{} for _ in range(machine.n_clusters)]
    producers = [0] * machine.n_clusters
    totals = [0] * machine.n_clusters
    for uid in ddg.node_ids():
        node = ddg.node(uid)
        for cluster in present[uid]:
            loads[cluster][node.fu_kind] = loads[cluster].get(node.fu_kind, 0) + 1
            totals[cluster] += 1
            if not node.is_store:
                producers[cluster] += 1
    ii_res = 1
    for cluster in machine.cluster_ids():
        for kind, count in loads[cluster].items():
            ii_res = max(ii_res, math.ceil(count / machine.fu_count(cluster, kind)))
    coms = 0
    for uid in ddg.node_ids():
        consumer_clusters: set[int] = set()
        for edge in ddg.out_edges(uid):
            if edge.kind is EdgeKind.REGISTER:
                consumer_clusters |= present[edge.dst]
        if consumer_clusters - present[uid]:
            coms += 1
    if machine.bus.count:
        ii_bus = (
            machine.bus.latency * math.ceil(coms / machine.bus.count)
            if coms
            else 1
        )
        stranded_coms = False
    else:
        ii_bus = 1
        stranded_coms = coms > 0
    ii_estimate = max(ii, ii_res, ii_bus)
    violation = (
        ii_res > ii
        or stranded_coms
        or any(
            producers[c] > machine.registers(c) for c in machine.cluster_ids()
        )
    )
    return PseudoSchedule(
        capacity_violation=violation,
        ii_estimate=ii_estimate,
        nof_coms=coms,
        length_estimate=_reference_length(ddg, partition, machine, ii_estimate, extra),
        imbalance=(max(totals) - min(totals)) if totals else 0,
    )


@pytest.mark.parametrize("seed,machine_name,ii", CASES)
def test_mixed_walk_matches_from_scratch(seed, machine_name, ii):
    """Interleaved plain + replicate moves track the from-scratch metric.

    Every state along the walk — after each apply and each LIFO undo —
    is checked against :func:`replica_pseudo_reference` built from a
    freshly materialized partition plus the evaluator's replica map, and
    the boundary against the home-based scan (replicas are not homes).
    """
    rng = random.Random(1000 + seed)
    machine = parse_config(machine_name)
    ddg = generate_loop(LoopSpec(name="walk"), rng, index=seed).ddg
    uids = list(ddg.node_ids())
    assignment = {uid: rng.randrange(machine.n_clusters) for uid in uids}
    partition = Partition(ddg, assignment, machine.n_clusters)

    evaluator = MoveEvaluator(partition, machine, ii)

    def check() -> None:
        now = evaluator.to_partition()
        extra = evaluator.replicas()
        assert evaluator.pseudo() == replica_pseudo_reference(
            now, machine, ii, extra
        )
        assert evaluator.boundary() == scan_boundary(now)

    # Replica-aware tables activate on first use and must not perturb
    # any observable while no replicas exist.
    plain = evaluator.pseudo()
    evaluator.replicate_candidates()
    assert evaluator.pseudo() == plain
    check()

    undo_stack = []
    for _ in range(MOVES_PER_CASE):
        roll = rng.random()
        if undo_stack and roll < 0.3:
            # Unwind in LIFO order — the only order undo guarantees.
            evaluator.undo(undo_stack.pop())
        elif roll < 0.65:
            uid = rng.choice(uids)
            targets = evaluator.move_targets(uid)
            if not targets:
                continue
            undo_stack.append(evaluator.apply(uid, rng.choice(targets)))
        else:
            candidates = evaluator.replicate_candidates()
            if not candidates:
                continue
            uid = rng.choice(candidates)
            targets = evaluator.replicate_targets(uid)
            if not targets:
                continue
            undo_stack.append(
                evaluator.apply_replicate(uid, rng.choice(targets))
            )
        check()

    while undo_stack:
        evaluator.undo(undo_stack.pop())
        check()

    # Fully unwound: starting assignment, zero surviving replicas.
    assert evaluator.to_partition().assignment() == assignment
    assert evaluator.replicas() == {}


# ----------------------------------------------------------------------
# Maintained tables and trial scoring
# ----------------------------------------------------------------------

TABLE_MOVES_PER_CASE = 100

#: The walk cases plus machines and IIs where the register floor and
#: the resource bound bind: few registers per cluster, and candidate IIs
#: near the busiest cluster's load, so trials cross both thresholds.
TABLE_CASES = CASES + [
    (5, "4c1b2l8r", 4),
    (6, "4c2b4l64r", 5),
    (7, "2c1b2l12r", 3),
]


def check_tables(evaluator: MoveEvaluator, machine: MachineConfig) -> None:
    """Maintained bounds, floor count and penalties equal a recount.

    Counted over ``Ddg`` objects and the materialized partition plus
    the evaluator's replica map, with replicas as extra instances.
    """
    partition = evaluator.to_partition()
    ddg = partition.ddg
    extra = evaluator.replicas()
    loads = [dict.fromkeys(FU_KINDS, 0) for _ in machine.cluster_ids()]
    producers = [0] * machine.n_clusters
    for uid in ddg.node_ids():
        node = ddg.node(uid)
        for cluster in {partition.cluster_of(uid)} | set(extra.get(uid, ())):
            loads[cluster][node.fu_kind] += 1
            if not node.is_store:
                producers[cluster] += 1
    bounds = [
        [
            math.ceil(loads[cluster][kind] / machine.fu_count(cluster, kind))
            for kind in FU_KINDS
        ]
        for cluster in machine.cluster_ids()
    ]
    assert evaluator._bound == bounds
    assert evaluator._max_bound == max(max(row) for row in bounds)
    assert evaluator._bound_count == [
        sum(row.count(value) for row in bounds)
        for value in range(len(evaluator._bound_count))
    ]
    assert evaluator._over_floor == sum(
        count > machine.registers(cluster)
        for cluster, count in enumerate(producers)
    )
    bus = machine.bus.latency
    penalty = []
    for edge in ddg.edges():
        consumer_home = partition.cluster_of(edge.dst)
        crosses = consumer_home != partition.cluster_of(
            edge.src
        ) and consumer_home not in extra.get(edge.src, ())
        penalty.append(bus if edge.kind is EdgeKind.REGISTER and crosses else 0)
    assert evaluator._penalty == penalty


def check_trials(evaluator: MoveEvaluator) -> None:
    """Every boundary trial scores as apply -> score -> undo would.

    The length memo is emptied before each length so that both sides
    run the relaxation: the trial over its re-priced edges, the applied
    state over the penalties ``apply`` maintained.
    """
    for uid in evaluator.boundary():
        for target in evaluator.move_targets(uid):
            evaluator._length_memo.clear()
            trial = (
                evaluator.prefix(uid, target),
                evaluator.length(uid, target),
                evaluator.imbalance(uid, target),
            )
            move = evaluator.apply(uid, target)
            evaluator._length_memo.clear()
            applied = (
                evaluator.prefix(),
                evaluator.length(),
                evaluator.imbalance(),
            )
            evaluator.undo(move)
            assert trial == applied, (uid, target)


@pytest.mark.parametrize("replicate", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("seed,machine_name,ii", TABLE_CASES)
def test_tables_and_trials_match_through_the_walk(seed, machine_name, ii, replicate):
    """After every apply, undo, replicate and de-replicate, the maintained
    tables equal a recount and every boundary trial equals its applied
    state, with and without live replicas."""
    rng = random.Random(2000 + seed)
    machine = parse_config(machine_name)
    ddg = generate_loop(LoopSpec(name="walk"), rng, index=seed).ddg
    uids = list(ddg.node_ids())
    assignment = {uid: rng.randrange(machine.n_clusters) for uid in uids}
    evaluator = MoveEvaluator(
        Partition(ddg, assignment, machine.n_clusters), machine, ii
    )

    def check() -> None:
        check_tables(evaluator, machine)
        check_trials(evaluator)

    check()
    undo_stack = []
    live_replicas = False
    for _ in range(TABLE_MOVES_PER_CASE):
        roll = rng.random()
        if undo_stack and roll < 0.3:
            evaluator.undo(undo_stack.pop())
        elif not replicate or roll < 0.65:
            uid = rng.choice(uids)
            targets = evaluator.move_targets(uid)
            if not targets:
                continue
            undo_stack.append(evaluator.apply(uid, rng.choice(targets)))
        else:
            candidates = evaluator.replicate_candidates()
            if not candidates:
                continue
            uid = rng.choice(candidates)
            targets = evaluator.replicate_targets(uid)
            if not targets:
                continue
            undo_stack.append(
                evaluator.apply_replicate(uid, rng.choice(targets))
            )
        live_replicas = live_replicas or evaluator.has_replicas
        check()
    while undo_stack:
        evaluator.undo(undo_stack.pop())
        check()
    assert live_replicas == replicate
