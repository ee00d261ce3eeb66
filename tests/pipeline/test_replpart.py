"""The repl-part scheme: its table row, compilation, budget semantics."""

from __future__ import annotations

import random

import pytest

from repro.machine.config import parse_config
from repro.pipeline import (
    PLAN_PASSES,
    Scheme,
    compile_loop,
    run_pass_pipeline,
)
from repro.pipeline.passes import ReplicatePlanPass
from repro.workloads.generator import LoopSpec, generate_loop

REPL_PART = Scheme.REPL_PART


@pytest.fixture()
def loop():
    rng = random.Random(21)
    return generate_loop(LoopSpec(name="replpart"), rng, index=21).ddg


@pytest.fixture()
def machine():
    return parse_config("4c1b2l64r")


@pytest.fixture()
def zero_budget(monkeypatch):
    """repl-part's row with no in-partition replica budget."""
    monkeypatch.setitem(PLAN_PASSES, REPL_PART, (ReplicatePlanPass, 0))


class TestReplPartScheme:
    def test_registered_at_import(self):
        assert REPL_PART.value == "repl-part"
        assert REPL_PART in PLAN_PASSES

    def test_compiles_end_to_end(self, loop, machine):
        result = compile_loop(loop, machine, scheme=REPL_PART)
        assert result.kernel is not None
        assert result.ii >= result.mii
        assert result.scheme == REPL_PART

    def test_move_kind_counters_flow(self, loop, machine):
        result = compile_loop(loop, machine, scheme=REPL_PART)
        counters = result.diagnostics.counters
        assert "partition.moves.plain" in counters
        assert "partition.moves.replicate" in counters
        assert "partition.moves.replicas_surviving" in counters
        assert counters["partition.moves.plain"] >= 0

    def test_zero_budget_reduces_to_post_pass_replication(
        self, loop, machine, zero_budget
    ):
        """With a zero in-partition budget the stack grants nothing and
        must land exactly where the paper's post-pass scheme lands."""
        reference = run_pass_pipeline(loop, machine, "replication")
        zero = run_pass_pipeline(loop, machine, REPL_PART)
        assert zero.ii == reference.ii
        assert zero.partition.assignment() == reference.partition.assignment()
        assert zero.plan.replicas == reference.plan.replicas
        assert zero.kernel.n_copy_ops() == reference.kernel.n_copy_ops()
        assert zero.kernel.length == reference.kernel.length

    def test_budget_knob_reaches_the_partitioner(self, loop, machine, zero_budget):
        result = run_pass_pipeline(loop, machine, REPL_PART)
        counters = result.diagnostics.counters
        assert counters.get("partition.moves.replicate", 0) == 0
        assert counters.get("partition.moves.replicas_surviving", 0) == 0

    def test_existing_schemes_unaffected(self, loop, machine):
        """Nothing about the new scheme leaks into the legacy four."""
        result = run_pass_pipeline(loop, machine, "replication")
        counters = result.diagnostics.counters
        assert counters.get("partition.moves.replicate", 0) == 0
        assert result.scheme.value == "replication"
