"""Content-addressed job keying: determinism, sensitivity, and the
memoized canonical JSON the key is hashed from."""

import hashlib
import itertools
import json

import pytest

from repro.ddg import io as ddg_io
from repro.ddg.graph import Ddg
from repro.engine.jobs import (
    CompileJob,
    ErrorKind,
    Outcome,
    resolve_machine,
    run_job,
)
from repro.machine.config import ConfigError
from repro.machine.resources import OpClass
from repro.pipeline import golden
from repro.pipeline.driver import Scheme
from repro.workloads.patterns import daxpy, stencil5
from repro.workloads.specfp import benchmark_loops


def job(ddg=None, **overrides) -> CompileJob:
    defaults = dict(
        ddg=ddg if ddg is not None else daxpy(),
        machine="4c1b2l64r",
        scheme=Scheme.REPLICATION,
    )
    defaults.update(overrides)
    return CompileJob(**defaults)


class TestHashDeterminism:
    def test_same_ddg_built_twice_same_hash(self):
        assert job(daxpy()).content_hash() == job(daxpy()).content_hash()

    def test_regenerated_suite_loop_same_hash(self):
        first = benchmark_loops("mgrid", limit=1)[0]
        second = benchmark_loops("mgrid", limit=1)[0]
        assert (
            job(first.ddg).content_hash() == job(second.ddg).content_hash()
        )

    def test_hash_is_hex_sha256(self):
        digest = job().content_hash()
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_tag_does_not_affect_hash(self):
        assert (
            job(tag="a/1").content_hash() == job(tag="b/2").content_hash()
        )

    def test_wire_round_trip_preserves_hash(self):
        original = job(stencil5(), tag="x")
        rebuilt = CompileJob.from_wire(original.to_wire())
        assert rebuilt.content_hash() == original.content_hash()
        assert rebuilt.tag == "x"


class TestHashSensitivity:
    def test_different_graph(self):
        assert job(daxpy()).content_hash() != job(stencil5()).content_hash()

    def test_edge_distance_changes_hash(self):
        from repro.ddg.graph import EdgeKind

        plain, carried = daxpy(), daxpy()
        nodes = list(carried.nodes())
        carried.add_edge(nodes[-1], nodes[0], distance=3, kind=EdgeKind.MEMORY)
        assert job(plain).content_hash() != job(carried).content_hash()

    def test_machine_string_changes_hash(self):
        assert (
            job(machine="4c1b2l64r").content_hash()
            != job(machine="2c1b2l64r").content_hash()
        )

    def test_bus_latency_changes_hash(self):
        # One latency digit in the config string is a different machine.
        assert (
            job(machine="4c1b2l64r").content_hash()
            != job(machine="4c1b4l64r").content_hash()
        )

    def test_scheme_changes_hash(self):
        assert (
            job(scheme=Scheme.BASELINE).content_hash()
            != job(scheme=Scheme.REPLICATION).content_hash()
        )

    def test_string_scheme_hashes_like_enum(self):
        # Registry keys and enum members name the same scheme, so they
        # must share cache entries.
        assert (
            job(scheme="replication").content_hash()
            == job(scheme=Scheme.REPLICATION).content_hash()
        )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("length_replication", True),
            ("copy_latency_override", 0),
            ("spare_comms", 2),
            ("max_ii", 99),
        ],
    )
    def test_each_flag_changes_hash(self, flag, value):
        assert job().content_hash() != job(**{flag: value}).content_hash()


FLAGS = {
    "length_replication": True,
    "copy_latency_override": 0,
    "spare_comms": 2,
    "max_ii": 99,
}


def reference_hash(made: CompileJob) -> str:
    """The key as the whole payload's one JSON text defines it."""
    canon = json.dumps(made.canonical_payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class TestHashReference:
    def test_key_is_the_sha256_of_the_payload_text(self):
        """Every golden cell of the 4-loop prefix (CI's
        ``REPRO_BENCH_LOOPS``): each suite loop on the six Fig. 7
        machines under the three schemes, with default flags and with
        each flag set."""
        variants = [{}] + [{flag: value} for flag, value in FLAGS.items()]
        checked = 0
        for (loop, machine, scheme), flags in itertools.product(
            golden.matrix(4), variants
        ):
            made = job(loop.ddg, machine=machine, scheme=scheme, **flags)
            assert made.content_hash() == reference_hash(made)
            checked += 1
        assert checked == 720 * 5


def graph(name="g", nodes=("a", "b", "c"), edges=(("a", "b", 2),)) -> Ddg:
    built = Ddg(name)
    by_name = {node: built.add_node(node, OpClass.INT_ARITH) for node in nodes}
    for src, dst, distance in edges:
        built.add_edge(by_name[src], by_name[dst], distance=distance)
    return built


def key(ddg: Ddg) -> str:
    return job(ddg).content_hash()


class TestHashMemo:
    """The key reads a memo of the DDG's JSON text; a changed graph is
    hashed from its new content."""

    @pytest.mark.parametrize(
        "change, fresh",
        [
            (
                lambda g: g.add_node("d", OpClass.INT_ARITH),
                lambda: graph(nodes=("a", "b", "c", "d")),
            ),
            (
                lambda g: g.add_edge(g.node_by_name("a"), g.node_by_name("b"), 1),
                lambda: graph(edges=(("a", "b", 1),)),
            ),
            (
                lambda g: g.remove_node(g.node_by_name("c")),
                lambda: graph(nodes=("a", "b")),
            ),
            (lambda g: setattr(g, "name", "renamed"), lambda: graph(name="renamed")),
        ],
        ids=["add_node", "tighten_edge", "remove_node", "rename"],
    )
    def test_changed_graph_hashes_like_a_fresh_equal_one(self, change, fresh):
        ddg = graph()
        before = key(ddg)
        assert key(ddg) == before  # a memo hit
        change(ddg)
        assert key(ddg) == key(fresh()) == reference_hash(job(ddg))
        assert key(ddg) != before
        assert ddg_io.canonical_json(ddg) == json.dumps(
            ddg_io.to_dict(ddg), sort_keys=True, separators=(",", ":")
        )

    def test_diverging_copy_hashes_apart_from_its_source(self):
        """A copy starts at its source's version; changed apart by the
        same number of mutations, each keeps its own key."""
        source = graph()
        before = key(source)
        clone = source.copy()
        assert key(clone) == before
        source.add_node("x", OpClass.INT_ARITH)
        clone.add_node("y", OpClass.FP_ARITH)
        assert source.version == clone.version
        assert key(source) != key(clone)
        assert key(source) == key(graph(nodes=("a", "b", "c", "x")))
        assert key(clone) == reference_hash(job(clone))
        assert before not in {key(source), key(clone)}


class TestRunJob:
    def test_ok_outcome_carries_result(self):
        result = run_job(job())
        assert result.outcome is Outcome.OK and result.ok
        assert result.ii is not None and result.ii >= result.result.mii
        assert result.error == ""

    def test_compile_error_is_structured(self):
        from repro.ddg.graph import Ddg

        result = run_job(job(Ddg("empty")))
        assert result.outcome is Outcome.ERROR
        assert not result.ok and result.result is None
        assert "empty" in result.error


class TestErrorKinds:
    def test_ok_result_has_no_error_kind(self):
        assert run_job(job()).error_kind is ErrorKind.NONE

    def test_ii_exhaustion_is_unschedulable(self):
        result = run_job(job(max_ii=1))
        assert result.outcome is Outcome.ERROR
        assert result.error_kind is ErrorKind.UNSCHEDULABLE

    def test_bad_input_is_invalid_input(self):
        from repro.ddg.graph import Ddg

        result = run_job(job(Ddg("empty")))
        assert result.outcome is Outcome.ERROR
        assert result.error_kind is ErrorKind.INVALID_INPUT

    def test_unknown_scheme_is_invalid_input(self):
        result = run_job(job(scheme="no_such_scheme"))
        assert result.outcome is Outcome.ERROR
        assert result.error_kind is ErrorKind.INVALID_INPUT


class TestResolveMachine:
    def test_one_name_resolves_to_one_object(self):
        assert resolve_machine("4c2b4l64r") is resolve_machine("4c2b4l64r")
        assert resolve_machine("unified") is resolve_machine("unified")

    def test_bad_name_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ConfigError):
                resolve_machine("not-a-machine")
