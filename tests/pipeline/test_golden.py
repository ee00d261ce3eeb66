"""The golden decision file: the committed GOLDEN.jsonl pins every cell.

The 4-loop prefix (720 cells) is compiled once for the module and must
match the committed file, byte for byte as the head of it. Synthetic
lines pin how a difference is found and reported, and a six-cell
matrix runs ``repro golden record`` and ``check`` end to end.
"""

import copy
import pathlib

import pytest

from repro.cli import main
from repro.machine.config import PAPER_CONFIG_NAMES
from repro.pipeline import golden

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "GOLDEN.jsonl"


@pytest.fixture(scope="module")
def observed():
    """The 4-loop prefix's lines and faults, compiled in-process."""
    return golden.observe(4)


class TestCommittedFile:
    def test_prefix_matches(self, observed):
        lines, faults = observed
        assert len(lines) == 720
        assert faults == []
        assert not [line for line in lines if "error" in line]
        assert golden.compare(golden.read(GOLDEN), lines, faults) == []

    def test_prefix_record_is_the_head_of_the_file(self, observed):
        lines, _ = observed
        head = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
        assert golden.render(lines) == "".join(head[: len(lines)])

    def test_sampled_cycles_cover_every_machine_and_scheme(self):
        sampled = [line for line in golden.read(GOLDEN) if "cycles" in line]
        assert len(sampled) == 61
        assert {line["machine"] for line in sampled} == set(PAPER_CONFIG_NAMES)
        assert {line["scheme"] for line in sampled} == set(golden.SCHEMES)


def _line(loop, scheme, **fields):
    decided = {
        "mii": 3,
        "ii": 4,
        "causes": ["bus"],
        "partition": "0123456789ab",
        "plan": "123456789abc",
        "copies": 2,
        "kernel": "23456789abcd",
    }
    decided.update(fields)
    return {"loop": loop, "machine": "4c1b2l64r", "scheme": scheme, **decided}


@pytest.fixture
def pinned():
    return [
        _line("swim/swim_0", "baseline", cycles=812),
        _line("swim/swim_0", "replication", ii=3, causes=[]),
        _line("swim/swim_1", "baseline"),
    ]


class TestCompare:
    def test_equal_lines_pass(self, pinned):
        assert golden.compare(pinned, copy.deepcopy(pinned)) == []

    def test_changed_kernel_digest_is_reported_as_kernel(self, pinned):
        lines = copy.deepcopy(pinned)
        lines[1]["kernel"] = "ffffffffffff"
        (found,) = golden.compare(pinned, lines)
        assert found.line is lines[1]
        assert str(found) == (
            "swim/swim_0 4c1b2l64r replication: kernel 23456789abcd -> ffffffffffff"
        )

    def test_changed_ii_is_reported_before_what_it_moved(self, pinned):
        lines = copy.deepcopy(pinned)
        lines[0].update(ii=5, partition="ffffffffffff", kernel="ffffffffffff")
        (found,) = golden.compare(pinned, lines)
        assert (found.field, found.detail) == ("ii", "4 -> 5")

    def test_changed_cycles_are_reported(self, pinned):
        lines = copy.deepcopy(pinned)
        lines[0]["cycles"] = 813
        (found,) = golden.compare(pinned, lines)
        assert (found.field, found.detail) == ("cycles", "812 -> 813")

    def test_missing_line_fails(self, pinned):
        (found,) = golden.compare(pinned[1:], pinned)
        assert found.field == "missing"
        assert found.line is pinned[0]

    def test_lines_outside_the_compiled_prefix_are_ignored(self, pinned):
        outside = _line("swim/swim_2", "baseline", ii=9)
        assert golden.compare(pinned + [outside], pinned[:2]) == []

    def test_a_fault_counts_as_a_difference(self, pinned):
        fault = golden.Difference(pinned[2], "codec", "entry decodes to another plan")
        assert golden.compare(pinned, pinned, [fault]) == [fault]

    def test_differences_come_in_line_order(self, pinned):
        lines = copy.deepcopy(pinned)
        lines[2]["copies"] = 0
        lines[0]["causes"] = []
        found = golden.compare(pinned, lines)
        assert [(d.line["loop"], d.field) for d in found] == [
            ("swim/swim_0", "causes"),
            ("swim/swim_1", "copies"),
        ]


class TestRender:
    def test_record_output_is_byte_stable(self, observed, pinned):
        lines, _ = observed
        shuffled_keys = [dict(reversed(list(line.items()))) for line in lines]
        assert golden.render(lines) == golden.render(shuffled_keys)
        text = golden.render(pinned)
        assert text.count("\n") == len(pinned)
        assert text.splitlines()[0].startswith('{"causes":["bus"],"copies":2,')

    def test_read_round_trips_render(self, tmp_path, pinned):
        path = tmp_path / "golden.jsonl"
        path.write_text(golden.render(pinned), encoding="utf-8")
        assert golden.read(path) == pinned
        assert golden.read(tmp_path / "absent.jsonl") == []


class TestCommand:
    @pytest.fixture
    def six_cells(self, monkeypatch):
        real = golden.matrix
        monkeypatch.setattr(golden, "matrix", lambda limit: real(1)[:6])

    def test_record_twice_then_check(self, six_cells, tmp_path, capsys):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert main(["golden", "record", str(first)]) == 0
        assert main(["golden", "record", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = golden.read(first)
        assert len(lines) == 6 and "cycles" in lines[0]
        capsys.readouterr()
        assert main(["golden", "check", str(first)]) == 0
        assert "6 cells checked" in capsys.readouterr().out

    def test_check_names_the_first_difference(self, six_cells, tmp_path, capsys):
        path = tmp_path / "golden.jsonl"
        assert main(["golden", "record", str(path)]) == 0
        lines = golden.read(path)
        lines[4]["ii"] += 1
        path.write_text(golden.render(lines[:2] + lines[3:]), encoding="utf-8")
        capsys.readouterr()
        assert main(["golden", "check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 differ, 1 missing" in out
        assert "first: tomcatv/tomcatv_0 2c1b2l64r repl-part: missing" in out
