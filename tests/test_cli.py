"""The command-line interface."""

import argparse
import pathlib
import re

import pytest

import repro.cli
from repro.cli import _counter_totals, build_parser, main
from repro.ddg import io as ddg_io
from repro.engine.jobs import JobResult, Outcome
from repro.pipeline.driver import CompileDiagnostics, CompileResult, Scheme
from repro.workloads.patterns import daxpy


class TestCompile:
    def test_compile_pattern(self, capsys):
        assert main(["compile", "--machine", "2c1b2l64r", "--loop", "daxpy"]) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out and "II" in out

    def test_compile_kernel_dump(self, capsys):
        main(["compile", "--loop", "daxpy", "--kernel"])
        out = capsys.readouterr().out
        assert "slot=" in out

    def test_default_scheme_is_replication(self, capsys):
        assert main(["compile", "--loop", "stencil5"]) == 0
        assert "[replication]" in capsys.readouterr().out

    def test_baseline_flag(self, capsys):
        main(["compile", "--loop", "stencil5", "--scheme", "baseline"])
        out = capsys.readouterr().out
        assert "[baseline]" in out
        assert "replicas 0" in out

    def test_compile_json_file(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        ddg_io.save(daxpy(), str(path))
        assert main(["compile", "--loop", str(path)]) == 0
        assert "daxpy" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compile", "simulate", "asm"])
def test_a_loop_that_cannot_compile_exits_1_naming_its_kind(
    capsys, tmp_path, command
):
    """A loop the engine ends ``invalid_input`` is an error line and exit
    1, not a ``CompileError`` traceback."""
    path = tmp_path / "hollow.json"
    path.write_text('{"name":"hollow","nodes":[],"edges":[]}')
    assert main([command, "--loop", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: loop 'hollow' is empty (invalid_input)\n"


class TestSimulate:
    def test_simulate_reports_ipc(self, capsys):
        main(["simulate", "--loop", "daxpy", "-n", "50"])
        out = capsys.readouterr().out
        assert "IPC" in out and "cycles" in out

    def test_unified_machine(self, capsys):
        main(["simulate", "--machine", "unified", "--loop", "stencil5"])
        out = capsys.readouterr().out
        assert "0 copies" in out


class TestSchemes:
    def test_cloning_scheme(self, capsys):
        main(["compile", "--loop", "daxpy", "--scheme", "cloning"])
        assert "[value_cloning]" in capsys.readouterr().out

    def test_macro_scheme(self, capsys):
        main(["compile", "--loop", "stencil5", "--scheme", "macro"])
        assert "[macro_replication]" in capsys.readouterr().out

    def test_repl_part_compiles_from_the_command_line(self, capsys):
        assert main(["compile", "--loop", "stencil5", "--scheme", "repl-part"]) == 0
        assert "[repl-part]" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_every_scheme_value_is_a_cli_name(self, capsys, scheme):
        assert main(["compile", "--loop", "daxpy", "--scheme", scheme]) == 0
        assert f"[{scheme}]" in capsys.readouterr().out


class TestAsm:
    def test_assembly_emitted(self, capsys):
        main(["asm", "--loop", "daxpy", "--machine", "2c1b2l64r"])
        out = capsys.readouterr().out
        assert "prolog:" in out and "kernel:" in out and "epilog:" in out


class TestDot:
    def test_plain_dot(self, capsys):
        main(["dot", "--loop", "dot_product"])
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_partitioned_dot(self, capsys):
        main(["dot", "--loop", "daxpy", "--machine", "2c1b2l64r", "--partition"])
        out = capsys.readouterr().out
        assert "subgraph cluster_0" in out


def _counted(counters: dict[str, float]) -> JobResult:
    """A hand-built OK result carrying only diagnostics counters."""
    result = CompileResult(
        kernel=None,
        partition=None,
        plan=None,
        mii=1,
        ii=1,
        causes=[],
        scheme=Scheme.REPLICATION,
        diagnostics=CompileDiagnostics(counters=counters),
    )
    return JobResult(key="k", tag="t", outcome=Outcome.OK, result=result)


class TestCounterTotals:
    def test_rates_derive_from_summed_counts(self):
        first = {
            "partition.lengths_computed": 2,
            "partition.lengths_memoized": 1,
            "partition.lengths_skipped": 3,
            "partition.analysis_memo_hits": 1,
            "partition.analysis_memo_misses": 2,
            "replicate.subgraph_walks": 2,
            "replicate.subgraph_reused": 1,
            "replicate.removable_walks": 1,
            "replicate.removable_reused": 0,
        }
        second = {
            "partition.lengths_computed": 2,
            "partition.lengths_memoized": 3,
            "partition.lengths_skipped": 1,
            "partition.analysis_memo_hits": 3,
            "partition.analysis_memo_misses": 0,
            "replicate.subgraph_walks": 0,
            "replicate.subgraph_reused": 3,
            "replicate.removable_walks": 1,
            "replicate.removable_reused": 2,
        }
        results = [
            _counted(first),
            _counted(second),
            JobResult(key="e", tag="t", outcome=Outcome.ERROR, error="x"),
        ]
        totals = _counter_totals(results)
        assert totals["partition.lengths_skipped"] == 4
        assert totals["replicate.subgraph_reused"] == 4
        # skipped / (skipped + computed + memoized)
        assert totals["partition.lazy_skip_rate"] == pytest.approx(4 / 12)
        # memoized / (computed + memoized)
        assert totals["partition.length_memo_hit_rate"] == pytest.approx(4 / 8)
        # hits / (hits + misses)
        assert totals["partition.analysis_memo_hit_rate"] == pytest.approx(4 / 6)
        # reused walks of both kinds / every walk asked for
        assert totals["replicate.rescore_skip_rate"] == pytest.approx(6 / 10)

    def test_rates_with_nothing_counted_are_left_out(self):
        assert _counter_totals([_counted({"schedule.attempts": 1})]) == {
            "schedule.attempts": 1
        }


class TestBench:
    def test_matrix_summary_table(self, capsys):
        assert (
            main(
                ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                 "--limit", "2", "--jobs", "1", "--quiet", "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bench matrix" in out
        assert "mgrid" in out and "baseline" in out and "replication" in out
        assert "cache: disabled" in out

    def test_second_run_reports_cache_hits(self, capsys, monkeypatch, tmp_path):
        from repro.engine import cache as engine_cache

        monkeypatch.setenv(engine_cache.CACHE_DIR_ENV, str(tmp_path))
        engine_cache.reset_default_cache()
        argv = ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                "--limit", "2", "--jobs", "1", "--schemes", "baseline",
                "--quiet"]
        main(argv)
        cold = capsys.readouterr().out
        assert "0 hits" in cold or "(0.0%)" in cold
        main(argv)
        warm = capsys.readouterr().out
        assert "(100.0%)" in warm
        engine_cache.reset_default_cache()

    def test_json_format_is_machine_readable(self, capsys):
        import json

        assert (
            main(["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                  "--limit", "2", "--jobs", "1", "--schemes", "baseline",
                  "--quiet", "--no-cache", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 2
        assert payload["cache"]["enabled"] is False
        cell = payload["cells"][0]
        assert cell["benchmark"] == "mgrid"
        assert cell["scheme"] == "baseline"
        assert cell["ok"] == 2 and cell["failed"] == 0
        assert cell["ipc"] > 0
        assert "stages" not in payload
        assert payload["elapsed_seconds"] >= 0.0 and payload["counters"]
        assert payload["failures"] == []

    def test_schemes_filter_runs_registered_scheme(self, capsys):
        assert (
            main(
                ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                 "--limit", "1", "--jobs", "1", "--schemes", "repl-part",
                 "--quiet", "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repl-part" in out
        assert "baseline" not in out.split("evaluator counters")[0]

    def test_schemes_filter_accepts_comma_separated(self, capsys):
        main(["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
              "--limit", "1", "--jobs", "1",
              "--schemes", "baseline,repl-part", "--quiet", "--no-cache"])
        out = capsys.readouterr().out
        assert "baseline" in out and "repl-part" in out

    def test_unknown_scheme_exits_with_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--benchmark", "mgrid", "--limit", "1",
                  "--jobs", "1", "--schemes", "nonsense", "--quiet",
                  "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scheme 'nonsense'" in err
        assert "repl-part" in err  # the message lists what IS available

    def test_events_file_is_jsonl(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        main(["bench", "--benchmark", "mgrid", "--limit", "1", "--jobs", "1",
              "--schemes", "baseline", "--quiet", "--no-cache",
              "--events", str(events)])
        capsys.readouterr()
        lines = events.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "finished" in kinds or "cache_hit" in kinds


COMPILE_DAXPY = ["compile", "--machine", "2c1b2l64r", "--loop", "daxpy"]


def traced(monkeypatch, path, argv) -> int:
    """``main(argv)`` with ``REPRO_TRACE=path``, which records its spans."""
    from repro.obs import spans as obs

    monkeypatch.setenv(obs.TRACE_ENV, str(path))
    obs._refresh_from_env()
    try:
        return main(argv)
    finally:
        monkeypatch.delenv(obs.TRACE_ENV)
        obs._refresh_from_env()
        obs.tracer().drain()


class TestTrace:
    def test_record_writes_trace_and_summary(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "run.jsonl"
        chrome_path = tmp_path / "run.chrome.json"
        assert traced(monkeypatch, out_path, COMPILE_DAXPY) == 0
        err = capsys.readouterr().err
        assert "wrote" in err and "spans" in err
        code = main(
            ["trace", str(out_path), "--summary", "--chrome", str(chrome_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top" in out and "self time" in out
        assert out_path.exists() and chrome_path.exists()

        import json

        doc = json.load(open(chrome_path))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "pipeline.compile" in names
        assert any(name.startswith("pass.") for name in names)

    def test_summary_of_an_existing_trace(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        traced(monkeypatch, path, COMPILE_DAXPY)
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage durations" in out

    def test_diff_of_two_traces(self, capsys, tmp_path, monkeypatch):
        paths = []
        for index in range(2):
            path = tmp_path / f"t{index}.jsonl"
            traced(monkeypatch, path, COMPILE_DAXPY)
            paths.append(str(path))
        capsys.readouterr()
        assert main(["trace", "--diff", *paths]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out

    def test_diff_needs_two_files(self, capsys, tmp_path):
        assert main(["trace", "--diff", "only_one.jsonl"]) == 2
        assert "two trace files" in capsys.readouterr().err

    def test_no_inputs_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "trace files" in capsys.readouterr().err

    def test_env_var_records_without_the_wrapper(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        assert traced(monkeypatch, path, COMPILE_DAXPY) == 0
        err = capsys.readouterr().err
        assert "wrote" in err and str(path) in err
        assert path.exists()

    def test_crashing_command_still_flushes_the_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        """REPRO_TRACE output survives an unhandled exception."""
        import repro.engine.jobs as jobs
        from repro.obs import spans as obs
        from repro.obs.export import read_trace

        def boom(ddg, machine, **kwargs):
            with obs.span("doomed.pass"):
                pass
            raise RuntimeError("kaboom")

        monkeypatch.setattr(jobs, "compile_loop", boom)
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError, match="kaboom"):
            traced(monkeypatch, path, COMPILE_DAXPY)
        err = capsys.readouterr().err
        assert "wrote" in err and str(path) in err
        records = read_trace(str(path))
        assert any(record["name"] == "doomed.pass" for record in records)


class TestSelfCheck:
    def test_selfcheck_runs_green(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "self-check OK" in out
        assert "verified" in out


class TestCache:
    def test_path_prints_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert main(["cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "store")

    def test_path_honors_dir_flag(self, capsys, tmp_path):
        assert main(["cache", "path", "--dir", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "d")

    def test_stats_on_fresh_store(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache at" in out
        assert "0 entries on disk" in out

    def test_clear_reports_removed_count(self, capsys, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.jobs import CompileJob
        from repro.pipeline.driver import Scheme, compile_loop
        from repro.machine.config import parse_config

        job = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.BASELINE)
        result = compile_loop(
            daxpy(), parse_config("2c1b2l64r"), scheme=Scheme.BASELINE
        )
        ResultCache(root=tmp_path, enabled=True).put(job.content_hash(), result)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "1 entries on disk" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_stats_prints_what_the_store_holds(self, capsys, tmp_path):
        """The command's own cache instance has looked nothing up, so it
        prints no hit or write counts."""
        from repro.engine.cache import ResultCache
        from repro.engine.jobs import CompileJob, run_job

        job = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.BASELINE)
        ResultCache(root=tmp_path, enabled=True).put(
            job.content_hash(), run_job(job).result
        )
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries on disk" in out
        assert "hits" not in out and "writes" not in out


class TestServeCLI:
    def test_serve_smoke_exit_code(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "serve smoke: OK" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_pattern_is_a_file_path(self):
        with pytest.raises(FileNotFoundError):
            main(["compile", "--loop", "no_such_pattern"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["top"], "invalid choice: 'top'"),
            (["suite"], "invalid choice: 'suite'"),
            (["compile", "--no-replication"], "unrecognized arguments"),
            (["dot", "--scheme", "baseline"], "unrecognized arguments"),
            (["trace", "--record", "compile"], "unrecognized arguments"),
            (["trace", "--out", "x.jsonl", "t.jsonl"], "unrecognized arguments"),
        ],
    )
    def test_removed_commands_and_flags_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            main(["cache", "defragment"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--loop", "daxpy"],
            ["simulate", "--loop", "daxpy"],
            ["asm", "--loop", "daxpy"],
            ["dot", "--loop", "daxpy"],
            ["bench", "--limit", "1", "--no-cache", "--quiet"],
        ],
    )
    def test_bad_machine_name_exits_2_with_its_message(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--machine", "bogus"])
        assert excinfo.value.code == 2
        assert "bad machine name 'bogus'" in capsys.readouterr().err

    def test_bench_has_no_single_scheme_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--benchmark", "mgrid", "--limit", "1",
                  "--scheme", "baseline", "--quiet", "--no-cache"])
        assert excinfo.value.code == 2
        assert "--scheme" in capsys.readouterr().err


#: Documents whose ``python -m repro <name>`` and ``repro <name>``
#: mentions must name a real subcommand.
DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
_COMMAND = re.compile(r"(?:python -m repro|`repro)\s+(<?[\w|-]+>?)")


def _mentioned_commands(text: str) -> set[str]:
    """The subcommands a text names as ``python -m repro <name>`` or as a
    backticked ``repro <name>``; ``a|b|c`` lists are split and the
    ``<command>`` placeholder is skipped."""
    return {
        name
        for token in _COMMAND.findall(text)
        if token != "<command>"
        for name in token.strip("<>").split("|")
    }


class TestDocs:
    @staticmethod
    def _subcommands() -> set[str]:
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return set(sub.choices)

    @pytest.mark.parametrize("doc", DOCS)
    def test_documented_commands_exist(self, doc):
        root = pathlib.Path(__file__).resolve().parents[1]
        mentioned = _mentioned_commands((root / doc).read_text(encoding="utf-8"))
        assert mentioned, doc
        assert mentioned - self._subcommands() == set(), doc

    def test_cli_docstring_commands_exist(self):
        mentioned = _mentioned_commands(repro.cli.__doc__)
        assert mentioned
        assert mentioned - self._subcommands() == set()
