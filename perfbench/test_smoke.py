"""Smoke tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``. Each
workload runs on two loops per benchmark for about a second, untraced
and traced, and must print every metric ``BENCHMARK.json`` declares,
with its unit, and pass its own output checks.
"""

from __future__ import annotations

import collections
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
FIGURES = ("ipc_hmean", "bus_copies", "added_ops_pct")


def run(workload: str, trace: int, seed: int = 3, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--loops-per-benchmark", "2",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(run(workload, trace))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_figures_depend_on_the_seed_alone():
    """The quality set is round 0 of the seed, whichever workload runs it."""
    first = result_of(run("cold-compile", 0))["metrics"]
    again = result_of(run("cold-compile", 0))["metrics"]
    replayed = result_of(run("warm-replay", 0))["metrics"]
    for name in FIGURES:
        assert first[name]["value"] == again[name]["value"] == replayed[name]["value"]
    other = result_of(run("cold-compile", 0, seed=4))["metrics"]
    assert any(first[name]["value"] != other[name]["value"] for name in FIGURES)


def test_served_stream_repeats_cells_once_new_ones_run_out(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import serve_load
    import workloads

    loops = workloads.generate_loops(1)
    stored = next(workloads.rounds(5, loops))
    fresh = list(workloads.fresh_cells(5, loops, stored))
    every = {(i, *pair) for i in range(len(loops)) for pair in workloads.PAIRS}
    assert len(fresh) == len(set(fresh)) and set(fresh) == every - set(stored)
    stream = serve_load.Stream(5, stored, iter(fresh), lambda cell: cell)
    dealt = [stream.next() for _ in range(4 * len(every))]
    assert {cell for _, cell, _ in dealt} == every
    kinds = collections.Counter(kind for kind, _, _ in dealt)
    assert (kinds["hit"], kinds["miss"]) == (len(stored), len(fresh))
    assert kinds["dup"] == len(dealt) - len(stored) - len(fresh)


def test_host_speed_rates_a_job_by_the_samples_around_it(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import hostspeed

    samples = hostspeed.Samples()
    assert samples.mean() == 1.0
    times = []
    for factor in (0.5, 1.0, 2.0):
        unit = hostspeed.REFERENCE_S / factor
        monkeypatch.setattr(hostspeed, "unit_seconds", lambda unit=unit: unit)
        times.append(samples.take())
    rate = samples.rater()
    assert samples.mean() == pytest.approx(3.5 / 3)
    assert rate(times[1], times[2]) == pytest.approx(1.5)
    # No sample inside: the nearest one rates the interval.
    assert rate(times[0] - 5, times[0] - 4) == pytest.approx(0.5)
    assert rate(times[2] + 4, times[2] + 5) == pytest.approx(2.0)
    just_after = times[1] + 1e-9
    assert rate(just_after, just_after) == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run("cold-compile", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
