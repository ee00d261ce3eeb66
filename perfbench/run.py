"""Benchmark of the reproduction compiler: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for how cells are drawn from the seed):
``cold-compile``, ``warm-replay`` and ``serve-mixed``. The load comes
from this one process, with at most two client threads, and is sized
for a machine with two CPUs.

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics declared in ``BENCHMARK.json``. Timings are reported at a fixed
reference host speed, so that a shared host's drifting speed is divided
out (``hostspeed.py``); the report on standard error also gives them as
measured. ``--trace 1`` runs the workload
twice, untraced and then with span wrappers around every layer call
(``spans.py``), and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable report, with the
layer attribution of a traced run, goes to standard error, and the
traced run's spans are written to ``.perfbench_out/``. Outputs are
checked outside the measured window; the exit code is nonzero when any
check fails.

Everything the run writes stays inside the checkout: stores live in a
per-run directory under ``.perfbench_tmp/`` (``REPRO_CACHE_DIR`` points
there too), removed when the run ends. ``REPRO_TRACE`` and
``REPRO_LOG`` are off in the measured process.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cold-compile", "warm-replay", "serve-mixed")

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Program settings that would change what is measured; unset for a run.
RESET_ENV = (
    "REPRO_CACHE",
    "REPRO_ENGINE_JOBS",
    "REPRO_ENGINE_TIMEOUT",
    "REPRO_KERNELS",
)

#: The program's packages that set-up imports.
PROGRAM_IMPORTS = (
    "repro.engine",
    "repro.pipeline",
    "repro.serve.client",
    "repro.sim",
    "repro.workloads",
)


def time_imports() -> float:
    """Seconds for a fresh interpreter to start and import the program."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(PROGRAM_IMPORTS)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return time.perf_counter() - began


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--loops-per-benchmark",
        type=int,
        default=None,
        help="generate only this many loops per benchmark (smoke tests)",
    )
    return parser.parse_args(argv)


def run_untraced(workload, args):
    """Set up several times, measure once; end-to-end metrics.

    Each set-up starts a fresh interpreter that imports the program (the
    measuring process imported it once already), then generates loops
    and fills the workload's store or boots its server. Every timing is
    reported at reference host speed (see ``hostspeed.py``).
    """
    import workloads

    setups, raw, imports, speeds, state = [], [], [], [], None
    try:
        for rep in range(SETUP_REPEATS):
            workload.teardown(state)
            state = None
            with hostspeed.Background() as host:
                hostspeed.bracket(host)
                began = time.perf_counter()
                imports.append(time_imports())
                state = workload.setup(rep)
                raw.append(time.perf_counter() - began)
                hostspeed.bracket(host)
            speeds.append(host.mean())
            setups.append(raw[-1] * speeds[-1])
            workload.settle(state)
        window = workload.window(state, args.seconds)
        checked = workload.check(state, window)
    finally:
        workload.teardown(state)
    latencies = window.reference_latencies()
    p50, _ = workloads.percentile(latencies, 0.50)
    p99, beyond = workloads.percentile(latencies, 0.99)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / window.reference_wall,
        "latency_p50_ms": 1000.0 * p50,
        "latency_p99_ms": 1000.0 * p99,
        "peak_rss_mb": window.peak_rss_mb,
        **checked.figures,
    }
    raw_p50, _ = workloads.percentile(window.latencies, 0.50)
    raw_p99, _ = workloads.percentile(window.latencies, 0.99)
    report = [
        "  set-up as measured: " + ", ".join(
            f"{total:.3f} s (imports {imported:.3f}, host speed {speed:.3f})"
            for total, imported, speed in zip(raw, imports, speeds)
        ),
        f"  window: {window.attempted} jobs in {window.wall:.3f} s; "
        f"{len(window.latencies)} latency samples, {beyond} beyond p99",
        f"  window as measured: {len(latencies) / window.wall:.2f} jobs/s, "
        f"p50 {1000 * raw_p50:.3f} ms, p99 {1000 * raw_p99:.3f} ms; "
        f"mean host speed {window.speed:.3f}",
    ]
    if "kinds" in window.extra:
        report.append(f"  submissions by path: {window.extra['kinds']}")
    if window.extra.get("rss_reset") is False:
        report.append("  peak_rss_mb includes set-up: VmHWM could not be reset")
    return window, checked, values, report


def run_traced(workload, args):
    """Measure untraced, then traced from a fresh set-up; layer metrics.

    Window metrics are per job completed in the traced window, set-up
    metrics are totals over one set-up, and check metrics are per
    kernel checked (see ``layers.py``). Their seconds are at reference
    host speed, like the end-to-end timings; the attribution report
    shows them as measured.
    """
    import layers
    from spans import SETUP_CALLS, Tracer, write_traces

    state = workload.setup(0)
    try:
        workload.settle(state)
        plain = workload.window(state, args.seconds)
    finally:
        workload.teardown(state)
    # Only its timings are compared; its results must not enlarge the
    # heap the traced window's collections walk.
    plain.kept, plain.compiled, plain.extra = [], [], {}
    tracers = {phase: Tracer() for phase in ("setup", "window", "check")}
    state = None
    try:
        with hostspeed.Background() as setup_host:
            hostspeed.bracket(setup_host)
            tracers["setup"].install(SETUP_CALLS)
            began = time.perf_counter()
            try:
                state = workload.setup(1, tracers["setup"].wrap)
            finally:
                tracers["setup"].uninstall()
            setup_wall = time.perf_counter() - began
            hostspeed.bracket(setup_host)
        workload.settle(state)
        window = workload.window(state, args.seconds, tracers["window"])
        with hostspeed.Background() as check_host:
            began = time.perf_counter()
            checked = workload.check(state, window, tracers["check"].wrap)
            check_wall = time.perf_counter() - began
    finally:
        workload.teardown(state)

    jobs = window.attempted
    at_setup, at_check = setup_host.mean(), check_host.mean()
    per_job = {
        span: window.speed * layers.ratio(seconds, jobs)
        for span, seconds in tracers["window"].self_times().items()
    }
    setup_times = tracers["setup"].self_times()
    check_times, checks = tracers["check"].self_times(), tracers["check"].calls()
    values = {
        **{m: per_job.get(span, 0.0) for span, m in layers.WINDOW_SPANS.items()},
        **{
            m: at_setup * setup_times.get(span, 0.0)
            for span, m in layers.SETUP_SPANS.items()
        },
        **{
            m: at_check * layers.ratio(check_times.get(span, 0.0), checks[span])
            for span, m in layers.CHECK_SPANS.items()
        },
    }
    # Two client threads share the served window: its wall is client-seconds.
    wall = window.extra.get("busy", window.wall)
    rows, unattributed = layers.attribution(tracers["window"], wall, "window")
    setup_rows, _ = layers.attribution(tracers["setup"], setup_wall, "set-up")
    check_rows, _ = layers.attribution(tracers["check"], check_wall, "checks")
    calls, raised = tracers["window"].calls(), tracers["window"].raised()
    counters, missing = layers.counter_values(window.compiled)
    values.update(counters)
    values.update(layers.serve_values(window))
    values.update(
        {
            "runtime.gc_s": window.speed * layers.ratio(tracers["window"].gc_seconds, jobs),
            "runtime.gc_gen2": layers.ratio(tracers["window"].gc_gen2, jobs),
            "schedule.attempts": layers.ratio(calls["schedule.schedule"], jobs),
            "schedule.fail_ratio": layers.ratio(
                raised["schedule.schedule"], calls["schedule.schedule"]
            ),
            "engine.cache_hit_ratio": layers.ratio(window.cache_hits, jobs),
            "engine.cache_entry_bytes": window.extra.get("entry_bytes", 0.0),
            "sim.kernels_rejected": checked.rejected,
            "obs.trace_overhead_ratio": layers.trace_overhead(plain, window),
            "trace.unattributed_s": window.speed * layers.ratio(unattributed, jobs),
        }
    )
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"{args.workload}.trace.jsonl.gz"
    written = write_traces(trace_file, tracers)
    report = [
        f"  untraced window: {plain.attempted} jobs in {plain.wall:.3f} s; "
        f"traced: {window.attempted} jobs in {window.wall:.3f} s "
        f"(overhead ratio {values['obs.trace_overhead_ratio']:.3f}); "
        f"window metrics below are per job, these totals over {jobs}; "
        f"mean host speed: set-up {at_setup:.3f}, window {window.speed:.3f}, "
        f"checks {at_check:.3f}",
        *rows,
        *setup_rows,
        *check_rows,
        f"  {written} spans written to {trace_file.relative_to(ROOT)}",
    ]
    if missing:
        report.append("  MISSING counters (renamed or removed?): " + ", ".join(missing))
    return window, checked, values, report


def measure(args, run_dir: pathlib.Path, spec: dict) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(SRC))
    import workloads

    seed, limit = args.seed, args.loops_per_benchmark
    if args.workload == "cold-compile":
        workload = workloads.ColdCompile(seed, limit, run_dir)
    elif args.workload == "warm-replay":
        workload = workloads.WarmReplay(seed, limit, run_dir)
    else:
        workload = workloads.ServeMixed(seed, limit, run_dir, SRC, dict(os.environ))
    if args.trace:
        window, checked, values, report = run_traced(workload, args)
    else:
        window, checked, values, report = run_untraced(workload, args)

    failures = window.failures + checked.failures
    values.setdefault("failed_ratio", len(failures) / max(1, window.attempted))
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
        for item in section
        if item["name"] in values
    }
    absent = [item["name"] for item in section if item["name"] not in values]
    header = (
        f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
        f"{window.attempted} jobs attempted, {len(failures)} failed "
        f"(failed_ratio {values['failed_ratio']:.4g})"
    )
    lines = [header, *report]
    lines += [
        f"  {name:30} {entry['value']:14.6g} {entry['unit']}"
        for name, entry in metrics.items()
    ]
    if absent:
        lines.append("  MISSING metrics: " + ", ".join(absent))
    lines += [f"  FAILED {failure}" for failure in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  ... and {len(failures) - 20} more failures")
    line = {
        "correct": not failures and not absent,
        "attempted": max(1, window.attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    return line, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    for name in RESET_ENV:
        os.environ.pop(name, None)
    os.environ.update(REPRO_TRACE="off", REPRO_LOG="off")
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=temp_root))
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "default-cache")
    try:
        line, lines = measure(args, run_dir, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
