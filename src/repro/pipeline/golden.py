"""Golden decisions: every matrix cell's compile decisions, pinned in a file.

``python -m repro golden record FILE`` compiles the fixed matrix (every
suite loop, or the ``REPRO_BENCH_LOOPS`` prefix when that is set, on
the six Fig. 7 machines under baseline, replication and repl-part) and
writes one JSON line per cell. ``python -m repro golden check FILE``
compiles it again and exits 1 when any cell differs from its line or
has none. The matrix runs through :func:`~repro.engine.executor.run_jobs`
with the store off, on ``REPRO_ENGINE_JOBS`` workers.

A line names its cell by ``loop`` (``benchmark/loop``), ``machine`` and
``scheme``, never by job key: the key folds in the engine schema, and
every schema bump would rewrite the file. The rest of the line is the
cell's decisions: ``mii``, ``ii``, the II escalation ``causes``, the
kernel's bus ``copies``, and short digests of the ``partition``,
``plan`` and ``kernel`` sections of
:func:`~repro.engine.fingerprint.result_canonical`. A cell that does
not compile holds its ``error`` kind instead. Every
:data:`SAMPLE_STRIDE`-th line also holds ``cycles`` for the loop's
iteration count, as :func:`~repro.sim.vliw.simulate` reports it: the
simulator steps at most the first 3·SC+2 iterations to check the kernel's
legality and takes ``cycles`` from the ``Texec`` model (the kernel's
``execution_cycles``). So the sampled ``cycles`` pin that model.

Lines run loop-major: each benchmark's first loop on every machine and
scheme, then each benchmark's second loop, and so on. A
``REPRO_BENCH_LOOPS`` prefix is therefore the head of the full file,
with the same sampled lines; ``check`` ignores lines past it.

Every result also goes through the store's codec under its job key
(:func:`~repro.engine.cache.encode_entry`, then
:func:`~repro.engine.cache.decode_entry`). An entry that decodes to
other decisions is a fault, as is a sampled kernel the simulator
rejects. ``record`` writes nothing while any cell has a fault,
and ``check`` counts a faulty cell as differing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from collections.abc import Iterable

from repro.engine.cache import ResultCache, decode_entry, encode_entry
from repro.engine.executor import EngineConfig, run_jobs
from repro.engine.fingerprint import result_canonical
from repro.engine.jobs import CompileJob
from repro.machine.config import PAPER_CONFIG_NAMES
from repro.pipeline.driver import CompileResult
from repro.pipeline.experiments import configured_limit
from repro.sim.verifier import VerificationError
from repro.sim.vliw import simulate
from repro.workloads.loop import Loop
from repro.workloads.specfp import BENCHMARK_ORDER, benchmark_loops

#: The compiler variants of the matrix, in line order.
SCHEMES = ("baseline", "replication", "repl-part")

#: Lines whose position is a multiple of this hold simulated cycles:
#: 61 of the full file's 12,204. It shares no factor with the 18
#: machine x scheme lines of a loop, so the sample covers every machine
#: and scheme.
SAMPLE_STRIDE = 203

#: A line's fields in the order a compile settles them: whether the
#: cell compiles at all, the MII, the II search (its result and
#: causes), then at that II the partition, the replication plan, the
#: bus copies they need and the kernel; the simulated cycles come last.
FIELDS = (
    "error",
    "mii",
    "ii",
    "causes",
    "partition",
    "plan",
    "copies",
    "kernel",
    "cycles",
)

#: Jobs per ``run_jobs`` call, which bounds the results held at once.
_BATCH = 1000


@dataclasses.dataclass(frozen=True)
class Difference:
    """A cell that breaks the golden file, at its first wrong field."""

    line: dict
    field: str
    detail: str

    def __str__(self) -> str:
        loop, machine, scheme = _cell(self.line)
        return f"{loop} {machine} {scheme}: {self.field} {self.detail}"


def _cell(line: dict) -> tuple[str, str, str]:
    return line["loop"], line["machine"], line["scheme"]


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _first_field(want: dict, got: dict) -> str | None:
    return next((f for f in FIELDS if want.get(f) != got.get(f)), None)


def matrix(limit: int | None = None) -> list[tuple[Loop, str, str]]:
    """Every ``(loop, machine, scheme)`` cell, in line order."""
    suites = [benchmark_loops(name, limit=limit) for name in BENCHMARK_ORDER]
    return [
        (loops[index], machine, scheme)
        for index in range(max(len(loops) for loops in suites))
        for loops in suites
        if index < len(loops)
        for machine in PAPER_CONFIG_NAMES
        for scheme in SCHEMES
    ]


def _decisions(result: CompileResult) -> dict:
    """A compiled cell's decision fields (all of them but ``cycles``)."""
    canon = result_canonical(result)
    return {
        "mii": result.mii,
        "ii": result.ii,
        "causes": canon["causes"],
        "partition": _digest(canon["partition"]),
        "plan": _digest(canon["plan"]),
        "copies": result.kernel.n_copy_ops(),
        "kernel": _digest(canon["kernel"]),
    }


def observe(limit: int | None = None) -> tuple[list[dict], list[Difference]]:
    """Compile the matrix: its lines, and the faults found on the way."""
    cells = matrix(limit)
    config = EngineConfig(cache=ResultCache(enabled=False))
    lines: list[dict] = []
    faults: list[Difference] = []
    for start in range(0, len(cells), _BATCH):
        batch = cells[start : start + _BATCH]
        jobs = [
            CompileJob(
                ddg=loop.ddg,
                machine=machine,
                scheme=scheme,
                tag=f"{loop.benchmark}/{loop.name}",
            )
            for loop, machine, scheme in batch
        ]
        results = run_jobs(jobs, config)
        for position, ((loop, machine, scheme), job, done) in enumerate(
            zip(batch, jobs, results), start
        ):
            line = {"loop": job.tag, "machine": machine, "scheme": scheme}
            lines.append(line)
            if not done.ok:
                line["error"] = done.error_kind.value or done.outcome.value
                continue
            line.update(_decisions(done.result))
            raw = encode_entry(done.result, done.key)
            stored = _decisions(decode_entry(raw, done.key, job.ddg))
            field = _first_field(line, stored)
            if field:
                faults.append(
                    Difference(line, "codec", f"entry decodes to another {field}")
                )
            if position % SAMPLE_STRIDE == 0:
                fault = _simulate(line, done.result, loop.iterations)
                if fault:
                    faults.append(fault)
    return lines, faults


def _simulate(
    line: dict, result: CompileResult, iterations: int
) -> Difference | None:
    """Put the simulated cycles on ``line``; a fault if they are wrong."""
    try:
        line["cycles"] = simulate(result.kernel, iterations).cycles
    except VerificationError as exc:
        return Difference(line, "cycles", f"simulator: {exc}")
    analytic = result.kernel.execution_cycles(iterations)
    if line["cycles"] != analytic:
        return Difference(
            line, "cycles", f"simulated {line['cycles']}, analytic {analytic}"
        )
    return None


def compare(
    golden: list[dict], lines: list[dict], faults: Iterable[Difference] = ()
) -> list[Difference]:
    """One :class:`Difference` per cell of ``lines`` that has no golden
    line, differs from it, or has a fault; in line order. Golden lines
    of cells outside ``lines`` are ignored."""
    pinned = {_cell(line): line for line in golden}
    faulty = {_cell(fault.line): fault for fault in faults}
    found = []
    for line in lines:
        want = pinned.get(_cell(line))
        if want is None:
            found.append(Difference(line, "missing", "(no golden line)"))
            continue
        field = _first_field(want, line)
        if field:
            found.append(
                Difference(line, field, f"{want.get(field)} -> {line.get(field)}")
            )
        elif _cell(line) in faulty:
            found.append(faulty[_cell(line)])
    return found


def render(lines: list[dict]) -> str:
    """The file's text: one sorted-key JSON line per cell."""
    return "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in lines
    )


def read(path: pathlib.Path) -> list[dict]:
    """The lines of a golden file (none when it does not exist)."""
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def record(path: pathlib.Path) -> int:
    """Write the golden file for the current compiler; 1 on a fault."""
    lines, faults = observe(configured_limit())
    if faults:
        print(f"golden: {len(faults)} faults, nothing written; first: {faults[0]}")
        return 1
    path.write_text(render(lines), encoding="utf-8")
    print(f"golden: recorded {len(lines)} cells to {path}")
    return 0


def check(path: pathlib.Path) -> int:
    """Compare the current compiler with the golden file; 1 on any
    difference."""
    lines, faults = observe(configured_limit())
    found = compare(read(path), lines, faults)
    missing = sum(1 for difference in found if difference.field == "missing")
    print(
        f"golden: {len(lines)} cells checked against {path}: "
        f"{len(found) - missing} differ, {missing} missing"
    )
    if found:
        print(f"first: {found[0]}")
        return 1
    return 0
