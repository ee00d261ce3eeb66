"""End-to-end compilation pipeline and evaluation metrics.

:mod:`repro.pipeline.passes` decomposes Figure 2's loop into one pass
stack — partition, feasibility, a scheme-specific planning pass,
placement, scheduling — whose II climbs by
:func:`~repro.pipeline.passes.next_ii` after each failed attempt; the
closed table :data:`~repro.pipeline.passes.PLAN_PASSES` gives each
:class:`~repro.pipeline.driver.Scheme` member its planning pass.
:func:`~repro.pipeline.driver.compile_loop` is the stable entry point
and returns a
:class:`~repro.pipeline.driver.CompileResult` carrying the kernel, the
cause of every II increase (Figure 1's statistics) and per-stage
diagnostics. :mod:`repro.pipeline.metrics` turns kernels plus loop
profiles into the paper's IPC / added-instruction / communication
numbers, and :mod:`repro.pipeline.report` renders them as text tables.
"""

from repro.pipeline.driver import (
    CompileDiagnostics,
    CompileError,
    CompileResult,
    Scheme,
    UnschedulableError,
    compile_loop,
)
from repro.pipeline.passes import (
    PLAN_PASSES,
    CompilationContext,
    Pass,
    SchemeConfig,
    StageFailure,
    find_min_ii,
    next_ii,
    pass_stack,
    run_pass_pipeline,
)
from repro.pipeline.metrics import (
    AddedInstructionStats,
    BenchmarkMetrics,
    CommStats,
    LoopMetrics,
    added_instruction_stats,
    benchmark_metrics,
    comm_stats,
    harmonic_mean,
    loop_metrics,
)
from repro.pipeline.report import format_table

__all__ = [
    "CompileDiagnostics",
    "CompileError",
    "CompileResult",
    "Scheme",
    "UnschedulableError",
    "compile_loop",
    "PLAN_PASSES",
    "CompilationContext",
    "Pass",
    "SchemeConfig",
    "StageFailure",
    "find_min_ii",
    "next_ii",
    "pass_stack",
    "run_pass_pipeline",
    "AddedInstructionStats",
    "BenchmarkMetrics",
    "CommStats",
    "LoopMetrics",
    "added_instruction_stats",
    "benchmark_metrics",
    "comm_stats",
    "harmonic_mean",
    "loop_metrics",
    "format_table",
]
