"""repro — Instruction Replication for Clustered Microarchitectures.

A from-scratch reproduction of Aletà, Codina, González and Kaeli,
*Instruction Replication for Clustered Microarchitectures* (MICRO-36,
2003): a modulo-scheduling compiler for clustered VLIW machines that
removes inter-cluster communications by selectively replicating the
minimum subgraph feeding each communicated value.

Quickstart::

    from repro import compile_loop, parse_config, Scheme, simulate
    from repro.workloads import stencil5

    machine = parse_config("4c1b2l64r")
    base = compile_loop(stencil5(), machine, scheme=Scheme.BASELINE)
    repl = compile_loop(stencil5(), machine, scheme=Scheme.REPLICATION)
    print(base.ii, "->", repl.ii)
    print(simulate(repl.kernel, iterations=100).ipc)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.machine` — clustered VLIW machine model (Table 1).
* :mod:`repro.ddg` — data dependence graphs, MII analysis.
* :mod:`repro.partition` — multilevel partitioner with pseudo-schedules.
* :mod:`repro.schedule` — cluster-aware modulo scheduler.
* :mod:`repro.core` — the replication algorithm (the contribution).
* :mod:`repro.sim` — cycle-level lockstep VLIW simulator.
* :mod:`repro.workloads` — synthetic SPECfp95 loop suite.
* :mod:`repro.pipeline` — end-to-end driver and evaluation metrics.
"""

from repro.core import ReplicationPlan, replicate
from repro.ddg import Ddg, DdgBuilder, mii
from repro.machine import MachineConfig, OpClass, parse_config, unified_machine
from repro.pipeline import (
    CompileDiagnostics,
    CompileError,
    CompileResult,
    Scheme,
    SchemeConfig,
    UnschedulableError,
    compile_loop,
    run_pass_pipeline,
)
from repro.schedule import Kernel, build_placed_graph
from repro.sim import SimResult, simulate, verify_kernel
from repro.workloads import Loop

__version__ = "1.0.0"

__all__ = [
    "ReplicationPlan",
    "replicate",
    "Ddg",
    "DdgBuilder",
    "mii",
    "MachineConfig",
    "OpClass",
    "parse_config",
    "unified_machine",
    "CompileDiagnostics",
    "CompileError",
    "CompileResult",
    "Scheme",
    "SchemeConfig",
    "UnschedulableError",
    "compile_loop",
    "run_pass_pipeline",
    "Kernel",
    "build_placed_graph",
    "SimResult",
    "simulate",
    "verify_kernel",
    "Loop",
    "__version__",
]
