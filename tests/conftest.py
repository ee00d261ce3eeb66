"""Shared fixtures: machines, graphs and the paper's worked example."""

from __future__ import annotations

import os

import pytest

from repro.engine import cache as engine_cache
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(scope="session", autouse=True)
def _hermetic_engine_cache(tmp_path_factory):
    """Point the engine's persistent cache at a fresh per-run directory.

    Unit tests must never read results a *previous* code version wrote
    to ``~/.cache/repro-engine`` — a stale kernel could mask a real
    regression — so the suite gets its own empty cache (still
    exercising the engine's disk path within the run).
    """
    root = tmp_path_factory.mktemp("repro-engine-cache")
    previous = os.environ.get(engine_cache.CACHE_DIR_ENV)
    os.environ[engine_cache.CACHE_DIR_ENV] = str(root)
    engine_cache.reset_default_cache()
    yield
    if previous is None:
        os.environ.pop(engine_cache.CACHE_DIR_ENV, None)
    else:
        os.environ[engine_cache.CACHE_DIR_ENV] = previous
    engine_cache.reset_default_cache()

from repro.ddg.builder import DdgBuilder
from repro.machine.config import (
    BusConfig,
    ClusterConfig,
    MachineConfig,
    parse_config,
    unified_machine,
)
from repro.machine.resources import FuKind
from repro.partition.partition import Partition
from repro.workloads.patterns import (
    daxpy,
    dot_product,
    figure3_graph,
    figure3_partition,
    stencil5,
)


@pytest.fixture
def machine_2c():
    """The paper's 2-cluster machine, 1 bus of latency 2, 64 registers."""
    return parse_config("2c1b2l64r")


@pytest.fixture
def machine_4c():
    """The paper's 4-cluster machine, 1 bus of latency 2, 64 registers."""
    return parse_config("4c1b2l64r")


@pytest.fixture
def machine_unified():
    """The unclustered upper-bound machine of Figure 8."""
    return unified_machine()


@pytest.fixture
def example_machine():
    """The section 3.3 example machine: 4 clusters x 4 universal FUs.

    The example treats every FU as universal; all example nodes are
    integer ops, so giving each cluster 4 INT units (plus token FP/MEM
    units that stay unused) reproduces the arithmetic exactly. One
    1-cycle bus at II=2 yields bus capacity 2 and extra_coms = 1.
    """
    cluster = ClusterConfig(
        fu_counts={FuKind.INT: 4, FuKind.FP: 1, FuKind.MEM: 1}, registers=64
    )
    return MachineConfig(
        name="example4c", clusters=(cluster,) * 4, bus=BusConfig(count=1, latency=1)
    )


@pytest.fixture
def figure3():
    """The Figure 3 graph with its paper partition, as (ddg, partition)."""
    ddg = figure3_graph()
    labels = figure3_partition()
    assignment = {
        ddg.node_by_name(label).uid: cluster for label, cluster in labels.items()
    }
    return ddg, assignment


@pytest.fixture
def figure3_partitioned(figure3, example_machine):
    """Figure 3 as a ready :class:`Partition` on the example machine."""
    ddg, assignment = figure3
    return Partition(ddg, assignment, example_machine.n_clusters)


@pytest.fixture
def daxpy_ddg():
    """The daxpy pattern loop."""
    return daxpy()


@pytest.fixture
def stencil_ddg():
    """The 5-point stencil pattern loop."""
    return stencil5()


@pytest.fixture
def dot_ddg():
    """The dot-product (recurrence) pattern loop."""
    return dot_product()


@pytest.fixture
def chain_ddg():
    """A trivial 3-op chain: load -> fp add -> store."""
    b = DdgBuilder("chain")
    b.load("ld").fp_op("add").store("st")
    b.dep("ld", "add").dep("add", "st")
    return b.build()


@pytest.fixture
def current_metrics():
    """A fresh metrics registry, current for the whole test.

    Code under test outside a compile counts into it, as it would into
    a compile's registry.
    """
    with use_registry(MetricsRegistry()) as registry:
        yield registry
