"""Property test: the CSR relaxation kernels equal plain dict loops.

Random loop bodies (dense, cyclic, degenerate) and round budgets from 0
to 2n+2 go through the relaxation kernels of :mod:`repro.ddg.csr`. Each
must equal a dict-based Bellman-Ford over ``ddg.edges()``, including
when the budget runs out before convergence: the kernels promise to
relax edges in exactly that order, and the pseudo-schedule relies on
the partial results below the recurrence bound. RecMII, a bisection,
must equal the smallest II with no positive cycle.
"""

from hypothesis import given, settings, strategies as st

from repro.ddg.analysis import rec_mii
from repro.ddg.csr import (
    csr_view,
    edge_weights_at,
    has_positive_cycle,
    penalized_length,
    penalized_length_replicated,
    relax_alap,
    relax_asap,
)
from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.resources import OpClass

REGISTER_OPS = (OpClass.INT_ARITH, OpClass.FP_ARITH, OpClass.FP_MUL, OpClass.LOAD)


@st.composite
def kernel_cases(draw):
    """A random loop body plus kernel arguments.

    Zero-distance edges follow a random topological order, so they stay
    acyclic but may run from a later-inserted node to an earlier one:
    such an edge comes after its destination's out-edges in edge order
    (it is *late*), and a relaxation then needs more than one pass to
    settle even without a recurrence.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    ddg = Ddg("prop")
    nodes = [
        ddg.add_node(f"n{i}", draw(st.sampled_from(REGISTER_OPS)))
        for i in range(n)
    ]
    order = draw(st.permutations(range(n)))
    for rank in range(1, n):
        for src_rank in draw(
            st.lists(st.integers(0, rank - 1), max_size=3, unique=True)
        ):
            kind = draw(st.sampled_from((EdgeKind.REGISTER, EdgeKind.MEMORY)))
            ddg.add_edge(
                nodes[order[src_rank]], nodes[order[rank]], distance=0, kind=kind
            )
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        ddg.add_edge(nodes[src], nodes[dst], distance=draw(st.integers(1, 2)))

    ii = draw(st.integers(1, 6))
    rounds = draw(
        st.sampled_from((0, 1, 2, max(1, n // 2), n, n + 1, 2 * n + 2))
    )
    cluster = [draw(st.integers(0, 3)) for _ in range(n)]
    extra = [
        draw(st.frozensets(st.integers(0, 3), max_size=2)) - {home}
        for home in cluster
    ]
    bus_latency = draw(st.integers(0, 4))
    start = [draw(st.integers(0, 24))] * n
    return ddg, ii, rounds, cluster, extra, bus_latency, start


def reference_relax(ddg, weight, dist, rounds, forward=True):
    """Sequential relaxation over ``ddg.edges()``; None if not converged.

    ``dist`` is updated in place, so a budget that runs out leaves the
    partial result there.
    """
    for _ in range(rounds):
        changed = False
        for edge in ddg.edges():
            if forward:
                bound = dist[edge.src] + weight(edge)
                if bound > dist[edge.dst]:
                    dist[edge.dst] = bound
                    changed = True
            else:
                bound = dist[edge.dst] - weight(edge)
                if bound < dist[edge.src]:
                    dist[edge.src] = bound
                    changed = True
        if not changed:
            return dist
    return None


def plain_weight(ddg, ii):
    return lambda edge: ddg.node(edge.src).latency - ii * edge.distance


def reference_positive_cycle(ddg, ii):
    dist = dict.fromkeys(ddg.node_ids(), 0)
    return reference_relax(ddg, plain_weight(ddg, ii), dist, len(ddg)) is None


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases())
def test_kernels_equal_dict_relaxation(case):
    ddg, ii, rounds, cluster, extra, bus_latency, start = case
    csr = csr_view(ddg)
    uids = csr.uids
    weight = plain_weight(ddg, ii)
    weights = edge_weights_at(csr, ii)

    asap = reference_relax(ddg, weight, dict.fromkeys(uids, 0), rounds)
    expected = None if asap is None else [asap[uid] for uid in uids]
    assert relax_asap(csr, weights, rounds) == expected

    alap = reference_relax(ddg, weight, dict(zip(uids, start)), rounds, False)
    expected = None if alap is None else [alap[uid] for uid in uids]
    assert relax_alap(csr, weights, start, rounds) == expected

    assert has_positive_cycle(csr, ii) == reference_positive_cycle(ddg, ii)

    home = dict(zip(uids, cluster))
    present = dict(zip(uids, extra))
    for replicas in (False, True):

        def penalized(edge):
            crosses = home[edge.dst] != home[edge.src] and not (
                replicas and home[edge.dst] in present[edge.src]
            )
            bus = edge.kind is EdgeKind.REGISTER and crosses
            return weight(edge) + (bus_latency if bus else 0)

        dist = dict.fromkeys(uids, 0)
        reference_relax(ddg, penalized, dist, rounds)
        length = max(dist[uid] + ddg.node(uid).latency for uid in uids)
        if replicas:
            got = penalized_length_replicated(
                csr, cluster, extra, bus_latency, ii, rounds
            )
        else:
            got = penalized_length(csr, cluster, bus_latency, ii, rounds)
        assert got == length


@settings(max_examples=50, deadline=None)
@given(case=kernel_cases())
def test_rec_mii_is_the_smallest_ii_without_a_positive_cycle(case):
    ddg = case[0]
    high = max(1, sum(node.latency for node in ddg.nodes()))
    smallest = next(
        ii for ii in range(1, high + 1) if not reference_positive_cycle(ddg, ii)
    )
    assert rec_mii(ddg) == smallest
