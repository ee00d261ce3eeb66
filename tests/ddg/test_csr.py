"""Flattened CSR view, relaxation kernels and the analysis memo."""

from repro.ddg.analysis import analyze, rec_mii
from repro.ddg.builder import DdgBuilder
from repro.ddg.csr import csr_view, has_positive_cycle, penalized_length
from repro.ddg.graph import EdgeKind
from repro.machine.config import parse_config
from repro.partition.partition import Partition


def chain_with_recurrence():
    """i -> a -> b with a loop-carried b -> a back edge."""
    b = DdgBuilder()
    b.int_op("i").int_op("a").int_op("b")
    b.chain("i", "a", "b")
    b.dep("b", "a", distance=1)
    return b.build()


class TestCsrView:
    def test_mirrors_graph_shape(self):
        g = chain_with_recurrence()
        csr = csr_view(g)
        assert csr.n_nodes == len(g)
        assert csr.n_edges == sum(1 for _ in g.edges())
        assert list(csr.uids) == list(g.node_ids())

    def test_preserves_edge_order(self):
        g = chain_with_recurrence()
        csr = csr_view(g)
        for position, edge in enumerate(g.edges()):
            assert csr.uids[csr.edge_src[position]] == edge.src
            assert csr.uids[csr.edge_dst[position]] == edge.dst
            assert csr.edge_distance[position] == edge.distance
            assert csr.edge_is_register[position] == (
                edge.kind is EdgeKind.REGISTER
            )

    def test_adjacency_lists_register_edges_only(self):
        b = DdgBuilder()
        b.load("ld").store("st").int_op("a")
        b.dep("ld", "a")
        b.dep("a", "st")
        b.mem_dep("st", "ld", distance=1)
        g = b.build()
        csr = csr_view(g)
        st = csr.index[g.node_by_name("st").uid]
        assert csr.reg_out_neighbours(st) == ()  # MEMORY edge excluded
        a = csr.index[g.node_by_name("a").uid]
        assert csr.reg_out_neighbours(a) == (st,)

    def test_cached_until_mutation(self):
        g = chain_with_recurrence()
        first = csr_view(g)
        assert csr_view(g) is first
        g.add_node("late", g.node_by_name("a").op_class)
        assert csr_view(g) is not first
        assert csr_view(g).n_nodes == len(g)


class TestKernels:
    def test_positive_cycle_matches_rec_mii(self):
        g = chain_with_recurrence()
        bound = rec_mii(g)
        csr = csr_view(g)
        assert not has_positive_cycle(csr, bound)
        if bound > 1:
            assert has_positive_cycle(csr, bound - 1)

    def test_penalized_length_matches_dict_reference(self):
        g = chain_with_recurrence()
        machine = parse_config("2c1b2l64r")
        uids = list(g.node_ids())
        partition = Partition(
            g, {uid: i % 2 for i, uid in enumerate(uids)}, 2
        )
        ii, rounds = rec_mii(g), len(g) + 1

        start = {uid: 0 for uid in uids}
        for _ in range(rounds):
            changed = False
            for edge in g.edges():
                weight = g.node(edge.src).latency - ii * edge.distance
                if edge.kind is EdgeKind.REGISTER and partition.cluster_of(
                    edge.src
                ) != partition.cluster_of(edge.dst):
                    weight += machine.bus.latency
                bound = start[edge.src] + weight
                if bound > start[edge.dst]:
                    start[edge.dst] = bound
                    changed = True
            if not changed:
                break
        expected = max(start[uid] + g.node(uid).latency for uid in uids)

        csr = csr_view(g)
        cluster = [partition.cluster_of(uid) for uid in csr.uids]
        assert (
            penalized_length(csr, cluster, machine.bus.latency, ii, rounds)
            == expected
        )


class TestAnalysisMemo:
    def test_repeat_analyze_hits_the_memo(self, current_metrics):
        g = chain_with_recurrence()
        ii = rec_mii(g)
        first = analyze(g, ii)
        assert analyze(g, ii) is first  # shared memoized object
        assert current_metrics.counter("partition.analysis_memo_hits").value >= 1

    def test_mutation_invalidates_but_keeps_stats(self, current_metrics):
        g = chain_with_recurrence()
        ii = rec_mii(g)
        first = analyze(g, ii)
        hits = current_metrics.counter("partition.analysis_memo_hits")
        hits_before = hits.value
        g.add_node("late", g.node_by_name("a").op_class)
        assert analyze(g, ii) is not first
        assert hits.value == hits_before

    def test_distinct_iis_are_distinct_entries(self):
        g = chain_with_recurrence()
        ii = rec_mii(g)
        assert analyze(g, ii).length >= 1
        assert analyze(g, ii + 1) is not analyze(g, ii)
