import hashlib

import numpy as np
import pytest

from epigraph import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    NodeSet,
    cut,
    cut_after_toggle,
    cut_table,
    generate,
    parse_graph,
    write_graph,
)
from epigraph.graph import subset_sums


class TestCut:
    def test_path_middle_vertex(self):
        g = generate("path", 3)
        assert cut(g, [1]) == 2

    def test_empty_and_full_have_no_crossing_edges(self):
        g = generate("complete", 5)
        assert cut(g, []) == 0
        assert cut(g, g.full_mask) == 0

    def test_complete_graph_pair(self):
        g = generate("complete", 4)
        for m in range(16):
            if bin(m).count("1") == 2:
                assert cut(g, m) == 4

    def test_complement_symmetry(self):
        g = generate("star", 6)
        for m in range(1 << 6):
            assert cut(g, m) == cut(g, g.full_mask ^ m)

    def test_incremental_matches_recount(self):
        g = generate("grid", 6)
        for mask in range(1 << 6):
            base = cut(g, mask)
            for v in range(6):
                assert cut_after_toggle(g, mask, base, v) == cut(g, mask ^ (1 << v))

    def test_cut_table_matches_recount(self):
        graphs = [generate(kind, n) for kind, n in (("path", 5), ("cycle", 6), ("complete", 4), ("star", 5))]
        graphs.append(Graph(1, []))
        for n in range(7, 13):
            graphs += [generate("grid", n), generate("complete", n)]
            graphs += [generate("erdos_renyi", n, seed=n, p=p) for p in (0.3, 0.6)]
            if n % 2 == 0:
                graphs.append(generate("random_regular", n, seed=n, d=3))
        for g in graphs:
            table = cut_table(g)
            assert table.dtype == np.int16
            assert table.tolist() == [cut(g, m) for m in range(1 << g.n)], g.label

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint32])
    def test_subset_sums_match_concatenating_form(self, dtype):
        # subset_sums fills one array; it once concatenated a new one per weight
        rng = np.random.default_rng(11)
        for n in range(13):
            weightings = [[1] * n, rng.integers(0, 10, size=n).tolist()]
            if np.dtype(dtype).itemsize >= 4:
                weightings.append([1 << v for v in range(n)])
            for weights in weightings:
                want = np.zeros(1, dtype=dtype)
                for w in weights:
                    want = np.concatenate((want, want + dtype(w)))
                got = subset_sums(weights, dtype)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, weights)

    def test_subset_sums_match_bit_count(self):
        for n in range(13):
            pc = subset_sums([1] * n, np.int8)
            assert pc.dtype == np.int8
            assert pc.tolist() == [m.bit_count() for m in range(1 << n)]
        assert subset_sums([1] * 20, np.int8)[-1] == 20
        # bit weights enumerate the submasks of a mask in ascending order
        mask = 0b1011_0010_0000_0000_0000_0000_0110_1001
        bits = [1 << v for v in range(32) if (mask >> v) & 1]
        subs = subset_sums(bits, np.uint32)
        assert subs.dtype == np.uint32
        submasks, s = [], mask
        while s:
            submasks.append(s)
            s = (s - 1) & mask  # the next smaller submask
        assert subs.tolist() == [0] + submasks[::-1]


class TestGraphConstruction:
    def test_path_shape(self):
        g = generate("path", 4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.max_degree == 2

    def test_complete_shape(self):
        g = generate("complete", 4)
        assert g.m == 6
        assert g.max_degree == 3

    def test_star_shape(self):
        g = generate("star", 5)
        assert g.deg[0] == 4
        assert g.max_degree == 4
        assert all(g.deg[v] == 1 for v in range(1, 5))

    def test_cycle_shape(self):
        g = generate("cycle", 5)
        assert g.m == 5
        assert all(d == 2 for d in g.deg)

    def test_grid_shape(self):
        g = generate("grid", 6)  # 2x3
        assert g.m == 7
        assert g.max_degree == 3

    def test_erdos_renyi_connected_and_seeded(self):
        g1 = generate("erdos_renyi", 8, p=0.4, seed=5)
        g2 = generate("erdos_renyi", 8, p=0.4, seed=5)
        assert g1 == g2
        assert g1.connected

    def test_random_generators_frozen(self):
        # (label, edges) of seeded random graphs over a grid of sizes and
        # parameters, recorded before generate's loops were rebuilt on Graph
        digest = hashlib.sha256()
        for seed in range(40):
            for n in (4, 8, 12, 20):
                for p in (0.2, 0.4, 0.7):
                    g = generate("erdos_renyi", n, p=p, seed=seed)
                    digest.update(repr((g.label, g.edges)).encode())
                for d in (2, 3, 4):
                    if d < n:
                        g = generate("random_regular", n, d=d, seed=seed)
                        digest.update(repr((g.label, g.edges)).encode())
        assert digest.hexdigest() == "23ccc8f41260ef8e3c5b77d4ffa8630c4f5b7fcc5373ac357c52f7aa1ccd1f4e"

    def test_random_regular_degrees(self):
        g = generate("random_regular", 8, d=3, seed=9)
        assert all(d == 3 for d in g.deg)
        assert g.connected

    def test_random_regular_parity_rejected(self):
        with pytest.raises(ValueError):
            generate("random_regular", 5, d=3, seed=1)

    def test_random_kind_needs_seed(self):
        with pytest.raises(ValueError):
            generate("erdos_renyi", 6, p=0.5)

    def test_retry_budget_exhaustion(self):
        from epigraph import GenerationError

        with pytest.raises(GenerationError):
            generate("erdos_renyi", 12, p=0.01, seed=3)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(0, 3)])

    def test_disconnected_rejected_by_default(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(4, [(0, 1), (2, 3)])

    def test_disconnected_waived(self):
        g = Graph(4, [(0, 1), (2, 3)], allow_disconnected=True)
        assert not g.connected

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Graph(65, [])


class TestFileFormat:
    def test_parse_path(self):
        g = parse_graph("3 2\n0 1\n1 2\n")
        assert g == generate("path", 3)

    def test_round_trip(self):
        for kind, n in (("path", 4), ("complete", 5), ("star", 6), ("grid", 9)):
            g = generate(kind, n)
            assert parse_graph(write_graph(g)) == g

    def test_comments_allowed(self):
        g = parse_graph("# a path\n3 2\n0 1\n# middle\n1 2\n")
        assert g == generate("path", 3)

    def test_self_loop_error(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n0 0\n")

    def test_disconnected_error_default(self):
        with pytest.raises(DisconnectedGraphError):
            parse_graph("4 2\n0 1\n2 3\n")

    def test_disconnected_waived(self):
        g = parse_graph("4 2\n0 1\n2 3\n", allow_disconnected=True)
        assert not g.connected

    def test_reversed_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 1\n2 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("three 2\n0 1\n1 2\n")

    def test_empty_file(self):
        with pytest.raises(GraphFormatError):
            parse_graph("")


class TestNodeSet:
    def test_basic_algebra(self):
        a = NodeSet([0, 2], n=4)
        b = NodeSet([2, 3], n=4)
        assert sorted(a | b) == [0, 2, 3]
        assert sorted(a & b) == [2]
        assert sorted(a - b) == [0]
        assert sorted(a ^ b) == [0, 3]
        assert len(a) == 2
        assert 2 in a and 1 not in a

    def test_add_remove_contracts(self):
        a = NodeSet([1], n=3)
        assert sorted(a.add(0)) == [0, 1]
        assert sorted(a.remove(1)) == []
        with pytest.raises(ValueError):
            a.add(1)
        with pytest.raises(ValueError):
            a.remove(0)

    def test_bits_outside_n_rejected(self):
        with pytest.raises(ValueError):
            NodeSet(0b1000, n=3)
        with pytest.raises(ValueError):
            NodeSet([3], n=3)
        with pytest.raises(ValueError):
            NodeSet(NodeSet([0], n=4), n=3)

    def test_iteration_ascending(self):
        assert list(NodeSet([5, 1, 3], n=6)) == [1, 3, 5]

    def test_complement(self):
        assert sorted(NodeSet([0], n=3).complement()) == [1, 2]

    def test_int_conversion_and_equality(self):
        a = NodeSet([0, 1], n=4)
        assert int(a) == 3
        assert a == 3
        assert a == NodeSet([0, 1], n=4)
        assert a != NodeSet([0, 1], n=5)

    def test_immutability(self):
        a = NodeSet([0], n=2)
        with pytest.raises(AttributeError):
            a.mask = 7
