import hashlib
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from epigraph import (
    Crusade,
    CrusadeStepError,
    ResilienceTable,
    SizeCapError,
    crusade_width,
    cut,
    cut_table,
    cutwidth,
    generate,
    improvement_bags,
    monotone_context,
    monotone_table,
    optimal_crusade,
    oracle_resilience,
    oracle_resilience_table,
    resilience,
    resilience_table,
)
from epigraph import crusade
from epigraph.crusade import _step_graph, improvement_mask
from epigraph.graph import TABLE_BUDGET_BYTES, Graph, NodeSet, _check_budget, subset_pairs, subset_sums
from epigraph.verify import enumerate_connected_graphs, graph_set


def monotone_width_bruteforce(g):
    """Independent oracle: try every removal order, track the max cut."""
    best = None
    for order in permutations(range(g.n)):
        mask = g.full_mask
        worst = 0
        for v in order:
            mask ^= 1 << v
            c = cut(g, mask)
            if c > worst:
                worst = c
        if best is None or worst < best:
            best = worst
    return best


# Frozen values, computed by monotone_width_bruteforce (asserted below).
FROZEN_CUTWIDTH = {
    ("path", 2): 1,
    ("path", 3): 1,
    ("path", 4): 1,
    ("path", 5): 1,
    ("path", 6): 1,
    ("cycle", 3): 2,
    ("cycle", 4): 2,
    ("cycle", 5): 2,
    ("cycle", 6): 2,
    ("complete", 4): 4,
    ("complete", 5): 6,
    ("star", 5): 2,
    ("grid", 6): 3,
}


class TestCutwidth:
    @pytest.mark.parametrize("kind,n", sorted(FROZEN_CUTWIDTH))
    def test_frozen_values_and_bruteforce(self, kind, n):
        g = generate(kind, n)
        expected = FROZEN_CUTWIDTH[(kind, n)]
        assert monotone_width_bruteforce(g) == expected
        assert cutwidth(g) == expected

    def test_single_edge(self):
        assert cutwidth(generate("path", 2)) == 1

    def test_upper_bound_half_n_delta(self):
        for kind, n in (("complete", 6), ("cycle", 7), ("star", 6)):
            g = generate(kind, n)
            assert cutwidth(g) <= g.n * g.max_degree / 2

    def test_monotone_recursion_holds(self):
        # g(B) = min over v in B of max(cut, g)(B - v), one bag at a time
        # one block up to n = 12, blocks of rows from n = 13 (see monotone_table)
        graphs = [Graph(1, []), generate("grid", 6), generate("grid", 12), generate("random_regular", 13, d=4, seed=13)]
        graphs += [generate("erdos_renyi", n, p=0.6, seed=n) for n in (2, 3, 4, 5)]
        graphs += [generate("erdos_renyi", n, p=0.4, seed=n) for n in (11, 12, 13, 14)]
        graphs += [generate("erdos_renyi", n, p=p, seed=s) for n in (7, 8, 9, 10) for p, s in ((0.3, n), (0.5, n + 1), (0.8, n + 2))]
        graphs += [generate("random_regular", n, d=d, seed=n) for n, d in ((7, 2), (8, 3), (9, 4), (10, 3))]
        graphs += [generate(kind, n) for kind, n in (("grid", 9), ("star", 8), ("cycle", 10), ("path", 7))]
        for g in graphs:
            cuts = [cut(g, m) for m in range(1 << g.n)]
            expected = [0] * (1 << g.n)
            for mask in sorted(range(1, 1 << g.n), key=int.bit_count):
                expected[mask] = min(
                    max(cuts[mask ^ (1 << v)], expected[mask ^ (1 << v)]) for v in range(g.n) if (mask >> v) & 1
                )
            assert monotone_table(g).tolist() == expected, g.label

    def test_size_cap(self):
        # one byte budget for every table: n=25 is refused before anything is
        # allocated, and the error names the bytes it would need
        g = generate("path", 25)
        builds = (cut_table, monotone_table, monotone_context, cutwidth, resilience_table, lambda g: resilience(g, 1))
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(SizeCapError, match=f"needs ~{24 << 25} bytes, over the {TABLE_BUDGET_BYTES}-byte"):
                    build(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        _check_budget(1 << 24, "n=24 tables")  # fits
        with pytest.raises(SizeCapError):
            _check_budget(1 << 25, "n=25 tables")

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)], allow_disconnected=True)
        with pytest.raises(ValueError):
            monotone_table(g)


# sha256 of the cut, g and gamma bytes of three seeded n=16 graphs
FROZEN_TABLE_HASHES = {
    "erdos_renyi": (
        "8a4efed968a6dc856d64f246ad4d8f7d7ce8a8d6a1ab28e6bcb9025a5aa87a6b",
        "2f514233c3e9b872ff117fafed594e1503143ff92723f8bcc88918da4f59e9ae",
        "2ce47435ef5e831b66da9263b812e6710c4c0a711f1b3a6bb45b8641b4bfbc8b",
    ),
    "random_regular": (
        "b3d19954a2804e15d141ede8edb12b7800a68cd1ead61370cc17919edc341bfc",
        "44e50c3c42271b0ad6b51f088f61b77fd0bd39c1a7887b0d4c460f226bf331cc",
        "623b90b96167a1b45f5885bc88290455b1c20d0337c85b1ea6e08a4b82b798df",
    ),
    "grid": (
        "6bd4441845b4d8a9ec40f2f521645b87c954773af878c39219f9dfd523f19c75",
        "2b2386cbf4cb78602755103d5d6129315ec06bd46a0b340f7346d52bb20a4c5b",
        "769e93f640430f9c79a7f4d66d35234b87013d9422c17fd5500412a9ba596433",
    ),
}
N16_GRAPHS = {"erdos_renyi": dict(p=0.4, seed=1), "random_regular": dict(d=4, seed=1), "grid": {}}
# the same for two n=20 graphs, recorded before the monotone kernel was blocked
FROZEN_N20_HASHES = {
    "erdos_renyi": (
        "bd4eadb135000914e6859babe0bf4b19f52accccb79a290b79c2c42c05e6a1b6",
        "f2c0aaddc27c8354f53cd3f5e2a5789580842f679fec0a3a3071212666a7aeec",
        "b948febc7a7d6b34b0a53b9099b67b0e221d3dd6b53f1a859d752f07811582c0",
    ),
    "grid": (
        "212533ac1b1d1983f2559ffe0b85163c32d3c7d886124750a7234fd942d30d71",
        "0ce973ab1294a2e95ab9ed35e4176b2e0adc4d5889536fc712a133fc84831853",
        "1e45b860ceb283ec8c2aa0eb476410f70f5bc84e5db3a78e7c728094da1e0d0c",
    ),
}

# sha256 of improvement_mask's bytes for the same n=16 and n=20 graphs,
# recorded before its sweep was blocked
FROZEN_MASK_HASHES = {
    (16, "erdos_renyi"): "a95ff2e3615ea3d9f3426607a061099163811b5cc49a8fb15bedc3ab41562d09",
    (16, "random_regular"): "08f43ffe270811004ba6de9164d508cd4e74a1fd8f39d6a0bab2c84f4c876969",
    (16, "grid"): "5a59f2a888de2797c044084f50f50d3b5d70ebf158878cdfd1b71aadb999f6b6",
    (20, "erdos_renyi"): "96734dbd66cb9032ceea743961498d637fbd87fab80d60dc3b880f790a466145",
    (20, "grid"): "753f460072908b912d1ff9a4202c2471b862a76131192b2bf68545c95a8d297f",
}


def _table_hashes(kind, n):
    t = resilience_table(generate(kind, n, **N16_GRAPHS[kind]))
    return tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (t.cut, t.g, t.gamma))


def plain_sweeps(cuts, mono):
    """gamma and the improvement mask by one flat pass per vertex, in vertex
    order: the sweeps as written before they were blocked."""
    n = len(cuts).bit_length() - 1
    best = np.maximum(cuts, mono)
    for v in range(n):
        without, with_v = subset_pairs(best, v)
        np.minimum(without, with_v, out=without)
    gamma = best.copy()
    for v in range(n):
        with_v = subset_pairs(gamma, v)[1]
        np.minimum(with_v, subset_pairs(best, v)[0], out=with_v)
    member = np.zeros(len(gamma), dtype=bool)
    for v in range(n):
        without, with_v = subset_pairs(gamma, v)
        member_with_v = subset_pairs(member, v)[1]
        member_with_v |= without < with_v
    return gamma, member


class TestTablesN16:
    @pytest.mark.parametrize("kind", sorted(FROZEN_TABLE_HASHES))
    def test_table_bytes_frozen(self, kind):
        assert _table_hashes(kind, 16) == FROZEN_TABLE_HASHES[kind]

    @pytest.mark.parametrize("kind", sorted(FROZEN_N20_HASHES))
    def test_table_bytes_frozen_n20(self, kind):
        assert _table_hashes(kind, 20) == FROZEN_N20_HASHES[kind]

    @pytest.mark.parametrize("n,kind", sorted(FROZEN_MASK_HASHES))
    def test_improvement_mask_frozen(self, n, kind):
        g = generate(kind, n, **N16_GRAPHS[kind])
        member = improvement_mask(g, resilience_table(g))
        assert hashlib.sha256(member.tobytes()).hexdigest() == FROZEN_MASK_HASHES[(n, kind)]

    @pytest.mark.parametrize("n", range(1, 23))
    def test_blocked_sweeps_match_plain(self, n):
        # every n: all vertices flat (n <= 11), one tile (n <= 14), one chunk (n <= 16), 64 chunks (n = 22)
        graphs = [Graph(1, [])] if n == 1 else [generate("erdos_renyi", n, p=0.4, seed=n), generate("grid", n)]
        for g in graphs:
            t = resilience_table(g)
            gamma, member = plain_sweeps(t.cut, t.g)
            assert t.gamma.dtype == np.int16 and np.array_equal(t.gamma, gamma)
            assert np.array_equal(improvement_mask(g, t), member)

    def test_peak_within_budget_estimate(self):
        # _check_budget charges 24 B per subset; the tables must not need more,
        # or n=24 would pass the check and then overrun TABLE_BUDGET_BYTES
        g = generate("grid", 16)
        tracemalloc.start()
        try:
            resilience_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 << g.n  # n=25 is refused by the same estimate: test_size_cap


class TestResilience:
    def test_empty_and_singletons_are_zero(self):
        g = generate("complete", 4)
        t = resilience_table(g)
        assert t.gamma_of([]) == 0
        for v in range(4):
            assert t.gamma_of([v]) == 0

    def test_complete_pair_drops_to_singleton(self):
        g = generate("complete", 4)
        t = resilience_table(g)
        for m in range(16):
            if bin(m).count("1") == 2:
                assert t.gamma_of(m) == 3

    def test_complete_table_by_size(self):
        # frozen from the unrestricted oracle
        g = generate("complete", 4)
        t = resilience_table(g)
        by_size = {}
        for m in range(16):
            by_size.setdefault(bin(m).count("1"), set()).add(t.gamma_of(m))
        assert by_size == {0: {0}, 1: {0}, 2: {3}, 3: {4}, 4: {4}}

    def test_path_gap_bag_uses_an_addition(self):
        g = generate("path", 3)
        t = resilience_table(g)
        assert t.gamma_of([0, 2]) == 1

    def test_full_set_equals_cutwidth(self):
        for kind, n in sorted(FROZEN_CUTWIDTH):
            g = generate(kind, n)
            t = resilience_table(g)
            assert t.gamma_of(g.full_mask) == t.W == cutwidth(g)

    def test_single_bag_route_matches_table_exhaustive_small(self):
        for n in (2, 3, 4):
            for g in enumerate_connected_graphs(n):
                t = resilience_table(g)
                for mask in range(1 << n):
                    assert resilience(g, mask, t) == t.gamma_of(mask)

    def test_n16_routes_agree(self):
        # n=16 is inside the table budget; gamma, single-bag resilience and
        # certificates were refused there while the budget was an n cap
        g = generate("erdos_renyi", 16, p=0.3, seed=11)
        t = resilience_table(g)
        ctx = monotone_context(g)
        assert t.W == cutwidth(g) == ctx.W == t.gamma_of(g.full_mask)
        rng = np.random.default_rng(16)
        bags = [1, 0b101, g.full_mask] + [int(m) for m in rng.integers(1, 1 << 16, size=12)]
        for mask in bags:
            gamma = t.gamma_of(mask)
            assert resilience(g, mask, t) == resilience(g, mask, ctx) == gamma
            assert optimal_crusade(g, mask, t).width == optimal_crusade(g, mask, ctx).width == gamma
        for mask in bags[:3]:
            assert resilience(g, mask) == t.gamma_of(mask)

    def test_table_size_cap(self):
        with pytest.raises(SizeCapError):
            resilience_table(generate("path", 6), max_n=5)


class TestOracle:
    def test_oracle_on_named_graphs(self):
        for kind, n in (("complete", 4), ("path", 4), ("star", 5), ("cycle", 5)):
            g = generate(kind, n)
            t = resilience_table(g)
            oracle = oracle_resilience_table(g)
            assert np.array_equal(oracle, t.gamma)

    def test_forward_oracle_matches_table_oracle(self):
        # the pure-Python forward search from each bag against the bucketed
        # backward sweep, on every bag
        graphs = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
        graphs.append(generate("grid", 6))
        graphs += [generate("erdos_renyi", 7, p=0.4, seed=s) for s in (1, 2, 3)]
        for g in graphs:
            full = oracle_resilience_table(g)
            assert full.dtype == np.int16
            assert [oracle_resilience(g, m) for m in range(1 << g.n)] == full.tolist(), g.label

    def test_oracle_table_refused_by_budget(self):
        # 3^13 * 17 = 27.1M steps at 24 B each: refused before anything is built
        g = generate("path", 14)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=f"oracle step graph for n=14 needs ~{24 * 17 * 3**13} bytes"):
                oracle_resilience_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_oracle_table_peak_within_budget(self):
        # the step graph and a round's temporaries stay within the 24 B per
        # step that _check_budget charges, the cached step graph included
        g = generate("erdos_renyi", 12, p=0.4, seed=1)
        cuts = cut_table(g)
        _step_graph.cache_clear()
        tracemalloc.start()
        try:
            oracle_resilience_table(g, cuts=cuts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 15 * 3**11

    def test_oracle_exhaustive_n4(self):
        for g in enumerate_connected_graphs(4):
            t = resilience_table(g)
            assert np.array_equal(oracle_resilience_table(g), t.gamma)

    def test_oracle_empty_bag(self):
        assert oracle_resilience(generate("path", 3), 0) == 0

    def test_oracle_complete_full(self):
        assert oracle_resilience(generate("complete", 4), 0b1111) == 4

    def test_oracle_size_cap(self):
        with pytest.raises(SizeCapError):
            oracle_resilience(generate("path", 5), 1, max_n=4)


# sha256 over every certificate's serialize() on the graphs and bags of
# perfbench's exact_small workload at seed 1 (819 graphs, 6809 bags),
# recorded before Crusade.from_bags parsed each bag once
CERTIFICATES_SHA256 = "f1bcb9e84d5e8f2d05f963bfce8fc76b466acae8b69741c9c260e7b3f70aee2c"


class TestOptimalCrusade:
    def test_certificates_frozen(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1, 2))))
        h = hashlib.sha256()
        count = 0
        for g in graph_set(5, rand_ns=(7, 8, 9, 10), rand_count=48, seed=1):
            size = 1 << g.n
            bags = range(1, size) if size <= 16 else [int(x) for x in rng.integers(1, size, size=8)]
            tables = resilience_table(g)
            for bag in bags:
                h.update(optimal_crusade(g, bag, tables).serialize().encode())
                count += 1
        assert count == 6809
        assert h.hexdigest() == CERTIFICATES_SHA256

    def test_path3_certificate_frozen(self):
        g = generate("path", 3)
        c = optimal_crusade(g, g.full_mask)
        assert [sorted(b) for b in c.bags] == [[0, 1, 2], [1, 2], [2], []]
        assert c.width == 1

    def test_singleton_certificate(self):
        g = generate("complete", 4)
        c = optimal_crusade(g, [2])
        assert [sorted(b) for b in c.bags] == [[2], []]
        assert c.width == 0

    def test_complete_certificate_is_pure_removal(self):
        g = generate("complete", 4)
        c = optimal_crusade(g, g.full_mask)
        assert [len(b) for b in c.bags] == [4, 3, 2, 1, 0]
        assert c.width == 4

    def test_width_matches_gamma_on_random_bags(self):
        g = generate("grid", 6)
        t = resilience_table(g)
        for mask in range(1, 1 << 6, 5):
            c = optimal_crusade(g, mask, t)
            assert c.width == t.gamma_of(mask)
            masks = [int(b) for b in c.bags]
            for i in range(2, len(masks)):
                assert masks[i] | masks[i - 1] == masks[i - 1] and masks[i] != masks[i - 1]

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError):
            optimal_crusade(generate("path", 3), 0)

    def test_first_step_tie_break_exhaustive_small(self):
        # brute force over all B != A with |A \ B| <= 1, keyed
        # (width, removed id or n for no removal, bag mask)
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                t = resilience_table(g)
                for a in range(1, 1 << n):
                    best = min(
                        (max(cut(g, b), int(t.g[b])), (a & ~b).bit_length() - 1 if a & ~b else n, b)
                        for b in range(1 << n)
                        if b != a and (a & ~b).bit_count() <= 1
                    )
                    assert int(optimal_crusade(g, a, t).bags[1]) == best[2]

    def test_single_vertex_graph(self):
        g = Graph(1, [])
        t = resilience_table(g)
        assert cutwidth(g) == 0 and t.W == 0
        assert t.gamma.tolist() == [0, 0]
        assert [sorted(b) for b in optimal_crusade(g, [0], t).bags] == [[0], []]
        assert improvement_bags(g, t) == []


class TestImprovementBags:
    def test_complete_membership_frozen(self):
        g = generate("complete", 4)
        t = resilience_table(g)
        bags = {int(b) for b in improvement_bags(g, t)}
        expected = {m for m in range(16) if bin(m).count("1") in (2, 3)}
        assert bags == expected
        assert len(bags) == 10

    def test_trivial_bags_never_members(self):
        for kind, n in (("path", 4), ("star", 5), ("cycle", 5)):
            g = generate(kind, n)
            bags = {int(b) for b in improvement_bags(g, resilience_table(g))}
            assert 0 not in bags
            assert all((1 << v) not in bags for v in range(n))

    def test_sequence_matches_eager_list(self):
        for g in (generate("complete", 5), generate("grid", 6), generate("erdos_renyi", 9, p=0.5, seed=3)):
            n = g.n
            t = resilience_table(g)
            gamma = t.gamma
            eager = [
                NodeSet(m, n)
                for m in range(1 << n)
                if any((m >> v) & 1 and gamma[m ^ (1 << v)] < gamma[m] for v in range(n))
            ]
            bags = improvement_bags(g, t)
            assert len(bags) == len(eager) > 0
            assert bags == eager and eager == bags and list(bags) == eager
            assert bags[0] == eager[0] and bags[-1] == eager[-1]
            assert bags[1:4] == eager[1:4]
            assert bags != eager[:-1]

    def test_cut_floor_on_members(self):
        for kind, n in (("complete", 4), ("grid", 6), ("star", 6)):
            g = generate(kind, n)
            t = resilience_table(g)
            for b in improvement_bags(g, t):
                assert cut(g, b) >= t.gamma_of(b) - g.max_degree


class TestWidthOp:
    def test_first_bag_excluded_from_width(self):
        # ({v}, {}) has width 0 even though cut({v}) = 1
        g = generate("path", 2)
        c = Crusade.from_bags(g, [0b01, 0])
        assert c.width == 0

    def test_path3_explicit(self):
        g = generate("path", 3)
        assert crusade_width(g, [0b111, 0b110, 0b100, 0]) == 1

    def test_step_violation(self):
        g = generate("path", 2)
        with pytest.raises(CrusadeStepError):
            crusade_width(g, [0b11, 0])

    def test_length_one_crusade_has_zero_width(self):
        g = generate("complete", 3)
        assert crusade_width(g, [0b101]) == 0

    def test_serialize_format(self):
        g = generate("path", 3)
        c = optimal_crusade(g, g.full_mask)
        assert c.serialize() == "[0,1,2]\n[1,2]\n[2]\n[]\n"


def csv_by_rows(t):
    """The table CSV formatted one row at a time, as before the blocked writer."""
    pc = subset_sums([1] * t.graph.n, np.int8)
    rows = ["bitmask,cardinality,cut,g,gamma"]
    for m in range(len(t.cut)):
        rows.append(f"{m},{int(pc[m])},{int(t.cut[m])},{int(t.g[m])},{int(t.gamma[m])}")
    return "\n".join(rows) + "\n"


class TestCsvExport:
    def test_csv_refused_over_budget(self):
        # the rows of an n=24 table would need ~0.8 GB; refused up front
        g = generate("path", 24)
        t = ResilienceTable(graph=g, cut=np.zeros(1, np.int16), g=np.zeros(1, np.int16), gamma=np.zeros(1, np.int16))
        with pytest.raises(SizeCapError, match="table CSV for n=24 needs"):
            t.to_csv()

    @pytest.mark.parametrize("block", [crusade.CSV_BLOCK, 100])
    def test_csv_matches_row_loop(self, block, monkeypatch):
        # a block of 100 rows splits every table above n = 6, the last block short
        monkeypatch.setattr(crusade, "CSV_BLOCK", block)
        graphs = (Graph(1, []), generate("path", 2), generate("complete", 5), generate("grid", 9),
                  generate("erdos_renyi", 12, p=0.4, seed=2))
        for g in graphs:
            t = resilience_table(g)
            assert t.to_csv() == csv_by_rows(t)

    def test_header_and_rows(self):
        g = generate("path", 3)
        t = resilience_table(g)
        lines = t.to_csv().splitlines()
        assert lines[0] == "bitmask,cardinality,cut,g,gamma"
        assert len(lines) == 9
        assert lines[1] == "0,0,0,0,0"
        full_row = lines[-1].split(",")
        assert full_row == ["7", "3", "0", "1", "1"]
