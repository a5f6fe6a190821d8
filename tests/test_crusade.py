from itertools import permutations

import numpy as np
import pytest

from epigraph import (
    Crusade,
    CrusadeStepError,
    SizeCapError,
    crusade_width,
    cut,
    cutwidth,
    generate,
    improvement_bags,
    monotone_table,
    optimal_crusade,
    oracle_resilience,
    oracle_resilience_table,
    resilience,
    resilience_table,
)
from epigraph.graph import Graph, NodeSet
from epigraph.verify import enumerate_connected_graphs


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
        g = generate("grid", 6)
        table = monotone_table(g)
        cuts = [cut(g, m) for m in range(1 << g.n)]
        for mask in range(1, 1 << g.n):
            options = []
            m = mask
            while m:
                low = m & -m
                prev = mask ^ low
                options.append(max(cuts[prev], int(table[prev])))
                m ^= low
            assert int(table[mask]) == min(options)

    def test_size_cap(self):
        g = generate("path", 5)
        with pytest.raises(SizeCapError):
            monotone_table(g, max_n=4)

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)], allow_disconnected=True)
        with pytest.raises(ValueError):
            monotone_table(g)


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
        g = generate("grid", 6)
        full = oracle_resilience_table(g)
        for mask in (0, 1, 0b11, 0b101010, g.full_mask):
            assert oracle_resilience(g, mask) == int(full[mask])

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


class TestOptimalCrusade:
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


class TestCsvExport:
    def test_header_and_rows(self):
        g = generate("path", 3)
        t = resilience_table(g)
        lines = t.to_csv().splitlines()
        assert lines[0] == "bitmask,cardinality,cut,g,gamma"
        assert len(lines) == 9
        assert lines[1] == "0,0,0,0,0"
        full_row = lines[-1].split(",")
        assert full_row == ["7", "3", "0", "1", "1"]
