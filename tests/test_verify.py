import hashlib
import tracemalloc

import numpy as np
import pytest

from epigraph import ResilienceTable, SizeCapError, cut_table, generate, resilience_table, verify
from epigraph.graph import _check_budget, subset_pairs, subset_sums
from epigraph.verify import (
    MAX_FAILURES_KEPT,
    PAIR_BLOCK_BITS,
    CheckResult,
    _bag_str,
    _pair_bag,
    _sos_max_inplace,
    check_bound_walk_identity,
    check_crusade_certificates,
    check_cut_properties,
    check_oracle_agreement,
    check_resilience_properties,
    check_single_bag_route,
    check_up_crossing_mc,
    check_walk_bound_below_exact,
    enumerate_connected_graphs,
    graph_set,
    random_connected_graphs,
    run_scope,
)

FAULT_GRAPHS = [
    generate("path", 5),
    generate("complete", 5),
    generate("grid", 6),
    generate("star", 6),
    generate("erdos_renyi", 7, p=0.4, seed=3),
    generate("random_regular", 8, d=3, seed=2),
]
# recorded before the checks' report loops were folded into CheckResult.flag
FROZEN_FAULT_LINES_SHA256 = "54e3476bffc0544179492c50a9558f25280b6458ae61449a80746e6f6d8c58f3"

# labeled connected simple graphs on n vertices
CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728}


class TestGraphSets:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_enumeration_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == count

    def test_random_graphs_connected_and_seeded(self):
        a = random_connected_graphs([7, 8], 6, seed=3)
        b = random_connected_graphs([7, 8], 6, seed=3)
        assert all(g.connected for g in a)
        assert [g.edges for g in a] == [g.edges for g in b]
        assert {g.n for g in a} == {7, 8}

    def test_graph_set_sizes(self):
        graphs = list(graph_set(3, rand_count=2, seed=1))
        assert len(graphs) == 1 + 4 + 2


class TestChecksPassOnRealGraphs:
    def test_cut_properties(self):
        for kind, n in (("path", 5), ("complete", 5), ("grid", 6), ("star", 6)):
            for res in check_cut_properties(generate(kind, n)):
                assert res.passed, res.line()

    def test_resilience_properties(self):
        for kind, n in (("path", 5), ("complete", 5), ("cycle", 6), ("star", 6)):
            g = generate(kind, n)
            for res in check_resilience_properties(g):
                assert res.passed, res.line()

    def test_oracle_agreement(self):
        for kind, n in (("path", 5), ("complete", 5), ("grid", 6)):
            g = generate(kind, n)
            for res in check_oracle_agreement(g):
                assert res.passed, res.line()

    def test_certificates_and_single_bag(self):
        g = generate("grid", 6)
        t = resilience_table(g)
        bags = list(range(1, 1 << 6, 3))
        assert check_crusade_certificates(g, t, bags).passed
        assert check_single_bag_route(g, t, bags).passed


class TestFaultInjection:
    def test_corrupted_cut_detected_with_concrete_bag(self):
        g = generate("complete", 4)
        t = resilience_table(g)
        bad = t.cut.copy()
        bad[0b0111] = 0  # improvement bag with cut forced under the floor
        results = {r.name: r for r in check_resilience_properties(g, t, cut_override=bad)}
        floor = results["improvement_bag_cut_floor"]
        assert not floor.passed
        assert any("{0,1,2}" in f for f in floor.failures)

    def test_corrupted_cut_breaks_cut_properties(self):
        g = generate("path", 4)
        bad = cut_table(g).copy()
        bad[0b0011] = 9
        failed = [r for r in check_cut_properties(g, cuts=bad) if not r.passed]
        assert failed
        assert any(r.failures for r in failed)

    def test_counterexample_lines_frozen(self):
        # every check line, counterexamples included, on seeded corruptions of
        # the cut, gamma and monotone tables, per graph and merged across graphs
        lines, merged = [], {}
        for k, g in enumerate(FAULT_GRAPHS):
            t = resilience_table(g)
            full = g.full_mask
            for trial in range(3):
                rng = np.random.default_rng((k, trial))
                picks = rng.integers(0, full + 1, size=2 + 3 * trial)
                bad_cut = t.cut.copy()
                bad_cut[picks] += rng.integers(-3, 4, size=len(picks)).astype(np.int16)
                bad_cut[picks[0]] = -64  # under every cut floor
                bad_gamma = t.gamma.copy()
                bad_gamma[picks] += rng.integers(-2, 3, size=len(picks)).astype(np.int16)
                bad_gamma[picks[-1]] += 3 * g.max_degree  # over the size region
                bad_mono = t.g.copy()
                bad_mono[full] += 1
                results = [
                    *check_cut_properties(g, cuts=bad_cut),
                    *check_resilience_properties(g, t, cut_override=bad_cut),
                    *check_resilience_properties(g, ResilienceTable(g, t.cut, t.g, bad_gamma)),
                    *check_oracle_agreement(g, ResilienceTable(g, t.cut, bad_mono, bad_gamma)),
                ]
                for r in results:
                    lines.append(r.line())
                    if r.name in merged:
                        merged[r.name].merge(r)
                    else:
                        merged[r.name] = r
        lines += [r.line() for r in merged.values()]
        assert sum(ln.count("counterexample") for ln in lines) > 500
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == FROZEN_FAULT_LINES_SHA256

    def test_cut_pair_checks_refused_over_budget(self):
        # 4^13 bag pairs, over the compute cap: refused before any table is built
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=r"cut pair checks for n=13: 4\^13 bag pairs, over the cap of 4\^12"):
                check_cut_properties(generate("path", 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def reference_cut_properties(g, cuts=None):
    """check_cut_properties as it was before the row-blocked pair checks:
    each pair check built over all 4^n bag pairs at once."""
    n = g.n
    _check_budget(1 << (2 * n), f"cut pair checks for n={n}")
    size = 1 << n
    delta = g.max_degree
    c = (cut_table(g) if cuts is None else cuts).astype(np.int32)
    masks = np.arange(size)
    pc = subset_sums([1] * n, np.int32)

    super_add = CheckResult("cut_superadditivity")
    A = masks[:, None]
    B = masks[None, :]
    lhs = c[A | B]
    rhs = c[A] + c[B]
    super_add.checked = size * size
    super_add.flag(lhs > rhs, lambda i, j: f"{g.label}: c(AuB)={lhs[i, j]} > c(A)+c(B)={rhs[i, j]} for A={_bag_str(i)} B={_bag_str(j)}")
    super_add.flag(rhs > c[A] + delta * pc[B], lambda i, j: f"{g.label}: c(A)+c(B) > c(A)+delta*|B| for A={_bag_str(i)} B={_bag_str(j)}")

    submod = CheckResult("cut_submodularity")
    submod.checked = n * (size // 2)
    for v in range(n):
        without, with_v = subset_pairs(c, v)
        removal_gain = without - with_v
        transformed = removal_gain.copy()
        _sos_max_inplace(transformed.reshape(-1), n - 1)
        submod.flag(
            transformed > removal_gain,
            lambda i, j: f"{g.label}: removal gain of v={v} not monotone at B={_pair_bag(v, i, j | (1 << v))}",
            limit=2,
        )

    size_bound = CheckResult("cut_size_bound")
    size_bound.checked = size
    size_bound.flag(c > delta * np.minimum(pc, n - pc), lambda m: f"{g.label}: c={int(c[m])} exceeds min(|A|,n-|A|)*delta at A={_bag_str(m)}")

    lipschitz = CheckResult("cut_difference_lipschitz")
    lipschitz.checked = size * size
    gap = np.abs(c[A] - c[B])
    allowance = delta * pc[A ^ B]
    lipschitz.flag(
        gap > allowance,
        lambda i, j: f"{g.label}: |c(A)-c(B)|={gap[i, j]} > delta*|A xor B|={allowance[i, j]} at A={_bag_str(i)} B={_bag_str(j)}",
    )

    symmetry = CheckResult("cut_complement_symmetry")
    symmetry.checked = size
    symmetry.flag(c != c[masks ^ (size - 1)], lambda m: f"{g.label}: c(A) != c(complement) at A={_bag_str(m)}")

    return [super_add, submod, size_bound, lipschitz, symmetry]


def corrupted_cuts(g, trial):
    """Seeded corruptions of g's cut table; trial 0 is the true table,
    trials 1, 5 and 6 are built to reach one corner of the checks each."""
    cuts = cut_table(g)
    if trial == 0:
        return cuts
    bad = cuts.copy()
    full = g.full_mask
    if trial == 1:
        # superadditivity's first condition fails only at the last pair (V, V),
        # its second at B = {0} in every row
        bad[full] = -64
        bad[1] = g.max_degree + 1
        return bad
    if trial == 5:
        # the first condition fails only where A u B is the last row M of the
        # first block, so every such pair lies inside the first diagonal block
        bad[(1 << min(g.n, PAIR_BLOCK_BITS - g.n)) - 1] = 1000
        return bad
    if trial == 6:
        # the Lipschitz bound fails only on flips of the last vertex: every bag
        # holding it gains 2*delta + 1, more than any one flip can take back
        bad += (2 * g.max_degree + 1) * (np.arange(full + 1, dtype=np.int16) >> (g.n - 1))
        return bad
    rng = np.random.default_rng((g.n, trial))
    picks = rng.integers(0, full + 1, size=2 + 3 * trial)
    bad[picks] += rng.integers(-3, 4, size=len(picks)).astype(np.int16)
    bad[picks[0]] = -64
    return bad


class TestBlockedPairChecks:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_lines_match_the_unblocked_checks(self, n):
        # every block height from one block (n <= 7) to 64 blocks (n = 11)
        graphs = [generate("path", n), generate("star", n), generate("grid", n), generate("erdos_renyi", n, p=0.4, seed=n)]
        counterexamples = 0
        for g in graphs:
            for trial in range(5):
                cuts = corrupted_cuts(g, trial)
                got = [r.line() for r in check_cut_properties(g, cuts=cuts)]
                assert got == [r.line() for r in reference_cut_properties(g, cuts=cuts)], (g.label, trial)
                counterexamples += sum(ln.count("counterexample") for ln in got)
                if trial == 0:
                    assert all(ln.startswith("PASS") for ln in got)
                if trial == 1:
                    # the first condition's one hit is reported before the second's
                    superadd = got[0].split("\n")
                    assert len(superadd) == 1 + MAX_FAILURES_KEPT
                    assert f"A={_bag_str(g.full_mask)} B={_bag_str(g.full_mask)}" in superadd[1]
                    assert all("delta*|B|" in ln for ln in superadd[2:])
        assert counterexamples > 40 * len(graphs)

    def test_peak_is_one_block(self):
        # the 4^n pair arrays peaked at 16 MiB at n = 10
        g = generate("erdos_renyi", 10, p=0.4, seed=1)
        cuts = cut_table(g)
        tracemalloc.start()
        try:
            check_cut_properties(g, cuts=cuts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestPairDetection:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_corners_match_the_unblocked_checks(self, n):
        # hits that only the first diagonal block or the last vertex's flips see
        for g in (generate("path", n), generate("erdos_renyi", n, p=0.4, seed=n)):
            for trial in (5, 6):
                cuts = corrupted_cuts(g, trial)
                got = check_cut_properties(g, cuts=cuts)
                assert [r.line() for r in got] == [r.line() for r in reference_cut_properties(g, cuts=cuts)], (g.label, trial)
                first = [f for f in got[0].failures if "c(AuB)=" in f]
                if trial == 5:
                    assert first and all("c(AuB)=1000 " in f for f in first)
                else:
                    assert not first and not got[3].passed


class TestWalkChecks:
    def test_up_crossing_small(self):
        res = check_up_crossing_mc(seed=9, runs=4000, max_level=5)
        assert res.passed, res.line()
        assert res.checked == 3 * sum(range(1, 5))

    def test_bound_below_exact_full_grid(self):
        below, regen = check_walk_bound_below_exact()
        assert below.passed and below.checked == 9 * 19
        assert regen.passed

    def test_identity_samples(self):
        res = check_bound_walk_identity(seed=5, samples=30)
        assert res.passed and res.checked == 30

    def test_identity_checks_the_same_samples(self, monkeypatch):
        # the integer rejection test must accept exactly the draws the Fraction
        # test did; the hash was recorded with the Fraction test
        seen = []
        closed_form = verify.extinction_lower_bound

        def record(b):
            seen.append((b.gamma0, b.delta, b.E, b.r))
            return closed_form(b)

        monkeypatch.setattr(verify, "extinction_lower_bound", record)
        check_bound_walk_identity(seed=5, samples=30)
        assert len(seen) == 30
        assert hashlib.sha256(repr(tuple(seen)).encode()).hexdigest() == (
            "b4cb188e991bf7b3823cc14429feaf7bf58c53efb808e7fae30cbbacfb5fddb5"
        )


class TestRunScope:
    def test_all_small(self):
        report = run_scope("all", max_n=4, rand_count=2, seed=7, mc_runs=4000, mc_level=5)
        assert report.all_passed, "\n".join(report.lines())
        assert report.graphs_checked == 1 + 4 + 38 + 2
        names = {r.name for r in report.results}
        assert "fullset_resilience_equals_cutwidth" in names
        assert "algorithm_matches_oracle" in names
        assert "up_crossing_probability_mc" in names

    def test_walk_only_runs_no_graphs(self):
        report = run_scope("walk", seed=3, mc_runs=4000, mc_level=5)
        assert report.graphs_checked == 0
        assert report.all_passed

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            run_scope("everything")
