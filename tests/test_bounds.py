import math
from fractions import Fraction

import pytest

from epigraph import (
    BoundInputs,
    WalkParams,
    bound_from_walk,
    cutwidth,
    exact_extinction_complete,
    exact_hitting_time,
    extinction_lower_bound,
    gambler_up_probability,
    generate,
    large_cutwidth_premise,
    random_walk_lower_bound,
    slack_E,
)
from epigraph.bounds import frac_log10, walk_up_crossing_mc


class TestSlack:
    def test_maximal_cutwidth_gives_two(self):
        # W = n*delta/2 exactly
        assert slack_E(10, 3, 15) == 2
        assert slack_E(4, 4, 8) == 2

    def test_complete4(self):
        g = generate("complete", 4)
        assert slack_E(g.n, g.max_degree, cutwidth(g)) == Fraction(10, 3)

    def test_path4(self):
        g = generate("path", 4)
        assert slack_E(g.n, g.max_degree, cutwidth(g)) == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            slack_E(4, 2, 5)  # above n*delta/2 = 4
        with pytest.raises(ValueError):
            slack_E(4, 2, -1)

    def test_always_at_least_two(self):
        for kind, n in (("path", 6), ("cycle", 6), ("star", 6), ("complete", 6), ("grid", 6)):
            g = generate(kind, n)
            assert slack_E(g.n, g.max_degree, cutwidth(g)) >= 2


class TestUpProbability:
    def test_symmetric_limit(self):
        assert gambler_up_probability(WalkParams(lam=1, mu=1, L=6, M=3)) == Fraction(1, 2)

    def test_ratio_half(self):
        assert gambler_up_probability(WalkParams(lam=1, mu=2, L=2, M=1)) == Fraction(2, 3)

    def test_boundaries(self):
        w = WalkParams(lam=1, mu=3, L=5, M=5)
        assert gambler_up_probability(w) == 1
        w = WalkParams(lam=1, mu=3, L=5, M=0)
        assert gambler_up_probability(w) == 0

    def test_matches_monte_carlo(self):
        w = WalkParams(lam=1, mu=2, L=4, M=2)
        p = gambler_up_probability(w)
        phat, se = walk_up_crossing_mc(w, 40_000, seed=3)
        assert abs(phat - float(p)) <= 3 * se

    @pytest.mark.parametrize(
        "lam, mu, L, M, runs, seed, expected",
        [
            # cells 0, 12, 57, 81, 102 and 126 of verify's walk suite (seed 42 + cell)
            (1, 2, 2, 1, 20_000, 42, (0.66605, 0.0033348717928879967)),
            (1, 2, 6, 3, 20_000, 54, (0.8933, 0.002183061039000055)),
            (1, 1, 6, 3, 20_000, 99, (0.5008, 0.0035355293804464416)),
            (1, 1, 10, 1, 20_000, 123, (0.09895, 0.0021113845871844382)),
            (2, 1, 6, 3, 20_000, 144, (0.10745, 0.0021898001906566727)),
            (2, 1, 10, 1, 20_000, 168, (0.0009, 0.00021203655345246488)),
            # starts on a boundary, and a ceiling above int8
            (1, 3, 5, 5, 1000, 7, (0.241, 0.013524755080961725)),
            (1, 3, 5, 0, 1000, 7, (0.518, 0.01580113919943749)),
            (1, 1, 130, 65, 300, 11, (0.47333333333333333, 0.028826428203351226)),
        ],
    )
    def test_monte_carlo_frozen(self, lam, mu, L, M, runs, seed, expected):
        # exact (phat, se): any change to which double drives which step shows here
        assert walk_up_crossing_mc(WalkParams(lam=lam, mu=mu, L=L, M=M), runs, seed) == expected


class TestWalkLowerBound:
    def test_frozen_example(self):
        assert random_walk_lower_bound(WalkParams(lam=1, mu=2, L=3)) == Fraction(3, 2)

    def test_exact_hitting_dominates(self):
        exact = exact_hitting_time([2, 2], [1, 1, 1], 2)
        assert exact == 10
        assert random_walk_lower_bound(WalkParams(lam=1, mu=2, L=3)) <= exact

    def test_domain_error_without_drift(self):
        with pytest.raises(ValueError):
            random_walk_lower_bound(WalkParams(lam=2, mu=1, L=3))
        with pytest.raises(ValueError):
            random_walk_lower_bound(WalkParams(lam=1, mu=1, L=3))

    def test_degenerate_as_rates_meet(self):
        v = random_walk_lower_bound(WalkParams(lam=1, mu=Fraction(1001, 1000), L=3))
        assert 0 < v < Fraction(1, 100)


class TestExactHitting:
    def test_single_state(self):
        assert exact_hitting_time([], [Fraction(1, 2)], 1) == 2

    def test_reflecting_chain_values(self):
        # up 2, down 1, ceiling 3: h = (7, 10, 11)
        assert exact_hitting_time([2, 2], [1, 1, 1], 1) == 7
        assert exact_hitting_time([2, 2], [1, 1, 1], 2) == 10
        assert exact_hitting_time([2, 2], [1, 1, 1], 3) == 11

    def test_matches_complete_graph_reduction(self):
        n, r = 3, 1
        up = [k * (n - k) for k in range(1, n)]
        down = [r] * n
        assert exact_hitting_time(up, down, n) == exact_extinction_complete(n, r) == 11

    def test_start_zero(self):
        assert exact_hitting_time([1], [1, 1], 0) == 0

    def test_unreachable_zero(self):
        with pytest.raises(ValueError):
            exact_hitting_time([1, 1], [1, 0, 1], 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            exact_hitting_time([1, 1], [1, 1], 2)


class TestExtinctionBound:
    def test_frozen_value(self):
        res = extinction_lower_bound(BoundInputs(gamma0=60, delta=1, E=2, r=2))
        assert res.condition_met
        assert res.bound == 4_768_371_582_031  # (5^19 - 1)/4

    def test_complete4_condition_unmet(self):
        res = extinction_lower_bound(BoundInputs(gamma0=4, delta=3, E=Fraction(10, 3), r=1))
        assert res.condition_unmet

    def test_path4_condition_unmet(self):
        res = extinction_lower_bound(BoundInputs(gamma0=1, delta=2, E=5, r=1))
        assert res.condition_unmet

    def test_boundary_gives_zero(self):
        # gamma0 exactly delta*(9E+12) + 3r -> base 1 -> bound 0
        res = extinction_lower_bound(BoundInputs(gamma0=33, delta=1, E=2, r=1))
        assert res.condition_met
        assert res.bound == 0

    def test_walk_identity_exact(self):
        b = BoundInputs(gamma0=60, delta=1, E=2, r=2)
        assert extinction_lower_bound(b).bound == bound_from_walk(b)

    def test_walk_route_needs_integral_ceiling(self):
        with pytest.raises(ValueError):
            bound_from_walk(BoundInputs(gamma0=61, delta=1, E=2, r=2))

    def test_non_integral_exponent_log_route(self):
        b = BoundInputs(gamma0=Fraction(61), delta=1, E=2, r=2)
        res = extinction_lower_bound(b)
        assert res.bound is None
        base = (61 - 30) / 6
        expo = 61 / 3 - 1
        assert res.bound_log10 == pytest.approx(expo * math.log10(base) - math.log10(4), rel=1e-9)

    def test_log10_matches_exact_route(self):
        b = BoundInputs(gamma0=600, delta=1, E=2, r=2)
        res = extinction_lower_bound(b)
        direct = frac_log10(res.bound)
        assert res.bound_log10 == pytest.approx(direct, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BoundInputs(gamma0=5, delta=0, E=2, r=1)
        with pytest.raises(ValueError):
            BoundInputs(gamma0=5, delta=1, E=1, r=1)
        with pytest.raises(ValueError):
            BoundInputs(gamma0=5, delta=1, E=2, r=0)


class TestPremise:
    def test_half_max_cutwidth_holds_for_small_c(self):
        chk = large_cutwidth_premise(10, 3, 15, Fraction(101, 100))
        assert chk.premise_holds

    def test_paths_never_qualify(self):
        for n in range(2, 9):
            g = generate("path", n)
            chk = large_cutwidth_premise(g.n, g.max_degree, cutwidth(g), Fraction(11, 10))
            assert not chk.premise_holds

    def test_boundary_counts_as_holding(self):
        # C = 19/18 puts the threshold exactly at n*delta/2
        chk = large_cutwidth_premise(6, 4, 12, Fraction(19, 18))
        assert chk.premise_holds

    def test_base_term_value(self):
        chk = large_cutwidth_premise(4, 3, 4, Fraction(3, 2))
        assert chk.base_term == 19 * 4 - 9 * 4 * 3 - 30 * 3

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError):
            large_cutwidth_premise(4, 2, 4, 1)


class TestFracLog10:
    def test_small_values(self):
        assert frac_log10(Fraction(1000)) == pytest.approx(3.0)
        assert frac_log10(Fraction(1, 100)) == pytest.approx(-2.0)

    def test_huge_value(self):
        x = Fraction(7) ** 2000
        assert frac_log10(x) == pytest.approx(2000 * math.log10(7), rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            frac_log10(Fraction(0))
