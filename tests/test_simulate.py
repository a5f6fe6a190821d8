import hashlib
import math
from fractions import Fraction

import pytest

from epigraph import (
    CuringPolicy,
    PolicyFault,
    band_instrumentation,
    builtin_policy,
    cut,
    estimate_extinction,
    exact_extinction_complete,
    generate,
    resilience_table,
    simulate,
    validate_trace,
)
from epigraph import simulation

K2 = generate("complete", 2)
K3 = generate("complete", 3)


def one_node():
    return builtin_policy("max_degree_infected")


class TestEngineBasics:
    def test_empty_start_is_instantly_extinct(self):
        tr = simulate(K3, 0, one_node(), 1.0, 1)
        assert tr.tau == 0.0
        assert tr.events == ()
        assert not tr.censored

    def test_zero_budget_censors_at_max_time(self):
        tr = simulate(K3, K3.full_mask, builtin_policy("none"), 0.0, 3, max_time=50.0)
        assert tr.censored and tr.censor_reason == "max_time"
        assert tr.tau is None
        assert tr.t_end == 50.0

    def test_none_policy_never_shrinks_infection(self):
        g = generate("grid", 6)
        tr = simulate(g, 0b1, builtin_policy("none"), 0.0, 9, max_time=30.0)
        validate_trace(tr)
        assert all(kind == "infect" for _, _, kind in tr.events)

    def test_determinism_byte_identical(self):
        a = simulate(K3, K3.full_mask, one_node(), 1.0, 123)
        b = simulate(K3, K3.full_mask, one_node(), 1.0, 123)
        assert a.serialize() == b.serialize()
        c = simulate(K3, K3.full_mask, one_node(), 1.0, 124)
        assert a.serialize() != c.serialize()

    def test_event_cap_censors(self):
        g = generate("cycle", 5)
        tr = simulate(g, 0b1, builtin_policy("none"), 0.0, 2, max_events=3, max_time=1e9)
        assert tr.censored and tr.censor_reason == "max_events"
        assert tr.n_events == 3

    def test_traces_replay_cleanly(self):
        for kind, n, pol in (
            ("path", 5, "max_cut_drop"),
            ("star", 6, "degree_proportional"),
            ("cycle", 6, "random_infected"),
            ("grid", 6, "max_degree_infected"),
        ):
            g = generate(kind, n)
            tr = simulate(g, g.full_mask, builtin_policy(pol, seed=4), 2.0, 77, max_time=200.0)
            validate_trace(tr)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            simulate(K2, K2.full_mask, one_node(), -1.0, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            simulate(K2, K2.full_mask, one_node(), 1.0, -5)


class BadBudgetPolicy(CuringPolicy):
    name = "bad_budget"

    def decide(self, t, infected, graph, context=None, history=None):
        return {v: 1.0 for v in infected}


class NegativeRatePolicy(CuringPolicy):
    name = "negative_rate"

    def decide(self, t, infected, graph, context=None, history=None):
        return {next(iter(infected)): -0.5}


class HealthyWastePolicy(CuringPolicy):
    """Spends half the budget on a healthy vertex; legal but useless."""

    name = "healthy_waste"

    def decide(self, t, infected, graph, context=None, history=None):
        mask = int(infected)
        healthy = [v for v in range(graph.n) if not (mask >> v) & 1]
        alloc = {}
        infected_list = list(infected)
        if infected_list:
            alloc[infected_list[0]] = self.budget / 2
        if healthy:
            alloc[healthy[0]] = self.budget / 2
        return alloc


class TestPolicyContracts:
    def test_budget_violation_is_a_policy_fault(self):
        with pytest.raises(PolicyFault):
            simulate(K3, K3.full_mask, BadBudgetPolicy(), 1.0, 1)

    def test_negative_rate_is_a_policy_fault(self):
        with pytest.raises(PolicyFault):
            simulate(K3, K3.full_mask, NegativeRatePolicy(), 1.0, 1)

    def test_healthy_allocation_is_wasted_not_faulted(self):
        tr = simulate(K3, 0b011, HealthyWastePolicy(), 1.0, 8, max_time=500.0)
        validate_trace(tr)

    def test_builtins_respect_budget_and_infected_support(self):
        for name in ("none", "random_infected", "max_degree_infected",
                     "degree_proportional", "max_cut_drop"):
            g = generate("star", 6)
            pol = builtin_policy(name, seed=3)
            pol.prepare(g, 2.0)
            for mask in (0b000001, 0b011011, g.full_mask):
                alloc = pol.decide(0.0, g.nodeset(mask), g)
                assert sum(alloc.values()) <= 2.0 + 1e-12
                assert all((mask >> v) & 1 for v in alloc)

    def test_degree_proportional_star_split(self):
        g = generate("star", 5)
        pol = builtin_policy("degree_proportional")
        pol.prepare(g, 1.0)
        alloc = pol.decide(0.0, g.nodeset([0, 3]), g)
        assert alloc[0] == pytest.approx(4 / 5)
        assert alloc[3] == pytest.approx(1 / 5)

    def test_resilience_greedy_tie_breaks_low_id(self):
        g = generate("path", 3)
        t = resilience_table(g)
        pol = builtin_policy("resilience_greedy", table=t)
        pol.prepare(g, 1.0)
        alloc = pol.decide(0.0, g.nodeset([0, 1]), g)
        assert alloc == {0: 1.0}

    def test_resilience_greedy_requires_table(self):
        pol = builtin_policy("resilience_greedy")
        with pytest.raises(PolicyFault):
            simulate(K3, K3.full_mask, pol, 1.0, 1)

    def test_random_infected_is_seed_deterministic(self):
        g = generate("cycle", 6)
        a = simulate(g, g.full_mask, builtin_policy("random_infected", seed=5), 1.5, 42, max_time=300.0)
        b = simulate(g, g.full_mask, builtin_policy("random_infected", seed=5), 1.5, 42, max_time=300.0)
        assert a.serialize() == b.serialize()

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_policy("nope")


class TestCalibration:
    def test_k2_matches_closed_form(self):
        est = estimate_extinction(K2, K2.full_mask, one_node(), 1.0, 20_000, 1001)
        assert est.censored == 0
        assert abs(est.mean_tau - 3.0) <= 3 * est.se

    def test_k3_matches_chain_solve(self):
        est = estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 20_000, 1002)
        assert abs(est.mean_tau - 11.0) <= 3 * est.se

    def test_k2_closed_form_any_r(self):
        # (2r+1)/r^2 from the three-state chain
        assert exact_extinction_complete(2, 1) == 3
        assert exact_extinction_complete(2, 2) == Fraction(5, 4)
        assert exact_extinction_complete(2, Fraction(1, 2)) == 8


class TestExactChain:
    def test_frozen_small_values(self):
        assert exact_extinction_complete(3, 1) == 11
        assert exact_extinction_complete(8, 1) == 33922100

    def test_monotone_in_n(self):
        vals = [exact_extinction_complete(n, 1) for n in range(2, 15)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_extinction_complete(1, 1)
        with pytest.raises(ValueError):
            exact_extinction_complete(4, 0)


class TestEstimate:
    def test_single_replication_has_no_se(self):
        est = estimate_extinction(K2, K2.full_mask, one_node(), 1.0, 1, 5)
        assert est.replications == 1
        assert est.se is None
        assert est.usable

    def test_all_censored_flagged_unusable(self):
        est = estimate_extinction(K3, K3.full_mask, builtin_policy("none"), 0.0, 4, 5, max_time=5.0)
        assert est.censored == 4
        assert not est.usable
        assert est.mean_tau is None

    def test_censor_reasons_and_event_totals(self):
        # no budget on a full K3 has zero total rate: censored at max_time with no event;
        # from one vertex of a cycle, every run reaches the event cap
        g = generate("cycle", 6)
        cases = (
            (K3, K3.full_mask, {}, 0, {"max_time": 5, "max_events": 0}),
            (g, 0b1, {"max_events": 4, "max_time": 1e9}, 20, {"max_time": 0, "max_events": 5}),
        )
        for graph, i0, caps, n_events, reasons in cases:
            for workers in (None, 2):
                est = estimate_extinction(graph, i0, builtin_policy("none"), 0.0, 5, 5, workers=workers, **caps)
                assert (est.censored, est.usable, est.mean_tau) == (5, False, None)
                assert est.n_events == n_events
                assert est.censor_reasons == reasons
                assert est.csv_row() == f"{graph.label},none,0.0,5,,,5"

    def test_event_totals_include_extinct_runs(self):
        est = estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 30, 8)
        pooled = estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 30, 8, workers=2)
        runs = [simulate(K3, K3.full_mask, one_node(), 1.0, (8, i), record_events=False) for i in range(30)]
        assert est.n_events == pooled.n_events == sum(tr.n_events for tr in runs)
        assert est.censor_reasons == pooled.censor_reasons == {"max_time": 0, "max_events": 0}

    def test_replications_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_extinction(K2, K2.full_mask, one_node(), 1.0, 0, 5)

    def test_parallel_equals_serial(self):
        serial = estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 40, 77)
        parallel = estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 40, 77, workers=2)
        assert serial.taus == parallel.taus

    def test_csv_row_shape(self):
        est = estimate_extinction(K2, K2.full_mask, one_node(), 1.0, 10, 3)
        row = est.csv_row().split(",")
        assert row[0] == "complete:2"
        assert row[1] == "max_degree_infected"
        assert row[3] == "10"


class TestBandInstrumentation:
    def test_empty_start_vacuous(self):
        tr = simulate(K3, 0, one_node(), 1.0, 1)
        rep = band_instrumentation(tr, 6, 1)
        assert rep.tau_star == 0.0
        assert rep.vacuous  # never entered with positive level

    def test_complete12_band_min_cut(self):
        # band [4, 8] via gamma0=25, delta=2; on K_12 the cut at count k is
        # k(12-k), minimized over the band at the endpoints: 4*8 = 32
        g = generate("complete", 12)
        pol = one_node()
        tr = simulate(g, 0b11111, pol, 2.0, 31, max_events=4000, max_time=1e9)
        rep = band_instrumentation(tr, 25, 2)
        assert (rep.band_lo, rep.band_hi) == (4, 8)
        assert rep.band_entered
        assert rep.min_cut_in_band == 32
        assert rep.band_dwell > 0

    def test_tiny_band_is_vacuous(self):
        tr = simulate(K2, K2.full_mask, one_node(), 1.0, 9)
        rep = band_instrumentation(tr, 1, 1)  # hi = floor(2/3) = 0 < 1
        assert rep.vacuous

    def test_drift_floor_reported_with_slack(self):
        g = generate("complete", 12)
        tr = simulate(g, 0b11111, one_node(), 2.0, 31, max_events=4000, max_time=1e9)
        rep = band_instrumentation(tr, 25, 2, slack_e=Fraction(2))
        assert rep.drift_floor == pytest.approx(25 / 3 - 10 * 2)
        assert rep.drift_ok  # floor is negative here, trivially satisfied

    def test_tau_star_crossing_recorded(self):
        tr = simulate(K3, K3.full_mask, one_node(), 1.0, 17)
        rep = band_instrumentation(tr, 3, 1)  # lo=1: tau* = first time |I|<=1
        validate_trace(tr)
        assert rep.tau_star is not None
        assert rep.tau_star <= tr.tau


# ---------------------------------------------------------------------------
# Frozen seeded outputs: a change to the engine must reproduce these bytes
# ---------------------------------------------------------------------------

FROZEN_R = 2.0
FROZEN_SEED = 2024
FROZEN_CAPS = {"max_time": 100.0, "max_events": 3000}
FROZEN_POLICIES = (
    "none", "random_infected", "max_degree_infected", "degree_proportional",
    "max_cut_drop", "resilience_greedy", "healthy_waste",
)


def frozen_graphs():
    return {
        g.label: g
        for g in (
            generate("path", 6), generate("cycle", 8), generate("star", 6), generate("grid", 9),
            generate("erdos_renyi", 8, p=0.4, seed=1), generate("complete", 5),
        )
    }


def frozen_policy(name, g):
    if name == "healthy_waste":
        return HealthyWastePolicy()
    return builtin_policy(name, seed=5, table=resilience_table(g) if name == "resilience_greedy" else None)


def frozen_traces():
    """(key, trace) for every graph x policy x start, from full infection and from vertex 0."""
    for g in frozen_graphs().values():
        for name in FROZEN_POLICIES:
            for start, i0 in (("full", g.full_mask), ("one", 0b1)):
                tr = simulate(g, i0, frozen_policy(name, g), FROZEN_R, FROZEN_SEED, **FROZEN_CAPS)
                yield f"{g.label}|{name}|{start}", tr


def trace_pin(tr):
    return hashlib.sha256(tr.serialize().encode()).hexdigest()[:16], tr.tau, tr.n_events


# (graph, policy, replications) -> csv_row() of estimate_extinction at FROZEN_SEED
FROZEN_ESTIMATE_CELLS = (
    ("path:6", "healthy_waste", 12),
    ("cycle:8", "max_cut_drop", 24),
    ("star:6", "degree_proportional", 24),
    ("grid:3x3", "resilience_greedy", 24),
    ("erdos_renyi:8:p0.4", "max_degree_infected", 24),
    ("complete:5", "random_infected", 24),
)

FROZEN_TRACES = {
    "path:6|none|full": ("d8ead7c753af782d", None, 0),
    "path:6|none|one": ("1877d639f8c3b045", None, 5),
    "path:6|random_infected|full": ("8ed973b0585a2614", 3.645267720242299, 14),
    "path:6|random_infected|one": ("c1bc03d1a92665f2", 0.10518357934495569, 1),
    "path:6|max_degree_infected|full": ("fe5050b18864846c", 2.5567253937438315, 12),
    "path:6|max_degree_infected|one": ("c1bc03d1a92665f2", 0.10518357934495569, 1),
    "path:6|degree_proportional|full": ("457187c62948f0f4", 3.784964152791534, 14),
    "path:6|degree_proportional|one": ("c1bc03d1a92665f2", 0.10518357934495569, 1),
    "path:6|max_cut_drop|full": ("109897b443b64c38", 2.4670229020413865, 8),
    "path:6|max_cut_drop|one": ("c1bc03d1a92665f2", 0.10518357934495569, 1),
    "path:6|resilience_greedy|full": ("109897b443b64c38", 2.4670229020413865, 8),
    "path:6|resilience_greedy|one": ("c1bc03d1a92665f2", 0.10518357934495569, 1),
    "path:6|healthy_waste|full": ("3b20c1e99ddde9d6", 7.108957337162277, 14),
    "path:6|healthy_waste|one": ("5db81413e8408dd6", 0.15777536901743353, 1),
    "cycle:8|none|full": ("d8ead7c753af782d", None, 0),
    "cycle:8|none|one": ("ea7e2515327e0698", None, 7),
    "cycle:8|random_infected|full": ("ea5cba9f538af214", 60.84626308995949, 240),
    "cycle:8|random_infected|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "cycle:8|max_degree_infected|full": ("e57d8e299967c8f7", 61.022243259071125, 240),
    "cycle:8|max_degree_infected|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "cycle:8|degree_proportional|full": ("8a464464aedc709a", 81.49847232760824, 338),
    "cycle:8|degree_proportional|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "cycle:8|max_cut_drop|full": ("5d1713f67da6a8d1", 61.345126405292355, 240),
    "cycle:8|max_cut_drop|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "cycle:8|resilience_greedy|full": ("e57d8e299967c8f7", 61.022243259071125, 240),
    "cycle:8|resilience_greedy|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "cycle:8|healthy_waste|full": ("93a20730b94375f3", None, 214),
    "cycle:8|healthy_waste|one": ("ce8a2cc14cb9d7f8", None, 211),
    "star:6|none|full": ("d8ead7c753af782d", None, 0),
    "star:6|none|one": ("f4dd7a174c431be4", None, 5),
    "star:6|random_infected|full": ("da13fbbf31c3d58a", 13.68594054889714, 58),
    "star:6|random_infected|one": ("16977b5fcbeae771", 0.3990083765369646, 3),
    "star:6|max_degree_infected|full": ("7fd2f0a8e291fc1d", 16.614028083810112, 74),
    "star:6|max_degree_infected|one": ("16977b5fcbeae771", 0.3990083765369646, 3),
    "star:6|degree_proportional|full": ("fb155dd0698e0fd7", 16.995398070951182, 74),
    "star:6|degree_proportional|one": ("16977b5fcbeae771", 0.3990083765369646, 3),
    "star:6|max_cut_drop|full": ("bedb7d381636ba34", 13.837449412702632, 58),
    "star:6|max_cut_drop|one": ("16977b5fcbeae771", 0.3990083765369646, 3),
    "star:6|resilience_greedy|full": ("7fd2f0a8e291fc1d", 16.614028083810112, 74),
    "star:6|resilience_greedy|one": ("16977b5fcbeae771", 0.3990083765369646, 3),
    "star:6|healthy_waste|full": ("7d4735a10bd3dc59", None, 209),
    "star:6|healthy_waste|one": ("33b0e26febc611d8", None, 215),
    "grid:3x3|none|full": ("d8ead7c753af782d", None, 0),
    "grid:3x3|none|one": ("0a13db9b8a4905fd", None, 8),
    "grid:3x3|random_infected|full": ("717b0f3da7ecec20", None, 412),
    "grid:3x3|random_infected|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "grid:3x3|max_degree_infected|full": ("1e4effae801c988b", None, 413),
    "grid:3x3|max_degree_infected|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "grid:3x3|degree_proportional|full": ("1025d1d2ce2a5ef9", None, 407),
    "grid:3x3|degree_proportional|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "grid:3x3|max_cut_drop|full": ("8759956ef7a12200", 58.188770403968725, 249),
    "grid:3x3|max_cut_drop|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "grid:3x3|resilience_greedy|full": ("32cd67d1929130b1", 58.06919794449599, 249),
    "grid:3x3|resilience_greedy|one": ("3054bda53238a655", 0.07888768450871676, 1),
    "grid:3x3|healthy_waste|full": ("b698d05d7cfc49cd", None, 215),
    "grid:3x3|healthy_waste|one": ("4ba72f087a03abff", None, 216),
    "erdos_renyi:8:p0.4|none|full": ("d8ead7c753af782d", None, 0),
    "erdos_renyi:8:p0.4|none|one": ("e089ffef15a80d53", None, 7),
    "erdos_renyi:8:p0.4|random_infected|full": ("30fac893fca07df4", None, 400),
    "erdos_renyi:8:p0.4|random_infected|one": ("184358b84f8ed5fb", 0.06311014760697341, 1),
    "erdos_renyi:8:p0.4|max_degree_infected|full": ("e273cf1fd995ef38", None, 422),
    "erdos_renyi:8:p0.4|max_degree_infected|one": ("184358b84f8ed5fb", 0.06311014760697341, 1),
    "erdos_renyi:8:p0.4|degree_proportional|full": ("002c6de66bd80099", None, 404),
    "erdos_renyi:8:p0.4|degree_proportional|one": ("184358b84f8ed5fb", 0.06311014760697341, 1),
    "erdos_renyi:8:p0.4|max_cut_drop|full": ("7c7797a405f9c611", None, 392),
    "erdos_renyi:8:p0.4|max_cut_drop|one": ("184358b84f8ed5fb", 0.06311014760697341, 1),
    "erdos_renyi:8:p0.4|resilience_greedy|full": ("617beefbd09a7478", None, 413),
    "erdos_renyi:8:p0.4|resilience_greedy|one": ("184358b84f8ed5fb", 0.06311014760697341, 1),
    "erdos_renyi:8:p0.4|healthy_waste|full": ("16dd37ba38fa1c3e", None, 210),
    "erdos_renyi:8:p0.4|healthy_waste|one": ("9bbb4cfb4d247bed", None, 215),
    "complete:5|none|full": ("d8ead7c753af782d", None, 0),
    "complete:5|none|one": ("6055b15e094e2882", None, 4),
    "complete:5|random_infected|full": ("38e830d2207cab75", 18.39183861003538, 75),
    "complete:5|random_infected|one": ("e69b537aaa3f8125", 18.285009876688058, 75),
    "complete:5|max_degree_infected|full": ("5a30a44d6806b2f0", 18.39183861003538, 75),
    "complete:5|max_degree_infected|one": ("295fb2e2c0754ae6", 18.285009876688058, 75),
    "complete:5|degree_proportional|full": ("d819f00843d6874d", 18.39183861003538, 75),
    "complete:5|degree_proportional|one": ("10cf11b6155dd383", 18.285009876688058, 75),
    "complete:5|max_cut_drop|full": ("5a30a44d6806b2f0", 18.39183861003538, 75),
    "complete:5|max_cut_drop|one": ("295fb2e2c0754ae6", 18.285009876688058, 75),
    "complete:5|resilience_greedy|full": ("5a30a44d6806b2f0", 18.39183861003538, 75),
    "complete:5|resilience_greedy|one": ("295fb2e2c0754ae6", 18.285009876688058, 75),
    "complete:5|healthy_waste|full": ("336462050a85a3ac", None, 212),
    "complete:5|healthy_waste|one": ("23853fad42b3c6c7", None, 214),
}
FROZEN_ESTIMATES = {
    ("path:6", "healthy_waste"): "path:6,healthy_waste,2.0,12,21.566041224053453,4.394741043136168,0",
    ("cycle:8", "max_cut_drop"): "cycle:8,max_cut_drop,2.0,24,17.624467391704197,3.1688734826821108,0",
    ("star:6", "degree_proportional"): "star:6,degree_proportional,2.0,24,11.205703308540592,1.584402602345984,0",
    ("grid:3x3", "resilience_greedy"): "grid:3x3,resilience_greedy,2.0,24,46.439243969079214,4.851235498263164,5",
    ("erdos_renyi:8:p0.4", "max_degree_infected"): "erdos_renyi:8:p0.4,max_degree_infected,2.0,24,74.21746729629167,5.031282447891049,21",
    ("complete:5", "random_infected"): "complete:5,random_infected,2.0,24,31.85273533150648,4.112513165519085,3",
}


def test_seeded_outputs_frozen():
    got = {}
    for key, tr in frozen_traces():
        validate_trace(tr)
        got[key] = trace_pin(tr)
    assert got == FROZEN_TRACES
    graphs = frozen_graphs()
    for label, name, reps in FROZEN_ESTIMATE_CELLS:
        g = graphs[label]
        for workers in (None, 2):
            est = estimate_extinction(
                g, g.full_mask, frozen_policy(name, g), FROZEN_R, reps, FROZEN_SEED, workers=workers, **FROZEN_CAPS
            )
            assert est.csv_row() == FROZEN_ESTIMATES[(label, name)], (label, name, workers)


class ClockPolicy(CuringPolicy):
    """Not Markov: the cured vertex depends on the time and the event count."""

    name = "clock"

    def prepare(self, graph, budget, context=None):
        super().prepare(graph, budget, context)
        self.calls = []

    def decide(self, t, infected, graph, context=None, history=None):
        self.calls.append((t, len(history)))
        vs = list(infected)
        return {vs[(len(history) + int(t * 10)) % len(vs)]: self.budget}


class TestRowCache:
    def test_non_markov_decide_asked_once_per_event(self):
        pol = ClockPolicy()
        for seed in (1, 2, 3):
            tr = simulate(K3, K3.full_mask, pol, 1.5, seed)
            validate_trace(tr)
            assert tr.tau is not None
            assert len(pol.calls) == tr.n_events
            assert [k for _, k in pol.calls] == list(range(tr.n_events))
            assert [t for t, _ in pol.calls] == [0.0] + [t for t, _, _ in tr.events[:-1]]

    def test_scan_path_reproduces_frozen_outputs(self, monkeypatch):
        # with no graph small enough for rows, every run takes the incremental scan
        monkeypatch.setattr(simulation, "ROW_BITS", 0)
        test_seeded_outputs_frozen()

    def test_paths_agree_above_row_bits(self, monkeypatch):
        g = generate("random_regular", 18, d=3, seed=2)
        assert g.n > simulation.ROW_BITS
        table = resilience_table(g, max_n=g.n)

        def outputs():
            out = []
            for name in FROZEN_POLICIES:
                pol = HealthyWastePolicy() if name == "healthy_waste" else builtin_policy(name, seed=5, table=table)
                for i0 in (g.full_mask, 0b1):
                    tr = simulate(g, i0, pol, 6.0, 11, max_events=2000)
                    out.append((name, tr.serialize(), tr.tau, tr.n_events))
            return out

        scanned = outputs()
        monkeypatch.setattr(simulation, "ROW_BITS", g.n)
        assert outputs() == scanned
        assert sum(n_events for *_, n_events in scanned) > 10_000


class DecideOverride(simulation.DegreeProportional):
    """A subclass of a Markov built-in whose decide reads the event count."""

    def decide(self, t, infected, graph, context=None, history=None):
        self.calls = getattr(self, "calls", 0) + 1
        vs = list(infected)
        return {vs[len(history) % len(vs)]: self.budget}


class OneNodeOverride(simulation.MaxDegreeInfected):
    def decide(self, t, infected, graph, context=None, history=None):
        self.calls = getattr(self, "calls", 0) + 1
        return super().decide(t, infected, graph, context, history)


class HealthyChoice(simulation.MaxDegreeInfected):
    """Names vertex 0 whether or not it is infected."""

    def choose(self, mask):
        return 0


class TestPolicyContract:
    @pytest.mark.parametrize("row_bits", [0, 15])
    def test_overriding_decide_drops_markov(self, monkeypatch, row_bits):
        monkeypatch.setattr(simulation, "ROW_BITS", row_bits)
        assert not DecideOverride.markov and not OneNodeOverride.markov
        assert simulation.MaxDegreeInfected.markov and HealthyChoice.markov
        for pol in (DecideOverride(), OneNodeOverride()):
            tr = simulate(K3, K3.full_mask, pol, 1.5, 4)
            validate_trace(tr)
            assert tr.tau is not None
            assert pol.calls == tr.n_events

    def test_one_node_attribute_rejected(self):
        with pytest.raises(TypeError, match="one_node"):
            type("OldStyle", (CuringPolicy,), {"one_node": True, "pick": lambda self, t, mask, n: 0})

    @pytest.mark.parametrize("row_bits", [0, 15])
    def test_choice_is_checked(self, monkeypatch, row_bits):
        monkeypatch.setattr(simulation, "ROW_BITS", row_bits)
        g = generate("path", 4)
        # a budget on a healthy vertex cures nothing: only vertex 0 is ever cured
        tr = simulate(g, 0b0110, HealthyChoice(), 2.0, 3, max_events=200)
        validate_trace(tr)
        assert tr.n_events == 200
        assert {v for _, v, kind in tr.events if kind == "cure"} == {0}

        class OffGraph(simulation.MaxDegreeInfected):
            def choose(self, mask):
                return 7

        with pytest.raises(PolicyFault, match="nonexistent vertex 7"):
            simulate(g, 0b0110, OffGraph(), 2.0, 3)
