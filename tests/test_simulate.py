import dataclasses
import hashlib
import itertools
import os
import pickle
import select
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from epigraph import (
    CuringPolicy,
    PolicyFault,
    builtin_policy,
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


@pytest.fixture
def fresh_pool():
    """Kept pool workers forked after the test's patches; the next test's are forked after they are undone.

    Request it after ``monkeypatch``, so it is torn down first.
    """
    simulation._shutdown_pool()
    yield
    simulation._shutdown_pool()


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

    def test_scan_path_reproduces_frozen_outputs(self, monkeypatch, fresh_pool):
        # with no graph small enough for rows, every run takes the incremental scan
        monkeypatch.setattr(simulation, "ROW_BITS", 0)
        test_seeded_outputs_frozen()
        # the pooled estimates ran on workers forked under the patch
        assert simulation._pool[2].submit(eval, "__import__('epigraph').simulation.ROW_BITS").result() == 0

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


SEED_PARTS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 1)  # 1, 1, 2, 2 and 5 uint32 words


class TestSeedStreams:
    def test_block_keys_equal_seed_sequence(self):
        prefixes = [p for k in range(4) for p in itertools.product(SEED_PARTS, repeat=k)]
        # 0, 1, 511, 512, 2^31 and 2^32 - 1; the last two blocks reach index 2^32 and beyond
        blocks = ((0, 2), (511, 2), (2**31, 2), (2**32 - 2, 2), (2**32 - 1, 2), (2**40, 2))
        for prefix in prefixes:
            for first, count in blocks:
                keys = simulation._seed_keys(prefix, first, count)
                for j in range(count):
                    want = SeedSequence(prefix + (first + j,)).generate_state(2, np.uint64)
                    assert np.array_equal(keys[j], want), (prefix, first + j)

    def test_rekeyed_generator_equals_fresh(self):
        engine = simulation._Engine(one_node(), K3, 1.0, None)
        runs = [(5, 0), (9, 3), (9, 4), (9, 700), (9, 5), (9, 2), (7,), (8,), (2**40,), (3, 2**32 - 1), (3, 2**32)]
        runs += [(4, i) for i in range(1100)] + [(4, 1000), (4, 1001)]  # consecutive: keys from blocks
        for parts in runs:
            rng = engine.stream(parts)
            fresh = Generator(Philox(SeedSequence(parts)))
            for draw in (lambda gen: gen.integers(0, 2**32, size=500, dtype=np.uint32), lambda gen: gen.random(500)):
                assert draw(rng).tolist() == draw(fresh).tolist(), parts
            # leave a pending 32-bit half and a partly read buffer for the next re-key
            rng.integers(0, 2**32, dtype=np.uint32)
            rng.random(2)
            state = rng.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4


class CountingPolicy(CuringPolicy):
    """Not Markov: checks that each run is prepared and starts its event count at 0."""

    name = "counting"

    def prepare(self, graph, budget, context=None):
        super().prepare(graph, budget, context)
        self.runs = getattr(self, "runs", 0) + 1
        self.decides = 0

    def decide(self, t, infected, graph, context=None, history=None):
        assert len(history) == self.decides, "history must count this run's events from 0"
        self.decides += 1
        vs = list(infected)
        return {vs[self.decides % len(vs)]: self.budget}


class TestEngineReuse:
    def test_reused_policy_matches_fresh_policies(self):
        er, c16 = generate("erdos_renyi", 8, p=0.4, seed=1), generate("cycle", 16)
        ctx = {g.label: resilience_table(g) for g in (K3, er, c16)}
        t8 = ctx[er.label]
        other_er = dataclasses.replace(t8, gamma=t8.gamma.max() - t8.gamma)  # steers resilience_greedy elsewhere
        # (graph, r, context, seed, replications, workers); replications None is one simulate call
        steps = [
            (K3, 1.0, ctx[K3.label], (1, 0), None, None),
            (K3, 1.0, ctx[K3.label], (1, 1), None, None),
            (er, 2.0, ctx[er.label], (1, 2), None, None),
            (er, 2.0, other_er, (1, 3), None, None),
            (K3, 1.0, ctx[K3.label], 4, 30, None),
            (K3, 1.5, ctx[K3.label], (1, 4), None, None),
            (er, 2.0, ctx[er.label], 5, 20, 2),
            (c16, 4.0, ctx[c16.label], 9, None, None),
            (K3, 1.0, ctx[K3.label], (1, 2), None, None),
            (c16, 4.0, ctx[c16.label], 6, 6, None),
            (er, 2.0, other_er, 7, 25, 2),
            (er, 2.0, ctx[er.label], (1, 3), None, None),
        ]

        def run(pol, g, r, context, seed, reps, workers):
            if reps is None:
                tr = simulate(g, g.full_mask, pol, r, seed, context=context, max_events=2000)
                validate_trace(tr)
                return tr.serialize(), tr.tau
            est = estimate_extinction(g, g.full_mask, pol, r, reps, seed, workers=workers, context=context, max_events=2000)
            return est.taus, est.n_events

        for name in ("max_degree_infected", "degree_proportional", "random_infected", "resilience_greedy", "counting"):
            make = CountingPolicy if name == "counting" else lambda: builtin_policy(name, seed=3)
            reused = make()
            for step in steps:
                runs = getattr(reused, "runs", 0)
                assert run(reused, *step) == run(make(), *step), (name, step)
                g, r, context, seed, reps, workers = step
                if name == "counting" and not workers:  # pooled runs are prepared in the workers
                    assert reused.runs - runs == (reps or 1)
            assert reused._engine is not None
            assert pickle.loads(pickle.dumps(reused))._engine is None  # a copy builds its own


# ---------------------------------------------------------------------------
# The outcome kernel and the kept process pool
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")
KERNEL_POLICIES = ("none", "random_infected", "max_degree_infected", "degree_proportional",
                   "max_cut_drop", "resilience_greedy", "counting")


def kernel_policy(name, table):
    return CountingPolicy() if name == "counting" else builtin_policy(name, seed=5, table=table)


class TestReplicateKernel:
    @pytest.mark.parametrize("name", KERNEL_POLICIES)
    def test_replicate_equals_simulate(self, name):
        graphs = (K3, generate("erdos_renyi", 8, p=0.4, seed=1), generate("grid", 12), generate("cycle", 16))
        assert graphs[-1].n > simulation.ROW_BITS  # the scan path
        # a block from 0 under an event cap, one that crosses the 512-key boundary under a time cap
        blocks = ((range(0, 12), {"max_time": 1e6, "max_events": 12}), (range(505, 520), {"max_time": 1.5, "max_events": 10**8}))
        reasons = set()
        for g in graphs:
            table = resilience_table(g)
            for i0 in (g.full_mask, 0b101, 0):
                for block, caps in blocks:
                    job = (g, i0, kernel_policy(name, table), 3.0, 17, table, caps["max_time"], caps["max_events"])
                    got = simulation._replicate(block, job)
                    pol = kernel_policy(name, table)
                    want = [
                        (tr.tau, tr.censor_reason, tr.n_events)
                        for tr in (simulate(g, i0, pol, 3.0, (17, i), record_events=False, context=table, **caps) for i in block)
                    ]
                    assert got == want, (g.label, i0, block)
                    reasons.update(reason for _, reason, _ in got)
        assert reasons == {None, "max_time", "max_events"}

    def test_replicate_checks_budget_and_seed(self):
        with pytest.raises(ValueError, match="budget"):
            simulation._replicate(range(2), (K3, K3.full_mask, one_node(), -1.0, 1, None, 1e6, 10))
        with pytest.raises(ValueError, match="non-negative"):
            simulation._replicate(range(2), (K3, K3.full_mask, one_node(), 1.0, -1, None, 1e6, 10))

    def test_random_infected_seed_change_rebuilds_engine(self):
        g = generate("cycle", 6)
        pol = builtin_policy("random_infected", seed=5)
        simulate(g, g.full_mask, pol, 1.5, 42, max_time=300.0)
        pol.seed = 6
        again = simulate(g, g.full_mask, pol, 1.5, 42, max_time=300.0)
        fresh = simulate(g, g.full_mask, builtin_policy("random_infected", seed=6), 1.5, 42, max_time=300.0)
        assert again.serialize() == fresh.serialize()


def run_script(body: str) -> subprocess.Popen:
    """Start ``python -c`` on POOL_PRELUDE and ``body``, with this checkout's package; stdout and stderr piped."""
    code = textwrap.dedent(POOL_PRELUDE) + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie (exited, not yet reaped) counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def wait_gone(pids, seconds: float) -> set:
    """The pids still alive after waiting up to ``seconds`` for them to end."""
    deadline = time.monotonic() + seconds
    while True:
        left = {p for p in pids if alive(p)}
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


POOL_PRELUDE = """
    import multiprocessing, os, signal, sys, time
    from epigraph import builtin_policy, estimate_extinction, generate
    g = generate("complete", 4)

    def outcome(workers, seed=3, policy=None):
        est = estimate_extinction(g, g.full_mask, policy or builtin_policy("random_infected", seed=2), 3.0, 60, seed, workers=workers)
        return est.taus, est.n_events, est.censor_reasons

    def workers_alive():
        return sorted(p.pid for p in multiprocessing.active_children())
"""


class TestKeptPool:
    def test_new_jobs_on_the_kept_pool_equal_serial(self):
        er = generate("erdos_renyi", 8, p=0.4, seed=1)
        table = resilience_table(er)
        pol = builtin_policy("resilience_greedy", table=table)
        # back to back on one pool: each call's job (graph, policy, seed, caps) differs from the last
        cells = (
            (K3, one_node(), 1.0, 30, 3, {}),
            (K3, one_node(), 1.0, 30, 4, {}),
            (er, pol, 2.0, 25, 4, {"max_events": 40}),
            (er, pol, 2.0, 25, 4, {"max_events": 400}),
            (K3, builtin_policy("random_infected", seed=1), 1.0, 30, 4, {}),
        )
        for g, policy, r, reps, seed, caps in cells:
            serial, pooled = (
                estimate_extinction(g, g.full_mask, policy, r, reps, seed, workers=w, context=table, **caps)
                for w in (None, 2)
            )
            assert (serial.taus, serial.n_events, serial.censor_reasons) == (pooled.taus, pooled.n_events, pooled.censor_reasons)

    def test_large_job_runs_on_a_pool_of_its_own(self, monkeypatch):
        er = generate("erdos_renyi", 8, p=0.4, seed=1)
        table = resilience_table(er)
        pol = builtin_policy("resilience_greedy", table=table)
        serial = estimate_extinction(er, er.full_mask, pol, 2.0, 25, 4, context=table)
        estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 4, 1, workers=2)
        assert simulation._pool is not None
        monkeypatch.setattr(simulation, "_FORK_BYTES", 0)  # every job counts as too big to send per block
        pooled = estimate_extinction(er, er.full_mask, pol, 2.0, 25, 4, workers=2, context=table)
        assert (serial.taus, serial.n_events, serial.censor_reasons) == (pooled.taus, pooled.n_events, pooled.censor_reasons)
        assert simulation._pool is None  # the kept pool was shut down first

    def test_idle_kept_workers_drop_their_job(self):
        estimate_extinction(K3, K3.full_mask, one_node(), 1.0, 40, 2, workers=2)
        pool, probe = simulation._pool[2], "__import__('epigraph').simulation._worker_job[0]"
        deadline = time.monotonic() + 10
        while {pool.submit(eval, probe).result() for _ in range(8)} != {None}:
            assert time.monotonic() < deadline, "a kept worker still holds its job 10 s after the call"
            time.sleep(0.2)

    def test_job_that_does_not_pickle_raises(self):
        pol = one_node()
        pol.hook = lambda: None
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            estimate_extinction(K3, K3.full_mask, pol, 1.0, 4, 1, workers=2)

    def test_import_loads_no_pool_module(self):
        # only a pooled estimate_extinction imports the pool machinery; numpy itself
        # already loads pickle and threading, so those are not checked
        code = "import sys, epigraph, epigraph.verify, epigraph.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_resized_pool_and_clean_exit(self):
        proc = run_script("""
            serial = outcome(None)
            assert outcome(2) == serial
            first = workers_alive()
            assert outcome(3) == serial
            second = workers_alive()
            assert len(first) == 2 and len(second) == 3 and not set(first) & set(second), (first, second)
            print(" ".join(map(str, second)))
        """)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == "", err
        assert not wait_gone([int(p) for p in out.split()], 5.0)

    def test_parent_kill_ends_workers(self):
        proc = run_script("""
            outcome(2)
            workers = workers_alive()
            sleeper = os.fork()
            if sleeper == 0:  # holds the write ends of the workers' parent sentinels, as any later fork would
                time.sleep(60)
                os._exit(0)
            print(*workers, sleeper, flush=True)
            time.sleep(60)
        """)
        pids = []
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no worker pids within 30 s"
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 3
            proc.kill()
            proc.wait(timeout=10)
            assert not wait_gone(pids[:2], 5.0)
            assert alive(pids[2])
        finally:  # processes left running would hold the pipes open, so they go first
            for pid in pids:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.kill()
            proc.communicate(timeout=10)

    def test_killed_worker_and_late_class_get_a_new_pool(self):
        proc = run_script("""
            serial = outcome(None)
            assert outcome(2) == serial
            victims = workers_alive()
            os.kill(victims[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while set(victims) & set(workers_alive()) and time.monotonic() < deadline:
                time.sleep(0.05)  # the pool notices the death and ends its other worker
            assert outcome(2) == serial
            assert not set(victims) & set(workers_alive())

            from epigraph.simulation import MaxDegreeInfected

            class Late(MaxDegreeInfected):  # defined after the workers were forked
                pass

            assert outcome(2, policy=Late()) == outcome(None, policy=Late())
            print("ok")
        """)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, "ok\n", "")

    def test_main_class_redefined_between_pooled_calls(self):
        proc = run_script("""
            from epigraph.simulation import MaxDegreeInfected
            g = generate("erdos_renyi", 8, p=0.4, seed=1)

            class Mine(MaxDegreeInfected):
                def choose(self, mask):
                    return (mask & -mask).bit_length() - 1  # the lowest infected id

            first = outcome(None, policy=Mine())
            assert outcome(2, policy=Mine()) == first
            assert outcome(3) == outcome(None)  # a kept pool forked while the first Mine is defined

            class Mine(MaxDegreeInfected):  # the same name, another choice
                pass

            second = outcome(None, policy=Mine())
            assert second != first
            assert outcome(3, policy=Mine()) == second
            print("ok")
        """)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, "ok\n", "")
