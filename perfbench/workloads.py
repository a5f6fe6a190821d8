"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (the
program only ever sees the generated graphs, bags and master seeds) and
defines one *pass*: a fixed list of items, one item per input graph. A run
repeats the same pass for the measured time, so every pass does identical
work and must produce an identical output fingerprint.

Why these four (see README.md for the measurements behind them):

- ``exact_large``: n=20 tables, ~16 MB working set per graph against a
  2 MB L2; the table kernels and ``optimal_crusade``'s Python loop dominate
  and the simulator is bypassed.
- ``exact_small``: the ``verify --scope all`` graph set (n <= 10). Same
  ``crusade`` functions as exact_large, but the tables fit in L1, so numpy
  per-call overhead and the pure-Python oracles dominate. The only workload
  that runs the oracles and ``verify``.
- ``mc_long``: serial ``estimate_extinction`` with 10^2-10^3 events per
  replication; the event loop and the policies' pick/decide paths dominate.
- ``mc_short``: ``estimate_extinction`` with ``workers=2`` on ~10-event
  replications; per-replication fixed cost and the process pool dominate.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from epigraph import bounds, crusade, graph, simulation, verify

POLICIES = ("max_degree_infected", "random_infected", "degree_proportional", "max_cut_drop", "resilience_greedy")

# The walk suite's Monte Carlo check is a 3-SE test over 135 cells; on seeds
# 3, 4 and 8 one cell misses, so a workload seed would turn a statistical
# false alarm into a failed operation. It always runs at verify's default.
WALK_SEED = 42
WALK_RUNS = 20_000

# |z| limit for the K_n Monte Carlo cells against the exact birth-death
# value. A run makes 2 such tests and the benchmark is run ~100 times per
# change, so a 3-SE limit would raise a false alarm in about a third of
# all changes; at 4 SE it is below 1%.
Z_LIMIT = 4.0

# mc_long: fixed graphs and per-cell replication counts. Extinction time is
# exponential in the graph's structure, and for the lowest-id tie-breaking
# policies even in its labelling (max_degree_infected on 5 relabellings of
# one 3-regular graph at r=4.5: 417 to 2815 mean events), so seeded graphs
# would make a pass's work vary several-fold between seeds. The seed draws
# the replication streams instead.
#
# A replication's event count is roughly exponential (coefficient of
# variation ~1), so a cell of R replications varies by ~1/sqrt(R) between
# seeds. Replication counts give each of the 10 cells ~0.5 s of a ~5 s pass
# (measured per-replication cost at r=5: 0.6 ms for max_cut_drop to 13 ms
# for degree_proportional on the 3-regular graph). That keeps the pass's
# work within ~2% between seeds, well inside the host's own drift; a cell
# of a dozen replications alone would vary by ~30%.
MC_LONG_R = 5.0
MC_LONG_RR_SEED = 5
MC_LONG_REPS = {
    "grid": {
        "max_degree_infected": 600,
        "random_infected": 400,
        "degree_proportional": 80,
        "max_cut_drop": 800,
        "resilience_greedy": 600,
    },
    "random_regular": {
        "max_degree_infected": 300,
        "random_infected": 200,
        "degree_proportional": 40,
        "max_cut_drop": 600,
        "resilience_greedy": 90,
    },
}


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), stream))))


def seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


@dataclass
class PassResult:
    """What one pass produced: timings, output fingerprint and checks."""

    wall_s: float = 0.0
    graph_s: list = field(default_factory=list)  # (label, seconds) per graph
    fingerprint: str = ""
    ops: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)


@dataclass
class State:
    """Inputs of one workload, made by ``setup`` from the workload seed."""

    items: list
    params: dict = field(default_factory=dict)
    context_build_s: float = 0.0
    table_bytes: int = 0
    working_set_bytes: int = 0


def _hash_tables(h, tables) -> None:
    for arr in (tables.cut, tables.g, tables.gamma):
        h.update(arr.tobytes())
    h.update(str(tables.W).encode())


def _item_failed(res: PassResult, h, g, t0: float, exc: Exception) -> None:
    res.graph_s.append((g.label, time.perf_counter() - t0))
    res.check(False, f"{g.label}: {type(exc).__name__}: {exc}")
    h.update(f"{g.label}:error".encode())


def _bag_mask(vertices) -> int:
    return sum(1 << int(v) for v in vertices)


def _warm_up(with_pool: bool) -> None:
    """One call per layer on a tiny graph, so lazy imports and first-call
    costs land in set-up, not in the first timed item."""
    g = graph.generate("cycle", 5)
    t = crusade.resilience_table(g)
    crusade.improvement_bags(g, t)
    crusade.optimal_crusade(g, 0b111, t)
    crusade.resilience(g, 0b111, t)
    crusade.oracle_resilience_table(g, cuts=t.cut)
    bounds.extinction_lower_bound(bounds.BoundInputs(gamma0=t.W, delta=g.max_degree, E=t.slack, r=1))
    verify.check_cut_properties(g, t.cut)
    verify.check_resilience_properties(g, t)
    verify.check_oracle_agreement(g, t)
    for kind in POLICIES:
        pol = simulation.builtin_policy(kind, seed=1, table=t)
        simulation.estimate_extinction(g, g.full_mask, pol, 3.0, 2, 1, context=t)
    if with_pool:
        pol = simulation.builtin_policy("max_degree_infected")
        simulation.estimate_extinction(g, g.full_mask, pol, 3.0, 4, 1, workers=2)


# ---------------------------------------------------------------------------
# exact_large
# ---------------------------------------------------------------------------

def setup_exact_large(seed: int, small: bool) -> State:
    n = 12 if small else 20
    rng = rng_for(seed, 1)
    graphs = [
        graph.generate("erdos_renyi", n, p=0.4, seed=seed_int(rng)),
        graph.generate("random_regular", n, d=4, seed=seed_int(rng)),
        graph.generate("grid", n),
    ]
    items = []
    for g in graphs:
        bags = [g.full_mask]
        bags += [_bag_mask(rng.choice(n, k, replace=False)) for k in range(max(1, n - 12), n - 7)]
        items.append((g, bags))
    _warm_up(with_pool=False)
    size = 1 << n
    # computed: cut, g, gamma and the sweep's best (int16), the mask array
    # (uint32) and its popcounts (int16) that monotone_table allocates
    return State(items=items, table_bytes=3 * 2 * size, working_set_bytes=(4 * 2 + 4 + 2) * size)


def run_exact_large(state: State, tracer) -> PassResult:
    res = PassResult()
    h = hashlib.sha256()
    t_pass = time.perf_counter()
    for g, bags in state.items:
        tracer.item = g.label
        n = g.n
        t0 = time.perf_counter()
        try:
            with tracer.span("crusade.resilience_table", subsets=1 << n):
                tables = crusade.resilience_table(g, max_n=n)
            with tracer.span("crusade.improvement_bags"):
                improving = crusade.improvement_bags(g, tables)
            with tracer.span("bounds.bound"):
                slack = bounds.slack_E(n, g.max_degree, tables.W)
                bound = bounds.extinction_lower_bound(
                    bounds.BoundInputs(gamma0=tables.W, delta=g.max_degree, E=slack, r=1)
                )
            results = []
            for bag in bags:
                k = bag.bit_count()
                with tracer.span("crusade.optimal_crusade", candidates=(k + 1) << (n - k)):
                    witness = crusade.optimal_crusade(g, bag, tables)
                with tracer.span("crusade.resilience"):
                    value = crusade.resilience(g, bag, tables)
                results.append((bag, witness, value))
        except Exception as exc:  # a program fault fails this item; the run goes on
            _item_failed(res, h, g, t0, exc)
            continue
        res.graph_s.append((g.label, time.perf_counter() - t0))

        gamma = tables.gamma
        bad = []
        if tables.W != int(gamma[g.full_mask]):
            bad.append(f"W={tables.W} != gamma(V)={int(gamma[g.full_mask])}")
        for bag, witness, value in results:
            if not witness.width == value == int(gamma[bag]):
                bad.append(f"bag {bag:#x}: crusade width {witness.width}, resilience {value}, gamma {int(gamma[bag])}")
        res.check(not bad, f"{g.label}: " + "; ".join(bad))

        h.update(g.label.encode())
        _hash_tables(h, tables)
        h.update(f"{len(improving)}|{slack}|{bound.condition_met}|{bound.bound_log10!r}".encode())
        for bag, witness, value in results:
            h.update(f"{bag}|{value}|".encode())
            h.update(witness.serialize().encode())
    res.wall_s = time.perf_counter() - t_pass
    res.fingerprint = h.hexdigest()
    return res


# ---------------------------------------------------------------------------
# exact_small
# ---------------------------------------------------------------------------

def setup_exact_small(seed: int, small: bool) -> State:
    max_n, rand_ns, rand_count = (3, (6,), 2) if small else (5, (7, 8, 9, 10), 48)
    rng = rng_for(seed, 2)
    items = []
    for g in verify.graph_set(max_n, rand_ns=rand_ns, rand_count=rand_count, seed=seed):
        size = 1 << g.n
        bags = range(1, size) if size <= 16 else [int(x) for x in rng.integers(1, size, size=8)]
        items.append((g, list(bags)))
    _warm_up(with_pool=False)
    size = 1 << max(g.n for g, _ in items)
    return State(
        items=items,
        table_bytes=3 * 2 * size,
        working_set_bytes=(4 * 2 + 4 + 2) * size,
    )


def run_exact_small(state: State, tracer) -> PassResult:
    res = PassResult()
    h = hashlib.sha256()
    checked = 0
    t_pass = time.perf_counter()
    for g, bags in state.items:
        tracer.item = g.label
        t0 = time.perf_counter()
        try:
            with tracer.span("crusade.resilience_table", subsets=1 << g.n):
                tables = crusade.resilience_table(g)
            results = []
            with tracer.span("verify.cut_properties"):
                results += verify.check_cut_properties(g, cuts=tables.cut)
            with tracer.span("verify.resilience_properties"):
                results += verify.check_resilience_properties(g, tables)
            with tracer.span("verify.certificates"):
                results.append(verify.check_crusade_certificates(g, tables, bags))
            with tracer.span("verify.single_bag_route"):
                results.append(verify.check_single_bag_route(g, tables, bags))
            # gamma against the unrestricted bottleneck oracle, on every bag
            with tracer.span("verify.oracle_agreement"):
                results += verify.check_oracle_agreement(g, tables)
        except Exception as exc:  # a program fault fails this item; the run goes on
            _item_failed(res, h, g, t0, exc)
            continue
        res.graph_s.append((g.label, time.perf_counter() - t0))
        failed = [r.line() for r in results if not r.passed]
        res.check(not failed, "; ".join(failed))
        checked += sum(r.checked for r in results)
        h.update(g.label.encode())
        _hash_tables(h, tables)
        for r in results:
            h.update(f"{r.name}|{r.passed}|{r.checked}|{r.vacuous}".encode())

    tracer.item = "walk_suite"
    with tracer.span("bounds.walk_suite"):
        walk = verify.check_walk_suite(seed=WALK_SEED, runs=WALK_RUNS)
    failed = [r.line() for r in walk if not r.passed]
    res.check(not failed, "walk suite: " + "; ".join(failed))
    checked += sum(r.checked for r in walk)
    for r in walk:
        h.update(f"{r.name}|{r.passed}|{r.checked}|{r.vacuous}".encode())
    res.wall_s = time.perf_counter() - t_pass
    res.fingerprint = h.hexdigest()
    res.counters["verify.checked"] = checked
    return res


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """One estimate_extinction call: a graph under one policy."""

    g: object
    policy: str
    r: float
    reps: int
    seed: int
    context: object = None
    exact: Optional[float] = None  # exact mean extinction time, for K_n cells


def _contexts(graphs) -> tuple[dict, float]:
    """Gamma tables for resilience_greedy, timed as simulation context build."""
    t0 = time.perf_counter()
    ctx = {g.label: crusade.resilience_table(g) for g in graphs}
    return ctx, time.perf_counter() - t0


def setup_mc_long(seed: int, small: bool) -> State:
    graphs = {
        "grid": graph.generate("grid", 12),
        "random_regular": graph.generate("random_regular", 12, d=3, seed=MC_LONG_RR_SEED),
    }
    ctx, build_s = _contexts(graphs.values())
    rng = rng_for(seed, 3)
    items = []
    for kind_of_graph, g in graphs.items():
        reps = MC_LONG_REPS[kind_of_graph]
        cells = [
            Cell(g, kind, MC_LONG_R, max(1, reps[kind] // (20 if small else 1)), seed_int(rng), ctx[g.label])
            for kind in POLICIES
        ]
        items.append((g, cells))
    _warm_up(with_pool=False)
    return State(
        items=items,
        params={"workers": None, "policy_seed": seed_int(rng)},
        context_build_s=build_s,
        table_bytes=3 * 2 * (1 << 12),
        working_set_bytes=3 * 2 * (1 << 12) * len(graphs),
    )


def setup_mc_short(seed: int, small: bool) -> State:
    scale = 20 if small else 1
    rng = rng_for(seed, 4)
    k3, k4 = graph.generate("complete", 3), graph.generate("complete", 4)
    g14 = graph.generate("random_regular", 14, d=4, seed=seed_int(rng))
    ctx, build_s = _contexts([g14])
    items = [
        (k3, [Cell(k3, "max_degree_infected", 1.0, 20_000 // scale, seed_int(rng),
                   exact=float(simulation.exact_extinction_complete(3, 1)))]),
        (k4, [Cell(k4, "random_infected", 3.0, 5_000 // scale, seed_int(rng),
                   exact=float(simulation.exact_extinction_complete(4, 3)))]),
        # r=24 is far above the typical cuts of a 4-regular 14-vertex graph
        # (at most m=28), so replications stay short (~37 events) whatever
        # graph the seed draws
        (g14, [Cell(g14, "resilience_greedy", 24.0, 1_500 // scale, seed_int(rng), ctx[g14.label])]),
    ]
    _warm_up(with_pool=True)
    return State(
        items=items,
        params={"workers": 2, "policy_seed": seed_int(rng)},
        context_build_s=build_s,
        table_bytes=3 * 2 * (1 << 14),
        working_set_bytes=3 * 2 * (1 << 14),
    )


def run_mc(state: State, tracer, *, serial: bool = False) -> PassResult:
    """One pass over the cells; ``serial`` forces workers=None (the count run)."""
    workers = None if serial else state.params["workers"]
    span = "simulation.estimate_pool" if workers else "simulation.estimate"
    res = PassResult()
    h = hashlib.sha256()
    t_pass = time.perf_counter()
    for g, cells in state.items:
        tracer.item = g.label
        t0 = time.perf_counter()
        estimates = []
        try:
            for c in cells:
                pol = simulation.builtin_policy(c.policy, seed=state.params["policy_seed"], table=c.context)
                with tracer.span(span, reps=c.reps):
                    est = simulation.estimate_extinction(
                        g, g.full_mask, pol, c.r, c.reps, c.seed, workers=workers, context=c.context
                    )
                estimates.append((c, est))
        except Exception as exc:  # a program fault fails this item; the run goes on
            _item_failed(res, h, g, t0, exc)
            continue
        res.graph_s.append((g.label, time.perf_counter() - t0))
        for c, est in estimates:
            res.check(est.censored == 0, f"{est.csv_row()}: {est.censored} censored replications")
            if c.exact is not None:
                z = (est.mean_tau - c.exact) / est.se if est.se else math.inf
                res.check(abs(z) <= Z_LIMIT, f"{est.csv_row()}: z={z:.2f} against exact {c.exact!r}")
            h.update(est.csv_row().encode())
    res.wall_s = time.perf_counter() - t_pass
    res.fingerprint = h.hexdigest()
    res.counters["reps"] = sum(c.reps for _, cells in state.items for c in cells)
    return res


WORKLOADS = {
    "exact_large": (setup_exact_large, run_exact_large),
    "exact_small": (setup_exact_small, run_exact_small),
    "mc_long": (setup_mc_long, run_mc),
    "mc_short": (setup_mc_short, run_mc),
}


def trace_targets(with_simulate: bool):
    """Module attributes the traced pass swaps for span-recording wrappers.

    ``simulate`` is wrapped only for serial runs: forked pool workers would
    record spans into their own memory, where they are lost.
    """
    def subsets(args, out):
        return {"subsets": 1 << args[0].n}

    def candidates(args, out):
        g, bag = args[0], args[1]
        k = len(g.nodeset(bag))
        return {"candidates": (k + 1) << (g.n - k)}

    targets = [
        (crusade, "cut_table", "graph.cut_table", subsets),
        (crusade, "monotone_table", "crusade.monotone_table", subsets),
        (verify, "oracle_resilience_table", "crusade.oracle_table", subsets),
        (verify, "optimal_crusade", "crusade.optimal_crusade", candidates),
        (verify, "resilience", "crusade.resilience", None),
    ]
    if with_simulate:
        def events(args, out):
            return {"policy": out.policy, "events": out.n_events, "censored": out.censored}

        targets.append((simulation, "simulate", "simulation.simulate", events))
    return targets
