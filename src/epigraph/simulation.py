"""Event-driven simulation of the budget-cured SIS contact process.

Infection rate is 1 per infected neighbor (time is rescaled so the infection
rate constant is 1); each infected node is cured at the rate a policy assigns
it, subject to the instantaneous budget sum <= r. Between events all rates
are constant, so exact Gillespie sampling applies: draw an exponential
holding time at the total rate, then pick the event proportionally.

On graphs with n <= ``ROW_BITS`` each event reads the *row* of the current
infected set (see ``_Rows``): its cut, the infection weights found by
bisection, and the cure items. Rows are pure functions of the set, built on
first visit and kept for one (policy, graph, r, context); all 2^n fit. A
``markov`` policy's allocation is cached in the row, so it is asked for and
budget-checked once per infected set; other policies are asked per event.
On larger graphs infected sets rarely repeat, so no rows are kept: the cut
and each vertex's infected-neighbor count are updated per event, the
infection is found by a scan in the same vertex order, and every policy is
asked per event. Both paths give the same bytes.

Reproducibility: the event stream is driven by a counter-based Philox
generator keyed by SeedSequence; replication i of a run with master seed s
uses SeedSequence((s, i)). Identical inputs and seed give byte-identical
traces.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .crusade import ResilienceTable
from .graph import Graph, NodeSet, _mask_from, cut, cut_after_toggle

DEFAULT_MAX_TIME = 1e6
DEFAULT_MAX_EVENTS = 10**8
ROW_BITS = 15  # graphs with n <= ROW_BITS keep a row per infected set; see _Rows

TRACE_CSV_HEADER = "time,kind,vertex"
ESTIMATE_CSV_HEADER = "graph,policy,r,reps,mean_tau,se,censored"


class PolicyFault(RuntimeError):
    """A policy broke its contract (budget violation, bad vertex, negative rate)."""


def _seed_entropy(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        parts = tuple(int(s) for s in seed)
    else:
        parts = (int(seed),)
    if any(s < 0 for s in parts):
        raise ValueError("seeds must be non-negative integers")
    return parts


def _mix(a: int, b: int, c: int) -> int:
    """splitmix64-style integer hash; stable across runs and platforms."""
    x = (a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9 + c + 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class CuringPolicy:
    """Allocates curing rates to vertices.

    Subclasses implement :meth:`decide`: {vertex: rate}, rates >= 0 summing
    to at most the budget (rates on healthy vertices cure nothing). The
    engine checks each allocation (vertex, sign, budget) and raises
    :class:`PolicyFault` on a break. ``decide`` must be deterministic given
    its arguments and the policy's own seed.

    ``markov = True`` promises the allocation depends on the infected set
    alone (given :meth:`prepare`'s graph, budget and context): ``decide`` is
    then called with ``t`` and ``history`` None, and on graphs with at most
    ``ROW_BITS`` vertices only once per distinct infected set, its checked
    allocation cached with the set's row, so the budget check runs once per
    distinct allocation. Otherwise (the default) it is called at every event
    with the time and a ``history`` whose ``len()`` counts the events so far.
    A subclass that overrides ``decide`` is not Markov unless its own class
    body sets ``markov = True`` again.
    """

    name = "abstract"
    markov = False
    _rows = None  # the engine's rows for the last (graph, r, context) it ran on

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "one_node" in vars(cls):
            raise TypeError(f"{cls.__name__}: one_node and pick() are no longer read; implement decide()")
        if "decide" in vars(cls) and "markov" not in vars(cls):
            cls.markov = False

    def prepare(self, graph: Graph, budget: float, context: Optional[ResilienceTable] = None) -> None:
        self.graph = graph
        self.budget = float(budget)
        self.context = context

    def decide(self, t, infected: NodeSet, graph: Graph, context=None, history=None) -> dict[int, float]:
        raise NotImplementedError


class _OneNodePolicy(CuringPolicy):
    """Full budget on the infected vertex that :meth:`choose` names."""

    markov = True

    def decide(self, t, infected, graph, context=None, history=None):
        if not hasattr(self, "budget"):
            raise PolicyFault(f"policy {self.name} used before prepare()")
        return {self.choose(int(infected)): self.budget} if infected else {}

    def choose(self, mask: int) -> int:
        """A vertex of the nonempty infected set ``mask``; a pure function of it."""
        raise NotImplementedError


class NonePolicy(CuringPolicy):
    """Allocates nothing; the epidemic runs uncontrolled."""

    name = "none"
    markov = True

    def decide(self, t, infected, graph, context=None, history=None):
        return {}


class MaxDegreeInfected(_OneNodePolicy):
    """Full budget on the highest-degree infected vertex, lowest id on ties."""

    name = "max_degree_infected"

    def prepare(self, graph, budget, context=None):
        super().prepare(graph, budget, context)
        if getattr(self, "_order_of", None) is not graph:  # sorted once per graph, not per run
            self._order = sorted(range(graph.n), key=lambda v: (-graph.deg[v], v))
            self._order_of = graph

    def choose(self, mask):
        for v in self._order:
            if (mask >> v) & 1:
                return v


class RandomInfected(CuringPolicy):
    """Full budget on an infected vertex chosen by seeded hashing.

    The choice is a pure function of (seed, event index, infected set), so a
    trace is reproducible and replications with distinct seeds decouple. It
    is not Markov: the event index changes the choice.
    """

    name = "random_infected"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def _pick(self, mask: int, n_events: int, infected: Optional[tuple] = None) -> int:
        """The chosen vertex; ``infected`` lists mask's vertices ascending, if at hand."""
        i = _mix(self.seed, n_events, mask) % mask.bit_count()
        if infected is not None:
            return infected[i]
        m = mask
        for _ in range(i):
            m ^= m & -m
        return (m & -m).bit_length() - 1

    def decide(self, t, infected, graph, context=None, history=None):
        n_events = len(history) if history is not None else 0
        return {self._pick(int(infected), n_events): self.budget} if infected else {}


class DegreeProportional(CuringPolicy):
    """Budget split over infected vertices proportionally to their degrees."""

    name = "degree_proportional"
    markov = True

    def decide(self, t, infected, graph, context=None, history=None):
        mask = int(infected)
        vs = [v for v in range(graph.n) if (mask >> v) & 1]
        total = sum(graph.deg[v] for v in vs)
        if total == 0:
            return {}
        budget = getattr(self, "budget", 0.0)
        return {v: budget * graph.deg[v] / total for v in vs}


class MaxCutDrop(_OneNodePolicy):
    """Full budget on the infected vertex whose cure lowers the cut most."""

    name = "max_cut_drop"

    def choose(self, mask):
        g = self.graph
        best = None
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            after = cut_after_toggle(g, mask, 0, v)  # offset-free: compare deltas only
            if best is None or after < best:
                best, choice = after, v
            m ^= low
        return choice


class ResilienceGreedy(_OneNodePolicy):
    """Full budget on the vertex whose removal minimizes the residual resilience.

    Follows an optimal crusade one removal at a time; needs the full gamma
    table (its own or a shared context one).
    """

    name = "resilience_greedy"

    def __init__(self, table: Optional[ResilienceTable] = None):
        self.table = table

    def prepare(self, graph, budget, context=None):
        super().prepare(graph, budget, context)
        table = self.table or context
        if table is None or table.gamma is None:
            raise PolicyFault("resilience_greedy needs a full resilience table")
        if table.graph != graph:
            raise PolicyFault("resilience table was built for a different graph")
        self._gamma = table.gamma

    def choose(self, mask):
        gamma = self._gamma
        best = None
        m = mask
        while m:
            low = m & -m
            val = int(gamma[mask ^ low])
            if best is None or val < best:
                best, choice = val, low.bit_length() - 1
            m ^= low
        return choice


BUILTIN_POLICIES = {
    "none": NonePolicy,
    "random_infected": RandomInfected,
    "max_degree_infected": MaxDegreeInfected,
    "degree_proportional": DegreeProportional,
    "max_cut_drop": MaxCutDrop,
    "resilience_greedy": ResilienceGreedy,
}


def builtin_policy(kind: str, *, seed: Optional[int] = None, table: Optional[ResilienceTable] = None) -> CuringPolicy:
    if kind not in BUILTIN_POLICIES:
        raise ValueError(f"unknown policy {kind!r}; expected one of {sorted(BUILTIN_POLICIES)}")
    if kind == "random_infected":
        return RandomInfected(seed=seed or 0)
    if kind == "resilience_greedy":
        return ResilienceGreedy(table=table)
    return BUILTIN_POLICIES[kind]()


# ---------------------------------------------------------------------------
# Traces and the engine
# ---------------------------------------------------------------------------

@dataclass
class EpidemicTrace:
    """One simulation run: the event log plus extinction/censoring outcome."""

    graph: Graph
    i0: NodeSet
    policy: str
    r: float
    seed: tuple[int, ...]
    events: tuple[tuple[float, int, str], ...]
    tau: Optional[float]
    censored: bool
    censor_reason: Optional[str]
    t_end: float
    n_events: int
    final_infected: NodeSet
    tau_star: Optional[float] = None
    band: Optional["BandReport"] = None

    def serialize(self) -> str:
        rows = [TRACE_CSV_HEADER]
        rows.extend(f"{t!r},{kind},{v}" for t, v, kind in self.events)
        return "\n".join(rows) + "\n"


class HistoryView:
    """Read-only window onto the running event log, handed to ``decide``."""

    __slots__ = ("_events", "_n")

    def __init__(self, events: list):
        self._events, self._n = events, 0  # the engine sets _n before each decide

    def __len__(self) -> int:
        return self._n

    @property
    def events(self) -> tuple:
        return tuple(self._events)


def _allocator(policy: CuringPolicy, g: Graph, budget: float, context, history: HistoryView):
    """The policy's allocation as ``alloc(mask, t, n_events, infected) -> (items, sum)``.

    Items are the (vertex, rate) pairs with a positive rate on an infected
    vertex, ascending, after the vertex, sign and budget checks. A Markov
    policy's ``decide`` gets ``t`` and ``history`` None. The one-vertex
    built-ins are asked through ``_pick``/``choose``, with no dict, unless a
    subclass overrides ``decide``.
    """
    n = g.n
    limit = budget + 1e-9 * max(1.0, budget)

    def checked(alloc: dict, mask: int) -> tuple:
        total_alloc = 0.0
        for v, rate in alloc.items():
            if not 0 <= v < n:
                raise PolicyFault(f"allocation on nonexistent vertex {v}")
            if rate < 0:
                raise PolicyFault(f"negative curing rate {rate} on vertex {v}")
            total_alloc += rate
        if total_alloc > limit:
            raise PolicyFault(f"allocation sum {total_alloc} exceeds budget {budget}")
        # rates on healthy vertices are legal but produce no event
        items = tuple(sorted((v, rate) for v, rate in alloc.items() if rate > 0.0 and (mask >> v) & 1))
        return items, sum(rate for _, rate in items)

    kind, decide = type(policy).decide, policy.decide
    if kind is RandomInfected.decide or kind is _OneNodePolicy.decide:
        pick = policy._pick if kind is RandomInfected.decide else None
        choose = None if pick else policy.choose
        whole = [(((v, budget),), budget) for v in range(n)]  # the allocation, per vertex

        def alloc(mask, t, n_events, infected):
            v = pick(mask, n_events, infected) if pick else choose(mask)
            return whole[v] if v >= 0 and (mask >> v) & 1 else checked({v: budget}, mask)
    elif policy.markov:
        def alloc(mask, t, n_events, infected):
            return checked(decide(None, NodeSet(mask, n), g, context, None), mask)
    else:
        def alloc(mask, t, n_events, infected):
            history._n = n_events
            return checked(decide(t, NodeSet(mask, n), g, context, history), mask)
    return alloc


class _Rows(dict):
    """Rows of one policy's runs on (graph, r, context), keyed by infected mask.

    A row is (cut, cum, verts, infected, items, cure): the cut as a float;
    the cumulative infection weights (floats) of the healthy vertices with an
    infected neighbor, and those vertices, ascending; then, for a Markov
    policy, None and its allocation from ``alloc``, else the infected
    vertices (ascending), None and 0.0. Rows are kept only on graphs with
    n <= ``ROW_BITS``: all 2^n rows then fit, so the dict is never cleared
    and a cache does at most 2^n row builds over its life.
    """

    def __init__(self, g: Graph, r: float, context):
        super().__init__()
        self.g, self.r, self.context = g, r, context

    def build(self, mask: int, markov_alloc) -> tuple:
        g = self.g
        cum, verts = [], []
        acc = 0
        for v in range(g.n):
            c = (g.adj[v] & mask).bit_count()
            if c and not (mask >> v) & 1:
                acc += c
                cum.append(float(acc))
                verts.append(v)
        if markov_alloc:
            infected, (items, cure) = None, markov_alloc(mask, None, None, None)
        else:
            infected, items, cure = tuple(NodeSet(mask, g.n)), None, 0.0
        row = self[mask] = (float(acc), tuple(cum), tuple(verts), infected, items, cure)
        return row


def simulate(
    g: Graph,
    i0,
    policy: CuringPolicy,
    r: float,
    seed,
    *,
    max_time: float = DEFAULT_MAX_TIME,
    max_events: int = DEFAULT_MAX_EVENTS,
    record_events: bool = True,
    context: Optional[ResilienceTable] = None,
) -> EpidemicTrace:
    """Run one exact Gillespie trajectory until extinction or a cap.

    Hitting a cap censors the run (flagged on the trace, not raised). A
    policy that violates its budget raises :class:`PolicyFault`.
    """
    if r < 0:
        raise ValueError("curing budget r must be >= 0")
    seed_parts = _seed_entropy(seed)
    mask = _mask_from(i0, g.n)
    policy.prepare(g, r, context)
    n = g.n
    if mask == 0:
        return EpidemicTrace(
            graph=g, i0=NodeSet(0, n), policy=policy.name, r=r, seed=seed_parts,
            events=(), tau=0.0, censored=False, censor_reason=None,
            t_end=0.0, n_events=0, final_infected=NodeSet(0, n),
        )

    rng = Generator(Philox(SeedSequence(seed_parts)))
    events: list[tuple[float, int, str]] = []
    history = HistoryView(events)
    alloc = _allocator(policy, g, float(r), context, history)
    rows = None
    if n <= ROW_BITS:
        rows = policy._rows
        if rows is None or not (rows.g is g and rows.context is context and rows.r == r):
            rows = policy._rows = _Rows(g, r, context)
        get = rows.get
        markov_alloc = alloc if policy.markov else None
    else:  # the cut and each vertex's infected-neighbor count, kept per event
        c = float(cut(g, mask))
        cnt = [(a & mask).bit_count() for a in g.adj]
        nbrs = [tuple(NodeSet(a, n)) for a in g.adj]
        deg = g.deg
        full = (1 << n) - 1
    log1p = math.log1p
    # uniforms come in growing chunks (short runs stay cheap, long runs amortize);
    # Philox yields them in sequence, so the chunk sizes never change a value
    blen = 64
    buf = rng.random(blen).tolist()
    bi = 0

    t = 0.0
    tau, censored, reason = None, False, None
    nev = 0
    while True:
        if rows is not None:
            row = get(mask)
            if row is None:
                row = rows.build(mask, markov_alloc)
            c, cum, verts, infected, items, cure = row
            if items is None:
                items, cure = alloc(mask, t, nev, infected)
        else:
            items, cure = alloc(mask, t, nev, None)
        total = c + cure
        if total <= 0.0:
            censored, reason = True, "max_time"
            t = max_time
            break

        if bi >= blen:
            blen = min(4 * blen, 16384)
            buf, bi = rng.random(blen).tolist(), 0
        u = buf[bi]
        bi += 1
        while u == 0.0:  # keep holding times strictly positive
            if bi >= blen:
                buf, bi = rng.random(blen).tolist(), 0
            u = buf[bi]
            bi += 1
        t_next = t - log1p(-u) / total
        if t_next > max_time:
            censored, reason = True, "max_time"
            t = max_time
            break
        t = t_next

        if bi >= blen:
            blen = min(4 * blen, 16384)
            buf, bi = rng.random(blen).tolist(), 0
        x = buf[bi] * total
        bi += 1

        # --- event selection: healthy vertices ascending, then cures ascending
        if x < c:
            if rows is not None:
                chosen = verts[bisect_right(cum, x)]
            else:
                acc = 0.0
                h = full ^ mask
                while h:
                    low = h & -h
                    chosen = low.bit_length() - 1
                    acc += cnt[chosen]
                    if x < acc:
                        break
                    h ^= low
                c += deg[chosen] - 2 * cnt[chosen]
                for w in nbrs[chosen]:
                    cnt[w] += 1
            mask |= 1 << chosen
            kind = "infect"
        else:
            x -= c
            for chosen, rate in items:  # the last item if rounding leaves x >= 0
                x -= rate
                if x < 0.0:
                    break
            mask ^= 1 << chosen
            kind = "cure"
            if rows is None:
                c += 2 * cnt[chosen] - deg[chosen]
                for w in nbrs[chosen]:
                    cnt[w] -= 1

        nev += 1
        if record_events:
            events.append((t, chosen, kind))
        if mask == 0:
            tau = t
            break
        if nev >= max_events:
            censored, reason = True, "max_events"
            break

    return EpidemicTrace(
        graph=g, i0=g.nodeset(i0), policy=policy.name, r=r, seed=seed_parts,
        events=tuple(events), tau=tau, censored=censored, censor_reason=reason,
        t_end=t, n_events=nev, final_infected=NodeSet(mask, n),
    )


def validate_trace(trace: EpidemicTrace) -> None:
    """Replay the event log and raise AssertionError on any legality break.

    Times strictly increase; infections hit healthy vertices with at least
    one infected neighbor; cures hit infected vertices; tau matches the
    event that emptied the infected set.
    """
    g = trace.graph
    mask = int(trace.i0)
    last_t = 0.0
    for t, v, kind in trace.events:
        assert t > last_t, f"event time {t} does not increase past {last_t}"
        last_t = t
        bit = 1 << v
        if kind == "infect":
            assert not mask & bit, f"infection of already-infected vertex {v}"
            assert g.adj[v] & mask, f"infection of vertex {v} with no infected neighbor"
            mask |= bit
        elif kind == "cure":
            assert mask & bit, f"cure of healthy vertex {v}"
            mask ^= bit
        else:
            raise AssertionError(f"unknown event kind {kind!r}")
    assert mask == int(trace.final_infected), "final infected set does not match replay"
    if trace.tau is not None:
        assert mask == 0 and trace.tau == last_t, "tau must stamp the emptying event"


# ---------------------------------------------------------------------------
# Replicated estimation
# ---------------------------------------------------------------------------

@dataclass
class SimEstimate:
    graph_label: str
    policy: str
    r: float
    replications: int
    mean_tau: Optional[float]
    se: Optional[float]
    censored: int
    usable: bool
    runtime_s: float = 0.0
    taus: tuple[float, ...] = field(default_factory=tuple, repr=False)
    n_events: int = 0  # summed over all replications, censored ones included
    censor_reasons: dict[str, int] = field(default_factory=dict)  # "max_time"/"max_events" -> count

    def csv_row(self) -> str:
        mean = "" if self.mean_tau is None else repr(self.mean_tau)
        se = "" if self.se is None else repr(self.se)
        return f"{self.graph_label},{self.policy},{self.r!r},{self.replications},{mean},{se},{self.censored}"


_worker_job: Optional[tuple] = None  # a pool worker's replication inputs, set once by _init_worker


def _init_worker(job: tuple) -> None:
    global _worker_job
    _worker_job = job


def _replicate(indices, job: Optional[tuple] = None) -> list:
    """(tau, censor_reason, n_events) of each replication index, in order."""
    g, i0_mask, policy, r, seed, context, max_time, max_events = job or _worker_job
    out = []
    for i in indices:
        tr = simulate(
            g, i0_mask, policy, r, (seed, i),
            max_time=max_time, max_events=max_events, record_events=False, context=context,
        )
        out.append((tr.tau, tr.censor_reason, tr.n_events))
    return out


def estimate_extinction(
    g: Graph,
    i0,
    policy: CuringPolicy,
    r: float,
    replications: int,
    seed: int,
    *,
    max_time: float = DEFAULT_MAX_TIME,
    max_events: int = DEFAULT_MAX_EVENTS,
    workers: Optional[int] = None,
    context: Optional[ResilienceTable] = None,
) -> SimEstimate:
    """Mean extinction time over independent replications.

    Replication i runs with seed (seed, i). A pool gets the inputs once per
    worker and runs contiguous blocks of replication indices, so a worker
    keeps its rows across its blocks; results are aggregated by replication
    index, so worker scheduling cannot change the estimate. Censored runs
    are excluded from the mean but always reported, with their reasons.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    t0 = _time.perf_counter()
    job = (g, _mask_from(i0, g.n), policy, r, int(seed), context, max_time, max_events)
    if workers and workers > 1 and replications > 1:
        size = max(1, replications // (8 * workers))
        blocks = [range(a, min(a + size, replications)) for a in range(0, replications, size)]
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(job,)) as pool:
            results = [res for block in pool.map(_replicate, blocks) for res in block]
    else:
        results = _replicate(range(replications), job)
        policy._rows = None  # rows live for one call
    good = [tau for tau, reason, _ in results if reason is None]
    reasons = [reason for _, reason, _ in results]
    mean = float(np.mean(good)) if good else None
    se = float(np.std(good, ddof=1) / math.sqrt(len(good))) if len(good) >= 2 else None
    return SimEstimate(
        graph_label=g.label, policy=policy.name, r=float(r), replications=replications,
        mean_tau=mean, se=se, censored=replications - len(good), usable=bool(good),
        runtime_s=_time.perf_counter() - t0, taus=tuple(good),
        n_events=sum(nev for _, _, nev in results),
        censor_reasons={k: reasons.count(k) for k in ("max_time", "max_events")},
    )


# ---------------------------------------------------------------------------
# Exact birth-death reduction for complete graphs
# ---------------------------------------------------------------------------

def exact_extinction_complete(n: int, r) -> Fraction:
    """Exact expected extinction time on K_n from full infection.

    On a complete graph the cut depends only on the infected count
    (k(n-k)), so every budget-exhausting policy induces the same birth-death
    chain: up-rate k(n-k), down-rate r. Solved by telescoping the expected
    one-step-down times d_k = (1 + k(n-k) d_{k+1}) / r from d_n = 1/r.
    Exact rationals throughout; the values grow explosively with n.
    """
    if n < 2:
        raise ValueError("exact_extinction_complete needs n >= 2")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("curing budget r must be > 0")
    d = 1 / r
    total = d
    for k in range(n - 1, 0, -1):
        d = (1 + Fraction(k * (n - k)) * d) / r
        total += d
    return total


# ---------------------------------------------------------------------------
# Coupled-process instrumentation
# ---------------------------------------------------------------------------

@dataclass
class BandReport:
    """Occupancy of the infected-count band [floor(g0/3D), floor(2g0/3D)]."""

    band_lo: int
    band_hi: int
    tau_star: Optional[float]
    band_entered: bool
    band_dwell: float
    min_cut_in_band: Optional[int]
    top_dwell: float
    top_cure_events: int
    top_cure_rate: Optional[float]
    vacuous: bool
    drift_floor: Optional[float] = None
    drift_ok: Optional[bool] = None


def band_instrumentation(trace: EpidemicTrace, gamma0, delta: int, *, slack_e=None) -> BandReport:
    """Replay a trace and report how it moved through the coupling band.

    tau_star is the first time the infected count drops to floor(g0/(3*delta))
    or below (0 if it starts there). When ``slack_e`` is given, the report
    also checks the drift floor g0/3 - (3*E+4)*delta against the minimum cut
    seen in the band. A band with no positive level, or one the trace never
    enters, is reported vacuous, never as a failure.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    g = trace.graph
    lo = math.floor(Fraction(gamma0) / (3 * delta))
    hi = math.floor(2 * Fraction(gamma0) / (3 * delta))
    mask = int(trace.i0)
    size = mask.bit_count()
    cur_cut = cut(g, mask)

    tau_star = 0.0 if size <= lo else None
    band_entered = lo <= size <= hi
    band_dwell = 0.0
    top_dwell = 0.0
    top_cures = 0
    min_cut = cur_cut if band_entered else None
    t_prev = 0.0

    for t, v, kind in trace.events:
        span = t - t_prev
        if lo <= size <= hi:
            band_dwell += span
        if size == hi:
            top_dwell += span
            if kind == "cure":
                top_cures += 1
        t_prev = t
        cur_cut = cut_after_toggle(g, mask, cur_cut, v)
        if kind == "infect":
            mask |= 1 << v
            size += 1
        else:
            mask ^= 1 << v
            size -= 1
        if lo <= size <= hi:
            band_entered = True
            if min_cut is None or cur_cut < min_cut:
                min_cut = cur_cut
        if tau_star is None and size <= lo:
            tau_star = t
    if lo <= size <= hi:
        band_dwell += trace.t_end - t_prev
    if size == hi:
        top_dwell += trace.t_end - t_prev

    vacuous = hi < 1 or not band_entered
    report = BandReport(
        band_lo=lo, band_hi=hi, tau_star=tau_star, band_entered=band_entered,
        band_dwell=band_dwell, min_cut_in_band=min_cut,
        top_dwell=top_dwell, top_cure_events=top_cures,
        top_cure_rate=(top_cures / top_dwell) if top_dwell > 0 else None,
        vacuous=vacuous,
    )
    if slack_e is not None and not vacuous:
        floor_val = Fraction(gamma0) / 3 - (3 * Fraction(slack_e) + 4) * delta
        report.drift_floor = float(floor_val)
        report.drift_ok = min_cut is None or Fraction(min_cut) >= floor_val
    trace.tau_star = tau_star
    trace.band = report
    return report
