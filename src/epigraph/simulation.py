"""Event-driven simulation of the budget-cured SIS contact process.

Infection rate is 1 per infected neighbor (time is rescaled so the infection
rate constant is 1); each infected node is cured at the rate a policy assigns
it, subject to the instantaneous budget sum <= r. Between events all rates
are constant, so exact Gillespie sampling applies: draw an exponential
holding time at the total rate, then pick the event proportionally.

On graphs with n <= ``ROW_BITS`` each event reads the *row* of the current
infected set (see ``_Engine``): its cut, the infection weights found by
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
traces. A run of consecutive indices takes its keys from blocks derived at
once (``_seed_keys``, numpy's SeedSequence algorithm on uint32 arrays) and
re-keys one Philox kept with the engine's set-up, so a replication in such
a run pays for neither the hashing nor a new generator; the streams are the
same. ``simulate`` wraps the event loop, ``_run``, in a trace;
``estimate_extinction`` runs ``_run`` with no trace, serially or on a
worker pool kept across calls.
"""

from __future__ import annotations

import itertools
import math
import os
import time as _time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .chain import exact_extinction_complete  # noqa: F401  perfbench calls it from here
from .crusade import ResilienceTable
from .graph import Graph, NodeSet, _mask_from, cut

DEFAULT_MAX_TIME = 1e6
DEFAULT_MAX_EVENTS = 10**8
ROW_BITS = 15  # graphs with n <= ROW_BITS keep a row per infected set; see _Engine

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


def _seed_keys(prefix: tuple[int, ...], first: int, count: int):
    """``SeedSequence(prefix + (i,)).generate_state(2, np.uint64)`` for i in [first, first + count).

    numpy's SeedSequence algorithm (hashmix the entropy words into a pool of
    four, mix every pool word into every other, hash the pool out), run on
    uint32 arrays with one column per index. The hash constants do not
    depend on the data, so the hashmix calls that feed one pool word into
    the other three run as one (3, count) step. An index of 2^32 or more
    spans two words, so a block that reaches it falls back to SeedSequence.
    """
    if first + count > 1 << 32:
        return [SeedSequence(prefix + (i,)).generate_state(2, np.uint64) for i in range(first, first + count)]
    u32 = np.uint32
    const = 0x43B0D7E5

    def hashmix(v, k, mult=0x931E8875):  # the next k hashmix calls, call j on row j of v
        nonlocal const
        c = [const]
        for _ in range(k):
            c.append(c[-1] * mult & 0xFFFFFFFF)
        const = c[-1]
        c = np.array(c, u32)[:, None]
        v = (v ^ c[:-1]) * c[1:]
        return v ^ (v >> u32(16))

    def mix(x, y):
        v = x * u32(0xCA01F9DD) - y * u32(0x4973F715)
        return v ^ (v >> u32(16))

    # each part's little-endian 32-bit words (one for 0), the index's word, zeros up to the pool size
    words = [p >> 32 * k & 0xFFFFFFFF for p in prefix for k in range(max(1, (p.bit_length() + 31) // 32))]
    entropy = np.zeros((max(4, len(words) + 1), count), u32)
    entropy[:len(words)] = np.array(words, u32)[:, None]
    entropy[len(words)] = np.arange(first, first + count, dtype=u32)
    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for w in entropy[4:]:
        pool = mix(pool, hashmix(w, 4))
    const = 0x8B51F9DD  # generate_state hashes the pool out with its own constants
    out = hashmix(pool, 4, 0x58F38DED).astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T  # two little-endian words per key


def _picker(seed: int):
    """``RandomInfected``'s choice for ``seed`` as ``pick(mask, n_events, infected=None) -> vertex``.

    The vertex is the i-th of mask's, ascending, for i a splitmix64-style
    hash of (seed, n_events, mask) modulo their count: stable across runs
    and platforms. The seed's share of the hash is summed once, here; the
    hash then runs in pick's one frame. ``infected`` lists mask's vertices
    ascending, if at hand.
    """
    base = (seed * 0x9E3779B97F4A7C15 + 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF

    def pick(mask: int, n_events: int, infected: Optional[tuple] = None) -> int:
        x = (base + n_events * 0xBF58476D1CE4E5B9 + mask) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        i = (x ^ (x >> 31)) % mask.bit_count()
        if infected is not None:
            return infected[i]
        m = mask
        for _ in range(i):
            m ^= m & -m
        return (m & -m).bit_length() - 1

    return pick


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

    The engine keeps its set-up for the last (graph, r, context) on the
    policy, so one policy object runs one simulation at a time.
    """

    name = "abstract"
    markov = False
    _engine = None  # the engine's set-up for the last (graph, r, context) it ran on; see _Engine

    def __getstate__(self):
        # the engine holds closures, which do not pickle; a copy builds its own
        return {k: v for k, v in self.__dict__.items() if k != "_engine"}

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
        self.seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    @seed.setter
    def seed(self, value) -> None:
        self._seed = int(value)
        self._engine = None  # the engine's allocator hashes with the seed it was built for

    def _pick(self, mask: int, n_events: int, infected: Optional[tuple] = None) -> int:
        """The chosen vertex; ``infected`` lists mask's vertices ascending, if at hand."""
        return _picker(self._seed)(mask, n_events, infected)

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
        adj, deg = self.graph.adj, self.graph.deg
        best = None
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            change = 2 * (adj[v] & mask).bit_count() - deg[v]  # the cut's change when v is cured
            if best is None or change < best:
                best, choice = change, v
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

    def serialize(self) -> str:
        rows = [TRACE_CSV_HEADER]
        rows.extend(f"{t!r},{kind},{v}" for t, v, kind in self.events)
        return "\n".join(rows) + "\n"


class HistoryView:
    """The ``history`` handed to a non-Markov ``decide``; its ``len()`` counts the events so far."""

    __slots__ = ("_n",)

    def __init__(self):
        self._n = 0  # the engine sets _n before each decide

    def __len__(self) -> int:
        return self._n


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
        pick = None
        if kind is RandomInfected.decide:  # the built-in pick hashes in its own frame, with no method call
            pick = _picker(policy.seed) if type(policy)._pick is RandomInfected._pick else policy._pick
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


class _Engine(dict):
    """One policy's engine set-up on (graph, r, context), kept on the policy.

    It holds the allocation (see ``_allocator``) with its ``HistoryView``, a
    Philox generator that :meth:`stream` re-keys per run, the neighbour
    tuples of the per-event path and, on graphs with n <= ``ROW_BITS``, the
    rows, keyed by infected mask. A row is (cut, cum, verts, infected,
    items, cure): the cut as a float; the cumulative infection weights
    (floats) of the healthy vertices with an infected neighbor, and those
    vertices, ascending; then, for a Markov policy, None and its allocation
    from ``alloc``, else the infected vertices (ascending), None and 0.0.
    All 2^n rows then fit, so the dict is never cleared and an engine does
    at most 2^n row builds over its life.
    """

    def __init__(self, policy: CuringPolicy, g: Graph, r: float, context):
        super().__init__()
        self.g, self.r, self.context = g, r, context
        self.history = HistoryView()
        self.alloc = _allocator(policy, g, float(r), context, self.history)
        self.markov_alloc = self.alloc if policy.markov else None
        self.nbrs = [tuple(NodeSet(a, g.n)) for a in g.adj]
        self.rng = Generator(Philox(0))
        self._fresh = self.rng.bit_generator.state  # counter 0, empty buffer: a new stream once keyed
        self._keys = (None, 0, ())  # (seed prefix, first index, keys) of the last keys derived

    def stream(self, parts: tuple[int, ...]) -> Generator:
        """The generator, in the state of a new ``Generator(Philox(SeedSequence(parts)))``."""
        prefix, i = parts[:-1], parts[-1]
        block_prefix, first, keys = self._keys
        j = i - first
        if block_prefix != prefix or not 0 <= j < len(keys):
            # a run that goes on past the last keys gets a block of them; a
            # lone seed is hashed alone, at the cost it always had
            ahead = block_prefix == prefix and j == len(keys)
            keys = _seed_keys(prefix, i, 512) if ahead else [SeedSequence(parts).generate_state(2, np.uint64)]
            self._keys, j = (prefix, i, keys), 0
        return self.rekey(keys[j])

    def rekey(self, key) -> Generator:
        """The generator, in the state of a new ``Generator(Philox(key=key))``."""
        self._fresh["state"]["key"] = key
        self.rng.bit_generator.state = self._fresh
        return self.rng

    def build(self, mask: int) -> tuple:
        g = self.g
        cum, verts = [], []
        acc = 0
        for v in range(g.n):
            c = (g.adj[v] & mask).bit_count()
            if c and not (mask >> v) & 1:
                acc += c
                cum.append(float(acc))
                verts.append(v)
        if self.markov_alloc:
            infected, (items, cure) = None, self.markov_alloc(mask, None, None, None)
        else:
            infected, items, cure = tuple(NodeSet(mask, g.n)), None, 0.0
        row = self[mask] = (float(acc), tuple(cum), tuple(verts), infected, items, cure)
        return row


def _engine_for(policy: CuringPolicy, g: Graph, r: float, context) -> _Engine:
    """The policy's engine set-up on (g, r, context): the kept one, or a new one kept in its place."""
    engine = policy._engine
    if engine is None or not (engine.g is g and engine.context is context and engine.r == r):
        engine = policy._engine = _Engine(policy, g, r, context)
    return engine


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
    policy that violates its budget raises :class:`PolicyFault`. The
    trajectory itself is ``_run``'s, the kernel that ``estimate_extinction``
    calls directly; this wrapper checks the arguments, prepares the policy
    and builds the trace.
    """
    if r < 0:
        raise ValueError("curing budget r must be >= 0")
    seed_parts = _seed_entropy(seed)
    start = _mask_from(i0, g.n)
    policy.prepare(g, r, context)
    events = [] if record_events else None
    if start:
        engine = _engine_for(policy, g, r, context)
        tau, reason, nev, t, mask = _run(engine, start, engine.stream(seed_parts), max_time, max_events, events)
    else:
        tau, reason, nev, t, mask = 0.0, None, 0, 0.0, 0
    return EpidemicTrace(
        graph=g, i0=NodeSet(start, g.n), policy=policy.name, r=r, seed=seed_parts,
        events=tuple(events or ()), tau=tau, censored=reason is not None, censor_reason=reason,
        t_end=t, n_events=nev, final_infected=NodeSet(mask, g.n),
    )


def _run(engine: _Engine, mask: int, rng: Generator, max_time: float, max_events: int, events: Optional[list]) -> tuple:
    """The event loop from the nonempty infected set ``mask``: (tau, censor_reason, n_events, t_end, final mask).

    ``rng`` is the engine's generator, keyed for this run. Each event is
    appended to ``events`` as (time, vertex, kind) unless it is None.
    """
    g = engine.g
    n = g.n
    alloc = engine.alloc
    rows = None
    if n <= ROW_BITS:
        rows = engine
        get = rows.get
    else:  # the cut and each vertex's infected-neighbor count, kept per event
        c = float(cut(g, mask))
        cnt = [(a & mask).bit_count() for a in g.adj]
        nbrs = engine.nbrs
        deg = g.deg
        full = (1 << n) - 1
    log1p = math.log1p
    # uniforms come in growing chunks (short runs stay cheap, long runs amortize);
    # Philox yields them in sequence, so the chunk sizes never change a value
    blen = 64
    buf = rng.random(blen).tolist()
    bi = 0

    t = 0.0
    tau, reason = None, None
    nev = 0
    while True:
        if rows is not None:
            row = get(mask)
            if row is None:
                row = rows.build(mask)
            c, cum, verts, infected, items, cure = row
            if items is None:
                items, cure = alloc(mask, t, nev, infected)
        else:
            items, cure = alloc(mask, t, nev, None)
        total = c + cure
        if total <= 0.0:
            reason, t = "max_time", max_time
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
            reason, t = "max_time", max_time
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
        if events is not None:
            events.append((t, chosen, kind))
        if mask == 0:
            tau = t
            break
        if nev >= max_events:
            reason = "max_events"
            break
    return tau, reason, nev, t, mask


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


def _replicate(indices: range, job: tuple) -> list:
    """(tau, censor_reason, n_events) of each replication index in ``indices``, in order.

    Replication i is ``simulate(g, i0, policy, r, (seed, i), record_events=False)``
    with ``job = (g, i0 mask, policy, r, seed, context, max_time, max_events)``,
    run on the kernel with no trace: the budget and the master seed are
    checked once, the keys of up to 512 consecutive indices are derived at
    once and the engine's one generator is re-keyed per replication. The
    policy is prepared per replication, as ``simulate`` prepares it per run.
    """
    g, start, policy, r, seed, context, max_time, max_events = job
    if r < 0:
        raise ValueError("curing budget r must be >= 0")
    prefix = _seed_entropy(seed)
    engine = None
    out = []
    for a in range(indices.start, indices.stop, 512):
        for key in _seed_keys(prefix, a, min(512, indices.stop - a)):
            policy.prepare(g, r, context)
            if not start:  # extinct at time 0, as simulate reports it
                out.append((0.0, None, 0))
                continue
            if engine is None:  # after the first prepare, which may refuse the inputs
                engine = _engine_for(policy, g, r, context)
            tau, reason, nev, _, _ = _run(engine, start, engine.rekey(key), max_time, max_events, None)
            out.append((tau, reason, nev))
    return out


_job_tokens = itertools.count()  # one token per pooled call, so a worker knows when its job is new
_worker_job = (None, None)  # in a pool worker: (token, job) of the call it serves; a kept worker drops it when idle
_worker_ticks = 0  # in a pool worker: blocks begun plus blocks ended, so odd while one runs
_pool = None  # (pid, workers, executor) of the pool kept across estimate_extinction calls
# A kept pool gets the pickled job with every block, at ~1.4 ns per byte to
# pickle, pipe and unpickle; a pool forked with the job costs ~3 ms more per
# call than the kept one (two workers, 2-core Xeon, Python 3.11). So past this
# many bytes in all a call forks its own pool.
_FORK_BYTES = 1 << 21


def _replicate_pooled(token: int, payload: Optional[bytes], block: range) -> list:
    """``_replicate`` in a pool worker; the job is unpickled once per call, so its engine lives across blocks."""
    global _worker_job, _worker_ticks
    _worker_ticks += 1
    try:
        held, job = _worker_job  # read once: the watch thread may drop it meanwhile
        if held != token:
            import pickle

            _worker_job = (None, None)  # the last call's job goes before this one is unpickled
            job = pickle.loads(payload)
            _worker_job = (token, job)
        return _replicate(block, job)
    finally:
        _worker_ticks += 1


def _start_worker(token: Optional[int] = None, job: Optional[tuple] = None) -> None:
    """Pool worker initializer: holds the job of a pool forked for one call, if any, and watches the parent.

    A daemon thread ends the worker once its parent has died, even by
    SIGKILL. In a kept worker it also drops the job, and with it the
    engine, after a second in which no block ran.
    """
    import gc
    import threading
    from multiprocessing import connection, parent_process

    global _worker_job
    _worker_job = (token, job)
    sentinel, parent = parent_process().sentinel, os.getppid()

    def watch():
        global _worker_job
        seen = None
        # EOF on the parent's sentinel pipe; a process forked later by the parent
        # holds its write end open too, so a new parent pid also counts
        while not connection.wait([sentinel], 1.0) and os.getppid() == parent:
            if job is None and _worker_ticks == seen and not seen & 1 and _worker_job[0] is not None:
                _worker_job = (None, None)
                gc.collect()  # the engine and its policy refer to each other
            seen = _worker_ticks
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _kept_pool(workers: int):
    """This process's pool of ``workers`` workers, kept across calls.

    A pool of another size or a broken one is shut down and replaced, its
    queued blocks cancelled (an interrupted call leaves some); one
    inherited through a fork is the parent's and is only dropped. The exit
    hook shuts the kept pool down.
    """
    global _pool
    import atexit
    from concurrent.futures import ProcessPoolExecutor  # here, so `import epigraph` skips multiprocessing

    if _pool is not None and _pool[0] == os.getpid() and _pool[1] == workers and not _pool[2]._broken:
        return _pool[2]
    _shutdown_pool()
    _pool = (os.getpid(), workers, ProcessPoolExecutor(max_workers=workers, initializer=_start_worker))
    atexit.unregister(_shutdown_pool)
    atexit.register(_shutdown_pool)
    return _pool[2]


def _shutdown_pool() -> None:
    """Shut the kept pool down, cancelling queued blocks; one inherited through a fork is only dropped."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(cancel_futures=True)
    _pool = None


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

    Replication i runs with seed (seed, i); no trace is built for it (see
    ``_replicate``). With ``workers`` > 1 the replications run on a pool of
    worker processes kept across calls: it is replaced when the worker
    count changes or it is found broken, and shut down at interpreter exit,
    and each worker exits when this process dies (within about a second if
    another child of this process holds its sentinel pipe open). Each call
    pickles its inputs once, so the graph, policy and context must pickle
    (a policy drops its engine set-up when pickled); a worker unpickles
    them once per call and runs contiguous blocks of replication indices,
    keeping its engine set-up, rows and seed keys across its blocks, and
    drops them once idle. A job too big to send with every block
    (``_FORK_BYTES``), or one naming anything defined in ``__main__``,
    which may have changed since the kept workers were forked, runs on a
    pool forked with it for this call, after the kept pool is shut down.
    Kept workers see other modules as they were when forked. Results are
    aggregated by replication index, so worker scheduling cannot change the
    estimate. Censored runs are excluded from the mean but always reported,
    with their reasons.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    t0 = _time.perf_counter()
    job = (g, _mask_from(i0, g.n), policy, r, int(seed), context, max_time, max_events)
    if workers and workers > 1 and replications > 1:
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, replications // (8 * workers))
        blocks = [range(a, min(a + size, replications)) for a in range(0, replications, size)]
        token, buffers = next(_job_tokens), []
        head = pickle.dumps(job, 5, buffer_callback=buffers.append)  # numpy's arrays are sized here, not copied
        nbytes = len(head) + sum(memoryview(b).nbytes for b in buffers)
        if nbytes * len(blocks) > _FORK_BYTES or b"__main__" in head:
            # too big to send with every block, or naming what __main__ may have redefined since
            # the kept workers were forked: as before, a pool forked with the job runs this call
            _shutdown_pool()
            with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker, initargs=(token, job)) as pool:
                chunks = list(pool.map(_replicate_pooled, itertools.repeat(token), itertools.repeat(None), blocks))
        else:
            payload = pickle.dumps(job, pickle.HIGHEST_PROTOCOL) if buffers else head
            pool = _kept_pool(workers)
            chunks = list(pool.map(_replicate_pooled, itertools.repeat(token), itertools.repeat(payload), blocks))
        results = [res for block in chunks for res in block]
    else:
        results = _replicate(range(replications), job)
    policy._engine = None  # the engine's set-up lives for one call
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
