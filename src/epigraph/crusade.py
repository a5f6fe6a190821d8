"""Exact CutWidth, resilience, and optimal crusades over subset tables.

A crusade from A to B is a bag sequence where each step may add any number
of vertices but remove at most one; its width is the max cut over the bags
after the first. Resilience gamma(A) minimizes width over all crusades from
A to the empty set; CutWidth W restricts to pure-removal (monotone) crusades
from the full vertex set and equals gamma(V).

The production gamma algorithm exploits the structure of optimal crusades:
one unrestricted first step, then a monotone tail. Its value on a bag A is

    min over B with |A \\ B| <= 1 of max(cut(B), g(B)),

where g is the monotone-tail table. One kernel, :func:`_first_steps`,
enumerates those first steps B for a single bag; :func:`resilience` takes
its minimum and :func:`optimal_crusade` its argmin. The kernel's row order
(removed vertex by ascending id, no removal last, then ascending bag mask)
is the certificates' tie-break, so no sort is needed. :func:`resilience_table`
computes the same minimum for every bag at once by two subset sweeps.

The unrestricted bottleneck searches over the full 2^n crusade graph
(:func:`oracle_resilience`, :func:`oracle_resilience_table`) exist purely
to falsify that structure at small n if it were misread. They deliberately
keep their own enumeration of steps: sharing the kernel would let one bug
cancel out in the comparison.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graph import Graph, NodeSet, NodeSetSequence, SizeCapError, _mask_from, cut, cut_table, popcount_array

INF16 = np.int16(32000)  # above any cut: n*Delta/2 <= 64*63/2 = 2016


class CrusadeStepError(ValueError):
    """A bag sequence removes more than one vertex in a single step."""


@dataclass(frozen=True)
class Crusade:
    """A validated crusade with its width precomputed."""

    bags: tuple[NodeSet, ...]
    width: int

    @classmethod
    def from_bags(cls, g: Graph, bags: Sequence) -> "Crusade":
        sets = tuple(g.nodeset(b) for b in bags)
        if not sets:
            raise CrusadeStepError("a crusade needs at least one bag")
        return cls(sets, crusade_width(g, sets))

    def __len__(self) -> int:
        return len(self.bags)

    def serialize(self) -> str:
        """One bag per line, sorted vertex ids in brackets."""
        return "\n".join("[" + ",".join(str(v) for v in sorted(b)) + "]" for b in self.bags) + "\n"


def crusade_width(g: Graph, bags: Sequence) -> int:
    """Max cut over bags after the first; raises on an illegal step."""
    masks = [_mask_from(b, g.n) for b in bags]
    for i in range(len(masks) - 1):
        dropped = (masks[i] & ~masks[i + 1]).bit_count()
        if dropped > 1:
            raise CrusadeStepError(
                f"step {i}->{i + 1} removes {dropped} vertices (at most one allowed)"
            )
    return max((cut(g, m) for m in masks[1:]), default=0)


# ---------------------------------------------------------------------------
# Monotone table and CutWidth
# ---------------------------------------------------------------------------

def monotone_table(g: Graph, *, max_n: int = 24, cuts: Optional[np.ndarray] = None) -> np.ndarray:
    """Width of the best pure-removal clearing of every subset (int16, 2^n).

    Recursion: g(empty)=0 and g(B) = min over v in B of f(B-v), where
    f = max(cut, g). Filled one cardinality layer at a time. f stays INF16
    on the layers not yet finished, so toggling a vertex v not in B lands
    there and never wins the min: each vertex costs one gather, no masking.
    """
    if g.n > max_n:
        raise SizeCapError(f"monotone table for n={g.n} exceeds cap {max_n}")
    if not g.connected:
        raise ValueError("crusade tables require a connected graph")
    n = g.n
    size = 1 << n
    cuts = cut_table(g) if cuts is None else cuts
    table = np.zeros(size, dtype=np.int16)
    f = np.full(size, INF16, dtype=np.int16)
    f[0] = cuts[0]
    all_masks = np.arange(size, dtype=np.uint32)
    pc = popcount_array(all_masks)
    for k in range(1, n + 1):
        layer = all_masks[pc == k]
        best = f[layer ^ np.uint32(1)]
        for v in range(1, n):
            np.minimum(best, f[layer ^ np.uint32(1 << v)], out=best)
        table[layer] = best
        f[layer] = np.maximum(cuts[layer], best)
    return table


def cutwidth(g: Graph, *, max_n: int = 24) -> int:
    """Minimum over removal orders of the maximum cut encountered."""
    return int(monotone_table(g, max_n=max_n)[g.full_mask])


# ---------------------------------------------------------------------------
# Resilience
# ---------------------------------------------------------------------------

@dataclass
class ResilienceTable:
    """All-subsets cut/monotone/resilience tables for one graph.

    ``gamma`` is None for a monotone-only context (:func:`monotone_context`),
    which is enough for CutWidth reports and crusade reconstruction at sizes
    where the full resilience sweep would not fit.
    """

    graph: Graph
    cut: np.ndarray
    g: np.ndarray
    gamma: Optional[np.ndarray]

    @property
    def W(self) -> int:
        return int(self.g[self.graph.full_mask])

    @property
    def slack(self) -> Fraction:
        from .bounds import slack_E

        return slack_E(self.graph.n, self.graph.max_degree, self.W)

    def gamma_of(self, bag) -> int:
        if self.gamma is None:
            raise ValueError("this table context has no resilience values; use resilience_table()")
        return int(self.gamma[_mask_from(bag, self.graph.n)])

    def to_csv(self) -> str:
        if self.gamma is None:
            raise ValueError("this table context has no resilience values; use resilience_table()")
        rows = ["bitmask,cardinality,cut,g,gamma"]
        pc = popcount_array(np.arange(len(self.cut), dtype=np.uint32))
        for m in range(len(self.cut)):
            rows.append(f"{m},{int(pc[m])},{int(self.cut[m])},{int(self.g[m])},{int(self.gamma[m])}")
        return "\n".join(rows) + "\n"


def monotone_context(g: Graph, *, max_n: int = 24) -> ResilienceTable:
    """Cut and monotone tables only; supports single-bag queries and
    crusade reconstruction without the 2^n resilience sweep."""
    cuts = cut_table(g, max_n=max_n)
    return ResilienceTable(graph=g, cut=cuts, g=monotone_table(g, max_n=max_n, cuts=cuts), gamma=None)


def resilience_table(g: Graph, *, max_n: int = 15) -> ResilienceTable:
    """Resilience of every subset via the one-free-step + monotone-tail rule.

    Let f(T) = max(cut(T), g(T)) be the width of starting a clear at T. A
    superset-min sweep turns f into best(S) = min over T >= S of f(T); the
    candidates for a bag A are then best(A) (no removal) and best(A - v)
    (remove v, possibly adding others). Identical values to enumerating
    first-step bags per bag, at O(n 2^n) total.
    """
    if g.n > max_n:
        raise SizeCapError(f"resilience table for n={g.n} exceeds cap {max_n}")
    cuts = cut_table(g)
    mono = monotone_table(g, cuts=cuts)
    n = g.n
    best = np.maximum(cuts, mono)
    for v in range(n):
        width = 1 << v
        view = best.reshape(-1, 2, width)
        np.minimum(view[:, 0, :], view[:, 1, :], out=view[:, 0, :])
    gamma = best.copy()
    for v in range(n):
        width = 1 << v
        gview = gamma.reshape(-1, 2, width)
        bview = best.reshape(-1, 2, width)
        np.minimum(gview[:, 1, :], bview[:, 0, :], out=gview[:, 1, :])
    return ResilienceTable(graph=g, cut=cuts, g=mono, gamma=gamma)


def _first_steps(g: Graph, mask: int, tables: ResilienceTable) -> tuple[np.ndarray, np.ndarray]:
    """Every legal first step B from bag A, with its width max(cut(B), g(B)).

    Returns ``(width, bags)``, both of shape (|A|+1, 2^(n-|A|)). Row i
    removes A's i-th vertex in ascending id order, the last row removes
    none, and each row adds every subset of A's complement in ascending
    mask order. Row-major order is therefore the certificate tie-break.
    """
    spread = np.zeros(1, dtype=np.uint32)  # subsets of the complement, ascending
    for v in range(g.n):
        if not (mask >> v) & 1:
            spread = np.concatenate((spread, spread | np.uint32(1 << v)))
    bases = [mask ^ (1 << v) for v in range(g.n) if (mask >> v) & 1] + [mask]
    bags = np.array(bases, dtype=np.uint32)[:, None] | spread
    return np.maximum(tables.cut[bags], tables.g[bags]), bags


def resilience(g: Graph, bag, tables: Optional[ResilienceTable] = None, *, max_n: int = 15) -> int:
    """Resilience of one bag: the least width over its legal first steps.

    Needs only the cut and monotone tables, so without ``tables`` it builds
    a :func:`monotone_context`. The table route (:func:`resilience_table`)
    computes the same minimum for all bags at once; this form is kept for
    single queries and as a second route in tests.
    """
    mask = _mask_from(bag, g.n)
    if tables is None:
        tables = monotone_context(g, max_n=max_n)
    return int(_first_steps(g, mask, tables)[0].min())


def improvement_mask(g: Graph, tables: ResilienceTable) -> np.ndarray:
    """Boolean array over bitmasks: True where removing some vertex lowers gamma."""
    if tables.gamma is None:
        raise ValueError("improvement bags need the full resilience table")
    gamma = tables.gamma
    member = np.zeros(len(gamma), dtype=bool)
    for v in range(g.n):
        gpair = gamma.reshape(-1, 2, 1 << v)
        member.reshape(-1, 2, 1 << v)[:, 1, :] |= gpair[:, 0, :] < gpair[:, 1, :]
    return member


def improvement_bags(g: Graph, tables: ResilienceTable) -> NodeSetSequence:
    """Bags A with some v in A such that gamma(A - v) < gamma(A), ascending.

    A lazy sequence over the members' masks: at n=20 a quarter of all 2^n
    bags can qualify, so no NodeSet is built until one is read.
    """
    return NodeSetSequence(np.flatnonzero(improvement_mask(g, tables)), g.n)


def optimal_crusade(g: Graph, bag, tables: Optional[ResilienceTable] = None) -> Crusade:
    """A witness crusade achieving gamma(A), deterministically tie-broken.

    First step: the argmin of :func:`_first_steps` over B != A, whose row
    order prefers the lowest removed-vertex id (no removal last), then the
    smallest bag bitmask. Tail: repeatedly remove the vertex minimizing
    max(cut(B-v), g(B-v)), lowest id on ties. The tail is strictly nested,
    so the result has distinct consecutive bags and pure removals from the
    second step on.
    """
    mask = _mask_from(bag, g.n)
    if mask == 0:
        raise ValueError("optimal_crusade needs a nonempty bag")
    if tables is None:
        tables = resilience_table(g)
    cuts, mono = tables.cut, tables.g
    width, steps = _first_steps(g, mask, tables)
    width[-1, 0] = INF16  # B = A: a repeated bag never beats some pure removal
    first = int(width.argmin())
    bags = [mask, int(steps.flat[first])]
    cur = bags[1]
    while cur:
        choice = None
        m = cur
        while m:
            low = m & -m
            v = low.bit_length() - 1
            prev = cur ^ low
            key = (max(int(cuts[prev]), int(mono[prev])), v)
            if choice is None or key < choice[0]:
                choice = (key, prev)
            m ^= low
        cur = choice[1]
        bags.append(cur)
    crusade = Crusade.from_bags(g, [NodeSet(b, g.n) for b in bags])
    assert crusade.width == int(width.flat[first])
    if tables.gamma is not None:
        assert crusade.width == int(tables.gamma[mask])
    return crusade


# ---------------------------------------------------------------------------
# Unrestricted oracle: bottleneck search over the full crusade graph
# ---------------------------------------------------------------------------

def oracle_resilience(g: Graph, bag, *, max_n: int = 10) -> int:
    """gamma(A) with no structural assumptions: minimax Dijkstra from A.

    States are all 2^n bags; from S every B with |S \\ B| <= 1 is reachable
    in one step at cost cut(B); minimize the max cost along a path to the
    empty bag, the first bag excluded. Fan-out is 2^(n-|S|) * (|S|+1), hence
    the small-n cap.
    """
    if g.n > max_n:
        raise SizeCapError(f"oracle fan-out for n={g.n} exceeds cap {max_n}")
    start = _mask_from(bag, g.n)
    cuts = cut_table(g)
    n = g.n
    size = 1 << n
    dist = [None] * size
    dist[start] = 0
    heap = [(0, start)]
    while heap:
        d, s = heapq.heappop(heap)
        if s == 0:
            return d
        if d > dist[s]:
            continue
        comp_positions = [v for v in range(n) if not (s >> v) & 1]
        bases = [s]
        m = s
        while m:
            low = m & -m
            bases.append(s ^ low)
            m ^= low
        for base in bases:
            for sub in range(1 << len(comp_positions)):
                d_mask = 0
                for j, pos in enumerate(comp_positions):
                    if (sub >> j) & 1:
                        d_mask |= 1 << pos
                b = base | d_mask
                nd = max(d, int(cuts[b]))
                if dist[b] is None or nd < dist[b]:
                    dist[b] = nd
                    heapq.heappush(heap, (nd, b))
    raise AssertionError("empty bag unreachable")  # cannot happen: removals always allowed


def oracle_resilience_table(g: Graph, *, max_n: int = 12, cuts: Optional[np.ndarray] = None) -> np.ndarray:
    """gamma for every bag by one backward bottleneck sweep from the empty bag.

    Same crusade graph as :func:`oracle_resilience`, relaxed in reverse:
    popping B settles min-over-crusades width from B, and every predecessor A
    (a subset of B plus at most one outside vertex) is offered
    max(cut(B), dist(B)). Edge cost depends only on the head bag, so Dijkstra
    order is valid.
    """
    if g.n > max_n:
        raise SizeCapError(f"oracle table for n={g.n} exceeds cap {max_n}")
    n = g.n
    size = 1 << n
    cuts = cut_table(g) if cuts is None else cuts
    dist = [None] * size
    dist[0] = 0
    heap = [(0, 0)]
    settled = [False] * size
    while heap:
        d, b = heapq.heappop(heap)
        if settled[b]:
            continue
        settled[b] = True
        offer = max(d, int(cuts[b]))
        inside = [v for v in range(n) if (b >> v) & 1]
        outside_bits = [1 << v for v in range(n) if not (b >> v) & 1]
        # subsets of b, each optionally extended by one outside vertex
        subsets = [0]
        for v in inside:
            bit = 1 << v
            subsets.extend(s | bit for s in list(subsets))
        for s in subsets:
            for extra in [0] + outside_bits:
                a = s | extra
                if dist[a] is None or offer < dist[a]:
                    dist[a] = offer
                    heapq.heappush(heap, (offer, a))
    out = np.array(dist, dtype=np.int16)
    return out
