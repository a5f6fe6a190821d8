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
computes the same minimum for every bag at once by two subset sweeps, one
min per vertex each; they and :func:`improvement_mask` run on one blocked
layout (:func:`_vertex_pairs`) that, from n = 12 on, sweeps the low
vertices on transposed tiles, not in runs of 2^v entries.

The unrestricted bottleneck searches over the full 2^n crusade graph
(:func:`oracle_resilience`, :func:`oracle_resilience_table`) exist purely
to falsify that structure at small n if it were misread. They deliberately
keep their own enumeration of steps: sharing the kernel would let one bug
cancel out in the comparison. The forward search is pure Python, capped at
n <= 10 for its compute time. The table oracle settles whole distance
buckets at once (Dial's form of Dijkstra) over a step graph that depends
only on n and is cached per n; the table budget charges it 24 B per step,
so it runs to n = 13.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph import Graph, NodeSet, NodeSetSequence, SizeCapError, _check_budget, _mask_from, cut, cut_table, subset_pairs, subset_sums

INF16 = np.int16(32000)  # above any cut: n*Delta/2 <= 64*63/2 = 2016
CSV_BLOCK = 1 << 14  # table CSV rows formatted per call
SWEEP_LO, SWEEP_COLS, SWEEP_CHUNK = 6, 8, 16  # _vertex_pairs' layout, as bit counts
SWEEP_TILED_FROM = 12  # _vertex_pairs sweeps every vertex flat below this n


class CrusadeStepError(ValueError):
    """A bag sequence removes more than one vertex in a single step."""


@dataclass(frozen=True)
class Crusade:
    """A validated crusade with its width precomputed."""

    bags: tuple[NodeSet, ...]
    width: int

    @classmethod
    def from_bags(cls, g: Graph, bags: Sequence) -> "Crusade":
        masks = [_mask_from(b, g.n) for b in bags]  # each bag parsed once
        if not masks:
            raise CrusadeStepError("a crusade needs at least one bag")
        return cls(tuple(NodeSet._of(m, g.n) for m in masks), _mask_width(g, masks))

    def __len__(self) -> int:
        return len(self.bags)

    def serialize(self) -> str:
        """One bag per line, sorted vertex ids in brackets."""
        return "\n".join("[" + ",".join(str(v) for v in sorted(b)) + "]" for b in self.bags) + "\n"


def crusade_width(g: Graph, bags: Sequence) -> int:
    """Max cut over bags after the first; raises on an illegal step."""
    return _mask_width(g, [_mask_from(b, g.n) for b in bags])


def _mask_width(g: Graph, masks: list[int]) -> int:
    """:func:`crusade_width` of bags already parsed to int masks."""
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

@functools.lru_cache(maxsize=None)
def _low_plan(lo: int) -> tuple:
    """Column plan of a block of 2^lo low-bit masks, for :func:`monotone_table`.

    Returns (order, pos, bounds, nbrs): ``order`` lists the columns by
    popcount, so low layer k is the slice bounds[k]:bounds[k + 1], and
    ``pos`` inverts it; nbrs[k] holds, vertex-major, the sorted position of
    col ^ (1 << v) for every low vertex v and every col of layer k.
    """
    pc = subset_sums([1] * lo, np.int8)
    order = np.argsort(pc, kind="stable")
    pos = np.argsort(order)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(pc, minlength=lo + 1))))
    bits = 1 << np.arange(lo)
    nbrs = [pos[(bits[:, None] ^ order[bounds[k] : bounds[k + 1]]).ravel()] for k in range(lo + 1)]
    return order, pos, bounds, nbrs


def monotone_table(g: Graph, *, cuts: Optional[np.ndarray] = None) -> np.ndarray:
    """Width of the best pure-removal clearing of every subset (int16, 2^n).

    Recursion: g(empty)=0 and g(B) = min over v in B of f(B-v), where
    f = max(cut, g). f stays INF16 on masks not yet finished, so toggling a
    vertex v not in B lands there and never wins the min: no masking.

    The tables are viewed as 2^hi rows (the high bits of a mask) by 2^lo
    columns (the low bits) and filled one row layer (the rows of one
    popcount) at a time. A gather of single entries, one per vertex and
    subset, lands anywhere in the 2^n table, which at n = 20 is the size of
    the L2 cache; here each high vertex u costs one gather of whole rows,
    F[rows ^ (1 << u)], contiguous runs from the finished layer below (a
    row that lacks u lands on an unfinished INF16 row). The low vertices
    then work inside the layer's block, transposed to one contiguous run
    per column with the columns in popcount order: each low layer is one
    gather of its neighbour columns (:func:`_low_plan`) and a min.

    Width rule: up to n = 12 the whole table is one block (lo = n), whose
    cached plan stays within 2^12 masks; above that, blocks of 2^8
    columns, the width that measured fastest or near it from n = 13 to 22
    (2-core Xeon). Narrower blocks pay numpy's per-call cost on short
    runs, wider ones transpose more and gather fewer rows per call.
    """
    _check_budget(1 << g.n, f"monotone table for n={g.n}")
    if not g.connected:
        raise ValueError("crusade tables require a connected graph")
    n = g.n
    cuts = cut_table(g) if cuts is None else cuts
    lo = n if n <= 12 else 8
    hi = n - lo
    order, pos, bounds, nbrs = _low_plan(lo)
    table = np.empty(1 << n, dtype=np.int16)
    f = np.full(1 << n, INF16, dtype=np.int16)
    G, F, CUT = (a.reshape(1 << hi, 1 << lo) for a in (table, f, cuts))
    row_pc = subset_sums([1] * hi, np.int8)
    for j in range(hi + 1):
        rows = np.flatnonzero(row_pc == j)
        tmp = np.empty((len(rows), 1 << lo), dtype=np.int16)
        best = np.full_like(tmp, INF16)
        if j == 0:
            best[0, 0] = 0  # the empty set
        for u in range(hi):
            np.minimum(best, np.take(F, rows ^ (1 << u), axis=0, out=tmp), out=best)
        best = best.T[order]  # one run per column, layers contiguous
        cut_block = np.take(CUT, rows, axis=0).T[order]
        f_block = np.full_like(best, INF16)
        for k in range(lo + 1):
            layer = slice(bounds[k], bounds[k + 1])
            near = np.take(f_block, nbrs[k], axis=0).reshape(lo, -1, len(rows))
            np.minimum(best[layer], near.min(axis=0), out=best[layer])
            np.maximum(cut_block[layer], best[layer], out=f_block[layer])
        F[rows] = f_block[pos].T
        G[rows] = best[pos].T
    return table


def cutwidth(g: Graph) -> int:
    """Minimum over removal orders of the maximum cut encountered."""
    return int(monotone_table(g)[g.full_mask])


# ---------------------------------------------------------------------------
# Resilience
# ---------------------------------------------------------------------------

@dataclass
class ResilienceTable:
    """All-subsets cut/monotone/resilience tables for one graph.

    ``gamma`` is None for a monotone-only context (:func:`monotone_context`),
    which is enough for CutWidth reports, single-bag resilience and crusade
    reconstruction without the resilience sweep.
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

    def _need_gamma(self) -> np.ndarray:
        if self.gamma is None:
            raise ValueError("this table context has no resilience values; use resilience_table()")
        return self.gamma

    def gamma_of(self, bag) -> int:
        return int(self._need_gamma()[_mask_from(bag, self.graph.n)])

    def csv_blocks(self) -> Iterator[str]:
        """The table CSV as strings: the header, then one per CSV_BLOCK rows.

        A writer that takes each block as it comes holds one block, not the
        whole text (``resilience --table-out``).
        """
        n = self.graph.n
        columns = (subset_sums([1] * n, np.int8), self.cut, self.g, self._need_gamma())
        yield "bitmask,cardinality,cut,g,gamma\n"
        for a in range(0, 1 << n, CSV_BLOCK):  # one format call per block of rows
            masks = np.arange(a, min(a + CSV_BLOCK, 1 << n))
            block = np.stack([masks, *(col[a : a + CSV_BLOCK] for col in columns)], axis=1)
            yield ("%d,%d,%d,%d,%d\n" * len(block)) % tuple(block.ravel().tolist())


def monotone_context(g: Graph) -> ResilienceTable:
    """Cut and monotone tables only; supports single-bag queries and
    crusade reconstruction without the 2^n resilience sweep."""
    cuts = cut_table(g)
    return ResilienceTable(graph=g, cut=cuts, g=monotone_table(g, cuts=cuts), gamma=None)


def _vertex_pairs(*tables: np.ndarray):
    """Yield, for every vertex v, the (without, with_v) views of each table.

    The passes of :func:`resilience_table` and :func:`improvement_mask` are
    one min or OR per vertex, in any vertex order. A flat pass
    (:func:`subset_pairs`) runs in 2^v-entry runs, so numpy pays its
    per-run cost 2^(n-1) times at v = 0. Below n = 12 every vertex is
    swept flat; from n = 12 on, vertices v >= lo = 6 are. For the low ones
    each table is copied, 2^16 masks at a time, into one reused buffer of
    tiles transposed to 2^lo rows (the low bits) by 2^8 columns (the next
    bits): there low vertex v is bit v + 8 and splits runs of 2^(v + 8)
    entries. The first table's buffer is written back after the chunk's
    last vertex; the others are only read. A chunk (128 KB of int16) stays
    in the L2 cache through its six passes.

    Width rule: flat below n = 12 (SWEEP_TILED_FROM); from there lo = 6,
    tiles of 2^8 columns and chunks of 2^16 masks, each capped by n (up to
    n = 14 the table is one tile, up to n = 16 one chunk). Below n = 12 the
    tile copies cost more than the short runs save: resilience_table plus
    improvement_mask (ER p = 0.5, seed 2, min of 5, 2-core Xeon) took 119
    us flat against 137 tiled at n = 4 and 191-213 against 217-241 at
    n = 7, ran even at n = 10-11, and were 10-15% slower flat at n = 12 and
    20-25% at n = 13-14. A sweep of lo = 4..8, tiles of 2^6..2^10 columns
    or a whole chunk and chunks of 2^14..2^17 at n = 13..22 found the tiled
    layout fastest or within ~10%. One transposed block of the whole
    table, 2^lo by 2^(n - lo), was 1.5x slower than the flat sweep at
    n = 22: its strided copies leave the cache.
    """
    n = len(tables[0]).bit_length() - 1
    lo = SWEEP_LO if n >= SWEEP_TILED_FROM else 0
    for v in range(lo, n):
        yield [subset_pairs(t, v) for t in tables]
    if not lo:
        return
    cols = min(n - lo, SWEEP_COLS)
    chunk = min(n, SWEEP_CHUNK)
    tiles = [t.reshape(-1, 1 << (chunk - lo - cols), 1 << cols, 1 << lo).transpose(0, 1, 3, 2) for t in tables]
    bufs = [np.empty(tile.shape[1:], tile.dtype) for tile in tiles]
    for k in range(len(tiles[0])):
        for buf, tile in zip(bufs, tiles):
            np.copyto(buf, tile[k])
        for v in range(cols, cols + lo):
            yield [subset_pairs(buf.reshape(-1), v) for buf in bufs]
        np.copyto(tiles[0][k], bufs[0])


def resilience_table(g: Graph, *, max_n: Optional[int] = None) -> ResilienceTable:
    """Resilience of every subset via the one-free-step + monotone-tail rule.

    Let f(T) = max(cut(T), g(T)) be the width of starting a clear at T. A
    superset-min sweep turns f into best(S) = min over T >= S of f(T); the
    candidates for a bag A are then best(A) (no removal) and best(A - v)
    (remove v, possibly adding others). Identical values to enumerating
    first-step bags per bag, at O(n 2^n) total; ``max_n`` is an optional
    ceiling below the table budget, which bounds the sweep too. Both
    sweeps are one min per vertex, in any vertex order, so they run on
    :func:`_vertex_pairs`'s blocked layout: no full-size copy, and no pass
    in runs shorter than 2^6 entries from n = 12 on.
    """
    if max_n is not None and g.n > max_n:
        raise SizeCapError(f"resilience table for n={g.n} exceeds cap {max_n}")
    cuts = cut_table(g)
    mono = monotone_table(g, cuts=cuts)
    best = np.maximum(cuts, mono)
    for [(without, with_v)] in _vertex_pairs(best):
        np.minimum(without, with_v, out=without)
    gamma = best.copy()
    for (_, with_v), (without, _) in _vertex_pairs(gamma, best):
        np.minimum(with_v, without, out=with_v)
    return ResilienceTable(graph=g, cut=cuts, g=mono, gamma=gamma)


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask`` as powers of two, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _first_steps(g: Graph, mask: int, tables: ResilienceTable) -> tuple[np.ndarray, np.ndarray]:
    """Every legal first step B from bag A, with its width max(cut(B), g(B)).

    Returns ``(width, bags)``, both of shape (|A|+1, 2^(n-|A|)). Row i
    removes A's i-th vertex in ascending id order, the last row removes
    none, and each row adds every subset of A's complement in ascending
    mask order. Row-major order is therefore the certificate tie-break.
    """
    spread = subset_sums(_bits(g.full_mask ^ mask), np.uint32)  # complement's subsets, ascending
    bases = [mask ^ bit for bit in _bits(mask)] + [mask]
    bags = np.array(bases, dtype=np.uint32)[:, None] | spread
    return np.maximum(tables.cut[bags], tables.g[bags]), bags


def resilience(g: Graph, bag, tables: Optional[ResilienceTable] = None) -> int:
    """Resilience of one bag: the least width over its legal first steps.

    Needs only the cut and monotone tables, so without ``tables`` it builds
    a :func:`monotone_context`. The table route (:func:`resilience_table`)
    computes the same minimum for all bags at once; this form is kept for
    single queries and as a second route in tests.
    """
    mask = _mask_from(bag, g.n)
    if tables is None:
        tables = monotone_context(g)
    return int(_first_steps(g, mask, tables)[0].min())


def improvement_mask(g: Graph, tables: ResilienceTable) -> np.ndarray:
    """Boolean array over bitmasks: True where removing some vertex lowers gamma.

    One OR per vertex, in any vertex order, on :func:`_vertex_pairs`'s
    blocked layout, as the sweeps of :func:`resilience_table`.
    """
    if tables.gamma is None:
        raise ValueError("improvement bags need the full resilience table")
    member = np.zeros(len(tables.gamma), dtype=bool)
    for (_, member_with_v), (without, with_v) in _vertex_pairs(member, tables.gamma):
        member_with_v |= without < with_v
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
        for low in _bits(cur):  # ascending, so ties go to the lowest id
            prev = cur ^ low
            key = (max(int(cuts[prev]), int(mono[prev])), low)
            if choice is None or key < choice[0]:
                choice = (key, prev)
        cur = choice[1]
        bags.append(cur)
    crusade = Crusade.from_bags(g, bags)
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
    empty bag, the first bag excluded. Fan-out is 2^(n-|S|) * (|S|+1), so
    ``max_n`` caps this pure-Python search's compute time, not its memory.
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


def _low_bits(masks: np.ndarray, count: int):
    """Yield the lowest set bit of each mask as a column, then the next,
    ``count`` times."""
    rest = masks.copy()
    for _ in range(count):
        low = rest & -rest
        rest ^= low
        yield low[:, None]


@functools.lru_cache(maxsize=None)
def _step_graph(n: int) -> tuple:
    """Every backward step of the crusade graph on n vertices, for the oracle.

    Bags are numbered by popcount, then mask: ``order`` maps a number to its
    mask and layer k is the numbers bounds[k]:bounds[k + 1]. In CSR form
    with one row width per layer, row i of ``preds[k]`` lists, by number,
    the predecessors of head bag bounds[k] + i: every a with |a \\ b| <= 1,
    that is each subset s of b, then each s plus one outside vertex;
    ``width`` is the row width of each number. The subsets come from
    doubling over each head's vertices (over all heads, the ternary doubling
    of the pairs a subset of b: a vertex is out of b, in b only, or in
    both), and each outside vertex adds one more copy with its bit set.
    Rows are built in head order, so no edge is sorted, and the popcounts
    also come from doubling: the oracle shares no code with the gamma
    kernel.
    """
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pc = np.concatenate((pc, pc + 1))
    order = np.argsort(pc, kind="stable")
    number = np.empty(1 << n, dtype=np.int32)
    number[order] = np.arange(1 << n)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(pc, minlength=n + 1))))
    preds = []
    for k in range(n + 1):
        heads = order[bounds[k] : bounds[k + 1]]
        block = np.empty((len(heads), n + 1 - k, 1 << k), dtype=np.int32)
        block[:, 0, 0] = 0
        for j, low in enumerate(_low_bits(heads, k)):
            np.bitwise_or(block[:, 0, : 1 << j], low, out=block[:, 0, 1 << j : 2 << j])
        for j, low in enumerate(_low_bits(heads ^ ((1 << n) - 1), n - k)):
            np.bitwise_or(block[:, 0], low, out=block[:, j + 1])
        preds.append(number[block.reshape(len(heads), -1)])
    width = np.repeat([p.shape[1] for p in preds], np.diff(bounds))
    return order, bounds, preds, width


def oracle_resilience_table(g: Graph, *, cuts: Optional[np.ndarray] = None) -> np.ndarray:
    """gamma for every bag by one backward bottleneck sweep from the empty bag.

    Same crusade graph as :func:`oracle_resilience`, relaxed in reverse:
    settling B at dist(B) offers every predecessor A (a subset of B plus at
    most one outside vertex) max(dist(B), cut(B)). The offer depends only on
    the head bag and never falls below dist(B), and costs are small
    integers, so this is Dial's bucket form of Dijkstra: each round takes
    the least open distance t and settles every open bag at t at once, with
    one row gather per popcount layer from the step graph
    (:func:`_step_graph`, cached per n) and one ``np.minimum.at``. The step
    graph has 3^(n-1) (n + 3) edges, charged to the table budget at 24 B
    each before anything is built, so n = 13 runs and n = 14 is refused.
    Under tracemalloc the peak is 7-9 B per edge (n = 10..13, the step
    graph's build included): 4 B for the cached graph, the rest a round's
    gathered predecessors and offers.
    """
    n = g.n
    _check_budget((n + 3) * 3 ** (n - 1), f"oracle step graph for n={n}")
    cuts = cut_table(g) if cuts is None else cuts
    order, bounds, preds, width = _step_graph(n)
    cost = cuts[order]  # of stepping onto each bag, by number
    dist = np.full(1 << n, INF16, dtype=np.int16)
    dist[0] = 0
    open_ = np.ones(1 << n, dtype=bool)
    while open_.any():
        t = dist[open_].min()
        heads = np.flatnonzero(open_ & (dist == t))  # ascending, so grouped by layer
        open_[heads] = False
        split = np.searchsorted(heads, bounds).tolist()
        tails = [
            preds[k][heads[a:b] - bounds[k]].ravel()
            for k, (a, b) in enumerate(zip(split, split[1:]))
            if a < b
        ]
        np.minimum.at(dist, np.concatenate(tails), np.repeat(np.maximum(cost[heads], t), width[heads]))
    assert (dist < INF16).all(), "a bag never reached the empty bag"
    gamma = np.empty_like(dist)
    gamma[order] = dist
    return gamma
