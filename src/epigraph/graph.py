"""Immutable graphs on dense integer vertices plus bitmask node sets.

Vertices are 0..n-1 with n capped at 64 so any vertex subset ("bag") fits in
one machine word. Bags travel through the package either as raw int bitmasks
(hot loops) or as :class:`NodeSet` wrappers (public API, pretty printing);
every function that takes a bag accepts both.
"""

from __future__ import annotations

import collections.abc
import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

MAX_VERTICES = 64
GENERATE_RETRIES = 500  # tries of a random generator for a connected (and simple) graph
TABLE_BUDGET_BYTES = 1 << 29  # one memory budget for every exact table: n <= 24

GENERATOR_KINDS = (
    "complete",
    "path",
    "cycle",
    "star",
    "grid",
    "erdos_renyi",
    "random_regular",
)


class GraphFormatError(ValueError):
    """Malformed graph input: bad header, bad edge line, self-loop, duplicate."""


class SizeCapError(ValueError):
    """An exact-combinatorics request exceeds the table memory budget or an oracle's compute cap."""


class DisconnectedGraphError(ValueError):
    """Input graph is disconnected and the override flag was not set."""


class GenerationError(RuntimeError):
    """A random generator failed to produce a connected graph in its retry budget."""


def _check_budget(entries: int, what: str) -> None:
    """Refuse, before allocating, work over ``entries`` subsets (or subset
    pairs) at 24 B each. Under tracemalloc a gamma table peaks at 9.6 B per
    subset at n = 20, in the monotone table, and at 12.8-13.2 B at n = 16,
    where the gamma sweep's tile buffers hold two whole tables."""
    nbytes = 24 * entries
    if nbytes > TABLE_BUDGET_BYTES:
        raise SizeCapError(f"{what} needs ~{nbytes} bytes, over the {TABLE_BUDGET_BYTES}-byte table budget")


def _mask_from(bag, n: int) -> int:
    """Coerce a NodeSet / int mask / iterable of vertex ids to a raw bitmask."""
    if isinstance(bag, NodeSet):
        if bag.n != n:
            raise ValueError(f"NodeSet over {bag.n} vertices used with an {n}-vertex graph")
        return bag.mask
    if isinstance(bag, int):
        if bag < 0 or bag >> n:
            raise ValueError(f"bitmask {bag:#x} has bits outside 0..{n - 1}")
        return bag
    mask = 0
    for v in bag:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


class NodeSet:
    """An immutable subset of the vertices 0..n-1, stored as a bitmask.

    Supports the usual set algebra (``|``, ``&``, ``-``, ``^``), membership,
    iteration in ascending vertex order, and the one-vertex ``add``/``remove``
    used by crusade steps (which insist the vertex is absent/present).
    """

    __slots__ = ("mask", "n")

    def __init__(self, vertices: Iterable[int] | int = 0, n: int = MAX_VERTICES):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"n must be in 1..{MAX_VERTICES}, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", _mask_from(vertices, n))

    def __setattr__(self, *_):
        raise AttributeError("NodeSet is immutable")

    @classmethod
    def _of(cls, mask: int, n: int) -> "NodeSet":
        """Wrap a mask already known to fit n vertices, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "mask", mask)
        return s

    @classmethod
    def full(cls, n: int) -> "NodeSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def empty(cls, n: int) -> "NodeSet":
        return cls(0, n)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __int__(self) -> int:
        return self.mask

    __index__ = __int__

    def __eq__(self, other) -> bool:
        if isinstance(other, NodeSet):
            return self.mask == other.mask and self.n == other.n
        if isinstance(other, int):
            return self.mask == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def _wrap(self, mask: int) -> "NodeSet":
        return NodeSet._of(mask, self.n)

    def __or__(self, other) -> "NodeSet":
        return self._wrap(self.mask | _mask_from(other, self.n))

    def __and__(self, other) -> "NodeSet":
        return self._wrap(self.mask & _mask_from(other, self.n))

    def __sub__(self, other) -> "NodeSet":
        return self._wrap(self.mask & ~_mask_from(other, self.n))

    def __xor__(self, other) -> "NodeSet":
        return self._wrap(self.mask ^ _mask_from(other, self.n))

    def add(self, v: int) -> "NodeSet":
        """Return self + v; v must not already be a member."""
        if v in self:
            raise ValueError(f"vertex {v} already in set")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return self._wrap(self.mask | (1 << v))

    def remove(self, v: int) -> "NodeSet":
        """Return self - v; v must be a member."""
        if v not in self:
            raise ValueError(f"vertex {v} not in set")
        return self._wrap(self.mask ^ (1 << v))

    def complement(self) -> "NodeSet":
        return self._wrap(((1 << self.n) - 1) ^ self.mask)

    def __repr__(self) -> str:
        return f"NodeSet({sorted(self)}, n={self.n})"


class NodeSetSequence(collections.abc.Sequence):
    """A read-only sequence of NodeSets backed by an array of bitmasks.

    Members are built on access, so counting a family of up to 2^n bags
    costs no Python object per bag. Compares equal to any sequence with
    equal members in the same order, lists included.
    """

    __slots__ = ("masks", "n")

    def __init__(self, masks: np.ndarray, n: int):
        self.masks = masks
        self.n = n

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return NodeSetSequence(self.masks[i], self.n)
        return NodeSet._of(int(self.masks[i]), self.n)

    def __iter__(self) -> Iterator[NodeSet]:
        return (NodeSet._of(m, self.n) for m in self.masks.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, collections.abc.Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"NodeSetSequence({len(self)} sets, n={self.n})"


class Graph:
    """A simple undirected graph, immutable after construction.

    Connected by default; pass ``allow_disconnected=True`` to waive the check
    (exact crusade machinery still refuses disconnected inputs).
    """

    __slots__ = ("n", "edges", "adj", "deg", "max_degree", "connected", "label")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        allow_disconnected: bool = False,
        label: str = "",
    ):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        norm: list[tuple[int, int]] = []
        seen = set()
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) has a vertex outside 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        norm.sort()
        deg = tuple(a.bit_count() for a in adj)
        connected = _is_connected(n, adj)
        if not connected and not allow_disconnected:
            raise DisconnectedGraphError(f"graph on {n} vertices with {len(norm)} edges is disconnected")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "max_degree", max(deg) if n else 0)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "label", label or f"graph:{n}v{len(norm)}e")

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state):
        for s, v in state.items():
            object.__setattr__(self, s, v)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> NodeSet:
        return NodeSet(self.adj[v], self.n)

    def nodeset(self, bag) -> NodeSet:
        """Wrap any bag representation as a NodeSet over this graph's vertices."""
        return NodeSet._of(_mask_from(bag, self.n), self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, label={self.label!r})"


def _is_connected(n: int, adj: Sequence[int]) -> bool:
    if n == 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


# ---------------------------------------------------------------------------
# The cut function
# ---------------------------------------------------------------------------

def cut(g: Graph, bag) -> int:
    """Number of edges with exactly one endpoint in the bag.

    From-scratch recount; the incremental :func:`cut_after_toggle` is the fast
    path and this is its independent check.
    """
    mask = _mask_from(bag, g.n)
    comp = g.full_mask ^ mask
    total = 0
    m = mask
    adj = g.adj
    while m:
        low = m & -m
        total += (adj[low.bit_length() - 1] & comp).bit_count()
        m ^= low
    return total


def cut_after_toggle(g: Graph, mask: int, current_cut: int, v: int) -> int:
    """Cut of ``mask ^ (1<<v)`` given ``cut(mask)``, in O(1) word ops.

    Flipping v in or out changes the cut by deg(v) - 2*|N(v) & mask'| where
    mask' is the side v is moving away from; both directions reduce to the
    same popcount on ``mask`` with v's own bit ignored (v never neighbors
    itself).
    """
    inside = (g.adj[v] & mask).bit_count()
    if (mask >> v) & 1:
        return current_cut - g.deg[v] + 2 * inside
    return current_cut + g.deg[v] - 2 * inside


def cut_table(g: Graph) -> np.ndarray:
    """Cut of every subset, as an int16 array indexed by bitmask.

    Built by doubling: adding v to a subset S of {0..v-1} changes the cut
    by deg(v) - 2*|N(v) & S|, so the table over {0..v} is the table over
    {0..v-1} followed by that plus v's change, written into the next half
    of one 2^n array. Refuses n > 24 (the budget).
    """
    _check_budget(1 << g.n, f"cut table for n={g.n}")
    table = np.zeros(1 << g.n, dtype=np.int16)
    for v, (nbrs, deg) in enumerate(zip(g.adj, g.deg)):
        change = subset_sums([(nbrs >> u) & 1 for u in range(v)], np.int16)
        change *= -2
        change += deg
        np.add(table[: 1 << v], change, out=table[1 << v : 2 << v])
    assert int(table.max(initial=0)) < 2**15 - 1
    return table


def subset_pairs(table: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a subset table (indexed by bitmask) split on vertex v:
    ``(without, with_v)``, each of shape (2^(n-v-1), 2^v). Entry [i, j]
    belongs to the bag (i << (v + 1)) | j, or to that bag plus v."""
    pair = table.reshape(-1, 2, 1 << v)
    return pair[:, 0, :], pair[:, 1, :]


def subset_sums(weights: Sequence[int], dtype) -> np.ndarray:
    """s[m] = sum of weights[i] over the bits i of m, for every m < 2^len(weights).

    Built by doubling into one array, in ``dtype``; the caller picks one
    wide enough.
    """
    s = np.zeros(1 << len(weights), dtype=dtype)
    for k, w in enumerate(weights):
        np.add(s[: 1 << k], dtype(w), out=s[1 << k : 2 << k])
    return s


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _grid_rows(n: int) -> int:
    """Rows of the grid that :func:`generate` builds on n vertices: the
    largest divisor of n not above its square root."""
    return next(k for k in range(int(math.isqrt(n)), 0, -1) if n % k == 0)


def generator_label(kind: str, n: int, *, p: Optional[float] = None, d: Optional[int] = None) -> str:
    """The label :func:`generate` gives a graph of this kind, size and parameter.

    It needs no graph, so a row that names a graph that could not be built
    (a flagged sweep cell) carries the same label a built one would.
    """
    if kind == "grid" and n >= 1:
        rows = _grid_rows(n)
        return f"grid:{rows}x{n // rows}"
    if kind == "erdos_renyi" and p is not None:
        return f"erdos_renyi:{n}:p{p}"
    if kind == "random_regular" and d is not None:
        return f"random_regular:{n}:d{d}"
    return f"{kind}:{n}"


def generate(
    kind: str,
    n: int,
    *,
    seed: Optional[int] = None,
    p: Optional[float] = None,
    d: Optional[int] = None,
) -> Graph:
    """Build a connected graph of a named family.

    Random kinds (erdos_renyi, random_regular) require a seed and retry up to
    ``GENERATE_RETRIES`` times for connectivity (and simplicity, for
    random_regular).
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if n < 2:
        raise ValueError(f"generators need n >= 2, got {n}")
    label = generator_label(kind, n, p=p, d=d)
    if kind == "complete":
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], label=label)
    if kind == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)], label=label)
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)], label=label)
    if kind == "star":
        return Graph(n, [(0, v) for v in range(1, n)], label=label)
    if kind == "grid":
        rows = _grid_rows(n)
        cols = n // rows
        edges = []
        for i in range(rows):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    edges.append((v, v + 1))
                if i + 1 < rows:
                    edges.append((v, v + cols))
        return Graph(n, edges, label=label)
    if seed is None:
        raise ValueError(f"{kind} requires a seed")
    rng = Generator(Philox(SeedSequence((int(seed), 0xE9))))
    if kind == "erdos_renyi":
        if p is None or not 0.0 < p <= 1.0:
            raise ValueError("erdos_renyi requires 0 < p <= 1")
        for _ in range(GENERATE_RETRIES):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = Graph(n, edges, allow_disconnected=True, label=label)
            if g.connected:
                return g
        raise GenerationError(f"no connected G({n},{p}) sample in {GENERATE_RETRIES} tries")
    # random_regular: pairing model, resampled until simple and connected
    if d is None or not 0 <= d < n:
        raise ValueError("random_regular requires 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("random_regular requires n*d even")
    if d == 0:
        raise ValueError("random_regular with d=0 is disconnected for n >= 2")
    for _ in range(GENERATE_RETRIES):
        ends = rng.permutation(n * d) // d  # stub i belongs to vertex i // d
        try:
            g = Graph(n, ends.reshape(-1, 2).tolist(), allow_disconnected=True, label=label)
        except GraphFormatError:
            continue  # a self-loop or a repeated edge: not simple, draw again
        if g.connected:
            return g
    raise GenerationError(f"no connected {d}-regular graph on {n} vertices in {GENERATE_RETRIES} tries")


# ---------------------------------------------------------------------------
# File format: "n m" header, one "u v" line per edge (0 <= u < v < n),
# whitespace-separated, LF endings, '#' comment lines allowed.
# ---------------------------------------------------------------------------

def parse_graph(text: str | bytes, *, allow_disconnected: bool = False) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not u < v:
            raise GraphFormatError(f"edge line {ln!r} violates u < v")
        edges.append((u, v))
    return Graph(n, edges, allow_disconnected=allow_disconnected)


def write_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
