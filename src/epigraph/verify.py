"""Machine-checkable property suites for cuts, resilience, and walk formulas.

Each check returns a :class:`CheckResult` with counts and concrete
counterexamples on failure; suites aggregate over graph sets (exhaustive
small-n enumeration plus seeded random graphs). Premise-guarded checks count
bags that fall outside their premise as vacuous rather than passing or
failing them silently.

The ``cut_override`` hooks let tests inject a corrupted cut table and watch
the affected inequality fail with a printed bag, which keeps the harness
honest about its own sensitivity.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .bounds import (
    BoundInputs,
    WalkParams,
    bound_from_walk,
    exact_hitting_time,
    extinction_lower_bound,
    gambler_up_probability,
    random_walk_lower_bound,
    walk_up_crossing_mc,
)
from .crusade import (
    ResilienceTable,
    improvement_mask,
    optimal_crusade,
    oracle_resilience_table,
    resilience,
    resilience_table,
)
from .graph import Graph, SizeCapError, cut_table, generate, subset_pairs, subset_sums

MAX_FAILURES_KEPT = 5
CERTIFICATE_BAGS = 8  # random bags certified per graph above 4 vertices
PAIR_BLOCK_BITS = 15  # bag pairs per block of check_cut_properties, as a bit count
MAX_PAIR_CHECK_N = 12  # check_cut_properties refuses larger n: its pair checks grow as 4^n, its memory does not


@dataclass
class CheckResult:
    name: str
    passed: bool = True
    checked: int = 0
    vacuous: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(message)

    def flag(self, hits: np.ndarray, describe: Callable[..., str], limit: int = MAX_FAILURES_KEPT) -> None:
        """Fail with ``describe(*index)`` for each of the first ``limit``
        True entries of ``hits``, in index order."""
        if not hits.any():  # the usual case, and ~100x cheaper than nonzero()
            return
        for index in zip(*(ix[:limit].tolist() for ix in hits.nonzero())):
            self.fail(describe(*index))

    def merge(self, other: "CheckResult") -> None:
        assert self.name == other.name
        self.passed = self.passed and other.passed
        self.checked += other.checked
        self.vacuous += other.vacuous
        for f in other.failures:
            self.fail(f)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" vacuous={self.vacuous}" if self.vacuous else ""
        msg = f"{status} {self.name} checked={self.checked}{extra}"
        for f in self.failures:
            msg += f"\n  counterexample: {f}"
        return msg


def _bag_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in range(64) if (mask >> v) & 1) + "}"


def _pair_bag(v: int, i: int, j: int) -> str:
    """The bag at [i, j] of a without-v view from :func:`subset_pairs`."""
    return _bag_str((i << (v + 1)) | j)


# ---------------------------------------------------------------------------
# Graph sets
# ---------------------------------------------------------------------------

def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """All labeled connected simple graphs on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    for picks in range(1 << len(pairs)):
        edges = [pair for i, pair in enumerate(pairs) if (picks >> i) & 1]
        g = Graph(n, edges, allow_disconnected=True, label=f"enum:{n}:{picks}")
        if g.connected:
            yield g


def random_connected_graphs(ns: Iterable[int], count: int, seed: int) -> list[Graph]:
    """Seeded random connected graphs, cycling sizes and edge densities."""
    ns = list(ns)
    densities = (0.25, 0.35, 0.5, 0.7)
    out = []
    for i in range(count):
        n = ns[i % len(ns)]
        p = densities[(i // len(ns)) % len(densities)]
        out.append(generate("erdos_renyi", n, p=p, seed=seed * 1_000_003 + i))
    return out


def graph_set(
    max_n: int = 5,
    *,
    min_n: int = 2,
    rand_ns: Iterable[int] = (7, 8),
    rand_count: int = 0,
    seed: int = 42,
) -> Iterator[Graph]:
    """Exhaustive connected graphs for min_n..max_n, then random larger ones.

    Starts at 2 because the epidemic model assumes a positive max degree.
    """
    for n in range(min_n, max_n + 1):
        yield from enumerate_connected_graphs(n)
    if rand_count:
        yield from random_connected_graphs(rand_ns, rand_count, seed)


# ---------------------------------------------------------------------------
# Cut-function properties
# ---------------------------------------------------------------------------

def _sos_max_inplace(flat: np.ndarray, bits: int) -> None:
    """In place: flat[S] becomes max over subsets T of S of flat[T]."""
    for u in range(bits):
        without, with_u = subset_pairs(flat, u)
        np.maximum(with_u, without, out=with_u)


def _pair_conditions_failing(c: np.ndarray, delta: int, dpc: np.ndarray, height: int) -> tuple[bool, bool, bool]:
    """Whether some bag pair fails superadditivity's first condition, its
    second, and the Lipschitz bound, for an integer table ``c`` (int32,
    so no sum wraps) with dpc[B] = delta*|B|, without evaluating all 4^n
    pairs of each.

    - First condition, c(A|B) > c(A) + c(B): symmetric in A and B, so the
      block of rows a..a+height-1 is compared only with the columns
      B >= a. Every unordered pair {A, B} with A <= B lies in the block
      that holds row A.
    - Second condition, c(A) + c(B) > c(A) + delta*|B|: the same as
      c(B) > delta*|B|, one compare over 2^n bags.
    - Lipschitz bound, |c(A) - c(B)| > delta*|A xor B|: some pair fails it
      exactly when some single flip |c(S) - c(S xor v)| > delta does. A
      failing flip is a failing pair with |A xor B| = 1. Conversely, walk
      from A to B flipping the k = |A xor B| vertices of A xor B one at a
      time, S_0 = A, ..., S_k = B; by the triangle inequality
      |c(A) - c(B)| <= sum_i |c(S_i) - c(S_(i+1))|, which is at most
      k*delta if no flip fails. So the n*2^n flips decide it, gathered at
      once: one pass per vertex cost ~2-3x more below n = 10 (numpy's
      per-call cost) and about the same at n = 12.
    """
    n = len(c).bit_length() - 1
    masks = np.arange(len(c))
    superadd = any(
        (c[masks[a : a + height, None] | masks[a:]] > c[a : a + height, None] + c[a:]).any()
        for a in range(0, len(c), height)
    )
    bounded = bool((c > dpc).any())
    flips = masks ^ (1 << np.arange(n))[:, None]  # row v: S xor v, for every S
    lipschitz = bool((np.abs(c[flips] - c) > delta).any())
    return superadd, bounded, lipschitz


def check_cut_properties(g: Graph, cuts: Optional[np.ndarray] = None) -> list[CheckResult]:
    """Superadditivity, submodularity, size bound, set-difference Lipschitz
    bound, and complement symmetry of the cut, exhaustively over all bags
    (and bag pairs) of one graph.

    The three pair checks (superadditivity's two conditions and the
    Lipschitz bound) run in two passes. Detection
    (:func:`_pair_conditions_failing`) decides whether each condition fails
    anywhere: the first condition on the triangle of row blocks that its
    symmetry leaves, the second on 2^n bags, the Lipschitz bound on single
    flips. It is exact for any integer table, corrupted ones included. Only
    a condition that detection flags is reported, so a table that passes
    never runs the report pass. Each report scans the full row blocks,
    rows a..a+R-1 against all 2^n columns B, in row order until
    MAX_FAILURES_KEPT failures are kept, in the order of the unblocked
    checks (superadditivity's first condition, then its second; the
    Lipschitz bound after the size bound). So the lines, and the 4^n
    ``checked`` counts, are those of one row-major pass over the 4^n pairs.

    Block rule: R = 2^(15 - n) rows (PAIR_BLOCK_BITS = 15), capped at 2^n,
    so a block holds at most 2^15 pairs (under 1 MiB at peak) and n <= 7
    is one block; detection's triangle is widest in its first block. A
    sweep of 2^13..2^17 pairs per block at n = 6..12 (ER p = 0.4, 2-core
    Xeon) found 2^15 fastest from n = 8 on when every block held all three
    conditions. Run again on detection, 2^15 was fastest or within 3% up
    to n = 10, and 2^16 7-8% faster at n = 11-12. Memory is one block at
    any n, so the cap is on compute: above ``MAX_PAIR_CHECK_N`` = 12 the
    4^n pairs are refused before any table is built.
    """
    n = g.n
    if n > MAX_PAIR_CHECK_N:
        raise SizeCapError(f"cut pair checks for n={n}: 4^{n} bag pairs, over the cap of 4^{MAX_PAIR_CHECK_N}")
    size = 1 << n
    delta = g.max_degree
    c = (cut_table(g) if cuts is None else cuts).astype(np.int32)
    masks = np.arange(size)  # intp, so no index is cast on a gather
    pc = subset_sums([1] * n, np.int32)
    dpc = delta * pc
    height = min(size, 1 << max(PAIR_BLOCK_BITS - n, 0))
    failing = _pair_conditions_failing(c, delta, dpc, height)

    def pair_block(a: int, k: int) -> tuple:
        """(hits, describe) of pair condition k on rows a..a+height-1."""
        A = masks[a : a + height, None]
        cA = c[A]
        if k == 0:
            lhs, rhs = c[A | masks], cA + c
            return lhs > rhs, lambda i, j: f"{g.label}: c(AuB)={lhs[i, j]} > c(A)+c(B)={rhs[i, j]} for A={_bag_str(a + i)} B={_bag_str(j)}"
        if k == 1:
            return cA + c > cA + dpc, lambda i, j: f"{g.label}: c(A)+c(B) > c(A)+delta*|B| for A={_bag_str(a + i)} B={_bag_str(j)}"
        gap, allowance = np.abs(cA - c), dpc[A ^ masks]
        return gap > allowance, lambda i, j: f"{g.label}: |c(A)-c(B)|={gap[i, j]} > delta*|A xor B|={allowance[i, j]} at A={_bag_str(a + i)} B={_bag_str(j)}"

    def report(res: CheckResult, k: int) -> None:
        if not failing[k]:
            return
        for a in range(0, size, height):
            if len(res.failures) >= MAX_FAILURES_KEPT:
                return
            res.flag(*pair_block(a, k))

    super_add = CheckResult("cut_superadditivity")
    super_add.checked = size * size
    report(super_add, 0)
    report(super_add, 1)

    submod = CheckResult("cut_submodularity")
    submod.checked = n * (size // 2)
    for v in range(n):
        without, with_v = subset_pairs(c, v)
        removal_gain = without - with_v  # c(A-v)-c(A) on the with-v sublattice
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
    report(lipschitz, 2)

    symmetry = CheckResult("cut_complement_symmetry")
    symmetry.checked = size
    symmetry.flag(c != c[masks ^ (size - 1)], lambda m: f"{g.label}: c(A) != c(complement) at A={_bag_str(m)}")

    return [super_add, submod, size_bound, lipschitz, symmetry]


# ---------------------------------------------------------------------------
# Resilience properties
# ---------------------------------------------------------------------------

def check_resilience_properties(
    g: Graph,
    tables: Optional[ResilienceTable] = None,
    cut_override: Optional[np.ndarray] = None,
) -> list[CheckResult]:
    """Monotonicity and one-vertex smoothness of gamma, the cut floors on
    improvement and high-resilience bags, the size/resilience admissible
    region, and one-step consistency of the gamma table.

    The region and high-resilience checks require W >= delta; bags outside a
    premise are counted vacuous. ``cut_override`` substitutes a (possibly
    corrupted) cut table in the inequality checks only.
    """
    tables = tables or resilience_table(g)
    n = g.n
    size = 1 << n
    delta = g.max_degree
    W = tables.W
    gamma = tables.gamma.astype(np.int32)
    cuts = (tables.cut if cut_override is None else cut_override).astype(np.int32)
    pc = subset_sums([1] * n, np.int32)
    delta_e = (n + 2) * delta - 2 * W  # delta * E, an exact integer

    monotone = CheckResult("resilience_monotone")
    smooth = CheckResult("resilience_smoothness")
    consistency = CheckResult("resilience_one_step_consistency")
    monotone.checked = smooth.checked = n * (size // 2)
    consistency.checked = n * size
    for v in range(n):
        without, with_v = subset_pairs(gamma, v)
        c_without, c_with = subset_pairs(cuts, v)
        monotone.flag(without > with_v, lambda i, j: f"{g.label}: gamma(A) > gamma(A+{v}) at A={_pair_bag(v, i, j)}", limit=2)
        smooth.flag(with_v > without + delta, lambda i, j: f"{g.label}: gamma(A+{v}) > gamma(A)+delta at A={_pair_bag(v, i, j)}", limit=2)
        # gamma(A) <= max(c(B), gamma(B)) for the single-move neighbors B
        consistency.flag(
            without > np.maximum(c_with, with_v),
            lambda i, j: f"{g.label}: gamma(A) > max(c,gamma)(A+{v}) at A={_pair_bag(v, i, j)}",
            limit=2,
        )
        consistency.flag(
            with_v > np.maximum(c_without, without),
            lambda i, j: f"{g.label}: gamma(A) > max(c,gamma)(A-{v}) at A={_pair_bag(v, i, j | (1 << v))}",
            limit=2,
        )

    improvement_floor = CheckResult("improvement_bag_cut_floor")
    imp = improvement_mask(g, tables)
    improvement_floor.checked = int(imp.sum())
    improvement_floor.flag(
        imp & (cuts < gamma - delta),
        lambda m: f"{g.label}: improvement bag {_bag_str(m)} has c={int(cuts[m])} < gamma-delta={int(gamma[m]) - delta}",
    )

    region = CheckResult("resilience_size_region")
    high_floor = CheckResult("high_resilience_cut_floor")
    if W < delta:
        region.vacuous = size
        high_floor.vacuous = size
    else:
        region.checked = size
        region.flag(gamma > pc * delta, lambda m: f"{g.label}: gamma={int(gamma[m])} > |A|*delta at A={_bag_str(m)}")
        below = gamma < W
        region.vacuous = int((~below).sum())
        region.flag(below & (W > (n - pc) * delta), lambda m: f"{g.label}: W > (n-|A|)*delta with gamma<W at A={_bag_str(m)}")
        region.flag(below & (gamma < pc * delta - delta_e), lambda m: f"{g.label}: gamma={int(gamma[m])} < delta*(|A|-E) at A={_bag_str(m)}")

        sel = below & (gamma > 0)
        high_floor.checked = int(sel.sum())
        high_floor.vacuous = size - high_floor.checked
        floor = gamma - 2 * delta_e - 4 * delta  # gamma - 2(E+2)delta
        high_floor.flag(sel & (cuts < floor), lambda m: f"{g.label}: c={int(cuts[m])} < gamma-2(E+2)delta={int(floor[m])} at A={_bag_str(m)}")

    return [monotone, smooth, consistency, improvement_floor, region, high_floor]


def check_oracle_agreement(g: Graph, tables: Optional[ResilienceTable] = None) -> list[CheckResult]:
    """The structured gamma algorithm against the unrestricted bottleneck
    search: equality on every bag, and at the full set against the monotone
    width (one-removal-at-a-time optimum)."""
    tables = tables or resilience_table(g)
    oracle = oracle_resilience_table(g, cuts=tables.cut)

    fullset = CheckResult("fullset_resilience_equals_cutwidth")
    fullset.checked = 1
    W = tables.W
    ov = int(oracle[g.full_mask])
    if ov != W:
        fullset.fail(f"{g.label}: oracle gamma(V)={ov} != monotone W={W}")

    agree = CheckResult("algorithm_matches_oracle")
    agree.checked = len(oracle)
    agree.flag(oracle != tables.gamma, lambda m: f"{g.label}: algorithm gamma={int(tables.gamma[m])} oracle={int(oracle[m])} at A={_bag_str(m)}")
    return [fullset, agree]


def check_crusade_certificates(g: Graph, tables: ResilienceTable, bag_masks: Iterable[int]) -> CheckResult:
    """optimal_crusade returns a legal, width-achieving, eventually-nested crusade."""
    res = CheckResult("optimal_crusade_certificates")
    for mask in bag_masks:
        if mask == 0:
            continue
        res.checked += 1
        c = optimal_crusade(g, mask, tables)
        masks = [int(b) for b in c.bags]
        if c.width != int(tables.gamma[mask]):
            res.fail(f"{g.label}: certificate width {c.width} != gamma at A={_bag_str(mask)}")
        if masks[0] != mask or masks[-1] != 0:
            res.fail(f"{g.label}: certificate endpoints wrong at A={_bag_str(mask)}")
        for i in range(1, len(masks)):
            if masks[i] == masks[i - 1]:
                res.fail(f"{g.label}: repeated bag in certificate at A={_bag_str(mask)}")
            if i >= 2 and not (masks[i] & ~masks[i - 1]) == 0:
                res.fail(f"{g.label}: non-monotone tail step in certificate at A={_bag_str(mask)}")
    return res


def check_single_bag_route(g: Graph, tables: ResilienceTable, bag_masks: Iterable[int]) -> CheckResult:
    """Per-bag first-step enumeration agrees with the all-bags table sweep."""
    res = CheckResult("single_bag_route_agreement")
    for mask in bag_masks:
        res.checked += 1
        direct = resilience(g, mask, tables)
        if direct != int(tables.gamma[mask]):
            res.fail(f"{g.label}: enumeration {direct} != table {int(tables.gamma[mask])} at A={_bag_str(mask)}")
    return res


# ---------------------------------------------------------------------------
# Walk formula checks
# ---------------------------------------------------------------------------

def check_up_crossing_mc(seed: int = 42, runs: int = 10**5, max_level: int = 10) -> CheckResult:
    """Closed-form up-crossing probability vs Monte Carlo, 3 SE, over a
    (rate ratio, start, ceiling) grid including the symmetric limit."""
    res = CheckResult("up_crossing_probability_mc")
    rates = [(Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
    cell = 0
    for lam, mu in rates:
        for L in range(2, max_level + 1):
            for M in range(1, L):
                w = WalkParams(lam=lam, mu=mu, L=L, M=M)
                p = gambler_up_probability(w)
                phat, _ = walk_up_crossing_mc(w, runs, seed + cell)
                # SE from the known p: stays positive even when phat lands on 0 or 1
                se = math.sqrt(float(p * (1 - p)) / runs)
                cell += 1
                res.checked += 1
                if abs(phat - float(p)) > 3 * se:
                    res.fail(f"lam={lam} mu={mu} M={M} L={L}: |{phat} - {float(p)}| > 3se={3 * se}")
    return res


def check_walk_bound_below_exact() -> list[CheckResult]:
    """The closed-form reflecting-walk bound never exceeds the exact hitting
    time, over a rate grid and the ceilings 2..20; also checks the
    regeneration floor p/((1-p)lam) against the exact value."""
    res = CheckResult("walk_bound_below_exact")
    regen = CheckResult("regeneration_floor")
    lams = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    mus = [Fraction(3, 2), Fraction(2), Fraction(4)]
    for lam in lams:
        for mu in mus:
            for L in range(2, 21):
                w = WalkParams(lam=lam, mu=mu, L=L, M=L - 1)
                bound = random_walk_lower_bound(w)
                exact = exact_hitting_time([mu] * (L - 1), [lam] * L, L - 1)
                res.checked += 1
                if bound > exact:
                    res.fail(f"lam={lam} mu={mu} L={L}: bound {bound} > exact {exact}")
                p = gambler_up_probability(w)
                regen.checked += 1
                floor = p / ((1 - p) * lam)
                if exact < floor:
                    regen.fail(f"lam={lam} mu={mu} L={L}: exact {exact} < regeneration floor {floor}")
    return [res, regen]


def check_bound_walk_identity(seed: int = 42, samples: int = 100) -> CheckResult:
    """Closed-form extinction bound == reflecting-walk bound, exactly, on
    random valid inputs with integral ceiling."""
    res = CheckResult("bound_walk_identity")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB0))))
    produced = 0
    while produced < samples:
        delta = int(rng.integers(1, 7))
        L = int(rng.integers(2, 13))
        k = int(rng.integers(0, 22))
        r = int(rng.integers(1, 6))
        # gamma0 - (9E + 12) delta <= 3r with gamma0 = 3 delta L and E = 2 + k/7, times 7
        if 21 * delta * L - (210 + 9 * k) * delta <= 21 * r:
            continue
        produced += 1
        res.checked += 1
        e = 2 + Fraction(k, 7)
        b = BoundInputs(gamma0=Fraction(3 * delta * L), delta=delta, E=e, r=Fraction(r))
        closed = extinction_lower_bound(b)
        walk = bound_from_walk(b)
        if closed.bound != walk:
            res.fail(f"delta={delta} L={L} E={e} r={r}: closed {closed.bound} != walk {walk}")
    return res


def check_walk_suite(seed: int = 42, runs: int = 10**5, max_level: int = 10) -> list[CheckResult]:
    return [
        check_up_crossing_mc(seed=seed, runs=runs, max_level=max_level),
        *check_walk_bound_below_exact(),
        check_bound_walk_identity(seed=seed),
    ]


# ---------------------------------------------------------------------------
# Scope runner
# ---------------------------------------------------------------------------

SCOPES = ("props", "lemmas", "oracle", "walk", "all")


@dataclass
class VerifyReport:
    scope: str
    results: list[CheckResult]
    graphs_checked: int
    elapsed_s: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        out.append(
            f"{'OK' if self.all_passed else 'FAILED'} scope={self.scope} graphs={self.graphs_checked}"
        )
        return out


def run_scope(
    scope: str,
    *,
    max_n: int = 5,
    rand_ns: Iterable[int] = (7, 8),
    rand_count: int = 20,
    seed: int = 42,
    mc_runs: int = 20_000,
    mc_level: int = 10,
    progress: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Run one verification scope and aggregate results across the graph set.

    props: cut-function properties. lemmas: resilience properties, the
    full-set equality, and crusade certificates. oracle: structured
    algorithm vs unrestricted search on every bag. walk: the hitting-time
    formula suite (graph-free). all: everything.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    t0 = _time.perf_counter()
    merged: dict[str, CheckResult] = {}

    def absorb(results: Iterable[CheckResult]) -> None:
        for r in results:
            if r.name in merged:
                merged[r.name].merge(r)
            else:
                merged[r.name] = r

    graphs_checked = 0
    if scope in ("props", "lemmas", "oracle", "all"):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xCE))))
        for g in graph_set(max_n, rand_ns=rand_ns, rand_count=rand_count, seed=seed):
            graphs_checked += 1
            tables = None
            if scope in ("lemmas", "oracle", "all"):
                tables = resilience_table(g)
            if scope in ("props", "all"):
                absorb(check_cut_properties(g, cuts=tables.cut if tables else None))
            if scope in ("lemmas", "all"):
                absorb(check_resilience_properties(g, tables))
                size = 1 << g.n
                if size <= 16:
                    bags = range(1, size)
                else:
                    bags = [int(x) for x in rng.integers(1, size, size=CERTIFICATE_BAGS)]
                absorb([check_crusade_certificates(g, tables, bags)])
                absorb([check_single_bag_route(g, tables, bags)])
            if scope in ("oracle", "lemmas", "all"):
                absorb(check_oracle_agreement(g, tables))
            if progress and graphs_checked % 2000 == 0:
                progress(f"...{graphs_checked} graphs")
    if scope in ("walk", "all"):
        absorb(check_walk_suite(seed=seed, runs=mc_runs, max_level=mc_level))

    return VerifyReport(
        scope=scope,
        results=list(merged.values()),
        graphs_checked=graphs_checked,
        elapsed_s=_time.perf_counter() - t0,
    )
