"""Extinction-time lower bounds and the random-walk machinery behind them.

The slack E = (2/Delta)((n+2)Delta/2 - W) measures how far the CutWidth sits
below the largest possible cut n*Delta/2 (E >= 2 always). When the initial
resilience g0 clears Delta*(9E+12) + 3r, the expected extinction time is at
least

    (1/2r) * ( ((g0 - (9E+12)Delta) / 3r)^(g0/(3Delta) - 1) - 1 ),

which is exactly the reflecting-walk bound with down-rate r, up-rate
(g0 - (9E+12)Delta)/3 and ceiling g0/(3Delta). Everything here is evaluated
in exact rationals when the exponent is integral and in log space otherwise,
since the values overflow doubles at interesting sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from numpy.random import Generator, Philox, SeedSequence

import numpy as np


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _int_log10(i: int) -> float:
    shift = max(0, i.bit_length() - 900)  # keep the mantissa in float range
    return math.log10(i >> shift) + shift * math.log10(2)


def frac_log10(x: Fraction) -> float:
    """log10 of a positive Fraction without float overflow."""
    if x <= 0:
        raise ValueError("log10 of a non-positive value")
    return _int_log10(x.numerator) - _int_log10(x.denominator)


# ---------------------------------------------------------------------------
# Slack parameter
# ---------------------------------------------------------------------------

def slack_E(n: int, delta: int, W) -> Fraction:
    """Slack (2/Delta)((n+2)Delta/2 - W); always >= 2 for a valid CutWidth."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    W = _frac(W)
    if not 0 <= W <= Fraction(n * delta, 2):
        raise ValueError(f"CutWidth {W} outside [0, n*delta/2] = [0, {Fraction(n * delta, 2)}]")
    e = Fraction(2, delta) * (Fraction((n + 2) * delta, 2) - W)
    assert e >= 2
    return e


# ---------------------------------------------------------------------------
# Random-walk primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkParams:
    """Birth-death walk parameters: down-rate lam, up-rate mu, ceiling L, start M."""

    lam: Fraction
    mu: Fraction
    L: int
    M: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _frac(self.lam))
        object.__setattr__(self, "mu", _frac(self.mu))
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("rates must be positive")
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ValueError("L must be an integer >= 1")
        if not 0 <= self.M <= self.L:
            raise ValueError("need 0 <= M <= L")


def gambler_up_probability(w: WalkParams) -> Fraction:
    """P(walk from M hits L before 0) = (1 - (lam/mu)^M) / (1 - (lam/mu)^L).

    The symmetric case lam == mu is the analytic limit M/L.
    """
    if w.lam == w.mu:
        return Fraction(w.M, w.L)
    rho = w.lam / w.mu
    p = (1 - rho**w.M) / (1 - rho**w.L)
    assert 0 <= p <= 1
    return p


def random_walk_lower_bound(w: WalkParams) -> Fraction:
    """(1/2)((mu/lam)^(L-1) - 1)/lam: a floor on the expected time for the
    reflecting-ceiling walk started at L-1 to reach 0. Requires lam < mu
    (upward drift); outside that regime the derivation is invalid.
    """
    if w.lam >= w.mu:
        raise ValueError("the reflecting-walk bound needs lam < mu")
    return Fraction(1, 2) * ((w.mu / w.lam) ** (w.L - 1) - 1) / w.lam


def walk_up_crossing_mc(w: WalkParams, runs: int, seed: int) -> tuple[float, float]:
    """Monte Carlo of the free walk from M until it hits 0 or L.

    Returns (fraction of runs that hit L first, binomial standard error).
    Only the jump chain matters for the hit probability, so each step is a
    Bernoulli(mu/(lam+mu)) up-move; runs are vectorized and compacted as
    they absorb.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    p_up = float(w.mu / (w.lam + w.mu))
    rng = Generator(Philox(SeedSequence((int(seed), 0x5A1C))))
    # a live state stays in -1..L+1 (M may be 0 or L); random(out=u[:k])
    # draws the same doubles as random(k), so the buffers change no path
    state = np.full(runs, w.M, dtype=np.int8 if w.L < 127 else np.int32)
    u = np.empty(runs)
    up = np.empty(runs, dtype=bool)
    hits = 0
    k = runs
    while k:
        live = state[:k]
        step = np.less(rng.random(out=u[:k]), p_up, out=up[:k]).view(np.int8)
        live += step
        live += step
        live -= 1
        hits += int(np.count_nonzero(live == w.L))
        kept = live[(live > 0) & (live < w.L)]
        k = len(kept)
        state[:k] = kept
    phat = hits / runs
    se = math.sqrt(max(phat * (1 - phat), 1e-300) / runs)
    return phat, se


def exact_hitting_time(up: Sequence, down: Sequence, start: int) -> Fraction:
    """Expected time to reach state 0 in a finite birth-death chain.

    States are 0..L with L = len(down); ``down[k-1]`` is the down-rate of
    state k, ``up[k-1]`` the up-rate of state k for k < L (the top state
    only moves down). Solved exactly by Thomas elimination on the
    first-passage tridiagonal system. All down-rates must be positive, else
    state 0 is unreachable.
    """
    L = len(down)
    if len(up) != L - 1:
        raise ValueError(f"need len(up) == len(down) - 1, got {len(up)} vs {L}")
    if not 0 <= start <= L:
        raise ValueError(f"start {start} outside states 0..{L}")
    downs = [_frac(d) for d in down]
    ups = [_frac(u) for u in up]
    if any(d <= 0 for d in downs):
        raise ValueError("state 0 unreachable: every down-rate must be positive")
    if any(u < 0 for u in ups):
        raise ValueError("up-rates must be nonnegative")
    if start == 0:
        return Fraction(0)
    # express h_k = a_k + b_k * h_{k+1} upward from h_1
    a: list[Fraction] = [Fraction(0)] * (L + 1)
    b: list[Fraction] = [Fraction(0)] * (L + 1)
    for k in range(1, L):
        lam_k, mu_k = ups[k - 1], downs[k - 1]
        denom = lam_k + mu_k - mu_k * (b[k - 1] if k > 1 else Fraction(0))
        prev_a = a[k - 1] if k > 1 else Fraction(0)
        a[k] = (1 + mu_k * prev_a) / denom
        b[k] = lam_k / denom
    # top state: h_L = 1/down_L + h_{L-1}
    if L == 1:
        h = [Fraction(0), 1 / downs[0]]
        return h[start]
    hL = (1 / downs[L - 1] + a[L - 1]) / (1 - b[L - 1])
    h = [Fraction(0)] * (L + 1)
    h[L] = hL
    for k in range(L - 1, 0, -1):
        h[k] = a[k] + b[k] * h[k + 1]
    return h[start]


# ---------------------------------------------------------------------------
# The extinction-time lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the lower bound: initial resilience, max degree, slack, budget."""

    gamma0: Fraction
    delta: int
    E: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma0", _frac(self.gamma0))
        object.__setattr__(self, "E", _frac(self.E))
        object.__setattr__(self, "r", _frac(self.r))
        if self.gamma0 < 0:
            raise ValueError("gamma0 must be >= 0")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.E < 2:
            raise ValueError("slack E is always >= 2")
        if self.r <= 0:
            raise ValueError("budget r must be > 0")


@dataclass(frozen=True)
class BoundResult:
    condition_met: bool
    bound: Optional[Fraction]  # exact value when the exponent is integral
    bound_log10: Optional[float]

    @property
    def condition_unmet(self) -> bool:
        return not self.condition_met


def extinction_lower_bound(b: BoundInputs) -> BoundResult:
    """Lower bound on E[tau] when gamma0 >= delta*(9E+12) + 3r.

    Value: (base^expo - 1)/(2r) with base = (gamma0 - (9E+12)delta)/(3r) and
    expo = gamma0/(3 delta) - 1, the exponent taken verbatim (no floor).
    Returns condition_met=False when the hypothesis fails. Exact when expo is
    an integer; log-space otherwise.
    """
    gap = b.gamma0 - (9 * b.E + 12) * b.delta
    if gap < 3 * b.r:
        return BoundResult(condition_met=False, bound=None, bound_log10=None)
    base = gap / (3 * b.r)
    expo = b.gamma0 / (3 * b.delta) - 1
    if expo.denominator == 1:
        value = (base ** int(expo) - 1) / (2 * b.r)
        log10 = frac_log10(value) if value > 0 else -math.inf
        return BoundResult(True, value, log10)
    # non-integral exponent: log-space floats
    lb = float(expo) * math.log10(float(base))
    log_2r = math.log10(float(2 * b.r))
    if lb > 16:  # the -1 is invisible at this magnitude
        log10 = lb - log_2r
    else:
        inner = 10.0**lb - 1.0
        log10 = math.log10(inner) - log_2r if inner > 0 else -math.inf
    return BoundResult(True, None, log10)


def bound_from_walk(b: BoundInputs) -> Fraction:
    """The same bound through the reflecting-walk formula.

    Substituting lam=r, mu=(gamma0-(9E+12)delta)/3 and L=gamma0/(3 delta)
    into the walk bound reproduces the closed form exactly; kept as an
    independent route for the identity check. Requires an integral L.
    """
    L = b.gamma0 / (3 * b.delta)
    if L.denominator != 1:
        raise ValueError("walk route needs gamma0 divisible by 3*delta")
    mu = (b.gamma0 - (9 * b.E + 12) * b.delta) / 3
    w = WalkParams(lam=b.r, mu=mu, L=int(L))
    return random_walk_lower_bound(w)


def bound_report_row(n: int, delta: int, W: int, gamma0, r) -> str:
    """CSV row 'n,delta,W,E,gamma0,r,condition,bound_log10'."""
    e = slack_E(n, delta, W)
    res = extinction_lower_bound(BoundInputs(gamma0=_frac(gamma0), delta=delta, E=e, r=_frac(r)))
    cond = "met" if res.condition_met else "unmet"
    log10 = "" if res.bound_log10 is None else repr(res.bound_log10)
    return f"{n},{delta},{W},{e},{gamma0},{r},{cond},{log10}"


BOUND_CSV_HEADER = "n,delta,W,E,gamma0,r,condition,bound_log10"


# ---------------------------------------------------------------------------
# Full-infection premise at a fixed size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PremiseCheck:
    premise_holds: bool
    base_term: Fraction  # 19W - 9 n delta - 30 delta, the full-infection bound's base numerator


def large_cutwidth_premise(n: int, delta: int, W: int, C) -> PremiseCheck:
    """Whether W >= (9C/19) n delta, the large-CutWidth premise (C > 1).

    Also reports 19W - 9*n*delta - 30*delta: substituting gamma0 = W and the
    slack definition into the extinction bound gives base (19W - 9 n delta
    - 30 delta)/(3r), so a comfortably positive term is what makes the
    premise bite. Boundary equality counts as holding.
    """
    C = _frac(C)
    if C <= 1:
        raise ValueError("C must be > 1")
    premise = _frac(W) >= Fraction(9, 19) * C * n * delta
    base_term = 19 * _frac(W) - 9 * n * delta - 30 * delta
    return PremiseCheck(premise_holds=premise, base_term=base_term)
