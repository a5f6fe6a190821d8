"""Exact solves of the controlled SIS chain.

The simulator samples the chain; this module solves it. So far it holds the
birth-death reduction on complete graphs.
"""

from __future__ import annotations

from fractions import Fraction


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
