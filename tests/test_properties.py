"""Property-based checks over random graphs, bags, and short simulations."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from epigraph import (
    BoundInputs,
    NodeSet,
    builtin_policy,
    crusade_width,
    cut,
    cut_table,
    extinction_lower_bound,
    monotone_table,
    parse_graph,
    resilience_table,
    simulate,
    slack_E,
    validate_trace,
    write_graph,
)
from epigraph.graph import Graph, subset_sums
from epigraph.verify import _pair_conditions_failing, check_cut_properties


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    """Random spanning tree plus extra edges: connected by construction."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    extra = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    edges.update(extra)
    return Graph(n, sorted(edges))


@st.composite
def graph_and_mask(draw, **kw):
    g = draw(connected_graphs(**kw))
    mask = draw(st.integers(0, g.full_mask))
    return g, mask


@given(graph_and_mask())
def test_cut_superadditive_and_bounded(gm):
    g, a = gm
    b = (a * 0x9E3779B9) & g.full_mask  # a second, arbitrary bag
    assert cut(g, a | b) <= cut(g, a) + cut(g, b)
    assert cut(g, a) <= min(bin(a).count("1"), g.n - bin(a).count("1")) * g.max_degree
    assert cut(g, a) == cut(g, g.full_mask ^ a)


@given(graph_and_mask())
def test_cut_lipschitz_in_symmetric_difference(gm):
    g, a = gm
    b = (a * 0x85EBCA6B + 0x31) & g.full_mask
    assert abs(cut(g, a) - cut(g, b)) <= g.max_degree * bin(a ^ b).count("1")


@st.composite
def graph_and_int_table(draw):
    """A graph and an int16 table over its bags: its cut table with a few
    entries shifted and maybe every bag holding one vertex raised, or
    random values of either sign."""
    g = draw(connected_graphs(min_n=1))
    if draw(st.booleans()):
        table = cut_table(g)
        for mask, shift in draw(st.lists(st.tuples(st.integers(0, g.full_mask), st.integers(-40, 40)), max_size=4)):
            table[mask] += shift
        v, step = draw(st.integers(0, g.n - 1)), draw(st.integers(0, 3 * g.max_degree))
        table += step * ((np.arange(1 << g.n, dtype=np.int16) >> v) & 1)
    else:
        values = st.integers(-3 * g.max_degree, 3 * g.max_degree)
        table = np.array(draw(st.lists(values, min_size=1 << g.n, max_size=1 << g.n)), dtype=np.int16)
    return g, table


@given(graph_and_int_table(), st.integers(0, 8))
@settings(deadline=None)
def test_pair_detection_matches_all_pairs(gt, height_bits):
    # each fact the cut-pair detection rests on, against every ordered pair
    g, table = gt
    delta = g.max_degree
    c = table.astype(np.int32)
    pc = subset_sums([1] * g.n, np.int32)
    dpc = delta * pc
    A, B = np.ogrid[: 1 << g.n, : 1 << g.n]
    first = c[A | B] > c[A] + c[B]
    assert np.array_equal(first, first.T)
    second = c[A] + c[B] > c[A] + dpc[B]
    assert np.array_equal(second, np.broadcast_to(c > dpc, second.shape))
    lipschitz = np.abs(c[A] - c[B]) > dpc[A ^ B]
    assert lipschitz.any() == (lipschitz & (pc[A ^ B] == 1)).any()
    height = 1 << min(height_bits, g.n)
    assert _pair_conditions_failing(c, delta, dpc, height) == (first.any(), second.any(), lipschitz.any())
    superadd, _, _, lipschitz_check, _ = check_cut_properties(g, cuts=table)
    assert (superadd.passed, lipschitz_check.passed) == (not (first | second).any(), not lipschitz.any())


@given(connected_graphs(max_n=7))
def test_graph_file_round_trip(g):
    assert parse_graph(write_graph(g)) == g


@given(connected_graphs(max_n=7))
def test_monotone_table_recursion(g):
    table = monotone_table(g)
    assert int(table[0]) == 0
    for mask in range(1, 1 << g.n):
        best = min(
            max(cut(g, mask ^ (1 << v)), int(table[mask ^ (1 << v)]))
            for v in range(g.n)
            if (mask >> v) & 1
        )
        assert int(table[mask]) == best


@given(connected_graphs(max_n=6))
@settings(max_examples=25)
def test_gamma_is_monotone_and_smooth(g):
    t = resilience_table(g)
    delta = g.max_degree
    for mask in range(1 << g.n):
        for v in range(g.n):
            if not (mask >> v) & 1:
                bigger = t.gamma_of(mask | (1 << v))
                assert t.gamma_of(mask) <= bigger <= t.gamma_of(mask) + delta


@given(connected_graphs(max_n=6), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_traces_replay_cleanly(g, seed):
    policy = builtin_policy("max_cut_drop")
    tr = simulate(g, g.full_mask, policy, 1.5, seed, max_time=50.0, max_events=3000)
    validate_trace(tr)
    if tr.tau is not None:
        assert tr.tau <= 50.0
        assert int(tr.final_infected) == 0


@given(connected_graphs(max_n=6), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_optimal_crusade_width_is_gamma(g, seed):
    t = resilience_table(g)
    from epigraph import optimal_crusade

    mask = (seed % g.full_mask) + 1
    c = optimal_crusade(g, mask, t)
    assert c.width == t.gamma_of(mask)
    assert crusade_width(g, [int(b) for b in c.bags]) == c.width


@given(st.integers(1, 63), st.integers(0, 2**40))
def test_nodeset_roundtrips_through_vertex_lists(n, bits):
    mask = bits & ((1 << n) - 1)
    ns = NodeSet(mask, n)
    assert NodeSet(list(ns), n) == ns
    assert len(ns) == bin(mask).count("1")


@st.composite
def premise_inputs(draw):
    """n, delta, a CutWidth W <= n*delta/2 (often near the top, where the
    premise can hold), r >= 1 and a start's resilience gamma0 <= W."""
    n = draw(st.integers(1, 300))
    delta = draw(st.integers(1, 40))
    top = n * delta // 2
    W = draw(st.one_of(st.integers(0, top), st.integers(max(0, top - 60), top)))
    return n, delta, W, draw(st.integers(1, 50)), draw(st.integers(0, W))


@given(premise_inputs())
@example((100, 4, 198, 14, 197))  # 19W = 9n*delta + 30*delta + 3r exactly: met
@example((100, 4, 198, 15, 197))  # one more unit of budget: unmet
def test_full_infection_condition_is_the_premise(inputs):
    # with gamma0 = W and E = slack_E(n, delta, W) the bound's hypothesis
    # gamma0 >= delta(9E + 12) + 3r reads 19W >= 9n*delta + 30*delta + 3r
    n, delta, W, r, gamma0 = inputs
    E = slack_E(n, delta, W)
    premise = 19 * W >= 9 * n * delta + 30 * delta + 3 * r
    assert extinction_lower_bound(BoundInputs(gamma0=W, delta=delta, E=E, r=r)).condition_met == premise
    if extinction_lower_bound(BoundInputs(gamma0=gamma0, delta=delta, E=E, r=r)).condition_met:
        assert premise  # a start below full infection only lowers gamma0
