import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, potential_graph
from jfrbench.baselines import bellman_ford, spfa_slf
from jfrbench.errors import IndexOutOfRange
from jfrbench.generators import gen_slf_killer, generate
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import LmhWorkspace, jfr_pq, jfr_strict, lmh_propagate
from jfrbench.paths import cycle_weight, detect_negative_cycle
from jfrbench.results import RunStats

INF = math.inf


def fresh_state(n):
    dist = [INF] * n
    dist[0] = 0.0
    return dist, [None] * n, RunStats(mode="lmh")


def test_lmh_chain_full_depth():
    g = chain(4)
    dist, parent, stats = fresh_state(4)
    improved = lmh_propagate(g, [0], 3, dist, parent, stats)
    assert dist == [0.0, 1.0, 2.0, 3.0]
    assert improved == [1, 2, 3]
    assert parent == [None, 0, 1, 2]
    assert stats.lmh_calls == [(3, 3, 3)]
    assert stats.edge_inspections == stats.lmh_inspections == 3
    assert stats.successful_relaxations == 3


def test_lmh_chain_depth_one_stops_after_one_hop():
    g = chain(4)
    dist, parent, stats = fresh_state(4)
    improved = lmh_propagate(g, [0], 1, dist, parent, stats)
    assert dist == [0.0, 1.0, INF, INF]
    assert improved == [1]
    assert stats.lmh_calls == [(1, 1, 2)]


def test_lmh_rejoining_paths_keep_first_improvement_order():
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 10.0), (0, 2, 1.0),
                                       (2, 1, 1.0)]))
    dist, parent, stats = fresh_state(3)
    improved = lmh_propagate(g, [0], 2, dist, parent, stats)
    assert dist == [0.0, 2.0, 1.0]
    assert improved == [1, 2]  # vertex 1 listed once despite two improvements
    assert stats.improvements == [0, 2, 1]


def test_lmh_argument_validation():
    g = chain(3)
    dist, parent, stats = fresh_state(3)
    with pytest.raises(ValueError):
        lmh_propagate(g, [0], 0, dist, parent, stats)
    with pytest.raises(ValueError):
        lmh_propagate(g, [], 2, dist, parent, stats)


def test_lmh_infinite_seeds_are_skipped():
    g = chain(4)
    dist, parent, stats = fresh_state(4)
    improved = lmh_propagate(g, [3], 2, dist, parent, stats)
    assert improved == []
    assert dist == [0.0, INF, INF, INF]


def test_lmh_inspection_bound_per_call():
    for seed in range(40):
        g = potential_graph(30, 150, seed)
        dist, parent, stats = fresh_state(30)
        for k in (1, 2, 3):
            lmh_propagate(g, [0], k, dist, parent, stats)
        for depth, inspections, window_deg in stats.lmh_calls:
            assert inspections <= depth * window_deg


def test_lmh_records_scanned_labels():
    g = chain(4)
    dist, parent, stats = fresh_state(4)
    ws = LmhWorkspace(4)
    lmh_propagate(g, [0], 2, dist, parent, stats, ws)
    assert ws.scanned[:2] == [0.0, 1.0]
    assert all(math.isnan(x) for x in ws.scanned[2:])


def test_lmh_shared_workspace_matches_fresh_calls():
    # stamps left by earlier calls never leak into later ones
    calls = ((2, [0]), (1, [0, 3]), (3, list(range(0, 30, 4))), (2, [5, 5]),
             (2, [0]))
    for seed in range(20):
        g = potential_graph(30, 150, seed)
        shared, fresh = fresh_state(30), fresh_state(30)
        ws = LmhWorkspace(30)
        for k, seeds in calls:
            assert (lmh_propagate(g, seeds, k, *shared, ws)
                    == lmh_propagate(g, seeds, k, *fresh)), (seed, k)
        assert shared == fresh, seed


def test_jfr_strict_chain_k1():
    r = jfr_strict(chain(4), 0, 1)
    assert r.dist == [0.0, 1.0, 2.0, 3.0]
    s = r.stats
    assert s.mode == "jfr-strict" and s.k == 1
    assert s.outer_iterations == 4  # last iteration scans {3}, improves nothing
    assert s.activations == [1, 1, 1, 1]
    assert s.edge_inspections == 3
    assert s.lmh_inspections == 0 and s.lmh_calls == []


def test_jfr_strict_chain_deep_k_converges_in_two_iterations():
    r = jfr_strict(chain(4), 0, 4)
    assert r.dist == [0.0, 1.0, 2.0, 3.0]
    s = r.stats
    assert s.outer_iterations == 2
    assert s.activations == [1, 1, 1, 1]
    assert s.edge_inspections == 5
    assert s.lmh_inspections == 2
    assert s.lmh_calls == [(3, 2, 2)]


def test_jfr_strict_matches_bf_across_k():
    for seed in range(60):
        g = potential_graph(25 + seed % 30, 140, seed)
        want = bellman_ford(g, 0)
        assert not want.neg_cycle
        for k in (1, 2, 4, 8):
            got = jfr_strict(g, 0, k)
            assert got.dist == want.dist, (seed, k)
            assert got.parent[0] is None


def test_jfr_strict_matches_bf_on_deque_adversary():
    # the cascade graph drives long rounds of repeated improvement, a
    # different regime than the random families above
    for seed in (0, 1, 2):
        g = gen_slf_killer(200, seed=seed)
        want = bellman_ford(g, 0)
        for k in (1, 2, 4, 8):
            assert jfr_strict(g, 0, k).dist == want.dist, (seed, k)


def test_jfr_strict_inspection_decomposition():
    # inspections split exactly into frontier scans (activations x degree)
    # plus the local-propagation share
    for seed in range(40):
        g = potential_graph(35, 180, seed)
        for k in (1, 2, 4):
            s = jfr_strict(g, 0, k).stats
            frontier_scans = sum(a * g.out_degree(v)
                                 for v, a in enumerate(s.activations))
            assert s.edge_inspections - s.lmh_inspections == frontier_scans
            assert s.successful_relaxations == sum(s.improvements)


def test_jfr_strict_activation_bound():
    for seed in range(40):
        g = potential_graph(35, 180, seed)
        for k in (1, 2, 4, 8):
            s = jfr_strict(g, 0, k).stats
            for act, imp in zip(s.activations, s.improvements):
                assert act <= 1 + -(-imp // k)


def test_jfr_strict_counters_pinned():
    # any change here is a change in what the round-based mode does
    s = jfr_strict(potential_graph(12, 40, 5), 0, 3).stats
    assert s.lmh_calls == [(2, 28, 35), (2, 14, 24)]
    assert s.activations == [1, 2, 1, 1, 2, 1, 1, 1, 1, 2, 2, 1]
    assert s.improvements == [0, 5, 1, 3, 3, 2, 1, 1, 2, 3, 3, 2]
    assert (s.edge_inspections, s.lmh_inspections, s.outer_iterations) == \
        (94, 42, 3)


def test_jfr_strict_negative_cycle():
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (1, 2, -1.0),
                                       (2, 3, -1.0), (3, 1, 1.5)]))
    for k in (1, 2, 3):
        r = jfr_strict(g, 0, k)
        assert r.neg_cycle
        assert r.cycle_witness is not None


def test_jfr_strict_argument_validation():
    with pytest.raises(ValueError):
        jfr_strict(chain(3), 0, 0)
    with pytest.raises(IndexOutOfRange):
        jfr_strict(chain(3), 3, 1)


def test_jfr_pq_matches_bf():
    for seed in range(200):
        g = potential_graph(20 + seed % 41, 130, seed)
        want = bellman_ford(g, 0)
        assert not want.neg_cycle
        got = jfr_pq(g, 0)
        assert got.dist == want.dist, seed
        assert not got.neg_cycle
        assert got.stats.successful_relaxations == sum(got.stats.improvements)


def test_jfr_pq_negative_cycle():
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (1, 2, -1.0),
                                       (2, 3, -1.0), (3, 1, 1.5)]))
    r = jfr_pq(g, 0)
    assert r.neg_cycle
    assert r.cycle_witness is not None


def test_jfr_pq_stats_fields():
    g = potential_graph(60, 300, 7)
    s = jfr_pq(g, 0).stats
    assert s.mode == "jfr-pq"
    assert s.queue_pushes >= s.outer_iterations - s.stale_pops
    assert s.stale_pops >= 0
    assert s.edge_inspections >= s.lmh_inspections


def test_jfr_pq_vertex_scanned_at_its_label_costs_nothing_more():
    # pop 0 relaxes 0->1, then (wave 2) 1->2 at vertex 1's final label, so
    # 1 is never queued again: every edge is inspected exactly once
    r = jfr_pq(chain(6), 0, k=2)
    s = r.stats
    assert r.dist == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert s.edge_inspections == s.lmh_inspections == 5
    assert s.activations == [1, 0, 1, 0, 1, 0]
    assert (s.queue_pushes, s.stale_pops, s.outer_iterations) == (3, 0, 3)


def test_jfr_pq_scans_each_label_at_most_once():
    # each scan of v is at a distinct label, the source's 0 or one left by
    # an improvement, which caps the inspections
    for seed in range(40):
        g = potential_graph(40, 200, seed)
        for k in (1, 2, 3):
            s = jfr_pq(g, 0, k=k).stats
            cap = sum((imp + (v == 0)) * g.out_degree(v)
                      for v, imp in enumerate(s.improvements))
            assert s.edge_inspections <= cap, (seed, k)


def test_jfr_pq_flags_cycle_that_lowers_the_popped_vertex():
    # 1 -> 2 -> 1 weighs -2.  With k = 2, popping 2 relaxes 2->1 and then
    # 1->2, lowering 2 itself, so 2 must be queued and popped again
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 1.0), (1, 2, -3.0),
                                       (2, 1, 1.0)]))
    r = jfr_pq(g, 0, k=2)
    assert r.neg_cycle and r.cycle_witness == 1
    assert r.stats.activations == [1, 0, 2]
    assert r.stats.improvements[r.cycle_witness] >= g.n
    assert cycle_weight(g, detect_negative_cycle(r, g)) < 0
    for k in (1, 3, 4):
        r = jfr_pq(g, 0, k=k)
        assert r.neg_cycle and r.cycle_witness is not None, k
        assert cycle_weight(g, detect_negative_cycle(r, g)) < 0, k


@pytest.mark.parametrize("family, params", [
    ("neg-dense", {"n": 500, "m": 30000, "neg_fraction": 0.3}),
    ("sparse-random", {"n": 2000, "m": 10000}),
])
def test_jfr_pq_inspects_no_more_than_slf_on_benign_families(family, params):
    # summed over desk-suite seeds, as the desk table reports them
    pq = slf = 0
    for seed in range(42, 52):
        g = generate(family, seed, **params)
        pq += jfr_pq(g, 0).stats.edge_inspections
        slf += spfa_slf(g, 0).stats.edge_inspections
    assert pq <= slf


def test_jfr_pq_slf_killer_inspections_pinned():
    assert jfr_pq(gen_slf_killer(2000, seed=0), 0).stats.edge_inspections \
        == 3998


def test_jfr_pq_argument_validation():
    with pytest.raises(ValueError):
        jfr_pq(chain(3), 0, k=0)
    with pytest.raises(IndexOutOfRange):
        jfr_pq(chain(3), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 4))
def test_jfr_modes_agree_with_bf_property(seed, k):
    g = potential_graph(24, 110, seed)
    want = bellman_ford(g, 0)
    assert jfr_strict(g, 0, k).dist == want.dist
    assert jfr_pq(g, 0).dist == want.dist
