import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, potential_graph
from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.cli import DESK_SUITE
from jfrbench.errors import IndexOutOfRange, SpecInvalid
from jfrbench.generators import gen_slf_killer, generate
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import LmhWorkspace, jfr_pq, jfr_strict, lmh_propagate
from jfrbench.verify import cycle_weight, detect_negative_cycle
from jfrbench.results import start_run

INF = math.inf


def fresh_state(g):
    """The workspace of a solve of ``g`` from source 0."""
    return LmhWorkspace(g, *start_run(g, 0, "lmh"))


def test_lmh_chain_full_depth():
    ws = fresh_state(chain(4))
    improved = lmh_propagate(ws, [0], 3)
    stats = ws.stats
    assert ws.dist == [0.0, 1e6, 2e6, 3e6]  # in micro-units
    assert improved == [1, 2, 3]
    assert ws.parent == [None, 0, 1, 2]
    assert stats.lmh_calls == [(3, 3, 3)]
    assert stats.edge_inspections == stats.lmh_inspections == 3
    assert stats.successful_relaxations == 3


def test_lmh_chain_depth_one_stops_after_one_hop():
    ws = fresh_state(chain(4))
    improved = lmh_propagate(ws, [0], 1)
    assert ws.dist == [0.0, 1e6, INF, INF]
    assert improved == [1]
    assert ws.stats.lmh_calls == [(1, 1, 1)]  # the window is {0}: only 0 scanned


def test_lmh_rejoining_paths_keep_first_improvement_order():
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 10.0), (0, 2, 1.0),
                                       (2, 1, 1.0)]))
    ws = fresh_state(g)
    improved = lmh_propagate(ws, [0], 2)
    assert ws.dist == [0.0, 2e6, 1e6]
    assert improved == [1, 2]  # vertex 1 listed once despite two improvements
    assert ws.stats.improvements == [0, 2, 1]


def test_lmh_argument_validation():
    ws = fresh_state(chain(3))
    with pytest.raises(SpecInvalid):
        lmh_propagate(ws, [0], 0)
    with pytest.raises(SpecInvalid):
        lmh_propagate(ws, [], 2)
    for k in (1.0, 2.5, True):
        with pytest.raises(SpecInvalid):
            lmh_propagate(ws, [0], k)
    assert ws.stats.lmh_calls == []


@pytest.mark.parametrize("solve, k", [(jfr_pq, 2.5), (jfr_pq, 1.0),
                                      (jfr_strict, 2.5), (jfr_strict, 1.0),
                                      (jfr_pq, True), (jfr_strict, True)])
def test_a_depth_that_is_not_an_int_is_refused(solve, k):
    # a depth is judged by its type, as a source is
    g = generate("sparse-random", 1, n=30, m=120)
    with pytest.raises(SpecInvalid, match="k must be >= 1 and an int"):
        solve(g, 0, k)


def test_lmh_infinite_seeds_are_skipped():
    ws = fresh_state(chain(4))
    improved = lmh_propagate(ws, [3], 2)
    assert improved == []
    assert ws.dist == [0.0, INF, INF, INF]


def test_lmh_inspection_bound_per_call():
    for seed in range(40):
        g = potential_graph(30, 150, seed)
        ws = fresh_state(g)
        for k in (1, 2, 3):
            lmh_propagate(ws, [0], k)
        for depth, inspections, window_deg in ws.stats.lmh_calls:
            assert inspections <= depth * window_deg


def test_lmh_window_is_the_scanned_vertices():
    # with a fresh workspace, the vertices with a non-NaN scanned label are
    # exactly the ones the call relaxed the out-edges of
    for seed in range(20):
        g = potential_graph(30, 150, seed)
        for k in (1, 2, 3):
            ws = fresh_state(g)
            lmh_propagate(ws, [0], k)
            (depth, inspections, window_deg), = ws.stats.lmh_calls
            assert window_deg == sum(g.out_degree(v) for v in range(30)
                                     if not math.isnan(ws.scanned[v]))
            assert depth == k and inspections <= k * window_deg


def test_lmh_scans_a_repeated_seed_once():
    g = potential_graph(30, 150, 0)
    deg = g.out_degree(5)
    ws = fresh_state(g)
    ws.dist[5] = 0.0
    lmh_propagate(ws, [5, 5], 1)
    assert deg > 0 and ws.stats.lmh_calls == [(1, deg, deg)]


def test_lmh_records_scanned_labels():
    ws = fresh_state(chain(4))
    lmh_propagate(ws, [0], 2)
    assert ws.scanned[:2] == [0.0, 1e6]
    assert all(math.isnan(x) for x in ws.scanned[2:])


def test_lmh_shared_workspace_matches_fresh_calls():
    # stamps left by earlier calls never leak into later ones
    calls = ((2, [0]), (1, [0, 3]), (3, list(range(0, 30, 4))), (2, [5, 5]),
             (2, [0]))
    for seed in range(20):
        g = potential_graph(30, 150, seed)
        shared, fresh = fresh_state(g), fresh_state(g)
        for k, seeds in calls:
            assert (lmh_propagate(shared, seeds, k)
                    == lmh_propagate(LmhWorkspace(g, fresh.dist, fresh.parent,
                                                  fresh.stats), seeds, k)), \
                (seed, k)
        assert (shared.dist, shared.parent, shared.stats) == \
            (fresh.dist, fresh.parent, fresh.stats), seed


def test_jfr_strict_chain_k1():
    r = jfr_strict(chain(4), 0, 1)
    assert r.dist == [0.0, 1e6, 2e6, 3e6]
    s = r.stats
    assert s.mode == "jfr-strict" and s.k == 1
    assert s.outer_iterations == 4  # the last scans nothing: 3 is a sink
    assert s.activations == [1, 1, 1, 1]
    assert s.edge_inspections == 3
    assert s.lmh_inspections == 0 and s.lmh_calls == []


def test_jfr_strict_chain_deep_k_converges_in_one_iteration():
    # the propagation scans 1, 2 and 3 at their final labels, so none of
    # them is promoted and the first frontier is the last
    r = jfr_strict(chain(4), 0, 4)
    assert r.dist == [0.0, 1e6, 2e6, 3e6]
    s = r.stats
    assert s.outer_iterations == 1
    assert s.activations == [1, 0, 0, 0]
    assert s.edge_inspections == 3
    assert s.lmh_inspections == 2
    assert s.lmh_calls == [(3, 2, 2)]


def test_jfr_strict_counts_a_promoted_sink_without_scanning_it():
    # the leaves 1, 2 and 3 are sinks
    star = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (0, 2, 2.0),
                                          (0, 3, 3.0)]))
    # k = 1: each leaf is promoted and counts one activation, and the
    # round that promoted only sinks still counts
    s = jfr_strict(star, 0, 1).stats
    assert s.activations == [1, 1, 1, 1]
    assert (s.outer_iterations, s.edge_inspections) == (2, 3)
    # k = 2: the propagation scans the leaves as its seeds, so none is
    # promoted
    s = jfr_strict(star, 0, 2).stats
    assert s.activations == [1, 0, 0, 0]
    assert (s.outer_iterations, s.edge_inspections) == (1, 3)
    assert s.lmh_calls == [(1, 0, 0)]


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


def test_jfr_strict_activation_bound():
    for seed in range(40):
        g = potential_graph(35, 180, seed)
        for k in (1, 2, 4, 8):
            s = jfr_strict(g, 0, k).stats
            for act, imp in zip(s.activations, s.improvements):
                assert act <= 1 + -(-imp // k)


def test_jfr_strict_inspects_at_most_m_on_neg_dense():
    # no vertex the propagation scanned at its label is promoted, so a
    # deeper propagation takes inspections off the frontier hop
    for seed in range(42, 47):
        g = generate("neg-dense", seed, n=1000, m=5000)
        for k in (1, 2, 3, 4, 8):
            assert jfr_strict(g, 0, k).stats.edge_inspections <= g.m, \
                (seed, k)


@pytest.mark.parametrize("entry", DESK_SUITE["entries"],
                         ids=lambda entry: entry["family"])
def test_jfr_strict_deeper_k_inspects_no_more_than_k1(entry):
    params = {key: value for key, value in entry.items() if key != "family"}
    for seed in range(42, 47):
        g = generate(entry["family"], seed, **params)
        base = jfr_strict(g, 0, 1).stats.edge_inspections
        for k in (2, 3, 4, 8):
            assert jfr_strict(g, 0, k).stats.edge_inspections <= base, \
                (seed, k)


def test_jfr_strict_counters_pinned():
    # any change here is a change in what the round-based mode does
    s = jfr_strict(potential_graph(12, 40, 5), 0, 3).stats
    assert s.lmh_calls == [(2, 28, 26), (2, 14, 9)]
    assert s.activations == [1, 1, 0, 0, 1, 0, 1, 0, 1, 2, 2, 1]
    assert s.improvements == [0, 5, 1, 3, 3, 2, 1, 1, 2, 3, 3, 2]
    assert (s.edge_inspections, s.lmh_inspections, s.outer_iterations) == \
        (73, 42, 3)


def test_jfr_strict_negative_cycle():
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (1, 2, -1.0),
                                       (2, 3, -1.0), (3, 1, 1.5)]))
    for k in (1, 2, 3):
        r = jfr_strict(g, 0, k)
        assert r.neg_cycle
        assert r.cycle_witness is not None


def test_jfr_strict_argument_validation():
    with pytest.raises(SpecInvalid):
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


def test_jfr_pq_k1_is_dijkstra_on_nonnegative_weights():
    # at k = 1 on non-negative weights the pops come in label order, so
    # each reached vertex is scanned at most once, at its final label
    graphs = [potential_graph(50, 180, seed, mixed=False)
              for seed in range(40)]
    for seed in range(42, 47):
        graphs += [
            generate("sparse-random", seed, n=300, m=3000),
            generate("sparse-random", seed, n=200, m=800, weight_hi=0.0),
            generate("windmill", seed, blades=5, blade_size=6),
            generate("neg-dense", seed, n=200, m=1000, neg_fraction=0.0)]
    for i, g in enumerate(graphs):
        r = jfr_pq(g, 0, k=1)
        assert r.dist == bellman_ford(g, 0).dist and not r.neg_cycle, i
        reached = [v for v in range(g.n) if r.dist[v] != INF]
        assert r.stats.edge_inspections == \
            sum(g.out_degree(v) for v in reached), i
        assert max(r.stats.activations) == 1, i


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
    assert r.dist == [0.0, 1e6, 2e6, 3e6, 4e6, 5e6]
    assert s.edge_inspections == s.lmh_inspections == 5
    assert s.activations == [1, 0, 1, 0, 1, 0]
    assert (s.queue_pushes, s.stale_pops, s.outer_iterations) == (3, 0, 3)


def test_jfr_pq_lmh_calls_pinned():
    # the first call scans some vertex in two waves: 28 inspections over a
    # window of degree 24
    assert jfr_pq(potential_graph(10, 30, 1), 0, k=3).stats.lmh_calls == \
        [(3, 28, 24), (3, 1, 1)]


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
    for k in (1, 2, 3, 4):
        r = jfr_pq(g, 0, k=k)
        assert r.neg_cycle, k
        # the witness lies on a parent cycle, and the cycle is negative
        cycle = detect_negative_cycle(r, g)
        assert r.cycle_witness in cycle, k
        assert cycle_weight(g, cycle) < 0, k


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
        == 3331


def _fan(fans):
    """The source 0 joined to ``fans`` hubs, each with negative edges to
    3 sinks of its own and a positive edge to the next hub."""
    edges = []
    for i in range(fans):
        hub = 1 + 4 * i
        edges.append((0, hub, 10.0 * (i + 1)))
        edges += [(hub, hub + j, -1.0 * j) for j in (1, 2, 3)]
        if i + 1 < fans:
            edges.append((hub, hub + 4, 1.0))
    return from_edge_list(EdgeListDoc(1 + 4 * fans, edges))


@pytest.mark.parametrize("g", [_fan(6), gen_slf_killer(600, seed=0)],
                         ids=["fan", "slf-killer"])
def test_jfr_pq_never_queues_a_sink(g, monkeypatch):
    # a sink's scan relaxes nothing, so it costs neither a push nor a pop
    pushed = set()
    real_heappush = heapq.heappush

    def heappush(heap, item):
        pushed.add(item[1])
        real_heappush(heap, item)

    # jfr_pq reads heapq.heappush at each call
    monkeypatch.setattr(heapq, "heappush", heappush)
    sinks = {v for v in range(1, g.n) if g.out_degree(v) == 0}
    assert sinks
    for k in (1, 2, 3):
        pushed.clear()
        r = jfr_pq(g, 0, k)
        assert r.dist == bellman_ford(g, 0).dist, k
        assert not pushed & sinks, k
        assert not any(r.stats.activations[v] for v in sinks), k


PQ_KILLER_LEVELS = (8, 12, 16)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jfr_pq_inspects_at_most_nm_on_pq_killer(k):
    for levels in PQ_KILLER_LEVELS:
        g = generate("pq-killer", 0, levels=levels, detour=k)
        assert jfr_pq(g, 0, k).stats.edge_inspections <= g.n * g.m, levels


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pq_killer_labels_and_fifo_inspections(k):
    for levels in PQ_KILLER_LEVELS:
        g = generate("pq-killer", 0, levels=levels, detour=k)
        fifo = spfa_fifo(g, 0)
        assert fifo.dist == bellman_ford(g, 0).dist
        assert fifo.dist[-1] == -(2 ** levels - 1) * 1e6  # every detour
        assert jfr_pq(g, 0, k).dist == fifo.dist
        # about a quarter of n * m at detour 1, less at longer detours
        assert fifo.stats.edge_inspections <= g.n * g.m / 3


def test_jfr_pq_pq_killer_inspections_pinned():
    # at k = detour = 1 the passes inspect as FIFO order does:
    # 3 * levels * (levels + 1) / 2 edges, where lazy deletion without
    # passes takes 3 * (2^levels - 1)
    assert [jfr_pq(generate("pq-killer", 0, levels=levels, detour=1), 0, 1)
            .stats.edge_inspections for levels in (8, 12)] == [108, 234]


def test_jfr_pq_argument_validation():
    with pytest.raises(SpecInvalid):
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
