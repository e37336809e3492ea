import math
from functools import partial

import pytest

from conftest import chain, potential_graph, triangle
from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.generators import generate, plant_negative_cycle
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import jfr_pq, jfr_strict

INF = math.inf


def test_bellman_ford_triangle():
    r = bellman_ford(triangle(), 0)
    assert r.dist == [0.0, 2e6, 1e6]  # in micro-units
    assert r.parent == [None, 0, 1]
    assert not r.neg_cycle
    s = r.stats
    assert s.mode == "bf"
    assert s.edge_inspections == 3  # the confirming pass scans nothing
    assert s.successful_relaxations == 3
    assert s.outer_iterations == 2
    assert s.activations == [1, 1, 1]
    assert s.improvements == [0, 1, 2]  # vertex 2 improves via 5.0 then 1.0


def test_bellman_ford_skips_unreachable_tails():
    # vertex 1 has an out-edge but stays at +inf: it must never be scanned
    g = from_edge_list(EdgeListDoc(2, [(1, 0, 1.0)]))
    r = bellman_ford(g, 0)
    assert r.dist == [0.0, INF]
    assert r.parent == [None, None]
    assert r.stats.edge_inspections == 0
    assert r.stats.outer_iterations == 1


def test_bellman_ford_chain_early_exit():
    # ascending vertex order lets one pass settle the whole chain
    r = bellman_ford(chain(5), 0)
    assert r.dist == [0.0, 1e6, 2e6, 3e6, 4e6]
    assert r.stats.outer_iterations == 2


def test_bellman_ford_scans_each_slf_killer_vertex_once():
    # the generator numbers vertices along the chain, so the first pass
    # settles every label and the confirming pass scans nothing
    g = generate("slf-killer", 42, n=2000)
    r = bellman_ford(g, 0)
    assert r.stats.outer_iterations == 2
    reached = [u for u in range(g.n) if r.dist[u] != INF]
    assert r.stats.activations == [int(d != INF) for d in r.dist]
    assert r.stats.edge_inspections == sum(
        g.offsets[u + 1] - g.offsets[u] for u in reached)


def test_spfa_fifo_triangle():
    r = spfa_fifo(triangle(), 0)
    assert r.dist == [0.0, 2e6, 1e6]
    s = r.stats
    assert s.mode == "spfa-fifo"
    assert s.edge_inspections == 3
    assert s.queue_pushes == 3
    assert s.outer_iterations == 3  # one pop per push
    assert s.activations == [1, 1, 1]


def test_spfa_slf_triangle():
    r = spfa_slf(triangle(), 0)
    assert r.dist == [0.0, 2e6, 1e6]
    assert r.stats.mode == "spfa-slf"
    assert r.stats.edge_inspections == 3


def test_spfa_slf_front_insertion():
    # v's label beats the queued front, so v must pop first and u's edge
    # is inspected only after v already improved the shared head
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 5.0), (0, 2, 1.0),
                                       (1, 3, 1.0), (2, 3, 1.0)]))
    r = spfa_slf(g, 0)
    assert r.dist == [0.0, 5e6, 1e6, 2e6]
    assert r.parent[3] == 2


def test_negative_cycle_flagged_by_all():
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (1, 2, -1.0),
                                       (2, 3, -1.0), (3, 1, 1.5)]))
    for alg in (bellman_ford, spfa_fifo, spfa_slf):
        r = alg(g, 0)
        assert r.neg_cycle, alg.__name__
        assert r.cycle_witness is not None


def test_negative_cycle_unreachable_is_ignored():
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (2, 3, -2.0),
                                       (3, 2, 1.0)]))
    for alg in (bellman_ford, spfa_fifo, spfa_slf):
        r = alg(g, 0)
        assert not r.neg_cycle
        assert r.dist[:2] == [0.0, 1e6] and r.dist[2] == INF


def test_spfa_variants_match_bf_on_mixed_sign():
    for seed in range(300):
        g = potential_graph(20 + seed % 41, 120, seed)
        want = bellman_ford(g, 0)
        assert not want.neg_cycle
        for alg in (spfa_fifo, spfa_slf):
            got = alg(g, 0)
            assert got.dist == want.dist, (alg.__name__, seed)
            assert not got.neg_cycle


def test_stats_bookkeeping_consistency():
    for seed in range(30):
        g = potential_graph(40, 200, seed)
        for alg in (bellman_ford, spfa_fifo, spfa_slf):
            s = alg(g, 0).stats
            assert len(s.activations) == len(s.improvements) == g.n
            assert s.wall_time_ns > 0


def test_source_out_of_range():
    from jfrbench.errors import IndexOutOfRange
    for alg in (bellman_ford, spfa_fifo, spfa_slf):
        with pytest.raises(IndexOutOfRange):
            alg(potential_graph(5, 5, 1, mixed=False), 5)


@pytest.mark.parametrize("solve", [
    spfa_fifo, spfa_slf,
    *(pytest.param(partial(jfr_pq, k=k), id=f"jfr_pq-k{k}")
      for k in (1, 2, 3)),
    *(pytest.param(partial(jfr_strict, k=k), id=f"jfr_strict-k{k}")
      for k in (1, 2)),
])
def test_parallel_edges_are_not_a_negative_cycle(solve):
    # two parallel edges improve vertex 1 twice in one scan, which an
    # n-improvements guard took for a cycle
    g = from_edge_list(EdgeListDoc(2, [(0, 1, 1.0), (0, 1, 0.5)]))
    r = solve(g, 0)
    assert r.dist == [0.0, 5e5] and not r.neg_cycle


def test_negative_cycle_detection_cost():
    # planted neg-dense graphs, as in the benchmark's neg-cycle workload;
    # each queue solver's bound is half of what it inspected under a
    # guard that flagged a vertex improved n times, and Bellman-Ford's and
    # jfr_strict's a tenth of what Bellman-Ford inspected in all n passes
    graphs = [plant_negative_cycle(generate("neg-dense", seed, n=40, m=800),
                                   8, seed, -0.5) for seed in range(1, 17)]

    def inspections(solve):
        runs = [solve(g, 0) for g in graphs]
        assert all(r.neg_cycle for r in runs), solve
        return sum(r.stats.edge_inspections for r in runs)

    for solve in (bellman_ford, partial(jfr_strict, k=2)):
        assert inspections(solve) <= 516686 / 10, solve
    for solve, before in ((spfa_fifo, 96485), (spfa_slf, 56698),
                          (jfr_pq, 66169)):
        assert inspections(solve) <= before / 2, solve
