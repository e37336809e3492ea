import math
from functools import partial

import pytest

from conftest import potential_graph, triangle
from jfrbench.baselines import (bellman_ford, dijkstra_oracle, spfa_fifo,
                                spfa_slf)
from jfrbench.errors import NegCycleResult
from jfrbench.generators import gen_slf_killer
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import jfr_pq, jfr_strict
from jfrbench.results import RunStats, SsspResult
from jfrbench.verify import (check_optimality_conditions, oracle_compare,
                             oracle_verdict)


def test_oracle_compare_accepts_oracle_itself():
    g = triangle()
    report = oracle_compare(g, 0, bellman_ford(g, 0))
    assert report.distances_match and report.neg_cycle_agree
    assert report.first_mismatch is None
    assert report.ok


def test_oracle_compare_flags_perturbed_label():
    g = triangle()
    r = bellman_ford(g, 0)
    r.dist[2] += 1.0
    report = oracle_compare(g, 0, r)
    assert not report.distances_match
    assert report.first_mismatch == (2, 1.0, 2.0)
    assert not report.ok


def test_oracle_compare_neg_cycle_flag_disagreement():
    g = triangle()
    r = bellman_ford(g, 0)
    r.neg_cycle = True
    assert not oracle_compare(g, 0, r).neg_cycle_agree


def test_optimality_accepts_fixed_point():
    for seed in range(50):
        g = potential_graph(40, 200, seed)
        report = check_optimality_conditions(g, 0, bellman_ford(g, 0))
        assert report.triangle_ok and report.parent_ok


def test_optimality_flags_non_tight_parent():
    g = triangle()
    r = bellman_ford(g, 0)
    r.dist[2] += 0.5  # parent edge 1->2 no longer tight
    report = check_optimality_conditions(g, 0, r)
    assert not report.parent_ok


def test_optimality_flags_below_optimum_label():
    g = triangle()
    r = bellman_ford(g, 0)
    r.dist[1] = 0.25  # claims better than the only path allows
    report = check_optimality_conditions(g, 0, r)
    # edge (1,2) now undercuts dist[2]: the fixed point is violated
    assert not report.triangle_ok


def test_optimality_rejects_neg_cycle_result():
    g = from_edge_list(EdgeListDoc(2, [(0, 1, 1.0), (1, 0, -2.0)]))
    r = bellman_ford(g, 0)
    with pytest.raises(NegCycleResult):
        check_optimality_conditions(g, 0, r)


def test_optimality_checks_source_label():
    g = triangle()
    r = bellman_ford(g, 0)
    r.dist = [1.0, 3.0, 2.0]  # uniformly shifted: triangle holds, source not 0
    report = check_optimality_conditions(g, 0, r)
    assert not report.parent_ok


def test_cheap_check_soundness_against_oracle():
    # if the fixed-point audit passes and the reachability pattern matches,
    # the labels agree with the oracle
    for seed in range(200):
        g = potential_graph(30, 140, seed)
        candidate = jfr_pq(g, 0)
        audit = check_optimality_conditions(g, 0, candidate)
        oracle = bellman_ford(g, 0)
        pattern = [d == math.inf for d in candidate.dist] == \
                  [d == math.inf for d in oracle.dist]
        if audit.triangle_ok and audit.parent_ok and pattern:
            assert candidate.dist == oracle.dist, seed


def test_optimality_rejects_parent_cycle():
    # 1 <-> 2 is a tight zero-weight parent cycle that never reaches 0; the
    # labels satisfy every triangle inequality, but the true d(1) is 5
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 5.0), (1, 2, 0.0),
                                       (2, 1, 0.0)]))
    claim = SsspResult([0.0, -100.0, -100.0], [None, 2, 1], False,
                       RunStats(mode="external"))
    report = check_optimality_conditions(g, 0, claim)
    assert report.triangle_ok and not report.parent_ok
    # hanging 1 off the source instead breaks no cycle: the edge 0 -> 1 is
    # not tight, even though 1 has a tight edge from 2
    claim.parent = [None, 0, 1]
    report = check_optimality_conditions(g, 0, claim)
    assert report.triangle_ok and not report.parent_ok
    assert check_optimality_conditions(g, 0, bellman_ford(g, 0)).ok


def test_optimality_rejects_malformed_parents_without_raising():
    g = triangle()
    r = bellman_ford(g, 0)
    for parent in ([None, 0], [None, 0, 1, 2], [None, 0, 3], [None, 0, -1],
                   [None, 0, 1.0], [None, 0, "1"], [0, 0, 1]):
        r.parent = parent
        report = check_optimality_conditions(g, 0, r)
        assert report.triangle_ok and not report.parent_ok, parent


def test_optimality_accepts_every_solver():
    solvers = [bellman_ford, spfa_fifo, spfa_slf] + [
        partial(solve, k=k) for solve in (jfr_strict, jfr_pq)
        for k in (1, 2, 3)]
    graphs = [potential_graph(60, 300, seed) for seed in range(20)]
    graphs += [gen_slf_killer(n, seed=seed) for n, seed in ((8, 0), (200, 1))]
    for i, g in enumerate(graphs):
        for solve in solvers:
            report = check_optimality_conditions(g, 0, solve(g, 0))
            assert report.ok, (i, solve)
    for seed in range(20):
        g = potential_graph(60, 300, seed, mixed=False)
        r = dijkstra_oracle(g, 0)
        assert check_optimality_conditions(g, 0, r).ok, seed


def test_oracle_verdict_skips_labels_of_two_flagged_runs():
    g = from_edge_list(EdgeListDoc(2, [(0, 1, 1.0), (1, 0, -2.0)]))
    oracle = bellman_ford(g, 0)
    candidate = jfr_pq(g, 0)
    candidate.dist = [7.0, 7.0]
    assert oracle.neg_cycle and oracle_verdict(oracle, candidate).ok
    candidate.neg_cycle = False
    report = oracle_verdict(oracle, candidate)
    assert not report.neg_cycle_agree and not report.ok


def test_oracle_verdict_rejects_a_short_label_list():
    g = triangle()
    r = bellman_ford(g, 0)
    r.dist = r.dist[:2]
    report = oracle_verdict(bellman_ford(g, 0), r)
    assert not report.distances_match and report.first_mismatch is None
