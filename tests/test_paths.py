import pytest

from conftest import potential_graph, triangle
from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.errors import (JfrError, MissingEdge, NegCycleResult,
                             NoCycleRecorded)
from jfrbench.generators import gen_sparse_random, plant_negative_cycle
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import jfr_pq, jfr_strict
from jfrbench.results import RunStats, SsspResult
from jfrbench.verify import (check_optimality_conditions, cycle_weight,
                             detect_negative_cycle, parent_cycles)


def test_path_weights_are_consistent():
    # the audit's parent_ok: every finite label is the weight of a tight
    # parent path to the source
    for seed in range(30):
        g = potential_graph(40, 200, seed)
        assert check_optimality_conditions(g, 0, bellman_ford(g, 0)).ok, seed


def test_cycle_weight_wraparound_and_parallel_edges():
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 2.0), (0, 1, 1.0),
                                       (1, 2, 3.0), (2, 0, -5.0)]))
    assert cycle_weight(g, [0, 1, 2]) == -1e6  # in micro-units


def test_cycle_weight_missing_edge():
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 2.0)]))
    with pytest.raises(MissingEdge):
        cycle_weight(g, [0, 2])


def test_path_errors_are_jfr_errors():
    for error in (NoCycleRecorded, MissingEdge, NegCycleResult):
        assert issubclass(error, JfrError)


def test_detect_requires_recorded_cycle():
    r = bellman_ford(triangle(), 0)
    with pytest.raises(NoCycleRecorded):
        detect_negative_cycle(r, triangle())


def test_detect_negative_cycle_all_solvers():
    solvers = [bellman_ford, spfa_fifo, spfa_slf, jfr_pq,
               lambda g, s: jfr_strict(g, s, 2)]
    for seed in range(15):
        base = gen_sparse_random(40, 150, seed)
        g = plant_negative_cycle(base, 3 + seed % 4, seed=seed)
        for solve in solvers:
            r = solve(g, 0)
            assert r.neg_cycle
            cycle = detect_negative_cycle(r, g)
            assert len(cycle) >= 2
            assert len(set(cycle)) == len(cycle)  # simple cycle
            assert cycle_weight(g, cycle) < 0


def test_parent_cycles_finds_each_disjoint_cycle_once():
    # edges parent[v] -> v: the cycle 1 -> 2 -> 3 -> 1 with 2 -> 4 hanging
    # off it, the self-loop 5 -> 5 with 5 -> 6, and the root 0 with 0 -> 7
    parent = [None, 3, 1, 2, 2, 5, 5, 0]
    assert parent_cycles(parent) == [[2, 3, 1], [5]]
    assert parent_cycles([None, 0, 1]) == []
    assert parent_cycles([]) == []


def test_detect_without_witness_walks_the_parent_graph():
    # a result read from a file carries no witness and no improvement counts
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 1.0), (1, 2, -2.0),
                                       (2, 1, 1.0)]))
    loaded = SsspResult([0.0, 0.0, 0.0], [None, 2, 1], True,
                        RunStats(mode="external"))
    cycle = detect_negative_cycle(loaded, g)
    assert sorted(cycle) == [1, 2] and cycle_weight(g, cycle) < 0
    loaded.parent = [None, 0, 1]
    with pytest.raises(NoCycleRecorded):
        detect_negative_cycle(loaded, g)


def test_detect_witness_walk_that_meets_no_cycle():
    # the walk back from the witness reaches the root before n steps
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 1.0), (1, 2, -2.0),
                                       (2, 1, 1.0)]))
    broken = SsspResult([0.0, 1.0, -1.0], [None, 0, 1], True,
                        RunStats(mode="external"), cycle_witness=2)
    with pytest.raises(NoCycleRecorded):
        detect_negative_cycle(broken, g)


@pytest.mark.parametrize("witness", [99, "x", 1.0, -1], ids=repr)
def test_detect_refuses_a_witness_that_is_not_a_vertex(witness):
    # 99 once raised IndexError, "x" and 1.0 TypeError, and -1 was read
    # as vertex 2, which lies on the cycle 1 <-> 2
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 1.0), (1, 2, -2.0),
                                       (2, 1, 1.0)]))
    claim = SsspResult([0.0, 0.0, 0.0], [None, 2, 1], True,
                       RunStats(mode="external"), cycle_witness=witness)
    with pytest.raises(NoCycleRecorded):
        detect_negative_cycle(claim, g)
