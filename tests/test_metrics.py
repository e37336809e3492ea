import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import potential_graph
from jfrbench.errors import ModeMismatch, ZeroOps
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import jfr_pq, jfr_strict
from jfrbench.metrics import bound_check, compare
from jfrbench.results import RunStats


def stats(ops, t_ns, mode="x"):
    return RunStats(mode=mode, edge_inspections=ops, wall_time_ns=t_ns)


def test_compare_identity_case():
    a = stats(1000, 5000)
    c = compare(a, stats(1000, 5000))
    assert c.rho_ops == 1.0 and c.rho_tpr == 1.0 and c.nwr == 1.0


def test_compare_benchmark_anchor_row():
    # well-separated adversarial run: 44x fewer ops at ~1.8x unit cost
    c = compare(stats(44693930, 1064710000), stats(1007091, 13560000))
    assert c.rho_ops == pytest.approx(44.38, abs=0.01)
    assert c.rho_tpr == pytest.approx(0.565, abs=0.001)


def test_compare_slower_despite_fewer_ops():
    # fewer ops but each op so much slower that the clock favors the base
    c = compare(stats(1000, 1000), stats(100, 2000))
    assert c.rho_ops == 10.0
    assert c.rho_tpr == 20.0


def test_compare_zero_guards():
    with pytest.raises(ZeroOps):
        compare(stats(0, 100), stats(10, 100))
    with pytest.raises(ZeroOps):
        compare(stats(10, 100), stats(0, 100))
    with pytest.raises(ZeroOps):
        compare(stats(10, 0), stats(10, 100))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 9), st.integers(1, 10 ** 9),
       st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
def test_compare_identities_property(ops_b, ops_j, t_b, t_j):
    c = compare(stats(ops_b, t_b), stats(ops_j, t_j))
    assert abs(c.rho_ops * c.nwr - 1.0) <= 1e-12


def test_bound_check_mode_guard():
    g = potential_graph(10, 30, 1)
    with pytest.raises(ModeMismatch):
        bound_check(jfr_pq(g, 0).stats, g, 2)
    s = jfr_strict(g, 0, 2).stats
    with pytest.raises(ModeMismatch):
        bound_check(s, g, 3)  # right mode, wrong depth


def test_bound_check_edgeless():
    g = from_edge_list(EdgeListDoc(3, []))
    rep = bound_check(jfr_strict(g, 0, 2).stats, g, 2)
    assert rep.lhs == 0 and rep.rhs == 0.0 and rep.holds


def test_bound_check_unit_chain():
    g = from_edge_list(EdgeListDoc(11, [(i, i + 1, 1.0) for i in range(10)]))
    r = jfr_strict(g, 0, 1)
    rep = bound_check(r.stats, g, 1)
    # each vertex activates once (lhs = 10 scans); the slack term counts
    # nine degree-weighted improvements on top of the degree sum
    assert rep.lhs == 10
    assert rep.rhs == 19.0
    assert rep.holds


def test_bound_check_random_sweep():
    for seed in range(100):
        g = potential_graph(60, 300, seed)
        for k in (1, 2, 4):
            rep = bound_check(jfr_strict(g, 0, k).stats, g, k)
            assert rep.holds, (seed, k)
