import csv
import json
import math
import random
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import chain, potential_graph, rule_before_certify, triangle
from jfrbench import graph, verify
from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.cli import main
from jfrbench.errors import IndexOutOfRange, InexactWeight, NegCycleResult
from jfrbench.generators import (gen_slf_killer, generate,
                                 plant_negative_cycle)
from jfrbench.graph import (SCALE, EdgeListDoc, from_edge_list, read_file,
                            write_file, write_text)
from jfrbench.jfr import jfr_pq, jfr_strict
from jfrbench.paths import cycle_weight, detect_negative_cycle
from jfrbench.results import RunStats, SsspResult
from jfrbench.verify import (certify, check_optimality_conditions,
                             oracle_compare, oracle_verdict)


def test_oracle_compare_accepts_oracle_itself():
    g = triangle()
    report = oracle_compare(g, 0, bellman_ford(g, 0))
    assert report.distances_match and report.neg_cycle_agree
    assert report.first_mismatch is None
    assert report.ok


def test_oracle_compare_flags_perturbed_label():
    g = triangle()
    r = bellman_ford(g, 0)
    r.dist[2] += SCALE
    report = oracle_compare(g, 0, r)
    assert not report.distances_match
    assert report.first_mismatch == (2, 1e6, 2e6)
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
    r.dist = [1e6, 3e6, 2e6]  # uniformly shifted: triangle holds, source not 0
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


def test_optimality_rejects_minus_inf_without_a_tight_parent_edge():
    # -inf is not +inf: such a label must hang off a tight parent edge too
    g = triangle()
    for parent in ([None, 0, 1], [None, 0, None]):
        claim = SsspResult([0.0, 2e6, -math.inf], parent, False,
                           RunStats(mode="external"))
        report = check_optimality_conditions(g, 0, claim)
        assert report.triangle_ok and not report.parent_ok, parent
    # a -inf parent cycle is tight all round, and never meets the source
    g = from_edge_list(EdgeListDoc(3, [(1, 2, 0.0), (2, 1, 0.0)]))
    claim = SsspResult([0.0, -math.inf, -math.inf], [None, 2, 1], False,
                       RunStats(mode="external"))
    report = check_optimality_conditions(g, 0, claim)
    assert report.triangle_ok and not report.parent_ok


def test_optimality_ignores_a_parent_cycle_of_unreachable_vertices():
    # 2 <-> 3 is a parent cycle the source never reaches; both labels are
    # +inf, so neither needs a tight parent edge
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (2, 3, 1.0),
                                       (3, 2, 1.0)]))
    claim = SsspResult([0.0, 1e6, math.inf, math.inf], [None, 0, 3, 2],
                       False, RunStats(mode="external"))
    report = check_optimality_conditions(g, 0, claim)
    assert report.triangle_ok and report.parent_ok
    assert oracle_compare(g, 0, claim).ok


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
        r = jfr_pq(g, 0, k=1)
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


def test_optimality_rejects_a_label_list_of_the_wrong_length():
    g = triangle()
    r = bellman_ford(g, 0)
    for dist in (r.dist[:2], r.dist + [0.0]):
        r.dist = dist
        report = check_optimality_conditions(g, 0, r)
        assert not report.ok and not report.parent_ok, dist


def test_optimality_rejects_a_source_out_of_range():
    g = triangle()
    for s in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            check_optimality_conditions(g, s, bellman_ford(g, 0))


# --- certify: the oracle's verdict, by certificate where one applies ---

SOLVERS = [bellman_ford, spfa_fifo, spfa_slf] + [
    partial(solve, k=k) for solve in (jfr_strict, jfr_pq) for k in (1, 2)]


@pytest.fixture
def resolves(monkeypatch):
    """The sources of the Bellman-Ford re-solves that verify makes."""
    calls = []

    def counted(g, s):
        calls.append(s)
        return bellman_ford(g, s)

    monkeypatch.setattr(verify, "bellman_ford", counted)
    return calls


def planted_graph(seed):
    base = generate("neg-dense", seed, n=40, m=300, neg_fraction=0.3)
    return plant_negative_cycle(base, 3 + seed % 5, seed, -0.5)


def seeded_graphs():
    graphs = [potential_graph(50, 250, seed) for seed in range(12)]
    graphs += [gen_slf_killer(n, seed=seed) for n, seed in ((8, 0), (120, 1))]
    graphs += [planted_graph(seed) for seed in range(8)]
    return graphs


def test_certify_vouches_for_every_solver_without_resolving(resolves):
    for i, g in enumerate(seeded_graphs()):
        for solve in SOLVERS:
            r = solve(g, 0)
            report = certify(g, 0, r)
            assert report.ok, (i, solve)
            assert report == rule_before_certify(g, 0, r), (i, solve)
    for seed in range(6):
        g = potential_graph(50, 250, seed, mixed=False)
        r = jfr_pq(g, 0, k=1)
        assert certify(g, 0, r) == rule_before_certify(g, 0, r)
    assert resolves == []


HALVES = st.integers(-8, 12).map(lambda w: w / 2)  # every sum is exact
DECIMALS = st.integers(-4_000_000, 6_000_000).map(lambda w: w / 1e6)


@st.composite
def multigraphs(draw, weights=HALVES, reverse=0):
    """Small graphs with parallel edges and negative weights, but no
    negative self-loop.  Each edge but a loop is followed, in ``reverse``
    tenths of the draws, by a reverse edge of negated weight."""
    n = draw(st.integers(1, 8))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights)
    edges = draw(st.lists(edge.filter(lambda e: e[0] != e[1] or e[2] >= 0),
                          max_size=4 * n))
    edges += [(v, u, -w) for u, v, w in edges
              if u != v and draw(st.integers(0, 9)) < reverse]
    return from_edge_list(EdgeListDoc(n, edges))


# around the zero-weight cycle 1 <-> 2, float sums of these weights once
# lowered d[2] by one ulp and left a parent cycle that only some solvers
# flagged, and certify rejected Bellman-Ford's own result
ZERO_CYCLE = from_edge_list(EdgeListDoc(3, [(0, 2, 4.713503), (2, 1, 1.4),
                                            (1, 2, -1.4)]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=st.one_of(multigraphs(), multigraphs(DECIMALS, reverse=3)))
@example(g=ZERO_CYCLE)
def test_every_solver_flags_exactly_when_bellman_ford_does(resolves, g):
    want = bellman_ford(g, 0)
    assert certify(g, 0, want).ok
    for solve in SOLVERS[1:] + [partial(jfr_pq, k=3),
                                partial(jfr_strict, k=3)]:
        r = solve(g, 0)
        assert r.neg_cycle == want.neg_cycle, solve
        if r.neg_cycle:
            assert cycle_weight(g, detect_negative_cycle(r, g)) < 0, solve
            assert certify(g, 0, r).ok, solve
        else:
            assert r.dist == want.dist, solve
    assert resolves == []


def n_pass_rule(g, s):
    """Plain Bellman-Ford: passes in CSR order until one improves nothing,
    flagging when all n passes improve.  Returns the flag, labels, parents
    and inspections, and the inspections left when a pass skips a vertex
    whose label has not changed since its last scan (scan-once)."""
    dist, parent = [math.inf] * g.n, [None] * g.n
    dist[s] = 0.0
    scanned = [math.inf] * g.n
    inspections = scan_once = 0
    for _ in range(g.n):
        improved = False
        for u in range(g.n):
            du = dist[u]
            if du == math.inf:
                continue
            if du != scanned[u]:
                scanned[u] = du
                scan_once += g.offsets[u + 1] - g.offsets[u]
            for e in range(g.offsets[u], g.offsets[u + 1]):
                inspections += 1
                v = g.targets[e]
                if du + g.weights[e] < dist[v]:
                    dist[v], parent[v] = du + g.weights[e], u
                    improved = True
        if not improved:
            return False, dist, parent, inspections, scan_once
    return True, dist, parent, inspections, scan_once


@settings(max_examples=400, deadline=None)
@given(g=st.one_of(multigraphs(), multigraphs(DECIMALS, reverse=3)))
@example(g=ZERO_CYCLE)
def test_bellman_ford_returns_the_n_pass_verdict(g):
    flag, dist, parent, inspections, scan_once = n_pass_rule(g, 0)
    r = bellman_ford(g, 0)
    assert r.neg_cycle == flag
    if not flag:
        assert (r.dist, r.parent, r.stats.edge_inspections) \
            == (dist, parent, scan_once)
        assert scan_once <= inspections
    elif r.stats.outer_iterations < g.n:  # left before the n-th pass
        assert cycle_weight(g, detect_negative_cycle(r, g)) < 0


# off the micro-unit grid (a cycle of weight -1e-12), and past 2^52
# micro-units in all, where labels near 1e17 would round a cycle's -0.5
# away, or past the float range in micro-units
INEXACT = [[(0, 1, 1e6), (1, 2, 0.1), (2, 1, -0.1 - 1e-12)],
           [(0, 1, 1e17), (1, 2, -1.0), (2, 1, 0.5)],
           [(0, 1, 1.0), (1, 2, -1e299), (2, 1, 5e298)],
           [(0, 1, 1e308), (1, 2, -1.0), (2, 1, 0.5)]]


def test_weights_that_micro_units_cannot_sum_exactly_are_rejected(
        tmp_path):
    path = tmp_path / "g.txt"
    for edges in INEXACT:
        with pytest.raises(InexactWeight):
            from_edge_list(EdgeListDoc(3, edges))
        text = write_text(EdgeListDoc(3, edges))
        assert graph._scan_canonical(text) is not None  # read_file scans it
        for data in (text, b"# not canonical\n" + text):
            path.write_bytes(data)
            with pytest.raises(InexactWeight):
                read_file(path)


def test_certified_cycles_needs_a_weight_beyond_rounding(resolves):
    # sums of micro-units are exact, so one micro-unit below zero is
    # beyond rounding; weights whose sums could round are not built
    def certified(edges):
        g = from_edge_list(EdgeListDoc(3, edges))
        claim = flagged_claim(3, [None, 2, 1])
        del resolves[:]
        report = certify(g, 0, claim)
        assert report == rule_before_certify(g, 0, claim)
        return report.ok and not resolves

    assert certified([(0, 1, 1.0), (1, 2, -1.0), (2, 1, 0.5)])
    # -1e-6 in all at labels near 1e6, where -1e-12 once sat in rounding
    assert certified([(0, 1, 1e6), (1, 2, 0.1), (2, 1, -0.100001)])
    assert not certified([(0, 1, 1.0), (1, 2, -1.0), (2, 1, 1.0)])  # zero
    assert not certified([(0, 1, 1.0), (1, 2, -1.0)])  # no 2->1
    for edges in INEXACT:
        with pytest.raises(InexactWeight):
            from_edge_list(EdgeListDoc(3, edges))


def mutants(g, r, rng):
    """Copies of ``r`` with one label, parent or flag changed."""
    def copy(**changes):
        fields = dict(dist=list(r.dist), parent=list(r.parent),
                      neg_cycle=r.neg_cycle, stats=r.stats)
        fields.update(changes)
        return SsspResult(**fields)

    finite = [v for v in range(g.n) if r.dist[v] != math.inf]
    infinite = [v for v in range(g.n) if r.dist[v] == math.inf]
    for delta in (1.0, -1.0):
        v = rng.choice(finite)
        dist = list(r.dist)
        dist[v] += delta
        yield copy(dist=dist)
    if len(finite) > 1 and infinite:
        dist = list(r.dist)
        a, b = rng.choice(finite[1:]), rng.choice(infinite)
        dist[a], dist[b] = dist[b], dist[a]
        yield copy(dist=dist)
    v = rng.randrange(g.n)
    parent = list(r.parent)
    parent[v] = rng.choice([u for u in range(g.n) if u != r.parent[v]])
    yield copy(parent=parent)
    yield copy(neg_cycle=not r.neg_cycle)


def test_certify_matches_the_oracle_on_mutated_results():
    rng = random.Random(7)
    judged = 0
    for g in seeded_graphs():
        for solve in (bellman_ford, jfr_pq, spfa_slf):
            for m in mutants(g, solve(g, 0), rng):
                assert certify(g, 0, m) == rule_before_certify(g, 0, m)
                judged += 1
    assert judged > 100


def flagged_claim(n, parent):
    return SsspResult([0.0] * n, parent, True, RunStats(mode="external"))


def test_certify_resolves_a_negative_cycle_the_source_cannot_reach(resolves):
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (2, 3, -1.0),
                                       (3, 2, -1.0)]))
    claim = flagged_claim(4, [None, 0, 3, 2])
    report = certify(g, 0, claim)
    assert report == rule_before_certify(g, 0, claim)
    assert not report.neg_cycle_agree and resolves == [0]


def test_certify_resolves_a_parent_cycle_through_a_missing_edge(resolves):
    # 1 -> 2 -> 1 is a reachable negative cycle, but the claim's parent
    # cycle 1 <-> 3 runs over edges the graph does not have
    g = from_edge_list(EdgeListDoc(4, [(0, 1, 1.0), (1, 2, -3.0),
                                       (2, 1, 1.0), (0, 3, 1.0)]))
    claim = flagged_claim(4, [None, 3, 1, 1])
    report = certify(g, 0, claim)
    assert report == rule_before_certify(g, 0, claim)
    assert report.ok and resolves == [0]
    claim.parent = [None, 2, 1, 0]
    assert certify(g, 0, claim).ok and resolves == [0]


def test_certify_resolves_a_zero_weight_parent_cycle(resolves):
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 5.0), (1, 2, 0.0),
                                       (2, 1, 0.0)]))
    claim = flagged_claim(3, [None, 2, 1])
    report = certify(g, 0, claim)
    assert report == rule_before_certify(g, 0, claim)
    assert not report.ok and resolves == [0]


def test_certify_resolves_a_cycle_that_rounding_hides_from_the_oracle(
        resolves):
    # 1 -> 2 -> 1 weighing -0.5 behind a 1e17 edge once settled unflagged
    # in float sums; that graph is refused, and at labels near the largest
    # that can be built (4e15 micro-units, below 2^53) the smallest
    # negative cycle, one micro-unit, still reaches the oracle
    with pytest.raises(InexactWeight):
        from_edge_list(EdgeListDoc(3, [(0, 1, 1e17), (1, 2, -1.0),
                                       (2, 1, 0.5)]))
    g = from_edge_list(EdgeListDoc(3, [(0, 1, 4e9), (1, 2, -1.0),
                                       (2, 1, 0.999999)]))
    assert bellman_ford(g, 0).neg_cycle
    claim = flagged_claim(3, [None, 0, 1])  # parents the certificate
    report = certify(g, 0, claim)           # cannot follow to a cycle
    assert report == rule_before_certify(g, 0, claim)
    assert report.ok and resolves == [0]


def test_certify_checks_the_source_and_the_label_count():
    g = triangle()
    r = bellman_ford(g, 0)
    with pytest.raises(IndexOutOfRange):
        certify(g, 3, r)
    r.dist = r.dist[:2]
    assert certify(g, 0, r) == rule_before_certify(g, 0, r)


# every entry point that takes a source, each called as f(g, source)
SOURCE_TAKERS = {
    "bellman_ford": bellman_ford,
    "spfa_fifo": spfa_fifo,
    "spfa_slf": spfa_slf,
    "jfr_strict": partial(jfr_strict, k=2),
    "jfr_pq": jfr_pq,
    "check_optimality_conditions": lambda g, s: check_optimality_conditions(
        g, s, bellman_ford(g, 0)),
    "certify": lambda g, s: certify(g, s, bellman_ford(g, 0)),
}


@pytest.mark.parametrize("source", [0.0, True], ids=repr)
@pytest.mark.parametrize("taker", SOURCE_TAKERS)
def test_a_source_that_is_not_an_int_is_rejected(taker, source):
    # without a type check, 0.0 ends in an untyped TypeError and True runs
    # from vertex 1
    with pytest.raises(IndexOutOfRange):
        SOURCE_TAKERS[taker](chain(3), source)


# --- the CLI reaches its verdicts without a re-solve ---

def cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_cli_checks_correct_results_without_bellman_ford(capsys, tmp_path,
                                                          monkeypatch):
    def refuse(g, s):
        raise AssertionError("Bellman-Ford re-solve")

    monkeypatch.setattr(verify, "bellman_ford", refuse)
    feasible = generate("neg-dense", 3, n=60, m=300, neg_fraction=0.4)
    flagged = planted_graph(5)
    for name, g in (("feasible", feasible), ("flagged", flagged)):
        path, res = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
        write_file(str(path), g)
        for algo in ("jfr-pq", "slf", "jfr-strict"):
            code, out = cli(capsys, "run", path, "--algo", algo, "--check",
                            "--out", res)
            assert code == 0 and json.loads(out)["check"] == "PASS", algo
            assert json.loads(res.read_text())["neg_cycle"] == \
                (name == "flagged")
            code, out = cli(capsys, "verify", path, res)
            assert code == 0 and json.loads(out)["neg_cycle_agree"], algo
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({
        "seed": 3, "repetitions": 2, "algorithms": ["slf", "jfr-pq", "bf"],
        "entries": [{"family": "neg-dense", "n": 40, "m": 200},
                    {"family": "slf-killer", "n": 60}]}))
    code, out = cli(capsys, "suite", spec)
    assert code == 0
    assert {r["check"] for r in csv.DictReader(out.splitlines()[1:])} \
        == {"PASS"}
