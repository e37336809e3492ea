import random

from jfrbench.baselines import bellman_ford
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.verify import check_optimality_conditions, oracle_verdict


def potential_graph(n, m, seed, mixed=True):
    """Random test graph, free of negative cycles by construction.

    With ``mixed`` the weights are potential-shifted (w0 + p(u) - p(v),
    w0 > 0) so negative edges appear but every cycle telescopes to a
    positive sum; otherwise weights are plain non-negative.  Built here
    independently of the package generators so generator bugs cannot mask
    solver bugs.
    """
    rng = random.Random(seed)
    p = [rng.uniform(0.0, 10.0) for _ in range(n)]
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if mixed:
            w = round(rng.uniform(0.001, 4.0) + p[u] - p[v], 6)
        else:
            w = round(rng.uniform(0.0, 4.0), 6)
        edges.append((u, v, w))
    return from_edge_list(EdgeListDoc(n, edges))


def triangle():
    return from_edge_list(EdgeListDoc(3, [(0, 1, 2.0), (1, 2, -1.0),
                                          (0, 2, 5.0)]))


def chain(length, weight=1.0):
    return from_edge_list(EdgeListDoc(length,
                                      [(i, i + 1, weight)
                                       for i in range(length - 1)]))


def rule_before_certify(g, s, r):
    """The verdict every check gave before ``certify``: a Bellman-Ford
    re-solve judged by ``oracle_verdict``, plus the audit's flags on an
    unflagged result."""
    report = oracle_verdict(bellman_ford(g, s), r)
    if not r.neg_cycle:
        audit = check_optimality_conditions(g, s, r)
        report.triangle_ok = audit.triangle_ok
        report.parent_ok = audit.parent_ok
    return report
