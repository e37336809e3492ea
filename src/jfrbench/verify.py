"""Independent correctness checks: a ground-truth oracle comparison and a
cheap fixed-point audit that needs no second solver run.

Exact float equality is the right comparison here: every solver in this
package computes each final label as the minimum over paths of the same
forward-evaluated float sum, so agreeing inputs give bit-identical
distance arrays.  The fixed-point audit (triangle inequality over all
edges plus a tree of tight parent edges rooted at the source) is the
authority for results imported from outside the package.
"""

from dataclasses import dataclass

from .baselines import bellman_ford
from .errors import NegCycleResult
from .graph import Graph
from .results import SsspResult

_INF = float("inf")


@dataclass
class VerifyReport:
    distances_match: bool = True
    triangle_ok: bool = True
    parent_ok: bool = True
    neg_cycle_agree: bool = True
    first_mismatch: "tuple[int, float, float] | None" = None

    @property
    def ok(self) -> bool:
        return (self.distances_match and self.triangle_ok
                and self.parent_ok and self.neg_cycle_agree)


def oracle_verdict(oracle: SsspResult, candidate: SsspResult) -> VerifyReport:
    """Judge a candidate against the oracle's result on the same instance.

    The negative-cycle flags must agree.  When both runs flag a cycle
    their labels are undefined and are not compared; otherwise the labels
    must match entry by entry, the +inf pattern included.  Fields not
    exercised by this check (triangle_ok, parent_ok) stay true.
    """
    report = VerifyReport(
        neg_cycle_agree=oracle.neg_cycle == candidate.neg_cycle)
    if oracle.neg_cycle and candidate.neg_cycle:
        return report
    report.distances_match = oracle.dist == candidate.dist
    report.first_mismatch = next(
        ((v, want, got) for v, (want, got)
         in enumerate(zip(oracle.dist, candidate.dist)) if want != got), None)
    return report


def oracle_compare(g: Graph, s: int, candidate: SsspResult) -> VerifyReport:
    """Re-solve with Bellman-Ford and judge the candidate by
    :func:`oracle_verdict`."""
    return oracle_verdict(bellman_ford(g, s), candidate)


def well_formed_parents(parent, n: int) -> bool:
    """Whether ``parent`` has ``n`` entries, each None or a vertex in
    [0, n)."""
    return len(parent) == n and all(
        p is None or (type(p) is int and 0 <= p < n) for p in parent)


def check_optimality_conditions(g: Graph, s: int,
                                result: SsspResult) -> VerifyReport:
    """Audit a claimed solution against the relaxation fixed point, in
    O(n + m).

    triangle_ok: no edge can still improve its head.  parent_ok: the
    parent list has one entry per vertex, each None or a vertex; dist[s]
    is 0 and s has no parent; and every finite-label vertex reaches s
    through parent edges that exist in the graph and are tight.  Together
    the two flags prove the labels optimal: each is the weight of a real
    path, and no path is shorter.  Raises NegCycleResult when the result
    carries a negative-cycle flag (its labels are not a fixed point).
    """
    if result.neg_cycle:
        raise NegCycleResult("cannot audit optimality of a run that "
                             "detected a negative cycle")
    dist, parent = result.dist, result.parent
    n = g.n
    offsets, targets, weights = g.offsets, g.targets, g.weights
    parent_ok = (well_formed_parents(parent, n) and dist[s] == 0.0
                 and parent[s] is None)
    report = VerifyReport(parent_ok=parent_ok)
    # one pass over the edges: the triangle inequality, and which vertices
    # have a tight edge from their parent
    tight = [False] * n
    for u in range(n):
        du = dist[u]
        if du == _INF:
            continue
        for e in range(offsets[u], offsets[u + 1]):
            v = targets[e]
            cand = du + weights[e]
            dv = dist[v]
            if cand < dv:
                report.triangle_ok = False
            elif parent_ok and cand == dv and parent[v] == u:
                tight[v] = True
    if not parent_ok:
        return report
    # follow each finite vertex's tight parent edges until they meet s or
    # an earlier walk; every vertex is stepped through once
    walk = [-1] * n  # the start vertex of the walk that stepped through v
    walk[s] = n
    for start in range(n):
        v = start
        while walk[v] < 0 and tight[v]:
            walk[v] = start
            v = parent[v]
        # stuck at a finite label without a tight parent edge, or back on
        # this walk's own chain (a parent cycle)
        if (walk[v] < 0 and dist[v] != _INF) or walk[v] == start:
            report.parent_ok = False
            break
    return report
