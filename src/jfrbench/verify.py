"""Independent correctness checks: a ground-truth oracle comparison and a
cheap fixed-point audit that needs no second solver run.

Exact float equality is the right comparison here: every solver in this
package computes each final label as the minimum over paths of the same
forward-evaluated float sum, so agreeing inputs give bit-identical
distance arrays.  The fixed-point audit (triangle inequality over all
edges plus tight parent edges) is the authority for results imported from
outside the package.
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


def oracle_compare(g: Graph, s: int, candidate: SsspResult) -> VerifyReport:
    """Re-solve with Bellman-Ford and compare labels entry by entry.

    Fields not exercised by this check (triangle_ok, parent_ok) stay
    true.  The +inf pattern must match exactly too.  When both runs flag a
    negative cycle their labels are undefined and are not compared.
    """
    oracle = bellman_ford(g, s)
    report = VerifyReport()
    report.neg_cycle_agree = oracle.neg_cycle == candidate.neg_cycle
    if oracle.neg_cycle and candidate.neg_cycle:
        return report
    for v, (want, got) in enumerate(zip(oracle.dist, candidate.dist)):
        if want != got:
            report.distances_match = False
            report.first_mismatch = (v, want, got)
            break
    return report


def check_optimality_conditions(g: Graph, s: int,
                                result: SsspResult) -> VerifyReport:
    """Audit a claimed solution against the relaxation fixed point.

    triangle_ok: no edge can still improve its head.  parent_ok: dist[s]
    is 0, every finite-label vertex other than s has a parent, and each
    parent edge exists in the graph and is tight.  Raises NegCycleResult
    when the result carries a negative-cycle flag (its labels are not a
    fixed point).
    """
    if result.neg_cycle:
        raise NegCycleResult("cannot audit optimality of a run that "
                             "detected a negative cycle")
    dist, parent = result.dist, result.parent
    report = VerifyReport()
    for u, v, w in g.edges():
        du = dist[u]
        if du != _INF and du + w < dist[v]:
            report.triangle_ok = False
            break
    if dist[s] != 0.0:
        report.parent_ok = False
        return report
    for v in range(g.n):
        if v == s or dist[v] == _INF:
            continue
        p = parent[v]
        if p is None or dist[p] == _INF:
            report.parent_ok = False
            break
        tight = any(dist[p] + w == dist[v]
                    for head, w in g.out_edges(p) if head == v)
        if not tight:
            report.parent_ok = False
            break
    return report
