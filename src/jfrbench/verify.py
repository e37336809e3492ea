"""Independent correctness checks: a ground-truth oracle comparison, a
cheap fixed-point audit that needs no second solver run, the negative
cycle a flagged result names (:func:`detect_negative_cycle`, weighed by
:func:`cycle_weight`), and :func:`certify`, which reaches the oracle's
verdict through the audit or that cycle and re-solves only when neither
vouches for the result.

Exact equality is the right comparison here: weights are whole
micro-units whose magnitudes sum to at most 2^52 (:mod:`jfrbench.graph`),
so every path sum is exact and every solver's labels on a feasible graph
are the exact distances.  The fixed-point audit (triangle inequality over
all edges plus a tree of tight parent edges rooted at the source) is the
authority for results imported from outside the package.
"""

from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq

from .baselines import bellman_ford
from .errors import MissingEdge, NegCycleResult, NoCycleRecorded
from .graph import Graph
from .results import SsspResult, check_source, on_parent_cycle

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


def cycle_weight(g: Graph, cycle: list) -> float:
    """Edge-weight sum around ``cycle`` (closing edge included), taking the
    cheapest edge wherever parallels exist.  Raises MissingEdge for a step
    the graph has no edge for."""
    offsets, targets, weights = g.offsets, g.targets, g.weights
    total = 0.0
    for i, tail in enumerate(cycle):
        head = cycle[(i + 1) % len(cycle)]
        best = None
        for e in range(offsets[tail], offsets[tail + 1]):
            if targets[e] == head:
                w = weights[e]
                if best is None or w < best:
                    best = w
        if best is None:
            raise MissingEdge(f"no edge {tail}->{head} in graph")
        total += best
    return total


def peel_cycle(parent: list, x: int) -> list:
    """The parent cycle through ``x``, in forward edge order."""
    backward = [x]
    cur = parent[x]
    while cur != x:
        backward.append(cur)
        cur = parent[cur]
    backward.reverse()
    return backward


def parent_cycles(parent: list) -> list:
    """Every cycle of the parent graph, each in forward edge order.

    Each vertex has at most one parent, so the cycles are disjoint.  One
    walk per start vertex stops at the first vertex any walk has already
    stepped through; a walk that stops on its own chain has met a cycle.
    Every vertex is stepped through once: O(n).
    """
    walk = [-1] * len(parent)  # the start vertex of the walk through v
    cycles = []
    for start in range(len(parent)):
        v = start
        while v is not None and walk[v] < 0:
            walk[v] = start
            v = parent[v]
        if v is not None and walk[v] == start:
            cycles.append(peel_cycle(parent, v))
    return cycles


def detect_negative_cycle(result: SsspResult, g: Graph) -> list:
    """The cycle a flagged result names, in forward edge order; weigh it
    with :func:`cycle_weight`.

    :func:`on_parent_cycle` walks from ``cycle_witness`` to a parent
    cycle, which is peeled off; a solver's witness lies on that cycle
    already.  A result without a witness (one read from a file, say)
    names the first cycle of its parent graph.  Raises NoCycleRecorded
    when the result names none: it is unflagged, its witness is not an
    int in [0, n), or the walk meets no cycle.
    """
    if not result.neg_cycle:
        raise NoCycleRecorded("result does not flag a negative cycle")
    parent = result.parent
    x = result.cycle_witness
    if x is None:
        cycles = parent_cycles(parent)
        if not cycles:
            raise NoCycleRecorded("the parent pointers hold no cycle")
        return cycles[0]
    if type(x) is not int or not 0 <= x < len(parent):
        raise NoCycleRecorded(f"witness {x!r} not in [0, {len(parent)})")
    x = on_parent_cycle(parent, x)
    if x is None:
        raise NoCycleRecorded("the witness's parent chain meets no cycle")
    return peel_cycle(parent, x)


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
    label and parent lists have one entry per vertex, each parent None or
    a vertex; dist[s] is 0 and s has no parent; every other vertex whose
    label is not +inf has a tight parent edge in the graph; and no parent
    cycle holds such a label.  So every such vertex reaches s along tight
    parent edges, and its label is the weight of a real path; with
    triangle_ok no path is shorter.  Raises NegCycleResult
    when the result carries a negative-cycle flag (its labels are not a
    fixed point), and IndexOutOfRange for a source outside [0, n).
    """
    if result.neg_cycle:
        raise NegCycleResult("cannot audit optimality of a run that "
                             "detected a negative cycle")
    check_source(g, s)
    dist, parent = result.dist, result.parent
    n = g.n
    if len(dist) != n:
        return VerifyReport(parent_ok=False)
    offsets, targets, weights = g.offsets, g.targets, g.weights
    parent_ok = (well_formed_parents(parent, n) and dist[s] == 0.0
                 and parent[s] is None)
    report = VerifyReport(parent_ok=parent_ok)
    # one pass over the edges: the triangle inequality, and which vertices
    # lack a tight edge from their parent
    untight = [True] * n
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
                untight[v] = False
    if parent_ok:  # after the first test, a cycle is all +inf or has none
        untight[s] = False
        report.parent_ok = (
            all(map(eq, compress(dist, untight), repeat(_INF)))
            and all(dist[c[0]] == _INF for c in parent_cycles(parent)))
    return report


def _reaches(g: Graph, s: int, v: int) -> bool:
    """Whether a path from ``s`` reaches ``v``, in O(n + m); the search
    stops once it finds ``v``."""
    seen = [False] * g.n
    seen[s] = True
    stack = [s]
    offsets, targets = g.offsets, g.targets
    while stack and not seen[v]:
        u = stack.pop()
        for w in targets[offsets[u]:offsets[u + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen[v]


def certify(g: Graph, s: int, result: SsspResult) -> VerifyReport:
    """The report of :func:`oracle_compare`, plus the audit's triangle_ok
    and parent_ok for an unflagged result, without re-solving whenever a
    linear certificate vouches for the result.

    Unflagged: a passing audit proves that these labels are the exact
    distances, which Bellman-Ford returns unflagged: each finite label is
    the exact weight of its tight tree path, and no edge improves one.
    Flagged: when the cycle that :func:`detect_negative_cycle` names is
    negative and ``s`` reaches it, Bellman-Ford flags too.  Any other
    result, wrong or with parents the certificate cannot follow, is
    judged by :func:`oracle_compare`, so the verdict is the oracle's on
    every input.
    """
    check_source(g, s)
    audit = None
    if not result.neg_cycle:
        audit = check_optimality_conditions(g, s, result)
        if audit.ok:
            return audit
    elif well_formed_parents(result.parent, g.n):
        try:
            cycle = detect_negative_cycle(result, g)
            if cycle_weight(g, cycle) < 0 and _reaches(g, s, cycle[0]):
                return VerifyReport()
        except (MissingEdge, NoCycleRecorded):
            pass  # the result names no negative cycle of the graph
    report = oracle_compare(g, s, result)
    if audit is not None:
        report.triangle_ok = audit.triangle_ok
        report.parent_ok = audit.parent_ok
    return report
