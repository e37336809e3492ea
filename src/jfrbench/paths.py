"""Negative-cycle certificates: parent-graph walks and cycle weights."""

from .errors import BrokenParentChain, MissingEdge, NoCycleRecorded
from .graph import Graph
from .results import SsspResult


def _min_edge_weight(g: Graph, tail: int, head: int) -> float:
    """Cheapest weight among (possibly parallel) tail→head edges."""
    best = None
    for e in range(g.offsets[tail], g.offsets[tail + 1]):
        if g.targets[e] == head:
            w = g.weights[e]
            if best is None or w < best:
                best = w
    if best is None:
        raise MissingEdge(f"no edge {tail}->{head} in graph")
    return best


def cycle_weight(g: Graph, cycle: list) -> float:
    """Edge-weight sum around ``cycle`` (closing edge included), taking the
    cheapest edge wherever parallels exist."""
    total = 0.0
    for i, tail in enumerate(cycle):
        head = cycle[(i + 1) % len(cycle)]
        total += _min_edge_weight(g, tail, head)
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


def on_parent_cycle(parent: list, v: int) -> "int | None":
    """The vertex ``n = len(parent)`` steps up ``v``'s parent chain, which
    lies on a parent cycle (n steps over n vertices repeat one), or None
    if the chain reaches a root first."""
    for _ in range(len(parent)):
        v = parent[v]
        if v is None:
            return None
    return v


def detect_negative_cycle(result: SsspResult, g: Graph) -> list:
    """Extract a cycle from the parent pointers of a flagged run.

    :func:`on_parent_cycle` walks from ``cycle_witness`` to a parent
    cycle, which is peeled off and returned in forward edge order; a
    solver's witness lies on that cycle already.  A witness whose chain
    reaches a root raises BrokenParentChain.  A result without a witness
    (one read from a file, say) gives the first cycle of its parent graph;
    weigh it with :func:`cycle_weight`.
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
    x = on_parent_cycle(parent, x)
    if x is None:
        raise BrokenParentChain("parent walk left the improved region")
    return peel_cycle(parent, x)
