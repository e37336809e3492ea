"""Classical single-source shortest-path baselines.

All solvers share the relaxation convention: strict ``<`` with no epsilon,
first writer wins on ties, distances start at ``inf`` except the source.
Every solver flags a negative cycle in one way: an n-step parent walk
that lands on a cycle.  Weights are whole micro-units, so sums are exact,
every parent cycle of a label-correcting run is negative, and a label
below the lightest simple path to its vertex, as any pass n improves, has
a chain that cannot reach the source (Cherkassky and Goldberg,
"Negative-cycle detection algorithms", 1999).  Bellman-Ford walks from
each pass's last improved vertex; the queue-based solvers from the popped
vertex each time their inspection count has doubled (first at n).
"""

import math
import time
from collections import deque

from .graph import Graph
from .paths import on_parent_cycle
from .results import SsspResult, start_run

INF = math.inf


def bellman_ford(g: Graph, source: int) -> SsspResult:
    """Reference solver: edge passes in CSR order until one improves
    nothing, or until the last improved vertex's parent chain ends on a
    cycle, which flags the run: the source reaches that cycle, and it is
    negative.  A reachable negative cycle flags by pass n at the latest.

    A pass skips a vertex whose label has not changed since its out-edges
    were last relaxed (Yen 1970): that scan left every head at most
    ``d[u] + w`` and labels only fall, so the skipped scan would improve
    nothing.  Labels, parents, passes and verdicts are plain
    Bellman-Ford's; only the scans (``activations``, inspections) fall."""
    dist, parent, stats = start_run(g, source, "bf")
    n = g.n
    offsets, targets, weights = g.offsets, g.targets, g.weights
    activations, improvements = stats.activations, stats.improvements
    scanned = [INF] * n  # the label u's out-edges were last relaxed at
    inspections = 0
    witness = None
    passes = 0
    t0 = time.perf_counter_ns()
    # a label pass n improves is below every simple path, so its walk flags
    for _ in range(n):
        last = None  # the pass's last improved vertex
        for u in range(n):
            du = dist[u]
            if du == scanned[u]:  # unreached (inf), or relaxed at du
                continue
            scanned[u] = du
            activations[u] += 1
            lo, hi = offsets[u], offsets[u + 1]
            inspections += hi - lo
            for e in range(lo, hi):
                cand = du + weights[e]
                v = targets[e]
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = u
                    improvements[v] += 1
                    last = v
        passes += 1
        if last is None:
            break
        witness = on_parent_cycle(parent, last)
        if witness is not None:
            break
    stats.wall_time_ns = time.perf_counter_ns() - t0
    stats.edge_inspections = inspections
    stats.outer_iterations = passes
    return SsspResult(dist, parent, witness is not None, stats, witness)


def _spfa(g: Graph, source: int, slf: bool) -> SsspResult:
    dist, parent, stats = start_run(g, source,
                                    "spfa-slf" if slf else "spfa-fifo")
    n = g.n
    offsets, targets, weights = g.offsets, g.targets, g.weights
    activations, improvements = stats.activations, stats.improvements
    in_queue = [False] * n
    dq = deque([source])
    in_queue[source] = True
    activations[source] = 1
    inspections = 0
    pops = 0
    next_walk = n
    witness = None
    t0 = time.perf_counter_ns()
    while dq:
        u = dq.popleft()
        if inspections >= next_walk:
            witness = on_parent_cycle(parent, u)
            if witness is not None:
                break
            next_walk = 2 * inspections
        in_queue[u] = False
        pops += 1
        du = dist[u]
        lo, hi = offsets[u], offsets[u + 1]
        inspections += hi - lo
        for e in range(lo, hi):
            cand = du + weights[e]
            v = targets[e]
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                improvements[v] += 1
                if not in_queue[v]:
                    in_queue[v] = True
                    activations[v] += 1
                    # smallest-label-first: jump the line when we beat the
                    # label at the head of the deque
                    if slf and dq and cand < dist[dq[0]]:
                        dq.appendleft(v)
                    else:
                        dq.append(v)
    stats.wall_time_ns = time.perf_counter_ns() - t0
    stats.edge_inspections = inspections
    stats.queue_pushes = sum(activations)
    stats.outer_iterations = pops
    return SsspResult(dist, parent, witness is not None, stats, witness)


def spfa_fifo(g: Graph, source: int) -> SsspResult:
    """Queue-based label correcting with plain FIFO order."""
    return _spfa(g, source, slf=False)


def spfa_slf(g: Graph, source: int) -> SsspResult:
    """SPFA with the smallest-label-first deque heuristic."""
    return _spfa(g, source, slf=True)

