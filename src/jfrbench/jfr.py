"""Jump-frontier relaxation in its two execution modes.

``jfr_strict`` is round-based: each outer iteration relaxes every frontier
vertex's out-edges (one hop), then lets the improvements ripple a further
``k - 1`` hops through bounded local multi-hop propagation, and finally
promotes everything strictly improved this iteration to the next frontier.
With ``k = 1`` it degenerates to frontier-restricted Bellman-Ford.

``jfr_pq`` is event-driven: a lazy-deletion priority queue keyed by
tentative distance selects the next active vertex, runs one depth-``k``
local propagation from it, and queues every vertex that propagation
improved, except one whose out-edges a later wave of the same propagation
already relaxed at its new label (scan-once: re-scanning at an unchanged
label cannot improve anything).  Lazy-deletion stale pops and scan-once
together subsume the paper's frontier filter: a vertex whose label has
settled is never scanned again, so no periodic sweep for idle vertices is
needed.

Both modes propagate through :func:`lmh_propagate` over one reusable
per-solve :class:`LmhWorkspace`, use strict ``<`` relaxation (first writer
wins on ties) and the shared instrumentation conventions of
:mod:`jfrbench.results`.
"""

import heapq
import math
import time

from .baselines import check_source
from .graph import Graph
from .results import RunStats, SsspResult

INF = math.inf


class LmhWorkspace:
    """Scratch state of :func:`lmh_propagate`, reused by every call of one
    solve so that a call allocates no per-vertex set.

    ``window`` and ``mark`` hold stamps from ``clock``, which only grows,
    so nothing is ever cleared.  A call takes the stamps ``first`` ..
    ``first + k - 1``: ``window[v] == first`` marks v as in the call's
    window, and ``mark[v] == first + r`` marks v as improved by wave ``r``
    (hence queued for wave ``r + 1``); ``mark[v] >= first`` means v
    improved somewhere in the call.  ``scanned[v]`` is the label at which
    v's out-edges were last relaxed (NaN, equal to nothing, for never).
    """

    __slots__ = ("clock", "window", "mark", "scanned")

    def __init__(self, n: int):
        self.clock = 0
        self.window = [0] * n
        self.mark = [0] * n
        self.scanned = [math.nan] * n


def lmh_propagate(g: Graph, seeds, k: int, dist, parent, stats: RunStats,
                  ws: "LmhWorkspace | None" = None):
    """Bounded local propagation: at most ``k`` relaxation waves from
    ``seeds``, touching only vertices within ``k`` hops of them.

    On return no path of at most ``k`` edges out of a seed can still
    improve its endpoint (given the seed labels at call time).  Every
    evaluation is counted in both ``edge_inspections`` and
    ``lmh_inspections``; a ``(depth, inspections, window_degree_sum)``
    record is appended to ``stats.lmh_calls``, where the window is the
    finite-label seeds plus every edge target the call touched.  Returns
    the strictly improved vertices in first-improvement order.  ``ws``
    carries scratch state between the calls of one solve; without it a
    fresh one is made.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if ws is None:
        ws = LmhWorkspace(g.n)
    offsets, targets, weights = g.offsets, g.targets, g.weights
    if len(stats.improvements) != g.n:
        stats.improvements = [0] * g.n
    improvements = stats.improvements
    window, mark, scanned = ws.window, ws.mark, ws.scanned
    first = ws.clock + 1
    ws.clock += k
    wave = []
    window_degree_sum = 0
    for u in seeds:
        if dist[u] != INF:
            wave.append(u)
            if window[u] != first:
                window[u] = first
                window_degree_sum += offsets[u + 1] - offsets[u]
    improved_all: list = []
    inspections = 0
    successes = 0
    for stamp in range(first, first + k):
        if not wave:
            break
        next_wave: list = []
        for u in wave:
            du = dist[u]
            scanned[u] = du
            lo, hi = offsets[u], offsets[u + 1]
            inspections += hi - lo
            for e in range(lo, hi):
                v = targets[e]
                if window[v] != first:
                    window[v] = first
                    window_degree_sum += offsets[v + 1] - offsets[v]
                cand = du + weights[e]
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = u
                    improvements[v] += 1
                    successes += 1
                    mv = mark[v]
                    if mv != stamp:
                        if mv < first:
                            improved_all.append(v)
                        mark[v] = stamp
                        next_wave.append(v)
        wave = next_wave
    stats.edge_inspections += inspections
    stats.lmh_inspections += inspections
    stats.successful_relaxations += successes
    stats.lmh_calls.append((k, inspections, window_degree_sum))
    return improved_all


def jfr_strict(g: Graph, source: int, k: int) -> SsspResult:
    """Round-based jump-frontier relaxation with depth parameter ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_source(g, source)
    n = g.n
    offsets, targets, weights = g.offsets, g.targets, g.weights
    dist = [INF] * n
    parent: list = [None] * n
    activations = [0] * n
    improvements = [0] * n
    stats = RunStats(
        mode="jfr-strict",
        k=k,
        activations=activations,
        improvements=improvements,
    )
    ws = LmhWorkspace(n)
    dist[source] = 0.0
    frontier = [source]
    activations[source] = 1
    in_improved = [False] * n
    frontier_inspections = 0
    successes = 0
    outer = 0
    neg_cycle = False
    witness = None
    t0 = time.perf_counter_ns()
    while frontier:
        outer += 1
        improved: list = []
        # (a) one relaxation hop out of the frontier
        for u in frontier:
            du = dist[u]
            for e in range(offsets[u], offsets[u + 1]):
                frontier_inspections += 1
                cand = du + weights[e]
                v = targets[e]
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = u
                    improvements[v] += 1
                    successes += 1
                    if not in_improved[v]:
                        in_improved[v] = True
                        improved.append(v)
        # (b) let the new labels ripple up to k-1 further hops
        if k > 1 and improved:
            for v in lmh_propagate(g, improved, k - 1, dist, parent, stats,
                                   ws):
                if not in_improved[v]:
                    in_improved[v] = True
                    improved.append(v)
        # an improvement in iteration n or later is impossible without a
        # reachable negative cycle
        if improved and outer >= n:
            neg_cycle = True
            witness = improved[0]
            break
        # (c) promote this iteration's improved set to the next frontier
        for v in improved:
            in_improved[v] = False
            activations[v] += 1
        frontier = improved
    stats.wall_time_ns = time.perf_counter_ns() - t0
    stats.edge_inspections += frontier_inspections
    stats.successful_relaxations += successes
    stats.outer_iterations = outer
    return SsspResult(dist, parent, neg_cycle, stats, cycle_witness=witness)


def jfr_pq(g: Graph, source: int, k: int = 2) -> SsspResult:
    """Event-driven jump-frontier relaxation with depth parameter ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_source(g, source)
    n = g.n
    dist = [INF] * n
    parent: list = [None] * n
    activations = [0] * n
    improvements = [0] * n
    stats = RunStats(
        mode="jfr-pq",
        k=k,
        activations=activations,
        improvements=improvements,
    )
    ws = LmhWorkspace(n)
    scanned = ws.scanned
    dist[source] = 0.0
    heap = [(0.0, source)]
    pushes = 1
    pops = 0
    stale = 0
    neg_cycle = False
    witness = None
    heappush, heappop = heapq.heappush, heapq.heappop
    t0 = time.perf_counter_ns()
    while heap:
        key, u = heappop(heap)
        if key != dist[u]:
            stale += 1
            continue
        pops += 1
        activations[u] += 1
        for v in lmh_propagate(g, (u,), k, dist, parent, stats, ws):
            if improvements[v] >= n:
                neg_cycle = True
                witness = v
                break
            # scan-once: skip v if a later wave of this call already
            # relaxed its out-edges at its current label
            dv = dist[v]
            if dv != scanned[v]:
                heappush(heap, (dv, v))
                pushes += 1
        if neg_cycle:
            break
    stats.wall_time_ns = time.perf_counter_ns() - t0
    stats.queue_pushes = pushes
    stats.stale_pops = stale
    stats.outer_iterations = pops
    return SsspResult(dist, parent, neg_cycle, stats, cycle_witness=witness)
