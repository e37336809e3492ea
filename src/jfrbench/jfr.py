"""Jump-frontier relaxation in its two execution modes.

``jfr_strict`` is round-based: each round relaxes every frontier vertex's
out-edges (one hop), lets the improvements ripple ``k - 1`` further hops
through bounded local propagation, and promotes the improved vertices to
the next frontier; at ``k = 1`` it is frontier-restricted Bellman-Ford.

``jfr_pq`` is event-driven: a lazy-deletion priority queue keyed by
tentative distance selects the next active vertex, runs one depth-``k``
local propagation from it, and queues the vertices it improved, save
sinks, whose scan relaxes nothing.  It runs in Bellman-Ford passes
(Goldberg and Radzik 1993), so a feasible graph needs about n passes at
most, where plain lazy deletion can pop exponentially often on negative
weights (Johnson 1973).  Both modes scan once: neither promotes nor
queues a vertex that a propagation wave already scanned at its new label
(``LmhWorkspace.scanned``), since re-scanning at an unchanged label
cannot improve anything.  Lazy-deletion stale pops and scan-once together
subsume the paper's frontier filter: a vertex whose label has settled is
never scanned again, so no periodic sweep for idle vertices is needed.

Both modes start from :func:`jfrbench.results.start_run` and propagate
through :func:`lmh_propagate` over one :class:`LmhWorkspace` per solve,
which holds the solve's labels, parents and ``RunStats``.  Both use strict
``<`` relaxation (first writer wins on ties) and the instrumentation
conventions of :mod:`jfrbench.results`.
"""

import heapq
import math
import time

from .errors import SpecInvalid
from .graph import Graph
from .results import RunStats, SsspResult, on_parent_cycle, start_run

INF = math.inf
DEFAULT_K = 2  # the depth jfr_pq and the CLI run with unless given one


class LmhWorkspace:
    """One solve's labels ``dist``, parents ``parent`` and ``stats`` on
    ``g``, as :func:`jfrbench.results.start_run` returns them, next to the
    scratch state that every :func:`lmh_propagate` call of the solve
    reuses, so that a call allocates no per-vertex set.

    ``window`` and ``mark`` hold stamps from ``clock``, which only grows,
    so nothing is ever cleared.  A call takes the stamps ``first`` ..
    ``first + k - 1``: ``window[v] == first`` marks v as scanned by the
    call, and ``mark[v] == first + r`` marks v as improved by wave ``r``
    (hence queued for wave ``r + 1``); ``mark[v] >= first`` means v
    improved somewhere in the call; ``window[v] > c`` means a call begun
    after ``clock == c`` scanned v.  ``scanned[v]`` is the label at which a
    call last relaxed v's out-edges (NaN: never).  ``jfr_strict``'s
    promotion also writes it, since the next hop relaxes a promoted vertex
    at that label, save a sink, which has none; ``jfr_pq``'s queueing
    reads it.
    """

    __slots__ = ("g", "dist", "parent", "stats", "clock", "window", "mark",
                 "scanned")

    def __init__(self, g: Graph, dist, parent, stats: RunStats):
        self.g, self.dist, self.parent, self.stats = g, dist, parent, stats
        self.clock = 0
        self.window = [0] * g.n
        self.mark = [0] * g.n
        self.scanned = [math.nan] * g.n


def lmh_propagate(ws: LmhWorkspace, seeds, k: int):
    """Bounded local propagation over the solve ``ws``: at most ``k``
    relaxation waves from ``seeds``, touching only vertices within ``k``
    hops of them.

    On return no path of at most ``k`` edges out of a seed can still
    improve its endpoint (given the seed labels at call time).  The
    evaluations are added to ``ws.stats.edge_inspections``, each
    improvement to ``ws.stats.improvements``, and a ``(depth, inspections,
    window_degree_sum)`` record is appended to ``ws.stats.lmh_calls``,
    where the window is the distinct vertices whose out-edges the call
    relaxed (each at most once per wave; a seed listed twice is scanned
    once), so ``inspections <= depth * window_degree_sum``.  Returns the
    strictly improved vertices in first-improvement order.  A ``k`` that
    is not an ``int`` >= 1, or no seeds, raises ``SpecInvalid``.
    """
    if type(k) is not int or k < 1:
        raise SpecInvalid(f"k must be >= 1 and an int, got {k!r}")
    if not seeds:
        raise SpecInvalid("seeds must be nonempty")
    g, dist, parent, stats = ws.g, ws.dist, ws.parent, ws.stats
    offsets, targets, weights = g.offsets, g.targets, g.weights
    improvements = stats.improvements
    window, mark, scanned = ws.window, ws.mark, ws.scanned
    first = ws.clock + 1
    ws.clock += k
    wave = []
    window_degree_sum = 0
    for u in seeds:
        if dist[u] != INF and window[u] != first:
            window[u] = first
            window_degree_sum += offsets[u + 1] - offsets[u]
            wave.append(u)
    improved_all: list = []
    inspections = 0
    for stamp in range(first, first + k):
        if not wave:
            break
        next_wave: list = []
        for u in wave:
            du = dist[u]
            scanned[u] = du
            lo, hi = offsets[u], offsets[u + 1]
            inspections += hi - lo
            if window[u] != first:
                window[u] = first
                window_degree_sum += hi - lo
            for e in range(lo, hi):
                v = targets[e]
                cand = du + weights[e]
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = u
                    improvements[v] += 1
                    mv = mark[v]
                    if mv != stamp:
                        if mv < first:
                            improved_all.append(v)
                        mark[v] = stamp
                        next_wave.append(v)
        wave = next_wave
    stats.edge_inspections += inspections
    stats.lmh_calls.append((k, inspections, window_degree_sum))
    return improved_all


def jfr_strict(g: Graph, source: int, k: int) -> SsspResult:
    """Round-based jump-frontier relaxation with depth parameter ``k``."""
    dist, parent, stats = start_run(g, source, "jfr-strict", k)
    offsets, targets, weights = g.offsets, g.targets, g.weights
    activations, improvements = stats.activations, stats.improvements
    ws = LmhWorkspace(g, dist, parent, stats)
    scanned = ws.scanned
    frontier = [source]
    activations[source] = 1
    promoted = True
    frontier_inspections = 0
    outer = 0
    next_walk = g.n
    witness = None
    t0 = time.perf_counter_ns()
    while promoted:
        outer += 1
        improved: list = []
        # (a) one relaxation hop out of the frontier
        for u in frontier:
            du = dist[u]
            lo, hi = offsets[u], offsets[u + 1]
            frontier_inspections += hi - lo
            for e in range(lo, hi):
                cand = du + weights[e]
                v = targets[e]
                if cand < dist[v]:
                    dist[v] = cand
                    parent[v] = u
                    improvements[v] += 1
                    improved.append(v)
        # (b) let the new labels ripple up to k-1 further hops
        if k > 1 and improved:
            improved += lmh_propagate(ws, improved, k - 1)
        # the parent walk of baselines._spfa, from the round's first improved
        # vertex once inspections have doubled; after round n - 1 every
        # improved label is below all simple paths, so the walk flags
        inspections = frontier_inspections + stats.edge_inspections
        if improved and inspections >= next_walk:
            witness = on_parent_cycle(parent, improved[0])
            if witness is not None:
                break
            next_walk = 2 * inspections
        # (c) promote each improved vertex not yet scanned at its label;
        # writing scanned[v] skips v's repeats but never its first entry,
        # whose label fell this round, below any scanned[v] set before.
        # A promoted sink counts its activation but joins no frontier: its
        # scan would relax nothing at 0 inspections
        frontier = []
        promoted = False
        for v in improved:
            dv = dist[v]
            if dv != scanned[v]:
                scanned[v] = dv
                activations[v] += 1
                promoted = True
                if offsets[v] != offsets[v + 1]:
                    frontier.append(v)
    stats.wall_time_ns = time.perf_counter_ns() - t0
    stats.edge_inspections += frontier_inspections
    stats.outer_iterations = outer
    return SsspResult(dist, parent, witness is not None, stats, witness)


def jfr_pq(g: Graph, source: int, k: int = DEFAULT_K) -> SsspResult:
    """Event-driven jump-frontier relaxation with depth parameter ``k``.

    A pass pops ``heap`` until it is empty and defers to ``later``, the
    next pass's heap, a vertex improved after a call of the pass scanned
    it.  No live entry is of a vertex scanned in its pass, as waves scan
    only vertices their call improved.  A sink is never queued."""
    dist, parent, stats = start_run(g, source, "jfr-pq", k)
    activations, offsets = stats.activations, g.offsets
    ws = LmhWorkspace(g, dist, parent, stats)
    scanned, window = ws.scanned, ws.window
    heap, later = [(0.0, source)], []
    pass_start = 0  # ws.clock when the pass began
    pushes = 1
    stale = 0
    next_walk = g.n
    witness = None
    heappush, heappop = heapq.heappush, heapq.heappop
    t0 = time.perf_counter_ns()
    while heap or later:
        if not heap:
            heap, later, pass_start = later, heap, ws.clock
        key, u = heappop(heap)
        if key != dist[u]:
            stale += 1
            continue
        # the parent walk of baselines._spfa
        if stats.edge_inspections >= next_walk:
            witness = on_parent_cycle(parent, u)
            if witness is not None:
                break
            next_walk = 2 * stats.edge_inspections
        activations[u] += 1
        for v in lmh_propagate(ws, (u,), k):
            # scan-once: skip v if a later wave of this call already
            # relaxed its out-edges at its current label
            dv = dist[v]
            if dv != scanned[v] and offsets[v] != offsets[v + 1]:
                heappush(later if window[v] > pass_start else heap, (dv, v))
                pushes += 1
    stats.wall_time_ns = time.perf_counter_ns() - t0
    stats.queue_pushes = pushes
    stats.stale_pops = stale
    stats.outer_iterations = sum(activations)
    return SsspResult(dist, parent, witness is not None, stats, witness)
