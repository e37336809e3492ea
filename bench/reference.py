"""A fixed yardstick of interpreter speed, timed alongside the package.

On a shared host the speed of one core drifts by up to 2x over minutes,
and the calls in the same stretch run fast or slow together.  So the
end-to-end throughputs are given per reference time: the median time of
``run_reference`` over the same run.  It is pure Python of the kind the
solvers run (a CSR graph in lists, float compares, ``heapq``, a FIFO
queue) on random graphs that depend only on the workload's largest size,
never on ``--seed``.  It is the benchmark's own code, so a change to the
package leaves its time alone.
"""

import gc
import heapq
import random
import statistics
import time
from collections import deque

REF_MIN_N = 3000
REF_MIN_M = 15000
REF_SEED = 20251201
# after each sample, wait this many times its duration before the next, so
# that the yardstick takes about 5% of a run whatever the workload
REF_DUTY = 20


def make_reference_graph(n: int, m: int, seed: int) -> tuple:
    """``(offsets, targets, weights)`` of a random graph with ``n`` vertices
    and ``m`` edges, spread evenly over the tails."""
    rng = random.Random(seed)
    targets = [rng.randrange(n) for _ in range(m)]
    weights = [rng.random() for _ in targets]
    offsets = [u * m // n for u in range(n + 1)]
    return offsets, targets, weights


def run_reference(g) -> float:
    """Dijkstra, then FIFO label-correcting, from vertex 0; returns the sum
    of the finite distances the two agree on."""
    offsets, targets, weights = g
    n = len(offsets) - 1
    dist = [float("inf")] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for e in range(offsets[u], offsets[u + 1]):
            cand = d + weights[e]
            v = targets[e]
            if cand < dist[v]:
                dist[v] = cand
                heapq.heappush(heap, (cand, v))
    fifo = [float("inf")] * n
    fifo[0] = 0.0
    queue, queued = deque([0]), [False] * n
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = fifo[u]
        for e in range(offsets[u], offsets[u + 1]):
            cand = du + weights[e]
            v = targets[e]
            if cand < fifo[v]:
                fifo[v] = cand
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return sum(a for a, b in zip(dist, fifo) if a == b and a != float("inf"))


class Yardstick:
    """Times ``run_reference`` on a graph as large as the workload's largest
    instance (at least ``REF_MIN_N`` vertices and ``REF_MIN_M`` edges), so
    that its working set, and how much a neighbour's use of the shared
    caches slows it, is like the solvers'.  Samples are spread evenly over
    the run.  The graph is built anew, untimed, for every sample: one
    graph's memory layout moves the time by up to 10%, and the median over
    many layouts does not depend on one."""

    def __init__(self, n: int, m: int):
        self.n, self.m = max(n, REF_MIN_N), max(m, REF_MIN_M)
        self.ns = []
        self._due = 0

    def sample_if_due(self) -> None:
        if time.perf_counter_ns() < self._due:
            return
        graph = make_reference_graph(self.n, self.m, REF_SEED + len(self.ns))
        gc.collect()
        t0 = time.perf_counter_ns()
        run_reference(graph)
        t1 = time.perf_counter_ns()
        self.ns.append(t1 - t0)
        self._due = t1 + REF_DUTY * (t1 - t0)

    def median_ns(self) -> float:
        return statistics.median(self.ns)
