"""Result and instrumentation records shared by every solver.

Counting rules (identical across algorithms so ratios are meaningful).
Each count is stored once; the two marked *derived* are read-only
properties computed from stored ones.

* ``edge_inspections`` — one count per evaluation of ``d[u] + w`` against
  ``d[v]``.  Every solver adds a scanned vertex's out-degree at once, as
  it starts the scan; tails with infinite distance are skipped outright
  and contribute no inspections, and so is a ``bellman_ford`` tail whose
  out-edges were last relaxed at its current label (scan-once).
  Inspections made inside multi-hop propagation are included.
* ``lmh_inspections`` (derived) — the inspections made inside multi-hop
  propagation: the sum over ``lmh_calls``.
* ``successful_relaxations`` (derived) — inspections that strictly
  lowered a distance: ``sum(improvements)``.
* ``activations[v]`` — how many times ``v`` entered the active set
  (frontier entry, queue entry, or scan, depending on the mode; for
  ``bellman_ford``, each scan in a pass: a pass skips a vertex whose label
  has not changed since its last scan, so that costs no activation; for
  ``jfr_strict``, each promotion to the frontier: an improved vertex that
  the round's propagation already scanned at its new label is not
  promoted, so it costs no activation, and a promoted sink counts one
  activation but is never scanned, since its scan would relax nothing at
  0 inspections; for ``jfr_pq``, each non-stale pop, which
  runs one propagation from ``v``, so its ``outer_iterations`` is
  ``sum(activations)``).  Stale priority-queue pops are skipped and never
  counted as activations.
* ``queue_pushes`` — entries into the queue or heap.  SPFA counts an
  activation at each push, so there it is ``sum(activations)``.
  ``jfr_pq`` defers a vertex improved after its pass scanned it to the
  next pass's heap: one push, and no activation or stale pop by itself.
  It never pushes a sink (no out-edges), so a sink never costs a pop.
* ``stale_pops`` — priority-queue pops whose key is no longer the vertex's
  label.  ``jfr_pq`` does not queue a vertex whose out-edges its
  propagation already relaxed at the vertex's final label (scan-once), so
  such a vertex costs neither a push nor a pop.
* ``improvements[v]`` — how many times ``d[v]`` strictly decreased.

Every solver starts from :func:`start_run`: the source at label 0 and
every other vertex at ``inf`` with no parent, and a ``RunStats`` whose
``activations`` and ``improvements`` hold one zero per vertex.  It also
rejects a source that is not an ``int`` in ``[0, n)`` (``True`` and
``0.0`` included) and a depth ``k < 1``.
"""

import math
from dataclasses import dataclass, field

from .errors import IndexOutOfRange, SpecInvalid


@dataclass
class RunStats:
    mode: str
    edge_inspections: int = 0
    queue_pushes: int = 0
    stale_pops: int = 0
    outer_iterations: int = 0
    activations: list[int] = field(default_factory=list)
    improvements: list[int] = field(default_factory=list)
    wall_time_ns: int = 0
    k: "int | None" = None
    # one (depth, inspections, window_degree_sum) triple per propagation
    # call; the window is the distinct vertices the call scanned, so
    # inspections <= depth * window_degree_sum
    lmh_calls: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def successful_relaxations(self) -> int:
        return sum(self.improvements)

    @property
    def lmh_inspections(self) -> int:
        return sum(inspections for _, inspections, _ in self.lmh_calls)


@dataclass
class SsspResult:
    dist: list[float]  # in micro-units, as the graph's weights
    parent: list["int | None"]
    neg_cycle: bool
    stats: RunStats
    # a vertex on a parent cycle
    cycle_witness: "int | None" = None


def check_source(g, source: int) -> None:
    if type(source) is not int or not 0 <= source < g.n:
        raise IndexOutOfRange(f"source {source!r} not in [0, {g.n})")


def start_run(g, source: int, mode: str, k: "int | None" = None):
    """The start state of a ``mode`` solve of ``g`` from ``source`` at
    depth ``k`` (None: the mode reads no depth): ``(dist, parent,
    stats)``."""
    if k is not None and k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    check_source(g, source)
    n = g.n
    dist = [math.inf] * n
    dist[source] = 0.0
    return dist, [None] * n, RunStats(mode, k=k, activations=[0] * n,
                                      improvements=[0] * n)
