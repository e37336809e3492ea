"""Result and instrumentation records shared by every solver.

Counting rules (identical across algorithms so ratios are meaningful):

* ``edge_inspections`` — one count per evaluation of ``d[u] + w`` against
  ``d[v]``.  Tails with infinite distance are skipped outright and
  contribute no inspections.  Inspections made inside multi-hop propagation
  are included here *and* mirrored in ``lmh_inspections``.
* ``successful_relaxations`` — inspections that strictly lowered a
  distance; always equals ``sum(improvements)``.
* ``activations[v]`` — how many times ``v`` entered the active set
  (frontier entry, queue entry, or per-pass scan, depending on the mode;
  for ``jfr_pq``, each non-stale pop, which runs one propagation from
  ``v``).  Stale priority-queue pops are skipped and never counted as
  activations.
* ``stale_pops`` — priority-queue pops whose key is no longer the vertex's
  label.  ``jfr_pq`` does not queue a vertex whose out-edges its
  propagation already relaxed at the vertex's final label (scan-once), so
  such a vertex costs neither a push nor a pop.
* ``improvements[v]`` — how many times ``d[v]`` strictly decreased.
"""

from dataclasses import dataclass, field


@dataclass
class RunStats:
    mode: str
    edge_inspections: int = 0
    successful_relaxations: int = 0
    lmh_inspections: int = 0
    queue_pushes: int = 0
    stale_pops: int = 0
    outer_iterations: int = 0
    activations: list[int] = field(default_factory=list)
    improvements: list[int] = field(default_factory=list)
    wall_time_ns: int = 0
    k: "int | None" = None
    # one (depth, inspections, window_degree_sum) triple per propagation call
    lmh_calls: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class SsspResult:
    dist: list[float]
    parent: list["int | None"]
    neg_cycle: bool
    stats: RunStats
    # vertex whose over-improvement tripped the negative-cycle guard
    cycle_witness: "int | None" = None
