"""Golden pins: every solver gives the same labels, parents, cycle verdict,
witness and instrumentation for the same graph, so a change to how a
solver counts its work shows up here as a changed digest."""

import hashlib
from functools import partial

import pytest

from jfrbench.baselines import bellman_ford, spfa_fifo, spfa_slf
from jfrbench.generators import generate, plant_negative_cycle
from jfrbench.graph import EdgeListDoc, from_edge_list
from jfrbench.jfr import jfr_pq, jfr_strict

# every RunStats value but the wall time, the derived ones included
STATS = ("mode", "k", "edge_inspections", "successful_relaxations",
         "lmh_inspections", "queue_pushes", "stale_pops", "outer_iterations",
         "activations", "improvements", "lmh_calls")


def _parallel():
    """A sparse-random graph with every edge doubled by a lighter one."""
    g = generate("sparse-random", 5, n=30, m=90)
    edges = g.to_edge_list().edges
    return from_edge_list(EdgeListDoc(g.n, edges + [
        (u, v, round(w / 2, 6)) for u, v, w in edges]))


GRAPHS = [
    generate("sparse-random", 11, n=200, m=1000),
    generate("neg-dense", 11, n=100, m=600),
    generate("windmill", 11, blades=5, blade_size=6),
    generate("slf-killer", 11, n=200),
    plant_negative_cycle(generate("neg-dense", 11, n=40, m=800), 8, 11, -0.5),
    _parallel(),
]

# md5 over GRAPHS of each solver's outputs (labels in micro-units) and
# counters, from source 0
PINNED = {
    "bellman_ford": (bellman_ford, "ec2f841dc2da5134bf8dade562d9b128"),
    "spfa_fifo": (spfa_fifo, "55cf782fc3add4b30f1ff19188a92c51"),
    "spfa_slf": (spfa_slf, "dd5677d6ec29619f8288471ad1b61775"),
    "jfr_strict-k1": (partial(jfr_strict, k=1),
                      "111b95df68ff484ac03334667ae3eacd"),
    "jfr_strict-k2": (partial(jfr_strict, k=2),
                      "d93ad7198385a0620856150744079f07"),
    "jfr_strict-k3": (partial(jfr_strict, k=3),
                      "e0323ecd84d538f1067d9970e318337a"),
    "jfr_pq-k1": (partial(jfr_pq, k=1), "f581c70780e5990123634d07565bf7e9"),
    "jfr_pq-k2": (partial(jfr_pq, k=2), "32c4b25a66db0862cd0e0cc1d86701f7"),
    "jfr_pq-k3": (partial(jfr_pq, k=3), "0f8c6b16261a92444322b3fe9429f008"),
}


def _digest(solve):
    h = hashlib.md5()
    for g in GRAPHS:
        r = solve(g, 0)
        values = [r.dist, r.parent, r.neg_cycle, r.cycle_witness]
        values += [getattr(r.stats, name) for name in STATS]
        h.update(repr(values).encode("ascii") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("solve, md5", PINNED.values(), ids=PINNED)
def test_solver_outputs_and_counters_are_pinned(solve, md5):
    assert _digest(solve) == md5
