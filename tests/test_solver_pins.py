"""Golden pins: every solver gives the same labels, parents, cycle verdict,
witness and instrumentation for the same graph, so a change to how a
solver counts its work shows up here as a changed digest."""

import hashlib
from functools import partial

import pytest

from jfrbench.baselines import (bellman_ford, dijkstra_oracle, spfa_fifo,
                                spfa_slf)
from jfrbench.errors import NegativeWeightPresent
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
    edges = list(g.edges())
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

# md5 over GRAPHS of each solver's outputs and counters, from source 0
PINNED = {
    "bellman_ford": (bellman_ford, "185158b28380f0444882f6a8b58176a7"),
    "spfa_fifo": (spfa_fifo, "7a11e5c8b0c5134cb39930c48c19651a"),
    "spfa_slf": (spfa_slf, "3da60d4ca0d772a53de8e5599910e2cb"),
    "dijkstra_oracle": (dijkstra_oracle,
                        "3a45b8c93b393458f77884681a071c8d"),
    "jfr_strict-k1": (partial(jfr_strict, k=1),
                      "ed4114eb149cdfea4b24d060615aa318"),
    "jfr_strict-k2": (partial(jfr_strict, k=2),
                      "5624266560380edd578fdb51f3cc334d"),
    "jfr_strict-k3": (partial(jfr_strict, k=3),
                      "c05345ac61d4c920deaca63db145da99"),
    "jfr_pq-k1": (partial(jfr_pq, k=1), "6e99230d38e165134bfdf548257ea0de"),
    "jfr_pq-k2": (partial(jfr_pq, k=2), "61afcc8409868b71b95754f4f41731a3"),
    "jfr_pq-k3": (partial(jfr_pq, k=3), "16cd74218369f17478a583d000359e17"),
}


def _digest(solve):
    h = hashlib.md5()
    for g in GRAPHS:
        try:
            r = solve(g, 0)
        except NegativeWeightPresent:
            h.update(b"NegativeWeightPresent\n")
            continue
        values = [r.dist, r.parent, r.neg_cycle, r.cycle_witness]
        values += [getattr(r.stats, name) for name in STATS]
        h.update(repr(values).encode("ascii") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("solve, md5", PINNED.values(), ids=PINNED)
def test_solver_outputs_and_counters_are_pinned(solve, md5):
    assert _digest(solve) == md5
