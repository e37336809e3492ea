"""The generators draw inline what ``rng.randrange(n)`` and
``rng.uniform(a, b)`` draw, and build through ``graph.from_columns``.

The reference generators below are the per-edge versions they replaced:
``randrange``/``uniform`` draws, one ``(tail, head, weight)`` tuple per
edge, and ``from_edge_list``.  Equal ``write_text`` bytes on both sides
mean equal graphs, so the golden pins keep their digests.
"""

import random

import pytest

from jfrbench import generators
from jfrbench.errors import InexactWeight
from jfrbench.generators import gen_neg_dense, gen_sparse_random, gen_windmill
from jfrbench.graph import EdgeListDoc, from_edge_list, write_text

SEEDS = range(20)
# powers of two sit on randrange's rejection boundary; 1 rejects half
SIZES = (1, 2, 7, 8, 64, 1000)


def ref_sparse_random(n, m, seed, weight_lo=0.0, weight_hi=10.0):
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v, round(rng.uniform(weight_lo, weight_hi), 6)))
    return from_edge_list(EdgeListDoc(n, edges))


def ref_neg_dense(n, m, seed, weight_hi=10.0, neg_fraction=0.3):
    rng = random.Random(seed)
    f, spread = neg_fraction, weight_hi
    potentials = [round(rng.uniform(0.0, spread), 6) for _ in range(n)]
    scale = max(0.08, min(1.0, 2.0 * (1.0 - f)))
    w0_hi = 0.10 * spread * scale
    w0_lo = 0.8 * w0_hi
    a, b = w0_lo / spread, w0_hi / spread
    q = ((1.0 - a) ** 3 - (1.0 - b) ** 3) / (3.0 * (b - a))
    if f <= q / 2.0:
        force_pos, force_neg = 1.0 - 2.0 * f / q, 0.0
    else:
        force_pos, force_neg = 0.0, min(1.0, 2.0 * f / q - 1.0)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        w0 = rng.uniform(w0_lo, w0_hi)
        r = rng.random()
        if r < force_pos:
            if potentials[u] < potentials[v]:
                u, v = v, u
        elif r < force_pos + force_neg:
            if potentials[u] > potentials[v]:
                u, v = v, u
        edges.append((u, v, round(w0 + potentials[u] - potentials[v], 6)))
    return from_edge_list(EdgeListDoc(n, edges))


def ref_windmill(blades, blade_size, seed, weight_lo=1.0, weight_hi=10.0):
    rng = random.Random(seed)
    n = blades * (blade_size - 1) + 1
    edges = []
    for b in range(blades):
        start = 1 + b * (blade_size - 1)
        members = [0] + list(range(start, start + blade_size - 1))
        for x in members:
            for y in members:
                if x != y:
                    edges.append((x, y, round(
                        rng.uniform(weight_lo, weight_hi), 6)))
    return from_edge_list(EdgeListDoc(n, edges))


def text(g):
    return write_text(g.to_edge_list())


@pytest.mark.parametrize("n", SIZES)
def test_sparse_random_draws_what_randrange_and_uniform_draw(n):
    for seed in SEEDS:
        lo, hi = (0.0, 10.0) if seed % 2 else (1.5, 1e4)
        args = (n, 3 * n + seed, seed, lo, hi)
        assert text(gen_sparse_random(*args)) == \
            text(ref_sparse_random(*args)), (n, seed)


@pytest.mark.parametrize("n", SIZES)
def test_neg_dense_draws_what_randrange_and_uniform_draw(n):
    for seed in SEEDS:
        args = (n, 3 * n + seed, seed, (10.0, 1.0, 250.0)[seed % 3],
                (0.3, 0.0, 0.6, 1.0)[seed % 4])
        assert text(gen_neg_dense(*args)) == text(ref_neg_dense(*args)), \
            (n, seed)


# n = blades * (blade_size - 1) + 1: 2, 7, 8, 64 and 1000 vertices
@pytest.mark.parametrize("blades, blade_size",
                         [(1, 2), (3, 3), (7, 2), (9, 8), (333, 4)])
def test_windmill_draws_what_uniform_draws(blades, blade_size):
    for seed in SEEDS:
        lo, hi = (1.0, 10.0) if seed % 2 else (0.25, 3e3)
        args = (blades, blade_size, seed, lo, hi)
        assert text(gen_windmill(*args)) == text(ref_windmill(*args)), seed


def test_generated_weights_past_max_units_are_inexact(monkeypatch):
    built = []
    package_from_columns = generators.from_columns

    def from_columns(*columns):
        built.append(len(columns[1]))
        return package_from_columns(*columns)

    def from_edge_list_unused(doc):
        raise AssertionError("a generated graph went through from_edge_list")

    monkeypatch.setattr(generators, "from_columns", from_columns)
    monkeypatch.setattr(generators, "from_edge_list", from_edge_list_unused)
    # 100 weights near 5e8 units sum past 2^52 micro-units (4.5e9 units)
    with pytest.raises(InexactWeight):
        gen_sparse_random(10, 100, 1, weight_lo=1e8, weight_hi=1e9)
    assert built == [100]
    with pytest.raises(InexactWeight):
        ref_sparse_random(10, 100, 1, weight_lo=1e8, weight_hi=1e9)
    assert gen_sparse_random(10, 100, 1, weight_lo=1e6, weight_hi=1e7).m \
        == 100
