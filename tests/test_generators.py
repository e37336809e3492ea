import math

import pytest

from jfrbench.baselines import bellman_ford, spfa_slf
from jfrbench.errors import SpecInvalid
from jfrbench.generators import (FAMILIES, family_args, family_params,
                                 gen_neg_dense, gen_slf_killer,
                                 gen_sparse_random, gen_windmill, generate,
                                 plant_negative_cycle)
from jfrbench.graph import write_text
from jfrbench.jfr import jfr_pq


def graph_bytes(g):
    return write_text(g.to_edge_list())


def test_generator_validation():
    for gen in (gen_sparse_random, gen_neg_dense):
        with pytest.raises(SpecInvalid):
            gen(0, 10, 1)
        with pytest.raises(SpecInvalid):
            gen(10, -1, 1)
        with pytest.raises(SpecInvalid):
            gen(10.0, 10, 1)  # the inline draws need an int n
        assert gen(1, 0, 1).m == 0
    with pytest.raises(SpecInvalid):
        gen_sparse_random(10, 10, 1, weight_lo=5.0, weight_hi=1.0)
    with pytest.raises(SpecInvalid):
        gen_sparse_random(10, 10, 1, weight_lo=-1.0)
    for f in (-0.1, 1.5):
        with pytest.raises(SpecInvalid):
            gen_neg_dense(10, 10, 1, neg_fraction=f)


def test_sparse_random_shape_and_range():
    g = gen_sparse_random(120, 600, 9, weight_lo=1.0, weight_hi=3.0)
    assert g.n == 120 and g.m == 600
    assert all(1e6 <= w <= 3e6 for w in g.weights)  # in micro-units


def test_determinism_byte_identity():
    builders = [
        lambda s: gen_sparse_random(80, 300, s),
        lambda s: gen_neg_dense(60, 400, s, neg_fraction=0.4),
        lambda s: gen_windmill(3, 5, s),
        lambda s: gen_slf_killer(100, s),
    ]
    for build in builders:
        assert graph_bytes(build(5)) == graph_bytes(build(5))
        assert graph_bytes(build(5)) != graph_bytes(build(6))


def test_neg_dense_fraction_is_respected():
    for f in (0.0, 0.15, 0.5, 0.85):
        g = gen_neg_dense(300, 20000, 7, neg_fraction=f)
        measured = sum(1 for w in g.weights if w < 0) / g.m
        assert abs(measured - f) < 0.04, (f, measured)
        if f == 0.0:  # every edge points down-potential
            assert min(g.weights) > 0


def test_neg_dense_has_no_negative_cycle_anywhere():
    # exhaustive: BF from every vertex reaches every cycle
    for seed in range(20):
        g = gen_neg_dense(30, 240, seed, neg_fraction=0.6)
        for s in range(g.n):
            assert not bellman_ford(g, s).neg_cycle, (seed, s)


def test_windmill_shape():
    g = gen_windmill(4, 5, seed=11)
    assert g.n == 4 * 4 + 1
    assert g.m == 4 * 5 * 4
    assert all(w > 0 for w in g.weights)
    assert g.out_degree(0) == 4 * 4  # hub sees every blade member
    r = bellman_ford(g, 0)
    assert max(r.dist) < math.inf


def test_windmill_validation():
    with pytest.raises(SpecInvalid):
        gen_windmill(0, 5, seed=1)
    with pytest.raises(SpecInvalid):
        gen_windmill(3, 1, seed=1)
    with pytest.raises(SpecInvalid):
        gen_windmill(3, 5, seed=1, weight_lo=0.0)


def test_slf_killer_minimum_size():
    with pytest.raises(SpecInvalid):
        gen_slf_killer(7, seed=1)
    g = gen_slf_killer(8, seed=1)
    assert g.n == 8


def test_slf_killer_settles_fast_under_bf():
    for n in (50, 500):
        r = bellman_ford(gen_slf_killer(n, seed=3), 0)
        assert not r.neg_cycle
        assert r.stats.outer_iterations == 2


def test_slf_killer_inspections_grow_superlinearly():
    per_edge = []
    for n in (200, 500, 1000):
        g = gen_slf_killer(n, seed=0)
        s = spfa_slf(g, 0).stats
        per_edge.append(s.edge_inspections / g.m)
    assert per_edge[0] < per_edge[1] < per_edge[2]
    assert per_edge[2] > 1.8 * per_edge[1]  # clearly superlinear, not drift


def test_slf_killer_suppression_at_moderate_size():
    g = gen_slf_killer(1000, seed=4)
    slf_ops = spfa_slf(g, 0).stats.edge_inspections
    pq_ops = jfr_pq(g, 0).stats.edge_inspections
    assert slf_ops > 10 * pq_ops
    assert spfa_slf(g, 0).dist == jfr_pq(g, 0).dist


def test_more_edges_extend_the_same_graph():
    # the edge-increment property: at a fixed seed, raising m appends
    # edges, so each vertex's out-edges at m1 begin its out-edges at m2
    for family, params in (("sparse-random", {}), ("neg-dense", {}),
                           ("neg-dense", {"neg_fraction": 0.0})):
        for seed in (1, 2, 3):
            g1 = generate(family, seed, n=60, m=300, **params)
            g2 = generate(family, seed, n=60, m=345, **params)
            assert g2.m == 345
            o1, o2 = g1.offsets, g2.offsets
            for u in range(g1.n):
                old = slice(o1[u], o1[u + 1])
                new = slice(o2[u], min(o2[u + 1], o2[u] + o1[u + 1] - o1[u]))
                assert (g2.targets[new], g2.weights[new]) \
                    == (g1.targets[old], g1.weights[old]), (family, seed, u)


def test_plant_negative_cycle_reachable_and_negative():
    base = gen_sparse_random(40, 120, 8)
    g = plant_negative_cycle(base, 5, seed=8)
    r = bellman_ford(g, 0)
    assert r.neg_cycle


def test_plant_negative_cycle_validation():
    base = gen_sparse_random(10, 20, 1)
    with pytest.raises(SpecInvalid):
        plant_negative_cycle(base, 1, seed=1)
    with pytest.raises(SpecInvalid):
        plant_negative_cycle(base, 11, seed=1)
    with pytest.raises(SpecInvalid):
        plant_negative_cycle(base, 3, seed=1, total_weight=0.5)


def test_generate_dispatcher():
    assert generate("windmill", 3, blades=2, blade_size=3).n == 5
    assert generate("slf-killer", 1, n=20).n == 20
    assert generate("sparse-random", 1, n=10, m=20).m == 20
    assert generate("neg-dense", 1, n=10, m=20).m == 20
    with pytest.raises(SpecInvalid):
        generate("bogus", 1, n=10)
    with pytest.raises(SpecInvalid):
        generate("sparse-random", 1, n=10)  # missing m
    with pytest.raises(SpecInvalid):
        generate("windmill", 1, blades=2)  # missing blade_size
    with pytest.raises(SpecInvalid):
        generate("neg-dense", 1, n=10, m=20, neg_fracton=0.5)  # no one's
    # a value of a type the signature does not allow, one per family
    for family, params in (("sparse-random", {"n": 10, "m": 2.5}),
                           ("neg-dense", {"n": 10, "m": "3"}),
                           ("neg-dense", {"n": 10, "m": 20,
                                          "weight_hi": math.inf}),
                           ("windmill", {"blades": 2.0, "blade_size": 3}),
                           ("slf-killer", {"n": 9.0}),
                           ("pq-killer", {"levels": 2.0, "detour": 1})):
        with pytest.raises(SpecInvalid):
            generate(family, 1, **params)
    # None takes the default; a parameter another family reads is ignored
    plain = graph_bytes(gen_slf_killer(20, 1))
    assert graph_bytes(generate("slf-killer", 1, n=20, m=None,
                                neg_fraction=0.3, blades=4)) == plain
    assert graph_bytes(generate("neg-dense", 1, n=100, m=500)) \
        == graph_bytes(gen_neg_dense(100, 500, 1)) \
        == graph_bytes(generate("neg-dense", 1, n=100, m=500,
                                neg_fraction=None, weight_hi=None))
    assert sum(w < 0 for w in gen_neg_dense(100, 500, 1).weights) > 0
    # family_args alone judges a family's arguments: an int for a float
    # parameter comes back a float and builds the same graph, arguments
    # come back in signature order, and a name the family does not read
    # or a missing parameter with no default is refused
    args = family_args("neg-dense", {"neg_fraction": 0, "m": 500, "n": 100,
                                     "weight_hi": None})
    assert args == {"n": 100, "m": 500, "neg_fraction": 0.0}
    assert list(args) == ["n", "m", "neg_fraction"]
    assert type(args["neg_fraction"]) is float and type(args["n"]) is int
    assert graph_bytes(generate("neg-dense", 1, **args)) \
        == graph_bytes(generate("neg-dense", 1, n=100, m=500, neg_fraction=0))
    assert list(family_args("windmill", {"weight_lo": 2, "blade_size": 3,
                                         "blades": 2})) \
        == ["blades", "blade_size", "weight_lo"]
    for family, params in (("slf-killer", {"n": 20, "m": 60}),
                           ("pq-killer", {"levels": 3, "detour": 1,
                                          "n": None}),
                           ("pq-killer", {"levels": 8}),
                           ("sparse-random", {"m": 20, "weight_hi": None}),
                           ("sparse-random", {"n": 10, "m": 20,
                                              "weight_hi": 2 ** 1024 - 1})):
        with pytest.raises(SpecInvalid):
            family_args(family, params)


def test_family_params_come_from_the_generator_signatures():
    assert list(FAMILIES) == ["sparse-random", "neg-dense", "windmill",
                              "slf-killer", "pq-killer"]
    assert list(family_params("neg-dense")) == [
        "n", "m", "weight_hi", "neg_fraction"]
    assert family_params("neg-dense")["neg_fraction"].default == 0.3
    assert family_params("windmill")["blades"].annotation is int
    assert list(family_params("slf-killer")) == ["n"]
    assert list(family_params("pq-killer")) == ["levels", "detour"]
    for bad in ("bogus", ["slf-killer"]):
        with pytest.raises(SpecInvalid):
            family_params(bad)


def test_every_family_parameter_changes_the_graph():
    # a knob that changes nothing gets deleted: for each parameter with a
    # default, a valid other value must give other bytes
    base = {"sparse-random": {"n": 20, "m": 60},
            "neg-dense": {"n": 20, "m": 60},
            "windmill": {"blades": 2, "blade_size": 3},
            "slf-killer": {"n": 20}, "pq-killer": {"levels": 3, "detour": 1}}
    other = {"weight_lo": lambda d: d + 1.0, "weight_hi": lambda d: 2 * d,
             "neg_fraction": lambda d: 2 * d}
    assert list(base) == list(FAMILIES)
    for family, params in base.items():
        plain = graph_bytes(generate(family, 1, **params))
        for name, p in family_params(family).items():
            if p.default is not p.empty:
                value = other[name](p.default)
                g = generate(family, 1, **params, **{name: value})
                assert graph_bytes(g) != plain, (family, name, value)


def test_pq_killer_shape_and_seed_independence():
    for levels, detour in ((1, 1), (5, 1), (6, 3), (32, 1)):
        g = generate("pq-killer", 0, levels=levels, detour=detour)
        assert (g.n, g.m) == (levels * (detour + 1) + 1, levels * (detour + 2))
        assert all(w % 1e6 == 0 for w in g.weights)  # whole units
        assert graph_bytes(generate("pq-killer", 99, levels=levels,
                                    detour=detour)) == graph_bytes(g)
    # past 32 levels the weights sum past 2^52 micro-units
    for levels, detour in ((0, 1), (33, 1), (4, 0)):
        with pytest.raises(SpecInvalid):
            generate("pq-killer", 0, levels=levels, detour=detour)
