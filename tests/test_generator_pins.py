"""Golden pins: every family generates the same bytes for the same
parameters and seed, so suite rows and benchmark instances stay
comparable across versions."""

import hashlib

import pytest

from jfrbench.generators import generate, plant_negative_cycle
from jfrbench.graph import write_text

# md5 of each graph's text form, with default and with explicit parameters
# per family; the bench-* cases are the three call shapes of
# bench/harness.py
PINNED = {
    "sparse-random-default": (
        lambda: generate("sparse-random", 3, n=50, m=200),
        "e74427927162eee745d95b9cd532f181"),
    "sparse-random-explicit": (
        lambda: generate("sparse-random", 3, n=50, m=200, weight_lo=1.5,
                         weight_hi=4.0),
        "8cd2437424a67a537b5b6aeace270e67"),
    "neg-dense-default": (
        lambda: generate("neg-dense", 3, n=50, m=300),
        "1a97625c836dafcd9bf6f66ff2375ff2"),
    "neg-dense-explicit": (
        lambda: generate("neg-dense", 3, n=50, m=300, weight_hi=20.0,
                         neg_fraction=0.6),
        "22d326757515e5707fd9e1ae17a7177c"),
    "neg-dense-no-negative-share": (
        lambda: generate("neg-dense", 3, n=30, m=100, weight_hi=5.0,
                         neg_fraction=0.0),
        "13aa7639e081f8e1419dc5b95d2c324d"),
    "windmill-default": (
        lambda: generate("windmill", 3, blades=3, blade_size=4),
        "e417dabe20049d9de5d8ef53808105f3"),
    "windmill-explicit": (
        lambda: generate("windmill", 3, blades=3, blade_size=4,
                         weight_lo=2.0, weight_hi=3.0),
        "600cd260f2354b10519506bc2f1d7efc"),
    "slf-killer-default": (
        lambda: generate("slf-killer", 3, n=60),
        "268d26d078b7bfb0daeecfbdedbab0c7"),
    "pq-killer-detour1": (
        lambda: generate("pq-killer", 3, levels=8, detour=1),
        "a4cb7f209542059e0456c2d2c9e9192b"),
    "pq-killer-detour3": (
        lambda: generate("pq-killer", 3, levels=12, detour=3),
        "78644ce40128540f0da3d3f0a5e0df05"),
    "bench-mixed-sparse": (
        lambda: generate("neg-dense", 7, n=1000, m=5000, neg_fraction=0.3),
        "8b3c780d5a92a6ab5f613870468fcb24"),
    "bench-slf-killer": (
        lambda: generate("slf-killer", 7, n=200, m=None, neg_fraction=0.3),
        "09c77a7ed7fb72fb912453744b202b4a"),
    "bench-neg-cycle": (
        lambda: plant_negative_cycle(generate("neg-dense", 7, n=40, m=800,
                                              neg_fraction=0.3), 8, 7, -0.5),
        "aecc24947e4ccaab2dea32d557efdb5e"),
}


@pytest.mark.parametrize("build, md5", PINNED.values(), ids=PINNED)
def test_generated_graphs_are_pinned(build, md5):
    g = build()
    assert hashlib.md5(write_text(g.to_edge_list())).hexdigest() == md5
