"""Golden pins: every family generates the same bytes for the same
parameters and seed, so suite rows and benchmark instances stay
comparable across versions."""

import hashlib

import pytest

from jfrbench.generators import generate, plant_negative_cycle
from jfrbench.graph import write_text

# md5 of each graph's text form plus repr(potentials), with default and
# with explicit parameters per family; the bench-* cases are the three
# call shapes of bench/harness.py
PINNED = {
    "sparse-random-default": (
        lambda: generate("sparse-random", 3, n=50, m=200),
        "069428e157a1cb478a6da173da125b85"),
    "sparse-random-explicit": (
        lambda: generate("sparse-random", 3, n=50, m=200, weight_lo=1.5,
                         weight_hi=4.0),
        "29fd1df0ff365a7df25372ed0f6e1810"),
    "neg-dense-default": (
        lambda: generate("neg-dense", 3, n=50, m=300),
        "3f1f295968a085ae5c81d56f599275a6"),
    "neg-dense-explicit": (
        lambda: generate("neg-dense", 3, n=50, m=300, weight_hi=20.0,
                         neg_fraction=0.6),
        "1b33ef765fa1cdc4609b0707e4981bf3"),
    "neg-dense-no-negative-share": (
        lambda: generate("neg-dense", 3, n=30, m=100, weight_lo=1.0,
                         weight_hi=5.0, neg_fraction=0.0),
        "bfa6d5b7d9da6a68d9c82307852c20cb"),
    "windmill-default": (
        lambda: generate("windmill", 3, blades=3, blade_size=4),
        "b6ee0cb1428798c9265b39922e74eccd"),
    "windmill-explicit": (
        lambda: generate("windmill", 3, blades=3, blade_size=4,
                         weight_lo=2.0, weight_hi=3.0),
        "8cb1fdf0ceb478d7fa25b28e1c664514"),
    "slf-killer-default": (
        lambda: generate("slf-killer", 3, n=60),
        "519855ac6c2a2df760d823fbaa3500a3"),
    "pq-killer-detour1": (
        lambda: generate("pq-killer", 3, levels=8, detour=1),
        "6b4f36b849fa5648ed6e9be64e10c4ab"),
    "pq-killer-detour3": (
        lambda: generate("pq-killer", 3, levels=12, detour=3),
        "767b6a4a835c61c05a9e2c0b6bfe63bd"),
    "bench-mixed-sparse": (
        lambda: generate("neg-dense", 7, n=1000, m=5000, neg_fraction=0.3),
        "dc743bf059c0e6f9e8def713fe646e36"),
    "bench-slf-killer": (
        lambda: generate("slf-killer", 7, n=200, m=None, neg_fraction=0.3),
        "1b1d640f4bcfb73756d656f686c1500d"),
    "bench-neg-cycle": (
        lambda: plant_negative_cycle(generate("neg-dense", 7, n=40, m=800,
                                              neg_fraction=0.3), 8, 7, -0.5),
        "3e3b49eeb6bb0401519642fab7cda6e9"),
}


@pytest.mark.parametrize("build, md5", PINNED.values(), ids=PINNED)
def test_generated_graphs_are_pinned(build, md5):
    g = build()
    text = write_text(g.to_edge_list()) + repr(g.potentials).encode("ascii")
    assert hashlib.md5(text).hexdigest() == md5
