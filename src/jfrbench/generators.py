"""Seeded construction of the five benchmark graph families.

Families
--------
``sparse-random``
    Exactly ``m`` edges with uniformly random endpoints and uniform
    non-negative weights.  Reachability from vertex 0 is left to chance.

``neg-dense``
    Mixed-sign weights that provably contain no negative cycle: every
    vertex gets a hidden potential ``p(v)`` and each edge ``(u, v)`` is
    weighted ``w0 + p(u) - p(v)`` with ``w0 > 0``, so any cycle's weight
    telescopes to the sum of its ``w0`` terms.  All ``w0`` come from one
    narrow uniform band, so relative to the potentials the graph behaves
    like a near-uniform positive-weight graph; ``neg_fraction`` is hit by
    orienting a computed share of edges down-potential (never negative) or
    up-potential (negative whenever the potential gap exceeds ``w0``).
    At ``neg_fraction = 0`` every edge points down-potential, so no
    weight is negative.  ``weight_hi`` (at least 1) sets the overall
    scale.

``windmill``
    The classic windmill: ``blades`` bidirected complete graphs on
    ``blade_size`` vertices sharing a single hub, uniform positive
    weights.  ``n = blades * (blade_size - 1) + 1``.

``slf-killer``
    Adversarial input for the smallest-label-first deque heuristic.  A
    low-weight trunk chain keeps tiny labels at the deque front, which
    parks a sequence of improver vertices behind a high-degree amplifier
    vertex in worst-label-first order.  Each improver then lowers the
    amplifier's label just enough that it jumps the queue and re-relaxes
    its whole out-neighbourhood, giving Theta(n^2) inspections for
    SPFA-SLF, while a global-minimum priority order pops the best improver
    first and settles the amplifier once.

``pq-killer``
    Adversarial input for a lazy-deletion priority queue on negative
    weights (D. B. Johnson, JACM 1973).  ``levels`` levels chain the
    source to a last vertex; each has a zero-weight direct edge and a
    detour through ``detour`` fresh vertices that is dearer at first but
    saves ``2^(j-1)`` at level j.  The queue reaches a detour only after
    the whole cascade below has run at the worse label, so the cascade
    runs again and the scans double per level, even when each pop also
    runs a depth-``k`` propagation with ``k <= detour``.  ``jfr_pq``'s
    passes, FIFO order, SLF and ``jfr_strict`` stay far below ``n * m``.

``FAMILIES`` maps each name to its generator, whose signature lists the
family's parameters, types and defaults; ``family_args`` alone judges
them, for ``generate``, suite entries and ``gen``'s flags.  All randomness
comes from ``random.Random`` (Mersenne Twister) seeded with the 64-bit
seed; identical parameters give byte-identical graphs.
Weights are rounded to 6 decimal digits, the whole micro-units that
:mod:`jfrbench.graph` requires.

The edge loops of ``sparse-random``, ``neg-dense`` and ``windmill`` draw
inline what ``rng.randrange(n)`` and ``rng.uniform(a, b)`` draw:
``getrandbits(n.bit_length())`` redrawn while it is >= n, and
``a + (b - a) * random()``.  That is those methods' own code on CPython
3.6-3.13, so the stream, and every graph's bytes, stay as they were
(``tests/test_generator_draws.py`` compares against the method calls).
Each edge goes straight into its tail's bucket.  Every family, and
``plant_negative_cycle``, builds its graph through
:func:`jfrbench.graph.from_columns`, the one builder that judges every
edge (``slf-killer`` and ``pq-killer`` by way of ``from_edge_list``).
"""

import inspect
import random
import sys
from bisect import bisect_right
from itertools import chain, repeat
from operator import truediv

from .errors import GraphTooLarge, SpecInvalid
from .graph import SCALE, EdgeListDoc, Graph, from_columns, from_edge_list


def _r6(x: float) -> float:
    return round(x, 6)


def _check_ranges(n, m):
    if type(n) is not int or n < 1:
        raise SpecInvalid("n must be an int >= 1")
    if m < 0:
        raise SpecInvalid("m must be >= 0")
    _check_size(n, m)


def _check_size(n, m):
    """Raise GraphTooLarge for a graph of ``n`` vertices and ``m`` edges
    that no list can index, before a generator builds anything per vertex
    or per edge."""
    if max(n, m) > sys.maxsize:
        raise GraphTooLarge(f"n={n} vertices and m={m} edges are past the "
                            f"index range {sys.maxsize}")


def _from_buckets(n: int, heads: list, weights: list) -> Graph:
    """The graph whose vertex ``u`` has out-edges ``heads[u]`` weighing
    ``weights[u]`` rounded to 6 digits, in that order.  Empties both
    bucket lists, so they are freed before the graph's checks run."""
    columns = (n, list(chain.from_iterable(map(repeat, range(n),
                                                map(len, heads)))),
               list(chain.from_iterable(heads)),
               list(map(round, chain.from_iterable(weights), repeat(6))))
    heads.clear()
    weights.clear()
    return from_columns(*columns)


def gen_sparse_random(n: int, m: int, seed: int, weight_lo: float = 0.0,
                      weight_hi: float = 10.0) -> Graph:
    _check_ranges(n, m)
    if not 0.0 <= weight_lo <= weight_hi:
        raise SpecInvalid("weights need 0 <= weight_lo <= weight_hi")
    rng = random.Random(seed)
    bits, rand, k = rng.getrandbits, rng.random, n.bit_length()
    span = weight_hi - weight_lo
    heads = [[] for _ in range(n)]
    weights = [[] for _ in range(n)]
    for _ in range(m):
        u = bits(k)  # u = rng.randrange(n)
        while u >= n:
            u = bits(k)
        v = bits(k)
        while v >= n:
            v = bits(k)
        heads[u].append(v)
        weights[u].append(weight_lo + span * rand())  # rng.uniform
    return _from_buckets(n, heads, weights)


def gen_neg_dense(n: int, m: int, seed: int, weight_hi: float = 10.0,
                  neg_fraction: float = 0.3) -> Graph:
    _check_ranges(n, m)
    if not 0.0 <= neg_fraction <= 1.0:
        raise SpecInvalid("neg_fraction must be in [0, 1]")
    if not weight_hi >= 1.0:
        raise SpecInvalid(f"neg-dense needs weight_hi >= 1, got {weight_hi}")
    rng = random.Random(seed)
    bits, rand, k = rng.getrandbits, rng.random, n.bit_length()
    f = neg_fraction
    spread = weight_hi
    # rng.uniform(0.0, spread): 0.0 + (spread - 0.0) * r is spread * r
    potentials = [round(spread * rand(), 6) for _ in range(n)]
    # Base weights live in one narrow band.  High fractions need the band
    # pushed toward zero (an up-potential edge goes negative only when the
    # potential gap exceeds w0), so it shrinks once f passes one half, but
    # never below a floor that keeps every telescoped cycle sum safely
    # positive against the 6-digit weight rounding.
    scale = max(0.08, min(1.0, 2.0 * (1.0 - f)))
    w0_hi = 0.10 * spread * scale
    w0_lo = 0.8 * w0_hi
    w0_span = w0_hi - w0_lo
    # For potentials uniform on [0, spread], an up-potential edge is
    # negative with probability q = E[(1 - w0/spread)^2].  Forcing shares
    # of edges to point down-potential (always positive) or up-potential
    # lands the expected negative fraction exactly on f (capped at q).
    a, b = w0_lo / spread, w0_hi / spread
    q = ((1.0 - a) ** 3 - (1.0 - b) ** 3) / (3.0 * (b - a))
    if f <= q / 2.0:
        force_pos, force_neg = 1.0 - 2.0 * f / q, 0.0
    else:
        force_pos, force_neg = 0.0, min(1.0, 2.0 * f / q - 1.0)
    force_any = force_pos + force_neg
    heads = [[] for _ in range(n)]
    weights = [[] for _ in range(n)]
    for _ in range(m):
        u = bits(k)  # u = rng.randrange(n)
        while u >= n:
            u = bits(k)
        v = bits(k)
        while v >= n:
            v = bits(k)
        w0 = w0_lo + w0_span * rand()  # rng.uniform(w0_lo, w0_hi)
        r = rand()
        if r < force_pos:
            if potentials[u] < potentials[v]:
                u, v = v, u
        elif r < force_any:
            if potentials[u] > potentials[v]:
                u, v = v, u
        heads[u].append(v)
        weights[u].append(w0 + potentials[u] - potentials[v])
    return _from_buckets(n, heads, weights)


def gen_windmill(blades: int, blade_size: int, seed: int,
                 weight_lo: float = 1.0, weight_hi: float = 10.0) -> Graph:
    if blades < 1:
        raise SpecInvalid("blades must be >= 1")
    if blade_size < 2:
        raise SpecInvalid("blade_size must be >= 2")
    if weight_lo <= 0 or weight_lo > weight_hi:
        raise SpecInvalid("windmill weights must be positive")
    n = blades * (blade_size - 1) + 1
    _check_size(n, blades * blade_size * (blade_size - 1))
    rng = random.Random(seed)
    rand, span = rng.random, weight_hi - weight_lo
    heads = [[] for _ in range(n)]
    weights = [[] for _ in range(n)]
    for b in range(blades):
        start = 1 + b * (blade_size - 1)
        members = [0] + list(range(start, start + blade_size - 1))
        for x in members:
            for y in members:
                if x != y:
                    heads[x].append(y)
                    weights[x].append(weight_lo + span * rand())  # uniform
    return _from_buckets(n, heads, weights)


def gen_slf_killer(n: int, seed: int) -> Graph:
    """Build the adversarial instance described in the module docstring.

    Layout (source 0): trunk vertices 1..t, improvers t+1..2t, the
    amplifier at 2t+1, and its out-neighbourhood filling the rest.  Vertex
    numbering ascends along the trunk so Bellman-Ford settles the graph in
    two passes while SPFA-SLF grinds through t re-relaxations of the
    amplifier's out-edges.
    """
    if n < 8:
        raise SpecInvalid("slf-killer needs n >= 8")
    t = (n - 3) // 3
    _check_size(n, n - 1 + t)
    rng = random.Random(seed)
    fan = n - 3 - 2 * t  # amplifier out-degree
    # trunk has one zero-out-degree sentinel at the end so that every
    # improver is enqueued while the deque front still holds a tiny trunk
    # label (otherwise the front-insert rule would let the best improver
    # jump the queue and the cascade would never fire)
    trunk = list(range(1, t + 2))
    improvers = list(range(t + 2, 2 * t + 2))
    amp = 2 * t + 2
    fan_out = list(range(2 * t + 3, 2 * t + 3 + fan))
    gap = _r6(8.0 * (1.0 + 0.25 * rng.random()))
    step = _r6(1e-4 * (1.0 + 0.5 * rng.random()))
    big = _r6((t + 2) * gap)

    def improver_label(i):  # label of the i-th improver, decreasing in i
        return (t - i + 1) * gap

    edges = [(0, trunk[0], step), (0, amp, big)]
    for i in range(1, t + 1):
        z = trunk[i - 1]
        edges.append((z, trunk[i], step))
        edges.append((z, improvers[i - 1], _r6(improver_label(i) - i * step)))
    for i in range(1, t + 1):
        # arrival at the amplifier undercuts the next improver's label
        edges.append((improvers[i - 1], amp, _r6(-1.5 * gap)))
    for j, psi in enumerate(fan_out, start=1):
        edges.append((amp, psi, _r6(j * 1e-6)))
    return from_edge_list(EdgeListDoc(n, edges))


def gen_pq_killer(levels: int, detour: int, seed: int) -> Graph:
    """Build the doubling instance described in the module docstring.

    Layout (source 0 = s_levels): level j = levels..1 holds s_j, then its
    ``detour`` vertices, then s_{j-1}, so vertex numbers ascend along the
    chain and Bellman-Ford settles the graph in two passes.  The direct
    edge s_j -> s_{j-1} weighs 0; the detour's edges weigh j, 0, ..., 0,
    -(j + 2^(j-1)).  ``n = levels * (detour + 1) + 1`` and ``m = levels *
    (detour + 2)``.  Its |weights| sum to L(L+1) + 2^L - 1 at L = levels,
    under the 2^52 micro-units that keep labels exact up to 32 levels.
    Every seed gives the same graph.
    """
    if not 1 <= levels <= 32:
        raise SpecInvalid("pq-killer needs 1 <= levels <= 32")
    if detour < 1:
        raise SpecInvalid("pq-killer needs detour >= 1")
    n = levels * (detour + 1) + 1
    _check_size(n, levels * (detour + 2))
    edges = []
    for j in range(levels, 0, -1):
        top = (levels - j) * (detour + 1)  # s_j
        path = range(top, top + detour + 2)  # s_j, the detour, s_{j-1}
        edges.append((top, path[-1], 0.0))
        saving = float(2 ** (j - 1))
        weights = [float(j)] + [0.0] * (detour - 1) + [-(j + saving)]
        edges += zip(path, path[1:], weights)
    return from_edge_list(EdgeListDoc(n, edges))


def plant_negative_cycle(g: Graph, cycle_len: int, seed: int,
                         total_weight: float = -0.5) -> Graph:
    """Fault injection for detection tests: append a cycle of
    ``cycle_len`` fresh edges whose weights sum to ``total_weight`` (< 0),
    plus an edge from vertex 0 to the cycle unless 0 lies on it.
    """
    if cycle_len < 2 or cycle_len > g.n:
        raise SpecInvalid("cycle_len must be in [2, n]")
    if total_weight >= 0:
        raise SpecInvalid("total_weight must be negative")
    rng = random.Random(seed)
    members = rng.sample(range(g.n), cycle_len)
    edges = []
    if 0 not in members:
        edges.append((0, members[0], _r6(rng.uniform(0.1, 1.0))))
    partial = 0.0
    for i in range(cycle_len - 1):
        w = _r6(rng.uniform(0.1, 1.0))
        partial += w
        edges.append((members[i], members[i + 1], w))
    edges.append((members[-1], members[0], _r6(total_weight - partial)))
    columns = (g.tails(), g.targets[:],
               list(map(truediv, g.weights, repeat(SCALE))))
    for edge in edges:  # after its tail's edges, so the tails stay sorted
        i = bisect_right(columns[0], edge[0])
        for column, value in zip(columns, edge):
            column.insert(i, value)
    return from_columns(g.n, *columns)


FAMILIES = {
    "sparse-random": gen_sparse_random,
    "neg-dense": gen_neg_dense,
    "windmill": gen_windmill,
    "slf-killer": gen_slf_killer,
    "pq-killer": gen_pq_killer,
}
_PARAMS = {family: {name: p for name, p in
                    inspect.signature(gen).parameters.items()
                    if name != "seed"}
           for family, gen in FAMILIES.items()}
_ANY_READS = set().union(*_PARAMS.values())


def family_params(family: str) -> dict:
    """What ``family``'s generator reads besides the seed, in signature
    order: name -> ``inspect.Parameter``, whose annotation is the type and
    whose default is the family's default (``Parameter.empty``: none)."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise SpecInvalid(f"unknown family {family!r}; choose from "
                          f"{', '.join(FAMILIES)}")
    return _PARAMS[family]


def family_args(family: str, params: dict) -> dict:
    """``params`` as ``family``'s generator takes them: in signature order,
    None values dropped, each float parameter as a float.  Raises
    SpecInvalid for a name the family does not read, a value whose type
    the signature does not allow (an int parameter takes an int, a float
    parameter a finite int or float) and a missing parameter with no
    default."""
    reads = family_params(family)
    for name in params:
        if name not in reads:
            raise SpecInvalid(f"{family} takes {', '.join(reads)}, "
                              f"not {name!r}")
    args = {}
    for name, p in reads.items():
        value = params.get(name)
        if value is None:
            if p.default is p.empty:
                raise SpecInvalid(f"{family} needs " + " and ".join(
                    q.name for q in reads.values() if q.default is q.empty))
            continue
        kinds = (int,) if p.annotation is int else (int, float)
        # an int past the float range is no float, nor are inf and NaN
        if type(value) not in kinds or (
                float in kinds and not abs(value) <= sys.float_info.max):
            raise SpecInvalid(f"{name}={value!r} is not a finite "
                              f"{p.annotation.__name__}")
        args[name] = p.annotation(value)
    return args


def generate(family: str, seed: int, **params) -> Graph:
    """Single entry point used by the CLI, the suite runner and the
    benchmark: ``family``'s graph from ``params`` as :func:`family_args`
    judges them, save that a parameter only other families read is
    ignored."""
    reads = family_params(family)
    return FAMILIES[family](seed=seed, **family_args(family, {
        name: value for name, value in params.items()
        if name in reads or name not in _ANY_READS}))
