"""Immutable directed graphs in compressed sparse row form, plus the
plain-text edge-list format.

A graph is built once from an edge list and never mutated afterwards.  The
CSR arrays are ordinary Python lists: ``offsets`` has ``n + 1`` entries,
``targets`` and ``weights`` have ``m`` entries each, and the out-edges of
``u`` occupy the slice ``offsets[u]:offsets[u + 1]`` in the order the edges
were supplied.  Parallel edges and non-negative self-loops are allowed.

The text format is line-oriented ASCII: a header ``n m``, then one ``tail
head weight`` line per edge (0-based endpoints, LF line endings).  Lines
starting with ``#`` are comments and do not count toward ``m``.  Canonical
text is exactly what ``write_text`` writes: ``n m\n``, then ``t h w\n``
lines with single spaces, ASCII digits and tails in CSR order.  Both
readers scan canonical bytes a 16-KiB slice at a time, with no Python loop
per line or edge: ``read_file`` into CSR arrays through ``from_columns``,
``read_text`` into its document.  Any other text goes through
``read_text``'s line loop and ``from_edge_list``, which raise every error;
``read_file`` hands scanned columns that fail a check to ``from_edge_list``.
The generators build through ``from_columns`` too, from per-tail buckets.

A ``Graph`` holds each weight ``w`` as integer micro-units ``w * SCALE``
in a float; their magnitudes sum to at most 2^52, so every path sum is
exact.  ``to_edge_list`` and the CLI's JSON convert back to whole units.
"""

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, le, mul, sub, truediv

from .errors import (
    GraphTooLarge,
    HeaderMismatch,
    IndexOutOfRange,
    InexactWeight,
    JfrError,
    NegativeSelfLoop,
    NonFiniteWeight,
    ParseError,
    SpecInvalid,
)

SCALE = 1e6  # micro-units per weight unit
MAX_UNITS = 2.0 ** 52  # the largest sum of |weight| in micro-units


@dataclass
class EdgeListDoc:
    """A parsed edge list: vertex count plus ``(tail, head, weight)`` rows."""

    n: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.edges)


class Graph:
    """Directed graph in CSR form, with weights in micro-units.

    Attributes are set once at construction and treated as read-only.
    """

    __slots__ = ("n", "m", "offsets", "targets", "weights")

    def __init__(self, n, offsets, targets, weights):
        self.n = n
        self.m = len(targets)
        self.offsets = offsets
        self.targets = targets
        self.weights = weights

    def out_degree(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise IndexOutOfRange(f"vertex {u} not in [0, {self.n})")
        return self.offsets[u + 1] - self.offsets[u]

    def out_edges(self, u: int) -> list[tuple[int, float]]:
        """``(head, weight)`` pairs for ``u`` in insertion order."""
        if not 0 <= u < self.n:
            raise IndexOutOfRange(f"vertex {u} not in [0, {self.n})")
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return list(zip(self.targets[lo:hi], self.weights[lo:hi]))

    def _tails(self):
        offsets = self.offsets
        return chain.from_iterable(map(repeat, range(self.n),
                                       map(sub, offsets[1:], offsets)))

    def edges(self):
        """Iterate all edges as ``(tail, head, weight)`` in CSR order."""
        return zip(self._tails(), self.targets, self.weights)

    def to_edge_list(self) -> EdgeListDoc:
        """The edge list, weights in whole units, that builds this graph."""
        return EdgeListDoc(self.n, list(zip(
            self._tails(), self.targets,
            map(truediv, self.weights, repeat(SCALE)))))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.offsets == other.offsets
                and self.targets == other.targets
                and self.weights == other.weights)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _units(weights) -> list:
    """``weights`` as integer-valued floats of micro-units.  Raises
    NonFiniteWeight if one is not finite, else InexactWeight if one is off
    the grid or if |weights| sum past MAX_UNITS."""
    try:  # float.__round__ is 2x round(); copysign keeps a zero's sign
        units = list(map(math.copysign, map(float.__round__, map(
            mul, weights, repeat(SCALE))), weights))
    except (OverflowError, TypeError, ValueError):  # inf, NaN, not a float
        units = None
    if units is None or not (
            sum(map(abs, units)) <= MAX_UNITS
            and list(map(truediv, units, repeat(SCALE))) == weights):
        if not all(map(math.isfinite, weights)):
            raise NonFiniteWeight("an edge weight is not finite")
        raise InexactWeight("weights must be whole multiples of 1e-6 whose "
                            f"magnitudes sum to at most {MAX_UNITS / SCALE}")
    return units


def from_edge_list(doc: EdgeListDoc) -> Graph:
    """Build a CSR graph, validating the vertex count, endpoints and weights.

    Preserves the relative order of each vertex's out-edges.  Rejects
    endpoints outside ``[0, n)``, non-finite weights, negative self-loops
    (a one-edge negative cycle), and inexact weights (:func:`_units`).
    """
    n = doc.n
    if type(n) is not int or n < 0:
        raise SpecInvalid(f"vertex count {n!r} is not an int >= 0")
    try:
        counts = [0] * (n + 1)
    except (MemoryError, OverflowError):
        raise GraphTooLarge(f"n={n} vertices do not fit in memory") from None
    try:
        for tail, head, weight in doc.edges:
            if not (0 <= tail < n and 0 <= head < n):
                raise IndexOutOfRange(f"edge ({tail}, {head}) not in [0, {n})")
            if not math.isfinite(weight):
                raise NonFiniteWeight(f"edge ({tail}, {head}) weight {weight}")
            if tail == head and weight < 0:
                raise NegativeSelfLoop(f"vertex {tail} loop weight {weight}")
            counts[tail + 1] += 1
    except (TypeError, ValueError, OverflowError) as exc:  # find the culprit
        for tail, head, weight in doc.edges:
            if not (isinstance(tail, int) and isinstance(head, int)
                    and 0 <= tail < n and 0 <= head < n):
                raise IndexOutOfRange("an endpoint is not a vertex") from exc
            if not isinstance(weight, (int, float)):
                raise NonFiniteWeight(f"non-float weight {weight!r}") from exc
        raise InexactWeight("a weight is past the float range") from exc
    offsets = list(accumulate(counts))
    m = len(doc.edges)
    targets = [0] * m
    weights = [0.0] * m
    cursor = offsets[:]
    for tail, head, weight in doc.edges:
        slot = cursor[tail]
        targets[slot] = head
        weights[slot] = weight
        cursor[tail] = slot + 1
    # a float head passes the range test; an int sum holds no float term
    if type(sum(targets)) is not int:
        raise IndexOutOfRange("an edge head is not an int vertex")
    return Graph(n, offsets, targets, _units(weights))


def from_columns(n: int, tails: list, heads: list, weights: list) -> Graph:
    """Build a CSR graph from int edge columns whose tails are already in
    CSR order (nondecreasing), with every check at C speed.

    Raises what :func:`from_edge_list` raises on these edges (GraphTooLarge,
    IndexOutOfRange, NonFiniteWeight, InexactWeight, NegativeSelfLoop), and
    SpecInvalid for tails out of order.
    """
    try:
        offsets = [0] * (n + 1)
    except (MemoryError, OverflowError):
        raise GraphTooLarge(f"n={n} vertices do not fit in memory") from None
    if not all(map(le, tails, islice(tails, 1, None))):
        raise SpecInvalid("edge tails are not in CSR order")
    if tails and (tails[0] < 0 or tails[-1] >= n
                  or min(heads) < 0 or max(heads) >= n):
        raise IndexOutOfRange(f"an edge endpoint is not in [0, {n})")
    units = _units(weights)
    if min(compress(units, map(eq, tails, heads)), default=0) < 0:
        raise NegativeSelfLoop("a self-loop has negative weight")
    offsets[1:] = map(bisect_right, repeat(tails), range(n))
    return Graph(n, offsets, heads, units)


def write_text(doc: EdgeListDoc) -> bytes:
    """Serialize a document in canonical form (no comments, LF endings)."""
    lines = [f"{doc.n} {doc.m}"]
    for tail, head, weight in doc.edges:
        # repr() is the shortest string that round-trips through float()
        lines.append(f"{tail} {head} {float(weight)!r}")
    return ("\n".join(lines) + "\n").encode("ascii")


_CANONICAL_HEADER = re.compile(rb"([0-9]+) ([0-9]+)\n")
# matched and split a slice at a time, so sre's backtracking stack and the
# tokens stay small (a possessive *+ bounds the stack too, but needs 3.11)
_CANONICAL_LINES = re.compile(rb"(?:[0-9]+ [0-9]+ [-+.e0-9]+\n)*")
_SLICE_BYTES = 1 << 14


def _scan_canonical(data: bytes) -> "tuple | None":
    """``(n, tails, heads, weights)`` of canonical text, scanned with no
    loop per line or edge, or None for any other text."""
    header = _CANONICAL_HEADER.match(data)
    if header is None:
        return None
    tails, heads, weights = [], [], []
    start = header.end()
    try:
        n, m = int(header[1]), int(header[2])
        while start < len(data):
            # newline-aligned slices; the last one runs to the end
            end = data.find(b"\n", start + _SLICE_BYTES) + 1 or len(data)
            if _CANONICAL_LINES.fullmatch(data, start, end) is None:
                return None
            tokens = data[start:end].split()
            tails += map(int, islice(tokens, 0, None, 3))
            heads += map(int, islice(tokens, 1, None, 3))
            weights += map(float, islice(tokens, 2, None, 3))
            start = end
    except (ValueError, MemoryError):
        return None
    return (n, tails, heads, weights) if len(tails) == m else None


def read_text(data: "bytes | str") -> EdgeListDoc:
    """Parse edge-list text.  Raises ParseError with the offending line
    number, or HeaderMismatch when the declared edge count is wrong.
    Canonical bytes are scanned at C speed, any other text a line at a
    time; both give the same document."""
    columns = _scan_canonical(data) if isinstance(data, bytes) else None
    if columns is not None:
        n, tails, heads, weights = columns
        return EdgeListDoc(n, list(zip(tails, heads, weights)))
    return _read_lines(data)


def _read_lines(data: "bytes | str") -> EdgeListDoc:
    """:func:`read_text` a line at a time, for any text."""
    # latin-1 maps each byte to one character, so the check covers both
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    if not text.isascii():
        raise ParseError("non-ASCII input", 1)
    header = None
    edges = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line and line_no > 1:
            # tolerate the trailing newline / blank tail only
            continue
        if line.startswith("#"):
            continue
        if "_" in line:  # int() and float() read "1_0" as 10
            raise ParseError(f"digit separator '_' in {raw!r}", line_no)
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError(f"expected header 'n m', got {raw!r}", line_no)
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise ParseError(f"bad header {raw!r}", line_no) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header field", line_no)
            continue
        if len(fields) != 3:
            raise ParseError(f"expected 'tail head weight', got {raw!r}", line_no)
        try:
            tail, head = int(fields[0]), int(fields[1])
            weight = float(fields[2])
        except ValueError:
            raise ParseError(f"bad edge line {raw!r}", line_no) from None
        edges.append((tail, head, weight))
    if header is None:
        raise ParseError("empty input", 1)
    n, m = header
    if m != len(edges):
        raise HeaderMismatch(f"header declares m={m}, found {len(edges)} edge lines")
    return EdgeListDoc(n, edges)


def read_file(path) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _scan_canonical(data)
    if columns is None:
        return from_edge_list(_read_lines(data))
    try:
        return from_columns(*columns)
    except JfrError:  # from_edge_list judges these edges and names the error
        n, tails, heads, weights = columns
        return from_edge_list(EdgeListDoc(n, list(zip(tails, heads, weights))))


def write_file(path, g: Graph) -> None:
    with open(path, "wb") as fh:
        fh.write(write_text(g.to_edge_list()))
