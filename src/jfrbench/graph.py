"""Immutable directed graphs in compressed sparse row form, plus the
plain-text edge-list format.

A graph is built once from an edge list and never mutated afterwards.  The
CSR arrays are ordinary Python lists: ``offsets`` has ``n + 1`` entries,
``targets`` and ``weights`` have ``m`` entries each, and the out-edges of
``u`` occupy the slice ``offsets[u]:offsets[u + 1]`` in the order the edges
were supplied.  Parallel edges and non-negative self-loops are allowed.
``targets`` holds one int object per vertex, shared by every edge that
points at it, rather than a 28-byte int per edge.

The text format is line-oriented ASCII: a header ``n m``, then one ``tail
head weight`` line per edge (0-based endpoints, LF line endings).  Lines
starting with ``#`` are comments and do not count toward ``m``.  Canonical
text is exactly what ``write_text`` writes: ``n m\n``, then ``t h w\n``
lines with single spaces, ASCII digits and tails in CSR order.  Both
readers scan canonical bytes a 16-KiB slice at a time, with no Python loop
per line or edge (a ``bytes.translate`` check of the lines, then ``json``'s
C number parser), and any other text a line at a time, which raises each
parse error with its line number.  Either way the text becomes edge
columns, and one builder, ``from_columns``, judges every edge and lays
out the CSR arrays, for ``read_file``, ``from_edge_list`` and the
generators alike.

A ``Graph`` holds each weight ``w`` as integer micro-units ``w * SCALE``
in a float; their magnitudes sum to at most 2^52, so every path sum is
exact.  ``to_edge_list`` and the CLI's JSON convert back to whole units.
"""

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, le, mul, sub, truediv

from .errors import (
    GraphTooLarge,
    HeaderMismatch,
    IndexOutOfRange,
    InexactWeight,
    NegativeSelfLoop,
    NonFiniteWeight,
    ParseError,
    SpecInvalid,
)

SCALE = 1e6  # micro-units per weight unit
MAX_UNITS = 2.0 ** 52  # the largest sum of |weight| in micro-units
_WRITE_LINES = 4096  # edge lines that write_text encodes at a time


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

    def tails(self) -> list:
        """The tail of each edge, in CSR order: ``targets``' partner."""
        offsets = self.offsets
        return list(chain.from_iterable(map(repeat, range(self.n),
                                            map(sub, offsets[1:], offsets))))

    def to_edge_list(self) -> EdgeListDoc:
        """The edge list, weights in whole units, that builds this graph."""
        return EdgeListDoc(self.n, list(zip(
            self.tails(), self.targets,
            map(truediv, self.weights, repeat(SCALE)))))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.offsets == other.offsets
                and self.targets == other.targets
                and self.weights == other.weights)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _units(weights: list) -> "list | None":
    """``weights`` as integer-valued floats of micro-units, or None if one
    is not a finite number on the 10^-6 grid or if |weights| sum past
    MAX_UNITS."""
    try:  # float.__round__ is 2x round(); copysign keeps a zero's sign
        units = list(map(math.copysign, map(float.__round__, map(
            mul, weights, repeat(SCALE))), weights))
    except (OverflowError, TypeError, ValueError):  # inf, NaN, not a float
        return None
    if (sum(map(abs, units)) <= MAX_UNITS
            and list(map(truediv, units, repeat(SCALE))) == weights):
        return units
    return None


def _raise_first_fault(n: int, tails, heads, weights):
    """Raise the error of the first edge, in input order, with a per-edge
    fault: IndexOutOfRange for an endpoint that is not an int in
    ``[0, n)``, NonFiniteWeight for a weight that is not a finite number,
    NegativeSelfLoop for a loop of negative weight.  With no such edge,
    raise InexactWeight: :func:`_units` refused the weights."""
    for tail, head, weight in zip(tails, heads, weights):
        if not all(isinstance(v, int) and 0 <= v < n for v in (tail, head)):
            raise IndexOutOfRange(f"edge ({tail!r}, {head!r}) not in [0, {n})")
        try:
            finite = math.isfinite(weight)
        except OverflowError:  # an int past the float range: inexact
            finite = True
        except (TypeError, ValueError):  # not a number
            finite = False
        if not finite:
            raise NonFiniteWeight(f"edge ({tail}, {head}) weight {weight!r}")
        if tail == head and weight < 0:
            raise NegativeSelfLoop(f"edge ({tail}, {head}) is a loop of "
                                   f"negative weight {weight!r}")
    raise InexactWeight("weights must be whole multiples of 1e-6 whose "
                        f"magnitudes sum to at most {MAX_UNITS / SCALE}")


def from_columns(n: int, tails: list, heads: list, weights: list) -> Graph:
    """Build a CSR graph from edge columns, with no Python loop per edge
    on a valid graph: the one builder, which judges every edge.

    Keeps the relative order of each vertex's out-edges; tails in any other
    than CSR order are sorted stably.  Heads are mapped through one
    ``list(range(max(heads) + 1))`` table, so ``targets`` holds one plain
    int object per vertex, however many edges point at it.  Raises
    SpecInvalid for a vertex count that is not an int >= 0, else what
    :func:`_raise_first_fault` raises, and GraphTooLarge for a graph past
    memory.
    """
    if type(n) is not int or n < 0:
        raise SpecInvalid(f"vertex count {n!r} is not an int >= 0")
    given = tails, heads, weights  # in input order, for the error walk
    top = -1  # the largest head
    try:  # an int sum holds no float, str or other non-int endpoint
        if not all(map(le, tails, islice(tails, 1, None))):
            order = sorted(range(len(tails)), key=tails.__getitem__)
            tails, heads, weights = (list(map(column.__getitem__, order))
                                     for column in given)
        valid = (type(sum(tails)) is int and type(sum(heads)) is int
                 and (not tails or 0 <= tails[0] and tails[-1] < n
                      and 0 <= min(heads) and (top := max(heads)) < n))
    except TypeError:  # endpoints that do not compare or add up
        valid = False
    units = _units(weights) if valid else None
    if units is None or min(compress(units, map(eq, tails, heads)),
                            default=0) < 0:
        _raise_first_fault(n, *given)
    try:  # ids: one int object per head vertex for targets to share
        ids = list(range(top + 1))
        [0] * (n + 1)  # refuses offsets past memory at once, then frees them
    except (MemoryError, OverflowError):
        raise GraphTooLarge(f"n={n} vertices do not fit in memory") from None
    targets = list(map(ids.__getitem__, heads))
    del ids  # frees the ids no edge points at before the offsets are laid
    offsets = list(map(bisect_left, repeat(tails), range(n + 1)))
    return Graph(n, offsets, targets, units)


def from_edge_list(doc: EdgeListDoc) -> Graph:
    """Build a CSR graph from a document's ``(tail, head, weight)`` rows
    through :func:`from_columns`."""
    # a pass per column: 1.5x faster than zip(*edges) at m = 50000
    return from_columns(doc.n, *(list(map(itemgetter(i), doc.edges))
                                 for i in range(3)))


def write_text(doc: EdgeListDoc) -> bytes:
    """Serialize a document in canonical form (no comments, LF endings),
    encoding it ``_WRITE_LINES`` lines at a time, so that no more than a
    chunk of lines is ever held as ``str``."""
    edges = doc.edges
    # repr() is the shortest string that round-trips through float()
    return b"".join([f"{doc.n} {doc.m}\n".encode("ascii")] + [
        "".join([f"{tail} {head} {float(weight)!r}\n" for tail, head, weight
                 in edges[start:start + _WRITE_LINES]]).encode("ascii")
        for start in range(0, len(edges), _WRITE_LINES)])


_CANONICAL_HEADER = re.compile(rb"([0-9]+) ([0-9]+)\n")
_SLICE_BYTES = 1 << 14  # so the copies and tokens of a slice stay small
_TO_COMMAS = bytes.maketrans(b" \n", b",,")


def _scan_canonical(data: bytes) -> "tuple | None":
    """``(n, tails, heads, weights)`` of canonical text, scanned with no
    loop per line or edge, or None wherever the line loop might differ."""
    header = _CANONICAL_HEADER.match(data)
    if header is None or not data.endswith(b"\n"):  # a cut-off last line
        return None
    tails, heads, weights = [], [], []
    start = header.end()
    try:
        n, m = int(header[1]), int(header[2])
        while start < len(data):
            # newline-aligned slices; the last one ends the data
            end = data.find(b"\n", start + _SLICE_BYTES) + 1 or len(data)
            chunk = data[start:end]
            # a line less its number characters is "  \n"; an int weight
            # leaves " \n" in marks, and json reads "-0" as 0, not -0.0
            marks = chunk.translate(None, b"0123456789+-")
            if (marks.translate(None, b".e") != b"  \n" * marks.count(b"\n")
                    or b" \n" in marks):
                return None
            # json reads numbers as int() and float() do; "+1", "01" raise
            tokens = json.loads(b"[" + chunk[:-1].translate(_TO_COMMAS) + b"]")
            tails += tokens[0::3]
            heads += tokens[1::3]
            weights += tokens[2::3]
            start = end
    except (ValueError, MemoryError):
        return None
    # a float endpoint ("1.0", "1e3") is a parse error of the line loop
    ints = type(sum(tails)) is int and type(sum(heads)) is int
    return (n, tails, heads, weights) if ints and len(tails) == m else None


def read_text(data: "bytes | str") -> EdgeListDoc:
    """Parse edge-list text.  Raises ParseError with the offending line
    number, or HeaderMismatch when the declared edge count is wrong.
    Canonical bytes are scanned at C speed, any other text a line at a
    time; both give the same document."""
    columns = _scan_canonical(data) if isinstance(data, bytes) else None
    n, tails, heads, weights = columns or _read_lines(data)
    return EdgeListDoc(n, list(zip(tails, heads, weights)))


def _read_lines(data: "bytes | str") -> tuple:
    """``(n, tails, heads, weights)``, as :func:`_scan_canonical` gives
    them, read a line at a time from any text; raises what
    :func:`read_text` raises."""
    # latin-1 maps each byte to one character, so the check covers both
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    if not text.isascii():
        raise ParseError("non-ASCII input", 1)
    header = None
    tails, heads, weights = [], [], []
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
        try:  # a bad line raises, so its partial row is never read
            tails.append(int(fields[0]))
            heads.append(int(fields[1]))
            weights.append(float(fields[2]))
        except ValueError:
            raise ParseError(f"bad edge line {raw!r}", line_no) from None
    if header is None:
        raise ParseError("empty input", 1)
    n, m = header
    if m != len(tails):
        raise HeaderMismatch(f"header declares m={m}, found {len(tails)} edge lines")
    return n, tails, heads, weights


def read_file(path) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    return from_columns(*(_scan_canonical(data) or _read_lines(data)))


def write_file(path, g: Graph) -> None:
    with open(path, "wb") as fh:
        fh.write(write_text(g.to_edge_list()))
