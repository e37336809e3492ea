import math
import os
import re
import shutil
import subprocess
import tracemalloc
from collections import Counter
from decimal import Decimal
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import jfrbench
from jfrbench import graph
from jfrbench.errors import (GraphTooLarge, HeaderMismatch, IndexOutOfRange,
                             InexactWeight, JfrError, NegativeSelfLoop,
                             NonFiniteWeight, ParseError, SpecInvalid)
from jfrbench.generators import generate, plant_negative_cycle
from jfrbench.graph import (EdgeListDoc, from_edge_list, read_file, read_text,
                            write_file, write_text)


def triangle_doc():
    return EdgeListDoc(3, [(0, 1, 2.0), (1, 2, -1.0), (0, 2, 5.0)])


def test_write_text_canonical_bytes():
    doc = EdgeListDoc(3, [(0, 1, 1.5), (1, 2, 2.25)])
    assert write_text(doc) == b"3 2\n0 1 1.5\n1 2 2.25\n"


def test_write_text_weight_formatting():
    doc = EdgeListDoc(2, [(0, 1, 10.0), (1, 0, -0.5), (0, 0, 6.461889)])
    body = write_text(doc).decode("ascii").splitlines()
    assert body[1:] == ["0 1 10.0", "1 0 -0.5", "0 0 6.461889"]


def test_round_trip_triangle():
    doc = triangle_doc()
    assert read_text(write_text(doc)) == doc


def test_read_text_accepts_comments_and_blank_lines():
    text = "# generated\n3 2\n\n0 1 1.0\n# middle\n1 2 2.0\n\n"
    doc = read_text(text)
    assert doc.n == 3 and doc.edges == [(0, 1, 1.0), (1, 2, 2.0)]


def test_read_text_empty_input():
    with pytest.raises(ParseError, match="line 1"):
        read_text("")


def test_read_text_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        read_text("3\n")
    with pytest.raises(ParseError):
        read_text("three two\n")


def test_read_text_bad_edge_line():
    with pytest.raises(ParseError, match="line 2"):
        read_text("2 1\n0 1\n")
    with pytest.raises(ParseError):
        read_text("2 1\n0 1 abc\n")


def test_read_text_header_mismatch():
    with pytest.raises(HeaderMismatch):
        read_text("2 2\n0 1 1.0\n")


def test_read_text_rejects_non_ascii():
    with pytest.raises(ParseError):
        read_text("2 1\n0 1 1.0 \xe9\n".encode("utf-8"))


def test_read_text_rejects_non_ascii_str():
    # a full-width and an Arabic-Indic digit, which int() and float() read
    for text in ("2 1\n0 1 \uff11.5\n", "2 1\n0 \u0661 1.5\n"):
        with pytest.raises(ParseError, match="non-ASCII"):
            read_text(text)


def test_read_text_rejects_digit_separators():
    for text, line in (("11 1\n0 1_0 2.5\n", 2), ("2 1\n0 1 1_0.5\n", 2),
                       ("1_1 1\n0 1 1.0\n", 1)):
        with pytest.raises(ParseError, match=f"line {line}: .*'_'"):
            read_text(text)
    # a comment may hold one
    assert read_text("# my_graph\n2 1\n0 1 1.5\n").m == 1


def test_csr_layout_and_order():
    # parallel edges and interleaved tails: per-tail insertion order survives
    doc = EdgeListDoc(3, [(1, 2, 1.0), (0, 2, 2.0), (1, 0, 3.0), (1, 2, 4.0)])
    g = from_edge_list(doc)
    assert g.n == 3 and g.m == 4
    # weights in micro-units
    assert g.offsets == [0, 1, 4, 4]
    assert g.targets == [2, 2, 0, 2]
    assert g.weights == [2e6, 1e6, 3e6, 4e6]
    assert g.out_degree(1) == 3
    for u in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            g.out_degree(u)
    assert g.to_edge_list().edges == [(0, 2, 2.0), (1, 2, 1.0), (1, 0, 3.0),
                                      (1, 2, 4.0)]


def test_bool_endpoints_round_trip_as_ints():
    g = from_edge_list(EdgeListDoc(3, [(0, True, 1.0), (True, 2, -0.5)]))
    assert g.targets == [1, 2] and all(type(v) is int for v in g.targets)
    again = from_edge_list(read_text(write_text(g.to_edge_list())))
    assert again == g and all(type(v) is int for v in again.targets)


def _read_bytes(tmp_path, data):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    return read_file(path)


def _neg_dense_text():
    return write_text(generate("neg-dense", 2, n=1000, m=5000).to_edge_list())


# every generated graph, each of whose texts spans several slices:
# slf-killer's weights start at 1e-06, pq-killer's reach -2147483680.0
GENERATED = {
    "sparse-random": lambda tmp: generate("sparse-random", 1, n=1000, m=5000),
    "neg-dense": lambda tmp: generate("neg-dense", 1, n=1000, m=5000),
    "windmill": lambda tmp: generate("windmill", 1, blades=30, blade_size=12),
    "slf-killer": lambda tmp: generate("slf-killer", 1, n=3000),
    "pq-killer": lambda tmp: generate("pq-killer", 1, levels=32, detour=150),
    "plant_negative_cycle": lambda tmp: plant_negative_cycle(
        generate("sparse-random", 1, n=1000, m=5000), 400, 1),
}
# every way a graph is built, on vertex ids past CPython's shared small
# ints (-5 to 256), with heads that repeat
BUILDS = {
    **GENERATED,
    "read_file-canonical": lambda tmp: _read_bytes(tmp, _neg_dense_text()),
    "read_file-line-loop": lambda tmp: _read_bytes(
        tmp, b"# a comment\n" + _neg_dense_text()),
    "from_edge_list": lambda tmp: from_edge_list(read_text(_neg_dense_text())),
    "from_columns-heads-below-n": lambda tmp: graph.from_columns(
        10 ** 5, [0, 0, 1, 1, 2], [300, 700, 700, 300, 299], [1.0] * 5),
}


@pytest.mark.parametrize("build", BUILDS)
def test_targets_hold_one_int_object_per_vertex(tmp_path, build):
    g = BUILDS[build](tmp_path)
    counts = Counter(g.targets)
    assert any(v > 256 and count > 1 for v, count in counts.items())
    assert len(set(map(id, g.targets))) == len(set(g.targets))


def test_an_edgeless_graph_builds_no_id_table():
    # the 10^6 + 1 offsets, grown in place, peak at 8.1 MiB; a table of
    # 10^6 ids would add 36 B a vertex, a temporary offsets list 15 MiB
    tracemalloc.start()
    try:
        g = graph.from_columns(10 ** 6, [], [], [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (10 ** 6, 0) and peak <= 9 * 2 ** 20


def bad_edges(n):
    """Edges that a graph on ``n`` vertices refuses, each with the error it
    raises alone: a library caller's bad values as well as the text's."""
    last = n - 1
    return [((0, n, 1.0), IndexOutOfRange), ((-1, 0, 1.0), IndexOutOfRange),
            ((0, last, math.inf), NonFiniteWeight),
            ((0, last, math.nan), NonFiniteWeight),
            ((last, last, -0.25), NegativeSelfLoop),
            ((0, last, 10**400), InexactWeight),  # past the float range
            ((0, last, 5e9), InexactWeight),  # past MAX_UNITS
            ((0, last, 0.1234567), InexactWeight),  # off the grid
            ((0, last, "1.0"), NonFiniteWeight),
            ((0, last, None), NonFiniteWeight),
            ((float(last), last, 1.0), IndexOutOfRange),
            ((0, str(last), 1.0), IndexOutOfRange),
            ((0, float(last), 1.0), IndexOutOfRange),
            ((0, last, Decimal("1")), InexactWeight)]


def test_from_edge_list_validation():
    # non-negative self-loops are harmless and allowed
    assert from_edge_list(EdgeListDoc(2, [(1, 1, 0.0)])).m == 1
    # each bad edge alone, and after valid edges
    good = [(0, 1, 1.0), (1, 0, 2.0)]
    for bad, error in bad_edges(2):
        for edges in ([bad], good + [bad]):
            with pytest.raises(error):
                from_edge_list(EdgeListDoc(2, edges))
    for n in (2.5, -1, "2", None):
        with pytest.raises(SpecInvalid):
            from_edge_list(EdgeListDoc(n, []))
    with pytest.raises(GraphTooLarge):
        from_edge_list(EdgeListDoc(10**19, []))


def reference_build(doc):
    """The per-edge builder that ``from_columns`` replaces: judge each edge
    in input order, where the first edge with a per-edge fault names the
    error and inexact weights raise only when no edge has one, then place
    each edge after its tail's earlier ones by counting."""
    n, m = doc.n, doc.m
    for tail, head, weight in doc.edges:
        if not all(isinstance(v, int) and 0 <= v < n for v in (tail, head)):
            raise IndexOutOfRange
        try:
            finite = math.isfinite(weight)
        except OverflowError:
            finite = True
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise NonFiniteWeight
        if tail == head and weight < 0:
            raise NegativeSelfLoop
    units = []
    for _, _, weight in doc.edges:
        try:
            unit = math.copysign(round(weight * graph.SCALE), weight)
        except (OverflowError, TypeError):
            raise InexactWeight from None
        if unit / graph.SCALE != weight:
            raise InexactWeight
        units.append(unit)
    if sum(map(abs, units)) > graph.MAX_UNITS:
        raise InexactWeight
    counts = [0] * (n + 1)
    for tail, _, _ in doc.edges:
        counts[tail + 1] += 1
    offsets = list(accumulate(counts))
    cursor, targets, weights = offsets[:], [0] * m, [0.0] * m
    for (tail, head, _), unit in zip(doc.edges, units):
        targets[cursor[tail]], weights[cursor[tail]] = head, unit
        cursor[tail] += 1
    return graph.Graph(n, offsets, targets, weights)


@st.composite
def faulty_docs(draw):
    """An ``edge_docs`` document (tails in random order) with up to three
    of ``bad_edges`` inserted."""
    doc = draw(edge_docs())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        bad, _ = draw(st.sampled_from(bad_edges(doc.n)))
        doc.edges.insert(draw(st.integers(0, doc.m)), bad)
    return doc


@settings(max_examples=400, deadline=None)
@given(faulty_docs())
def test_from_edge_list_equals_the_per_edge_reference(doc):
    assert _outcome(from_edge_list, doc, messages=False) == _outcome(
        reference_build, doc, messages=False)


def test_graph_equality_compares_the_csr_arrays():
    a = from_edge_list(triangle_doc())
    assert a == from_edge_list(triangle_doc())
    c = from_edge_list(EdgeListDoc(3, [(0, 1, 2.0), (1, 2, -1.0),
                                       (0, 2, 5.5)]))
    assert a != c
    assert a.__eq__(1) is NotImplemented and (a == 1) is False and a != 1


def test_to_edge_list_round_trip():
    doc = EdgeListDoc(4, [(2, 0, 1.0), (0, 3, 2.5), (2, 1, -0.75)])
    g = from_edge_list(doc)
    # CSR regroups by tail but keeps every edge verbatim
    assert sorted(g.to_edge_list().edges) == sorted(doc.edges)
    assert from_edge_list(g.to_edge_list()) == g


@st.composite
def edge_docs(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    raw = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
        st.floats(min_value=-100, max_value=100, allow_nan=False)),
        max_size=40))
    edges = [(u, v, abs(round(w, 6)) if u == v else round(w, 6))
             for u, v, w in raw]
    return EdgeListDoc(n, edges)


@settings(max_examples=150, deadline=None)
@given(edge_docs())
def test_text_round_trip_property(doc):
    assert read_text(write_text(doc)) == doc
    assert write_text(read_text(write_text(doc))) == write_text(doc)


def _set_token(lines, rnd, column, value):
    """Rewrite one token of one edge line, if there is an edge line."""
    for i in rnd.sample(range(1, len(lines)), min(1, len(lines) - 1)):
        tokens = lines[i].split(" ")
        tokens[column] = value(tokens[column])
        lines[i] = " ".join(tokens)


def _add_to_m(lines, delta):
    n, m = lines[0].split(" ")
    lines[0] = f"{n} {int(m) + delta}"


def _negative_self_loop(lines, rnd):
    last = int(lines[0].split(" ")[0]) - 1  # keeps the tails in order
    lines.append(f"{last} {last} -0.5")
    _add_to_m(lines, 1)


def _replace_space(lines, rnd, by):
    i = rnd.randrange(len(lines))
    lines[i] = lines[i].replace(" ", by, 1)


# with the tokens that json, the canonical scanner's number parser, reads
# otherwise than int() and float() do, or not at all
WEIGHTS = ["1e999", "inf", "nan", "-inf", "+3", "-0.0", "1e-05", "0003.5",
           "1e", ".", "-0", "5", "1E5", "-.5", "5.", "1e+16"]
ENDPOINTS = ["+1", "-0", "1.0", "1e0"]
# token and header edits first, then the layout edits that would hide
# the tokens from them
PERTURBATIONS = {
    "m-off-by-one": lambda lines, rnd: _add_to_m(lines, rnd.choice((-1, 1))),
    "negative-self-loop": _negative_self_loop,
    "weight": lambda lines, rnd: _set_token(
        lines, rnd, 2, lambda w: rnd.choice(WEIGHTS)),
    "endpoint-n": lambda lines, rnd: _set_token(
        lines, rnd, rnd.randrange(2), lambda v: lines[0].split(" ")[0]),
    "endpoint": lambda lines, rnd: _set_token(
        lines, rnd, rnd.randrange(2), lambda v: rnd.choice(ENDPOINTS)),
    "leading-zeros": lambda lines, rnd: _set_token(
        lines, rnd, rnd.randrange(3), lambda t: "00" + t),
    "tails-out-of-order": lambda lines, rnd: lines.__setitem__(
        slice(1, None), lines[:0:-1]),
    "tab": lambda lines, rnd: _replace_space(lines, rnd, "\t"),
    "double-space": lambda lines, rnd: _replace_space(lines, rnd, "  "),
    "comment": lambda lines, rnd: lines.insert(
        rnd.randint(0, len(lines)), "# comment"),
    "blank-line": lambda lines, rnd: lines.insert(
        rnd.randint(1, len(lines)), ""),
    "crlf": lambda lines, rnd: lines.__setitem__(
        slice(None), [line + "\r" for line in lines]),
    "cut-off": lambda lines, rnd: lines.__setitem__(  # and no final newline
        -1, lines[-1].split(" ")[0]),
}


@st.composite
def graph_texts(draw):
    """``write_text`` output of a CSR-order doc, perturbed or not."""
    doc = from_edge_list(draw(edge_docs())).to_edge_list()
    lines = write_text(doc).decode("ascii").splitlines()
    rnd = draw(st.randoms(use_true_random=False))
    chosen = draw(st.sets(st.sampled_from(list(PERTURBATIONS)), max_size=3))
    for name, perturb in PERTURBATIONS.items():
        if name in chosen:
            perturb(lines, rnd)
    final_newline = "cut-off" not in chosen and (
        draw(st.booleans()) or draw(st.booleans()))
    return ("\n".join(lines) + "\n" * final_newline).encode("ascii")


def _outcome(read, arg, messages=True):
    try:
        g = read(arg)
    except JfrError as exc:
        return (type(exc), str(exc)) if messages else type(exc)
    return g.n, g.offsets, g.targets, [repr(w) for w in g.weights]


def _doc_outcome(read, arg):
    """What ``read`` makes of ``arg``: the document, weights by repr, or
    the error with its message (which carries the line number)."""
    try:
        doc = read(arg)
    except JfrError as exc:
        return type(exc), str(exc)
    return doc.n, [(u, v, repr(w)) for u, v, w in doc.edges]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph_texts())
@example(data=b"3 1\n0 3 1.0\n")  # an endpoint equal to n
@example(data=b"3 1\n3 0 1.0\n")
@example(data=b"2 1\n0 1 1e999\n")  # a weight past the float range
@example(data=b"2 2\n1 1 -0.0\n1 1 -1e-05\n")  # a negative self-loop
@example(data=b"3 2\n1 0 1.0\n0 1 1.0\n")  # tails out of order
@example(data=b"2 2\n0 1 1.0\n")  # m off by one
@example(data=b"1000000000000000 0\n")  # n + 1 offsets past memory
@example(data=b"10000000000000000000 0\n")  # past the index range
@example(data=b"2 1\n0 1 -0\n")  # json reads the int 0, float() -0.0
@example(data=b"2 1\n-0 1 1.0\n")  # an endpoint that int() reads as 0
@example(data=b"3 2\n1 2\n0.5 1 2 0.5\n")  # six tokens, but two lines
@example(data=b"3 0\n7")  # a bare number after the last newline
@example(data=b"13 2\n0 1 1.5\n12")  # cut off; json once read 1 of 12
def test_read_file_agrees_with_the_line_loop(tmp_path, data):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    # read_text scans canonical bytes; str input takes the line loop
    lines = data.decode("ascii")
    assert _outcome(read_file, path) == _outcome(
        lambda d: from_edge_list(read_text(d)), lines)
    assert _doc_outcome(read_text, data) == _doc_outcome(read_text, lines)


def test_canonical_text_never_enters_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    texts = {}
    for family, build in GENERATED.items():
        g = build(tmp_path)
        write_file(path, g)
        data = path.read_bytes()
        assert len(data) > 3 * graph._SLICE_BYTES, family  # several slices
        texts[family] = g, data, _doc_outcome(read_text, data.decode("ascii"))

    def line_loop(data):
        raise AssertionError("canonical text went through the line loop")
    monkeypatch.setattr(graph, "_read_lines", line_loop)
    for family, (g, data, want) in texts.items():
        path.write_bytes(data)
        got = read_file(path)
        assert got == g and list(map(repr, got.weights)) == \
            list(map(repr, g.weights)), family
        assert _doc_outcome(read_text, data) == want, family
        assert from_edge_list(read_text(data)) == g, family
    with pytest.raises(AssertionError, match="line loop"):
        read_text(data.decode("ascii"))  # str input is read a line at a time
    with pytest.raises(AssertionError, match="line loop"):
        read_text(b"# a comment\n" + data)


def test_read_text_keeps_line_numbers_off_the_canonical_path():
    canonical = b"3 2\n0 1 1.5\n1 2 2.0\n"
    assert read_text(canonical) == EdgeListDoc(3, [(0, 1, 1.5), (1, 2, 2.0)])
    for data, line_no in ((b"3 2\n0 1 1.5\n1 2 x\n", 3),
                          (b"3 2\n0 1 1e\n1 2 2.0\n", 2),
                          (b"3 2\n0 1\n1 2 2.0\n", 2),
                          (b"3\n0 1 1.5\n", 1)):
        for arg in (data, data.decode("ascii")):
            with pytest.raises(ParseError) as info:
                read_text(arg)
            assert info.value.line_no == line_no, arg
    for data in (b"3 3\n0 1 1.5\n1 2 2.0\n", b"3 1\n0 1 1.5\n1 2 2.0\n"):
        for arg in (data, data.decode("ascii")):
            with pytest.raises(HeaderMismatch):
                read_text(arg)


def _declared_python_floor():
    """``requires-python``'s lowest version and a working interpreter of it:
    the one on PATH, else a pyenv install of it."""
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"',
                      pyproject.read_text())[1]
    found = [shutil.which(f"python{floor}")]
    if shutil.which("pyenv"):
        root = Path(subprocess.run(["pyenv", "root"], capture_output=True,
                                   text=True).stdout.strip())
        found += sorted(root.glob(f"versions/{floor}*/bin/python{floor}"))
    for exe in filter(None, found):
        probe = subprocess.run([exe, "-c", ""], capture_output=True)
        if probe.returncode == 0:
            return floor, str(exe)
    pytest.skip(f"no working python{floor}")


def test_package_runs_on_the_declared_python_floor(tmp_path):
    floor, python = _declared_python_floor()
    snippet = (
        "import sys; from jfrbench import generate, jfr_pq, bellman_ford\n"
        "from jfrbench.graph import read_file, write_file\n"
        "g = generate('neg-dense', 3, n=200, m=1000, neg_fraction=0.3)\n"
        "write_file(sys.argv[1], g)\n"
        "h = read_file(sys.argv[1])\n"
        "assert h == g and jfr_pq(h, 0).dist == bellman_ford(g, 0).dist\n"
        "print(sys.version_info[:2])\n")
    src = str(Path(jfrbench.__file__).parents[1])
    done = subprocess.run([python, "-c", snippet, str(tmp_path / "g.txt")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{tuple(map(int, floor.split('.')))}\n"
