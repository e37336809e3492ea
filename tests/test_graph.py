import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrbench.errors import (HeaderMismatch, IndexOutOfRange, NegativeSelfLoop,
                             NonFiniteWeight, ParseError)
from jfrbench.graph import (EdgeListDoc, from_edge_list, read_text, write_text)


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


def test_csr_layout_and_order():
    # parallel edges and interleaved tails: per-tail insertion order survives
    doc = EdgeListDoc(3, [(1, 2, 1.0), (0, 2, 2.0), (1, 0, 3.0), (1, 2, 4.0)])
    g = from_edge_list(doc)
    assert g.n == 3 and g.m == 4
    assert list(g.out_edges(0)) == [(2, 2.0)]
    assert list(g.out_edges(1)) == [(2, 1.0), (0, 3.0), (2, 4.0)]
    assert list(g.out_edges(2)) == []
    assert g.out_degree(1) == 3
    assert list(g.edges()) == [(0, 2, 2.0), (1, 2, 1.0), (1, 0, 3.0),
                               (1, 2, 4.0)]


def test_from_edge_list_validation():
    with pytest.raises(IndexOutOfRange):
        from_edge_list(EdgeListDoc(2, [(0, 2, 1.0)]))
    with pytest.raises(IndexOutOfRange):
        from_edge_list(EdgeListDoc(2, [(-1, 0, 1.0)]))
    with pytest.raises(NonFiniteWeight):
        from_edge_list(EdgeListDoc(2, [(0, 1, math.inf)]))
    with pytest.raises(NonFiniteWeight):
        from_edge_list(EdgeListDoc(2, [(0, 1, math.nan)]))
    with pytest.raises(NegativeSelfLoop):
        from_edge_list(EdgeListDoc(2, [(1, 1, -0.25)]))
    # non-negative self-loops are harmless and allowed
    assert from_edge_list(EdgeListDoc(2, [(1, 1, 0.0)])).m == 1


def test_out_edges_bounds():
    g = from_edge_list(triangle_doc())
    with pytest.raises(IndexOutOfRange):
        g.out_edges(3)
    with pytest.raises(IndexOutOfRange):
        g.out_degree(-1)


def test_graph_equality_compares_the_csr_arrays():
    a = from_edge_list(triangle_doc())
    assert a == from_edge_list(triangle_doc())
    c = from_edge_list(EdgeListDoc(3, [(0, 1, 2.0), (1, 2, -1.0),
                                       (0, 2, 5.5)]))
    assert a != c


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
