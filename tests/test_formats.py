import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from turanl2.colored import ColoredGraph, Partition3, build_lambda
from turanl2.constructions import build_balanced_c
from turanl2.errors import FormatError, VertexOutOfRange
from turanl2.formats import (
    parse_cg,
    parse_h3,
    parse_p3,
    write_cg,
    write_h3,
    write_p3,
)
from turanl2.hypergraph import make_graph, make_pair_graph

labels = st.sampled_from((1, 2, 3))


@st.composite
def _edge_sets(draw, n: int, arity: int) -> list:
    """A random subset of the arity-sets of range(n), in a random order and
    with each edge's vertices shuffled."""
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), arity))),
                          unique=True)) if n >= arity else []
    return [draw(st.permutations(e)) for e in edges]


@st.composite
def _three_graphs(draw):
    n = draw(st.integers(0, 8))
    return make_graph(n, draw(_edge_sets(n, 3)))


@st.composite
def _colored_graphs(draw):
    parts = draw(st.lists(labels, max_size=9))
    g = make_pair_graph(len(parts), draw(_edge_sets(len(parts), 2)))
    return ColoredGraph(g, Partition3(parts))


@given(_three_graphs())
@example(make_graph(0, []))
@example(make_graph(1, []))
def test_h3_roundtrip_property(h):
    assert parse_h3(write_h3(h)) == h


@given(st.lists(labels, max_size=40))
@example([])
@example([2])
def test_p3_roundtrip_property(parts):
    p = Partition3(parts)
    assert parse_p3(write_p3(p)) == p


@given(_colored_graphs())
@example(ColoredGraph(make_pair_graph(0, []), Partition3(())))
@example(ColoredGraph(make_pair_graph(1, []), Partition3((3,))))
def test_cg_roundtrip_property(cg):
    assert parse_cg(write_cg(cg)) == cg


def test_h3_roundtrip():
    c6, _ = build_balanced_c(6)
    assert parse_h3(write_h3(c6)) == c6


def test_h3_parser_normalizes_order():
    text = "4 2\n3 1 0\n0 1 2\n"
    h = parse_h3(text)
    assert h.edges == ((0, 1, 2), (0, 1, 3))
    # emitter writes canonical order regardless of input order
    assert write_h3(h).splitlines()[1:] == ["0 1 2", "0 1 3"]


def test_h3_parser_tolerates_comments_and_blanks():
    text = "# a comment\n\n3 1\n2 0 1\n"
    assert parse_h3(text).edges == ((0, 1, 2),)


def test_h3_errors():
    with pytest.raises(FormatError):
        parse_h3("")
    with pytest.raises(FormatError):
        parse_h3("3 2\n0 1 2\n")  # promised two edges
    with pytest.raises(FormatError):
        parse_h3("3 1\n0 1\n")
    with pytest.raises(VertexOutOfRange):
        parse_h3("3 1\n0 1 5\n")


def test_h3_rejects_duplicate_triples():
    with pytest.raises(FormatError, match="'2 1 0'"):
        parse_h3("3 2\n0 1 2\n2 1 0\n")
    with pytest.raises(FormatError, match="'3 0 2' repeats '0 2 3'"):
        parse_h3("4 3\n0 1 2\n0 2 3\n3 0 2\n")


def test_p3_roundtrip():
    p = Partition3.from_string("112233")
    assert parse_p3(write_p3(p)) == p
    with pytest.raises(FormatError):
        parse_p3("1 1 2\nextra\n")


def test_cg_roundtrip():
    lam = build_lambda(2, 2, 2)
    assert parse_cg(write_cg(lam)) == lam


def test_cg_errors():
    with pytest.raises(FormatError):
        parse_cg("3\n12\n0\n")  # color string too short
    with pytest.raises(FormatError):
        parse_cg("2\n12\n2\n0 1\n")  # promised two edges


def test_cg_rejects_duplicate_pairs():
    with pytest.raises(FormatError, match="'1 0'"):
        parse_cg("3\n123\n2\n0 1\n1 0\n")
