import pytest

from turanl2.colored import Partition3, build_lambda
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
