"""Parser, printer and evaluator for bracket terms."""

from fractions import Fraction

import pytest

from roncoalg.errors import TermSyntaxError
from roncoalg.freelie import lie_bracket, lie_generator
from roncoalg.terms import (
    Bracket,
    Diff,
    Generator,
    Scale,
    Sum,
    evaluate,
    MAX_TERM_DEPTH,
    format_term,
    parse_term,
)

G1, G2, G3 = Generator(1), Generator(2), Generator(3)


def test_parse_basic():
    assert parse_term("g1") == G1
    assert parse_term("g12") == Generator(12)
    assert parse_term("[g1,g2]") == Bracket(G1, G2)
    assert parse_term("((g1))") == G1
    assert parse_term(" [ g1 , g2 ] ") == Bracket(G1, G2)


def test_parse_scalars():
    assert parse_term("2*g1") == Scale(Fraction(2), G1)
    assert parse_term("-2*g1") == Scale(Fraction(-2), G1)
    assert parse_term("1/2*[g1,g2]") == Scale(Fraction(1, 2), Bracket(G1, G2))
    assert parse_term("1 / 2 * g1") == Scale(Fraction(1, 2), G1)
    assert parse_term("2*3*g1") == Scale(Fraction(2), Scale(Fraction(3), G1))
    assert parse_term("3*(g1 + g2)") == Scale(Fraction(3), Sum((G1, G2)))


def test_parse_sums_left_associative():
    assert parse_term("g1 + g2") == Sum((G1, G2))
    assert parse_term("g1 + g2 + g3") == Sum((Sum((G1, G2)), G3))
    assert parse_term("g1 - g2") == Diff(G1, G2)
    assert parse_term("g1 - g2 + g3") == Sum((Diff(G1, G2), G3))
    assert parse_term("g1 + -2*g2") == Sum((G1, Scale(Fraction(-2), G2)))
    assert parse_term("1/2 * [g1,[g2,g3]] - [g3,g1]") == Diff(
        Scale(Fraction(1, 2), Bracket(G1, Bracket(G2, G3))),
        Bracket(G3, G1),
    )


@pytest.mark.parametrize("text,position", [
    ("", 1),
    ("[g1 g2]", 5),
    ("[g1,g2", 7),
    ("g0", 1),
    ("1/0*g1", 3),
    ("2*", 3),
    ("2 g1", 3),
    ("g1)", 3),
    ("g", 2),
    ("*g1", 1),
    # digits are ASCII 0-9: str.isdigit once read "٢" as 2 and crashed on "²"
    ("g²", 2),
    ("[g1,g٢]", 6),
    ("٣*g1", 1),
    ("-٣*g1", 1),
    ("1/٣*g1", 3),
])
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text)
    assert exc.value.position == position
    assert f"at position {position}" in str(exc.value)


def test_format_term():
    assert format_term(Bracket(G1, G2)) == "[g1,g2]"
    assert format_term(Scale(Fraction(-1, 3), G2)) == "-1/3*g2"
    assert format_term(Sum((Sum((G1, G2)), G3))) == "g1 + g2 + g3"
    assert format_term(Sum((G1, Sum((G2, G3))))) == "g1 + (g2 + g3)"
    assert format_term(Diff(G1, Diff(G2, G3))) == "g1 - (g2 - g3)"
    assert format_term(Scale(Fraction(3), Sum((G1, G2)))) == "3*(g1 + g2)"
    assert format_term(Bracket(Sum((G1, G2)), G3)) == "[g1 + g2,g3]"


@pytest.mark.parametrize("text", [
    "g1",
    "[g1,g2]",
    "[[g1,g2],[g1,g3]]",
    "1/2*[g1,[g2,g3]] - [g3,g1]",
    "g1 + g2 + g3",
    "g1 - g2 - g3",
    "g1 - (g2 - g3)",
    "3*(g1 + g2)",
    "-2*g1",
    "2*3*g1",
    "[g1 + g2,g3]",
    "((g1))",
])
def test_format_parse_round_trip(text):
    tree = parse_term(text)
    printed = format_term(tree)
    assert parse_term(printed) == tree
    # printing is idempotent
    assert format_term(parse_term(printed)) == printed


def test_evaluate_into_free_lie():
    tree = parse_term("1/2*[g1,[g2,g3]] - 2*g2")
    value = evaluate(tree, lie_generator, lie_bracket)
    expected = lie_bracket(lie_generator(1), lie_bracket(lie_generator(2), lie_generator(3)))
    expected = expected.scale(Fraction(1, 2)) - lie_generator(2).scale(Fraction(2))
    assert value == expected


def test_evaluate_respects_grouping():
    lhs = evaluate(parse_term("[g1 + g2,g3]"), lie_generator, lie_bracket)
    rhs = evaluate(parse_term("[g1,g3] + [g2,g3]"), lie_generator, lie_bracket)
    assert lhs == rhs


@pytest.mark.parametrize("deepest", [
    lambda k: "+".join(["g1"] * k),                       # a chain of k summands
    lambda k: "2*" * (k - 1) + "g1",                      # k - 1 scalar prefixes
    lambda k: "[" * (k - 1) + "g1,g2" + "],g2" * (k - 2) + "]",  # k - 1 brackets
    lambda k: "(" * (k - 1) + "g1" + ")" * (k - 1),       # k - 1 parentheses
])
def test_depth_cap(deepest):
    # a tree of height MAX_TERM_DEPTH still prints, reparses and evaluates
    tree = parse_term(deepest(MAX_TERM_DEPTH))
    assert parse_term(format_term(tree)) == tree
    evaluate(tree, lie_generator, lambda a, b: lie_generator(1))
    # one level more is a syntax error, however deep the input goes
    for k in (MAX_TERM_DEPTH + 1, 3000):
        with pytest.raises(TermSyntaxError, match=f"nested deeper than {MAX_TERM_DEPTH} levels"):
            parse_term(deepest(k))
