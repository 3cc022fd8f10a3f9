"""The one-scan term parser against the character-by-character parser it
replaced (`tests/terms_oracle.py`).

Every input must give the same tree, with `Fraction` scalars, or a
`TermSyntaxError` with the same message and the same 1-based position.
Inputs are drawn over the grammar's characters plus blanks that are and
are not ASCII, digits that are not ASCII and a stray letter, and as
valid terms with one to three characters inserted, deleted or replaced.
"""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import terms_oracle as oracle
from roncoalg.errors import TermSyntaxError
from roncoalg.lincomb import Record
from roncoalg.terms import MAX_TERM_DEPTH, Diff, Generator, Scale, Sum, parse_term

GRAMMAR = "g0123456789[](),+-*/"
BLANKS = (" ", "\t", "\u00a0", "\u3000")
ALPHABET = GRAMMAR + "".join(BLANKS) + "٣²x"


def outcome(parse, text: str):
    try:
        return parse(text)
    except TermSyntaxError as exc:
        return str(exc), exc.position


def scalars(tree) -> list:
    """The coefficients of every scalar prefix in the tree."""
    if type(tree) is Scale:
        return [tree.coeff, *scalars(tree.term)]
    if isinstance(tree, Record):
        return [c for field in tree._fields() for c in scalars(field)]
    if isinstance(tree, tuple):
        return [c for part in tree for c in scalars(part)]
    return []


def assert_same_as_oracle(text: str):
    got = outcome(parse_term, text)
    assert got == outcome(oracle.parse_term, text)
    if not isinstance(got, tuple):
        assert all(type(c) is Fraction for c in scalars(got))


blanks = st.text(alphabet=st.sampled_from(BLANKS), max_size=2)
integers = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["007", "10", "123456789012345678901"]))


@st.composite
def valid_terms(draw, depth=5) -> str:
    """A term with random blanks between its tokens, as the grammar allows."""
    def b():
        return draw(blanks)

    kind = draw(st.sampled_from(["gen", "gen", "bracket", "scale", "sum", "diff", "paren"] if depth else ["gen"]))
    if kind == "gen":
        return f"g{draw(st.sampled_from(['1', '2', '3', '4', '12', '01']))}"
    if kind == "bracket":
        return f"[{b()}{draw(valid_terms(depth - 1))}{b()},{b()}{draw(valid_terms(depth - 1))}{b()}]"
    if kind == "scale":
        num = draw(st.sampled_from(["", "-"])) + draw(integers)
        if draw(st.booleans()):
            num += f"{b()}/{b()}{draw(integers.filter(lambda s: int(s) > 0))}"
        return f"{num}{b()}*{b()}{draw(valid_terms(depth - 1))}"
    if kind == "paren":
        return f"({b()}{draw(valid_terms(depth - 1))}{b()})"
    op = "+" if kind == "sum" else "-"
    return f"{draw(valid_terms(depth - 1))}{b()}{op}{b()}{draw(valid_terms(depth - 1))}"


@st.composite
def mutated_terms(draw) -> str:
    text = draw(valid_terms())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(ALPHABET))
        if how == "insert":
            text = text[:at] + char + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=30))
@example("g1 -2*g2")
@example("- 2*g1")
@example("g 1")
@example("g1--2*g1")
@example("1/-2*g1")
@example("2-3*g1")
@example("-0*g1")
@example("[g1,g2]\u3000\t ")
@example("[g1,g2 ")
@example("g1g2")
@example("٣*g1")
@example("1/٣*g1")
@example("g²")
def test_arbitrary_strings_parse_as_the_oracle_parses_them(text):
    assert_same_as_oracle(text)


@settings(max_examples=800, deadline=None)
@given(valid_terms())
def test_valid_terms_give_the_oracle_tree(text):
    assert_same_as_oracle(text)
    assert isinstance(parse_term(text), Record)


@settings(max_examples=1500, deadline=None)
@given(mutated_terms())
def test_mutated_terms_fail_where_the_oracle_fails(text):
    assert_same_as_oracle(text)


def test_a_minus_is_a_sign_only_at_the_start_of_an_atom_and_before_a_digit():
    assert parse_term("g1 -2*g2") == Diff(Generator(1), Scale(Fraction(2), Generator(2)))
    assert parse_term("g1 + -2*g2") == Sum((Generator(1), Scale(Fraction(-2), Generator(2))))
    for text, position in (("- 2*g1", 1), ("g 1", 2), ("g1 - - 2*g1", 6)):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term(text)
        assert exc.value.position == position
        assert_same_as_oracle(text)


DEEPEST = (
    lambda k, s: f"{s}+{s}".join(["g1"] * k),                                      # k summands
    lambda k, s: f"{s}-{s}".join(["g1"] * k),                                      # k - 1 differences
    lambda k, s: f"2{s}*{s}" * (k - 1) + "g1",                                     # k - 1 scalar prefixes
    lambda k, s: f"[{s}" * (k - 1) + "g1,g2" + f"{s}],{s}g2" * (k - 2) + f"{s}]",  # k - 1 brackets
    lambda k, s: f"({s}" * (k - 1) + "g1" + f"{s})" * (k - 1),                     # k - 1 parentheses
)


@pytest.mark.parametrize("deepest", DEEPEST)
@pytest.mark.parametrize("blank", ["", " ", "\t\u3000"])
def test_depth_cap_errors_match_the_oracle(deepest, blank):
    for k in (MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1, 3000):
        assert_same_as_oracle(deepest(k, blank))


def test_blanks_are_exactly_what_str_isspace_accepts():
    # `\s` and str.rstrip decide what the scanner skips; the oracle asks str.isspace
    blank = re.compile(r"\s")
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        assert (blank.fullmatch(char) is not None) == char.isspace() == (char.rstrip() == ""), hex(code)


def test_long_runs_of_blanks_are_scanned_once():
    # trailing blanks are cut before the scan, so they cost no rescans
    blanks = " \u3000" * 50_000
    assert parse_term("g1" + blanks) == Generator(1)
    assert parse_term(blanks + "g1" + blanks + "+" + blanks + "g2" + blanks) == Sum((Generator(1), Generator(2)))
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("[g1,g2" + blanks)
    assert exc.value.position == 7 + len(blanks)
