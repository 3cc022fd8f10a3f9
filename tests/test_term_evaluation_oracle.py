"""Term evaluation over ℤ with one denominator, against the `Fraction`
evaluator it replaced (`tests/terms_oracle.py`).

Random terms on up to four generators, nested up to six levels, with
scalars that are zero, negative or large, and with sums, differences and
parentheses, are evaluated in the free square-identity algebra, the free
Leibniz algebra and the free Lie algebra.  Each value must equal the
oracle's and hold only `Fraction`s; a generator out of range or a degree
past the cap must raise the oracle's exception with the oracle's message.

`ronco.eval_term` and `leibniz.eval_term` take a term through images only
when its static degree is within the cap, so terms are also drawn with the
cap one below, at and one above their static degree: both routes and the
boundary between them must agree with the oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import terms_oracle as oracle
from roncoalg import leibniz, ronco
from roncoalg.errors import DegreeOverflowError, UnknownGeneratorError
from roncoalg.freelie import format_word, lie_bracket, lie_generator, word_sort_key
from roncoalg.lincomb import LinComb, format_lincomb
from roncoalg.terms import Bracket, Generator, Scale, Sum, evaluate, parse_term

SCALARS = st.one_of(
    st.sampled_from(["0", "-0", "0/7", "1", "-1", "2", "-3", "1/2", "-3/2", "2/4", "-6/9"]),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


@st.composite
def terms(draw, generators, depth=6) -> str:
    kind = draw(st.sampled_from(["gen", "gen", "bracket", "bracket", "scale", "sum", "diff", "paren"]
                                if depth else ["gen"]))
    if kind == "gen":
        return f"g{draw(generators)}"
    if kind == "scale":
        return f"{draw(SCALARS)}*{draw(terms(generators, depth - 1))}"
    if kind == "paren":
        return f"({draw(terms(generators, depth - 1))})"
    left, right = draw(terms(generators, depth - 1)), draw(terms(generators, depth - 1))
    if kind == "bracket":
        return f"[{left},{right}]"
    return f"{left} {'+' if kind == 'sum' else '-'} {right}"


@st.composite
def cases(draw) -> tuple[str, int, int]:
    """(term, number of generators, degree cap); now and then a generator is
    out of range or the cap is low."""
    num_gens = draw(st.integers(1, 4))
    generators = st.sampled_from([*range(1, num_gens + 1)] * 8 + [num_gens + 1])
    return draw(terms(generators)), num_gens, draw(st.sampled_from([8, 8, 8, 8, 6, 4, 2, 1]))


def outcome(evaluate_term):
    try:
        value = evaluate_term()
    except (UnknownGeneratorError, DegreeOverflowError) as exc:
        return type(exc), str(exc)
    assert isinstance(value, LinComb)
    return value.coeffs


def assert_same(new, old):
    got = outcome(new)
    assert got == outcome(old)
    if isinstance(got, dict):
        assert all(type(c) is Fraction for c in got.values())


@settings(max_examples=400, deadline=None)
@given(cases())
@example(("1/2*[g1,g2] - [g2,g1]", 2, 8))
@example(("-0*[g1,[g1,g2]] + 3*g2", 2, 2))
@example(("[g1,g2]", 1, 8))
@example(("[[g1,g2],[g1,g3]]", 3, 3))
@example(("2/3*[[1/2*g1,-3/2*g2],[2*g1,-1*g2]] - 1/6*[g1,g2]", 2, 8))
def test_free_algebra_values_match_the_oracle(case):
    text, num_gens, max_degree = case
    tree = parse_term(text)
    assert_same(lambda: ronco.eval_term(tree, num_gens, max_degree),
                lambda: oracle.ronco_eval_term(tree, num_gens, max_degree))
    assert_same(lambda: leibniz.eval_term(tree, num_gens, max_degree),
                lambda: oracle.leib_eval_term(tree, num_gens, max_degree))

    def bracket(a, b):
        return lie_bracket(a, b, max_degree)

    assert_same(lambda: evaluate(tree, lie_generator, bracket),
                lambda: oracle.evaluate(tree, lie_generator, bracket))


@settings(max_examples=150, deadline=None)
@given(terms(st.integers(1, 4), depth=4))
def test_generators_with_denominators_are_cleared(text):
    # a generator's value may hold Fractions; the evaluator clears them first
    def generator(i):
        return LinComb({(i,): Fraction(1, i + 1), (i + 1,): Fraction(-i, 3)} if i > 2 else {(i,): 1})

    tree = parse_term(text)
    assert_same(lambda: evaluate(tree, generator, lie_bracket),
                lambda: oracle.evaluate(tree, generator, lie_bracket))


def test_the_bracket_receives_integer_coefficients():
    seen = []

    def bracket(a, b):
        seen.extend(c for x in (a, b) for c in x.coeffs.values())
        return lie_bracket(a, b)

    value = evaluate(parse_term("1/2*[-2/3*g1, 3/4*[g2, 5*g1]] + 1/3*[g1, g2]"), lie_generator, bracket)
    assert value == oracle.evaluate(parse_term("1/2*[-2/3*g1, 3/4*[g2, 5*g1]] + 1/3*[g1, g2]"),
                                    lie_generator, lie_bracket)
    assert seen and all(type(c) is int for c in seen)


def static_degree(tree) -> int:
    """1 for a generator, both sides for a bracket, the largest part otherwise."""
    if isinstance(tree, Generator):
        return 1
    if isinstance(tree, Bracket):
        return static_degree(tree.left) + static_degree(tree.right)
    if isinstance(tree, Scale):
        return static_degree(tree.term)
    return max(map(static_degree, tree.terms if isinstance(tree, Sum) else (tree.left, tree.right)))


@st.composite
def boundary_cases(draw) -> tuple[str, int, int]:
    """(term, number of generators, degree cap) with the cap one below, at or
    one above the term's static degree, which is at most 9."""
    num_gens = draw(st.integers(1, 4))
    generators = st.sampled_from([*range(1, num_gens + 1)] * 8 + [num_gens + 1])
    text = draw(terms(generators, depth=5))
    degree = static_degree(parse_term(text))
    assume(degree <= 9)
    return text, num_gens, degree + draw(st.sampled_from([-1, 0, 1]))


@settings(max_examples=300, deadline=None)
@given(boundary_cases())
@example(("[0*g1,g2]", 2, 1))
@example(("[0*g2,[g1,g1]]", 2, 2))
@example(("[g2,[g1,g1]]", 2, 2))
@example(("[[g1,g2] - [g1,g2] + g1,g2]", 2, 2))
@example(("[[g1,g2],[g1,g9]]", 2, 3))
def test_both_routes_match_the_oracle_at_the_cap(case):
    text, num_gens, max_degree = case
    tree = parse_term(text)
    assert_same(lambda: ronco.eval_term(tree, num_gens, max_degree),
                lambda: oracle.ronco_eval_term(tree, num_gens, max_degree))
    assert_same(lambda: leibniz.eval_term(tree, num_gens, max_degree),
                lambda: oracle.leib_eval_term(tree, num_gens, max_degree))


def printed(evaluate_term, key_str, sort_key) -> str:
    try:
        return format_lincomb(evaluate_term(), key_str, sort_key)
    except (UnknownGeneratorError, DegreeOverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("text, num_gens, max_degree, in_ronco, in_leibniz", [
    # a zero scalar: the cap sees a zero value and refuses nothing
    ("[0*g1,g2]", 2, 1, "0", "0"),
    ("[0*g2,[g1,g1]]", 2, 2, "0", "0"),
    # [g1,g1] is no zero in 𝒱, though its Lie image is: the cap refuses
    ("[g2,[g1,g1]]", 2, 2, "DegreeOverflowError: bracket of degree 3 exceeds the cap 2",
     "DegreeOverflowError: bracket of degree 3 exceeds the cap 2"),
    # static degree 3, but the left operand is g1 by value
    ("[[g1,g2] - [g1,g2] + g1,g2]", 2, 2, "[1|2]", "12"),
    # the generator is met before the degree
    ("[[g1,g2],[g1,g9]]", 2, 3, "UnknownGeneratorError: generator g9 out of range (have 2)",
     "UnknownGeneratorError: generator g9 out of range (have 2)"),
])
def test_terms_at_the_cap_print_what_the_node_by_node_path_prints(text, num_gens, max_degree,
                                                                  in_ronco, in_leibniz):
    tree = parse_term(text)
    assert printed(lambda: ronco.eval_term(tree, num_gens, max_degree),
                   lambda k: ronco.format_key(k, num_gens), ronco.key_sort_key) == in_ronco
    assert printed(lambda: leibniz.eval_term(tree, num_gens, max_degree),
                   lambda w: format_word(w, num_gens), word_sort_key) == in_leibniz
