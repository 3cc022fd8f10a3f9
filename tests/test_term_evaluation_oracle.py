"""Term evaluation over ℤ with one denominator, against the `Fraction`
evaluator it replaced (`tests/terms_oracle.py`).

Random terms on up to four generators, nested up to six levels, with
scalars that are zero, negative or large, and with sums, differences and
parentheses, are evaluated in the free square-identity algebra, the free
Leibniz algebra and the free Lie algebra.  Each value must equal the
oracle's and hold only `Fraction`s; a generator out of range or a degree
past the cap must raise the oracle's exception with the oracle's message.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import terms_oracle as oracle
from roncoalg import leibniz, ronco
from roncoalg.errors import DegreeOverflowError, UnknownGeneratorError
from roncoalg.freelie import lie_bracket, lie_generator
from roncoalg.lincomb import LinComb
from roncoalg.terms import evaluate, parse_term

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
