"""The direct brackets, left-normed bracketings and truncations in Lyndon
and (Lyndon word, generator) coordinates, and the free Leibniz bracket on
words, compared with the tensor-algebra composites, word recursion and
all-pairs loop kept in `free_oracle`, plus the identities the free
square-identity algebra must satisfy."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import free_oracle as oracle
from roncoalg.freelie import left_normed_bracketing, lie_bracket, lyndon_words
from roncoalg.leibniz import leib_bracket
from roncoalg.lincomb import LinComb
from roncoalg.ronco import (
    graded_basis,
    graded_kernel_basis,
    project,
    ronco_bracket,
    ronco_generator,
    section,
    truncate_to_structure,
    truncation_basis,
)

COEFFICIENTS = st.sampled_from([Fraction(c) for c in ("-3", "-1", "-2/3", "1/2", "1", "2", "7/5")])
MAX_DEGREE = 8

# The graded-kernel cases of the benchmark's free-eval workload.
BENCHMARK_KERNELS = ((2, 8), (2, 9), (2, 10), (3, 6), (3, 7), (4, 5), (4, 6))


def holds_fractions(x: LinComb) -> bool:
    return all(type(c) is Fraction for _, c in x)


@st.composite
def elements(draw, basis, d: int, max_deg: int, max_terms: int = 3) -> LinComb:
    """A combination of up to `max_terms` keys from `basis(d, degree)`, each
    of degree at most `max_deg`."""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        keys = basis(d, draw(st.integers(1, max_deg)))
        terms.append((draw(st.sampled_from(keys)), draw(COEFFICIENTS)))
    return LinComb(terms)


def word_elements(d: int, max_deg: int):
    return elements(lambda d, n: list(product(range(1, d + 1), repeat=n)), d, max_deg)


def lie_elements(d: int, max_deg: int):
    return elements(lambda d, n: list(lyndon_words(d, n)), d, max_deg)


def ronco_elements(d: int, max_deg: int):
    return elements(graded_basis, d, max_deg)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lie_bracket_matches_oracle(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(lie_elements(d, deg_x))
    y = data.draw(lie_elements(d, MAX_DEGREE - deg_x))
    got = lie_bracket(x, y)
    assert got == oracle.lie_bracket(x, y)
    assert holds_fractions(got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ronco_bracket_matches_oracle(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(ronco_elements(d, deg_x))
    y = data.draw(ronco_elements(d, MAX_DEGREE - deg_x))
    got = ronco_bracket(x, y)
    assert got == oracle.ronco_bracket(x, y)
    assert holds_fractions(got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_leib_bracket_matches_oracle(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(word_elements(d, deg_x))
    y = data.draw(word_elements(d, MAX_DEGREE - deg_x))
    got = leib_bracket(x, y)
    assert got == oracle.leib_bracket(x, y)
    assert holds_fractions(got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_left_normed_bracketing_matches_oracle(data):
    d = data.draw(st.integers(2, 4))
    word = st.lists(st.integers(1, d), min_size=1, max_size=MAX_DEGREE).map(tuple)
    t = LinComb(data.draw(st.lists(st.tuples(word, COEFFICIENTS), min_size=1, max_size=3)))
    got = left_normed_bracketing(t)
    assert got == oracle.left_normed_bracketing(t)
    assert holds_fractions(got)


@pytest.mark.parametrize("d, top", [(1, 5), (2, 3), (2, 6), (3, 4), (4, 2), (4, 4)])
def test_truncation_matches_all_pairs_oracle(d, top):
    # same cells in the same insertion order, hence the same JSON bytes
    got, want = truncate_to_structure(d, top), oracle.truncate_to_structure(d, top)
    assert list(got.bracket.items()) == list(want.bracket.items())


@pytest.mark.parametrize("d, top", [(3, 4), (2, 6)])
def test_ronco_bracket_matches_oracle_on_truncation_bases(d, top):
    keys = truncation_basis(d, top)
    for a in keys:
        for b in keys:
            x, y = LinComb.basis(a), LinComb.basis(b)
            assert ronco_bracket(x, y, max_degree=2 * top) == oracle.ronco_bracket(x, y), (a, b)


@pytest.mark.parametrize("d, n", BENCHMARK_KERNELS)
def test_graded_kernel_basis_matches_oracle(d, n):
    assert graded_kernel_basis(d, n, max_degree=10) == oracle.graded_kernel_basis(d, n)


@pytest.mark.parametrize("bad", [(2, 1), (1, 1), (1, 2, 1, 2)])
def test_non_lyndon_keys_raise(bad):
    good = LinComb.basis((1, 2))
    for x, y in ((LinComb.basis(bad), good), (good, LinComb.basis(bad))):
        with pytest.raises(ValueError):
            lie_bracket(x, y)
    g1 = ronco_generator(1)
    for key in ((bad, 1), (bad, 2)):
        for x, y in ((LinComb.basis(key), g1), (g1, LinComb.basis(key))):
            with pytest.raises(ValueError):
                ronco_bracket(x, y)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_project_after_section_is_identity(data):
    x = data.draw(ronco_elements(data.draw(st.integers(2, 4)), MAX_DEGREE))
    assert project(section(x)) == x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_elements_satisfy_the_square_and_leibniz_identities(data):
    d = data.draw(st.integers(2, 4))
    x = data.draw(ronco_elements(d, 3))
    y = data.draw(ronco_elements(d, 2))
    z = data.draw(ronco_elements(d, 2))
    # [[x,x],y] = 0
    assert ronco_bracket(ronco_bracket(x, x), y).is_zero()
    # [x,[y,z]] = [[x,y],z] - [[x,z],y]
    lhs = ronco_bracket(x, ronco_bracket(y, z))
    rhs = ronco_bracket(ronco_bracket(x, y), z) - ronco_bracket(ronco_bracket(x, z), y)
    assert lhs == rhs
