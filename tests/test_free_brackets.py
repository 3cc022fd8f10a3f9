"""The direct brackets, left-normed bracketings and truncations in Lyndon
and (Lyndon word, generator) coordinates, and the free Leibniz bracket on
words, compared with the tensor-algebra composites, word recursion and
all-pairs loop kept in `free_oracle`, plus the identities the free
square-identity algebra must satisfy."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import free_oracle as oracle
from roncoalg.freelie import (
    is_lyndon,
    left_normed_bracketing,
    lie_bracket,
    lyndon_words,
    standard_factorization,
)
from roncoalg.leibniz import leib_bracket
from roncoalg.linalg import _span
from roncoalg.lincomb import LinComb
from roncoalg.ronco import (
    graded_basis,
    graded_dim,
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


# Every (d, n) with d ≤ 4 and a domain of d·W(d, n−1) ≤ 400 columns (for
# d = 1, where the domain is empty from n = 3 on, up to the default cap),
# and the benchmark's kernels.
GRADED_KERNEL_SWEEP = sorted({(d, n) for d in range(1, 5) for n in range(2, 13)
                              if graded_dim(d, n) <= 400 and (d > 1 or n <= MAX_DEGREE)}
                             | set(BENCHMARK_KERNELS))


@pytest.mark.parametrize("d, n", GRADED_KERNEL_SWEEP)
def test_graded_kernel_basis_matches_oracle(d, n):
    got = graded_kernel_basis(d, n, max_degree=n)
    assert got == oracle.graded_kernel_basis(d, n)
    assert all(holds_fractions(x) for x in got)


def kernel_rows(d: int, n: int) -> tuple[list, list[dict]]:
    """The basis keys of degree n and the rows of the bracket-to-Lie map,
    one per Lyndon word of degree n, in the order the keys first reach it."""
    keys = graded_basis(d, n)
    rows: dict = {}
    for j, (word, v) in enumerate(keys):
        for target, c in lie_bracket(LinComb.basis(word), LinComb.basis((v,)), max_degree=n):
            rows.setdefault(target, {})[j] = c
    return keys, list(rows.values())


def kernel_items(keys: list, rows) -> list[list]:
    """The (key, coefficient) items of the kernel spanned from `rows` in the
    order given, each vector's keys in basis order."""
    return [[(keys[j], vec[j]) for j in sorted(vec)] for vec in _span(len(keys), rows).kernel()]


def assert_same_kernel(got: list[LinComb], want: list[list]):
    assert [list(x.coeffs.items()) for x in got] == want
    assert all(holds_fractions(x) for x in got)


@pytest.mark.parametrize("d, n", GRADED_KERNEL_SWEEP)
def test_graded_kernel_basis_does_not_depend_on_the_row_order(d, n):
    # the rows in the order they are found, as they were spanned before
    keys, rows = kernel_rows(d, n)
    assert_same_kernel(graded_kernel_basis(d, n, max_degree=n), kernel_items(keys, rows))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graded_kernel_basis_matches_any_row_order(data):
    d, n = data.draw(st.sampled_from([(d, n) for d, n in GRADED_KERNEL_SWEEP if graded_dim(d, n) <= 150]))
    keys, rows = kernel_rows(d, n)
    rows = data.draw(st.permutations(rows))
    assert_same_kernel(graded_kernel_basis(d, n, max_degree=n), kernel_items(keys, rows))


@st.composite
def lyndon_words_up_to(draw, max_letters: int, lengths: tuple[int, int]) -> tuple:
    """The smallest rotation of a random primitive word, which is Lyndon."""
    d = draw(st.integers(1, max_letters))
    word = tuple(draw(st.lists(st.integers(1, d), min_size=lengths[0], max_size=lengths[1])))
    rotation = min(word[i:] + word[:i] for i in range(len(word)))
    assume(is_lyndon(rotation))  # false only for a power of a shorter word
    return rotation


def factorization_outcome(factorize, word) -> tuple:
    try:
        return ("ok", factorize(word))
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(lyndon_words_up_to(5, (2, 14)))
def test_standard_factorization_matches_suffix_scan_oracle(word):
    got = standard_factorization(word)
    assert got == oracle.standard_factorization(word)
    assert got[0] + got[1] == word


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=14).map(tuple))
def test_standard_factorization_refuses_like_the_oracle(word):
    # mostly non-Lyndon words, and every length-1 and empty word: the same ValueError text
    got = factorization_outcome(standard_factorization, word)
    assert got == factorization_outcome(oracle.standard_factorization, word)
    assert (got[0] == "ok") == (len(word) >= 2 and is_lyndon(word))


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
def test_section_matches_oracle(data):
    # the oracle brackets go through their own section
    x = data.draw(ronco_elements(data.draw(st.integers(2, 4)), MAX_DEGREE))
    got = section(x)
    assert got == oracle.section(x)
    assert holds_fractions(got)


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
