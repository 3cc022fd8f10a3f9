"""The direct brackets, left-normed bracketings and truncations in Lyndon
and (Lyndon word, generator) coordinates, and the free Leibniz bracket on
words, compared with the tensor-algebra composites, word recursion and
all-pairs loop kept in `free_oracle`, plus the identities the free
square-identity algebra must satisfy.

The free Leibniz and 𝒱 brackets read both factors through their Lie
images; they are also compared with the right action of the free Lie
algebra on every basis key of the left factor (`free_oracle.act`), the
path they replaced, and the identities behind them are checked directly:
the kernel of the Lie quotient annihilates 𝒱 from both sides, and the
tensor image of a left-normed word is the expansion of its Lyndon
coordinates.  Term evaluation takes an inner bracket only as its image, so
both images must be maps of Lie algebras: the Lie image of a 𝒱 bracket is
the Lie bracket of the images, and T of a free Leibniz bracket is the
commutator of the T-images."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import free_oracle as oracle
from roncoalg import terms
from roncoalg.freelie import (
    _lyndon_bracket,
    expand_to_tensor,
    is_lyndon,
    left_normed_bracketing,
    lie_bracket,
    lyndon_words,
    standard_factorization,
)
from roncoalg import leibniz
from roncoalg.leibniz import _left_normed_tensor, leib_bracket, leib_generator
from roncoalg.linalg import _span
from roncoalg.lincomb import LinComb
from roncoalg.ronco import (
    _lie_image,
    eval_term,
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


def test_lyndon_bracket_matches_oracle_on_every_pair_of_3_letter_words():
    # both Jacobi sums, both orders and equal words, up to total length 6
    words = [w for n in range(1, 6) for w in lyndon_words(3, n)]
    for u, v in product(words, repeat=2):
        if len(u) + len(v) <= 6:
            got = _lyndon_bracket(u, v)
            assert all(type(c) is int and c for c in got.values())
            assert LinComb(got) == oracle.lie_bracket(LinComb.basis(u), LinComb.basis(v)), (u, v)


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ronco_bracket_matches_the_right_action(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(ronco_elements(d, deg_x))
    y = data.draw(ronco_elements(d, MAX_DEGREE - deg_x))
    assert ronco_bracket(x, y) == oracle.right_action_ronco_bracket(x, y)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_leib_bracket_matches_the_right_action(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(word_elements(d, deg_x))
    y = data.draw(word_elements(d, MAX_DEGREE - deg_x))
    assert leib_bracket(x, y) == oracle.right_action_leib_bracket(x, y)


# Degree-10 terms on 3 generators, past the default cap: right-normed,
# left-normed, and a balanced shape with scalars, a sum and a difference.
DEGREE_10_TERMS = [
    "[g1,[g2,[g3,[g1,[g2,[g3,[g1,[g2,[g3,g1]]]]]]]]]",
    "[[[[[[[[[g1,g2],g3],g1],g2],g3],g1],g2],g3],g2]",
    "[[2*[g1,g2] - [g3,g1],[[g2,g3],g1]],[3/2*[[g1,g3],g2],[g2,g1] + [g3,g2]]]",
]


@pytest.mark.parametrize("text", DEGREE_10_TERMS)
def test_degree_10_terms_match_the_right_action(text):
    term = terms.parse_term(text)
    got = terms._evaluate_on(term, 3, ronco_generator, lambda a, b: ronco_bracket(a, b, max_degree=10))
    assert got == terms._evaluate_on(term, 3, ronco_generator, oracle.right_action_ronco_bracket)
    assert not got.is_zero()
    got = terms._evaluate_on(term, 3, leib_generator, lambda a, b: leib_bracket(a, b, max_degree=10))
    assert got == terms._evaluate_on(term, 3, leib_generator, oracle.right_action_leib_bracket)
    assert not got.is_zero()


@pytest.mark.parametrize("d, top", [(2, 6), (3, 4), (4, 2)])
def test_truncation_matches_the_right_action(d, top):
    # same cells in the same insertion order, hence the same JSON bytes
    got, want = truncate_to_structure(d, top), oracle.right_action_truncation(d, top)
    assert list(got.bracket.items()) == list(want.bracket.items())


KERNEL_DEGREES = [(2, n) for n in range(2, 8)] + [(3, n) for n in range(2, 6)]


@pytest.mark.parametrize("d, n", KERNEL_DEGREES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_the_lie_kernel_annihilates_from_both_sides(d, n, data):
    x = data.draw(ronco_elements(d, n))
    y = data.draw(ronco_elements(d, 3))
    cap = n + 3
    for k in graded_kernel_basis(d, n):
        assert ronco_bracket(k, y, cap).is_zero()
        assert ronco_bracket(y, k, cap).is_zero()
        assert ronco_bracket(x + k, y, cap) == ronco_bracket(x, y, cap)


def test_left_normed_tensor_is_the_expanded_left_normed_bracketing():
    for length in range(1, 8):
        for word in product(range(1, 4), repeat=length):
            want = expand_to_tensor(left_normed_bracketing(LinComb.basis(word)))
            assert LinComb(_left_normed_tensor(word)) == want, word


def test_leib_bracket_refuses_the_empty_word_on_the_right():
    # T would recurse without end on the empty word
    g1 = leib_generator(1)
    for y in (LinComb.basis(()), LinComb.basis(()) + g1):
        with pytest.raises(ValueError, match="^the empty word has no left-normed bracketing$"):
            leib_bracket(g1, y)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_lie_image_of_a_bracket_is_the_bracket_of_the_images(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(ronco_elements(d, deg_x))
    y = data.draw(ronco_elements(d, MAX_DEGREE - deg_x))
    want = lie_bracket(LinComb(_lie_image(x)), LinComb(_lie_image(y)))
    assert LinComb(_lie_image(ronco_bracket(x, y))) == want


def tensor_image(x: LinComb) -> LinComb:
    """T extended linearly from the left-normed tensor of each word."""
    return LinComb([(t, c * ct) for w, c in x for t, ct in _left_normed_tensor(w).items()])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_tensor_image_of_a_bracket_is_the_commutator_of_the_images(data):
    d = data.draw(st.integers(2, 4))
    deg_x = data.draw(st.integers(1, MAX_DEGREE - 1))
    x = data.draw(word_elements(d, deg_x))
    y = data.draw(word_elements(d, MAX_DEGREE - deg_x))
    tx, ty = tensor_image(x), tensor_image(y)
    commutator = LinComb([(u + v, a * b) for u, a in tx for v, b in ty]
                         + [(v + u, -a * b) for u, a in tx for v, b in ty])
    assert tensor_image(leib_bracket(x, y)) == commutator


@pytest.mark.parametrize("text", DEGREE_10_TERMS)
def test_degree_10_terms_evaluate_through_images_as_node_by_node(text):
    term = terms.parse_term(text)
    got = eval_term(term, 3, 10)
    assert got == terms._evaluate_on(term, 3, ronco_generator, lambda a, b: ronco_bracket(a, b, max_degree=10))
    assert holds_fractions(got) and not got.is_zero()
    got = leibniz.eval_term(term, 3, 10)
    assert got == terms._evaluate_on(term, 3, leib_generator, lambda a, b: leib_bracket(a, b, max_degree=10))
    assert holds_fractions(got) and not got.is_zero()
