"""Free Leibniz algebra on tensor words."""

import random
from fractions import Fraction
from itertools import product

import pytest

from roncoalg.errors import DegreeOverflowError, UnknownGeneratorError
from roncoalg.leibniz import eval_term, leib_bracket, leib_generator
from roncoalg.lincomb import LinComb
from roncoalg.terms import parse_term


def random_word_element(rng, d, max_len):
    out = LinComb.zero()
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, max_len)
        word = tuple(rng.randint(1, d) for _ in range(n))
        out = out + LinComb.basis(word, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def test_bracket_with_generator_appends():
    g1, g2 = leib_generator(1), leib_generator(2)
    assert leib_bracket(g1, g2) == LinComb.basis((1, 2))
    word = LinComb.basis((2, 1, 1))
    assert leib_bracket(word, g2) == LinComb.basis((2, 1, 1, 2))
    # on arbitrary left arguments, a degree-1 right argument just appends
    rng = random.Random(11)
    for _ in range(20):
        x = random_word_element(rng, 3, 4)
        v = rng.randint(1, 3)
        assert leib_bracket(x, leib_generator(v)) == x.map_keys(lambda w: w + (v,))


def test_bracket_recursion_values():
    g1 = leib_generator(1)
    assert leib_bracket(g1, LinComb.basis((2, 3))) == (
        LinComb.basis((1, 2, 3)) - LinComb.basis((1, 3, 2))
    )
    assert leib_bracket(g1, LinComb.basis((2, 2))).is_zero()
    # degree-3 right argument: [1, 234] = [[1,23],4] - [[1,4],23]
    x = leib_bracket(g1, LinComb.basis((2, 3, 4)))
    assert x.coeffs == {
        (1, 2, 3, 4): Fraction(1),
        (1, 3, 2, 4): Fraction(-1),
        (1, 4, 2, 3): Fraction(-1),
        (1, 4, 3, 2): Fraction(1),
    }


def test_leibniz_identity_on_random_elements():
    rng = random.Random(42)
    for _ in range(30):
        x = random_word_element(rng, 2, 2)
        y = random_word_element(rng, 2, 2)
        z = random_word_element(rng, 2, 2)
        lhs = leib_bracket(x, leib_bracket(y, z))
        rhs = leib_bracket(leib_bracket(x, y), z) - leib_bracket(leib_bracket(x, z), y)
        assert lhs == rhs


def test_squares_annihilate_on_the_right():
    rng = random.Random(43)
    for _ in range(20):
        x = random_word_element(rng, 3, 3)
        y = random_word_element(rng, 3, 2)
        assert leib_bracket(x, leib_bracket(y, y)).is_zero()


def test_bilinearity():
    rng = random.Random(44)
    for _ in range(10):
        x = random_word_element(rng, 2, 2)
        y = random_word_element(rng, 2, 2)
        z = random_word_element(rng, 2, 2)
        assert leib_bracket(x + y, z) == leib_bracket(x, z) + leib_bracket(y, z)
        assert leib_bracket(x, y + z) == leib_bracket(x, y) + leib_bracket(x, z)
        assert leib_bracket(x.scale(3), y) == leib_bracket(x, y).scale(3)


def test_left_normed_products_reach_every_word():
    # iterated left brackets with generators produce exactly the single words,
    # so degree n is spanned by n-fold products: dimension d**n
    d, n = 2, 3
    for word in product(range(1, d + 1), repeat=n):
        x = leib_generator(word[0])
        for v in word[1:]:
            x = leib_bracket(x, leib_generator(v))
        assert x == LinComb.basis(word)


def test_degree_cap():
    x = LinComb.basis((1,) * 5)
    y = LinComb.basis((2, 3, 4, 5))
    with pytest.raises(DegreeOverflowError):
        leib_bracket(x, y)
    assert leib_bracket(x, y, max_degree=9)[(1, 1, 1, 1, 1, 2, 3, 4, 5)] == 1
    # a repeated-square right factor collapses to zero (but still needs the cap)
    with pytest.raises(DegreeOverflowError):
        leib_bracket(x, LinComb.basis((2,) * 4))
    assert leib_bracket(x, LinComb.basis((2,) * 4), max_degree=9).is_zero()
    assert leib_bracket(x, LinComb.zero()).is_zero()


def test_eval_term():
    x = eval_term(parse_term("1/2 * [g1,[g2,g3]] - [g3,g1]"), 3)
    assert x.coeffs == {
        (1, 2, 3): Fraction(1, 2),
        (1, 3, 2): Fraction(-1, 2),
        (3, 1): Fraction(-1),
    }
    assert eval_term(parse_term("[g1,g2] - [g1,g2]"), 2).is_zero()
    with pytest.raises(UnknownGeneratorError):
        eval_term(parse_term("[g1,g3]"), 2)
    with pytest.raises(DegreeOverflowError):
        eval_term(parse_term("[[g1,g2],[g1,g2]]"), 2, max_degree=3)


def test_bracket_rejects_the_empty_word_on_the_left():
    # the empty word once acted like the unit: [(), g1] returned g1
    g1 = leib_generator(1)
    with pytest.raises(ValueError, match="empty word"):
        leib_bracket(LinComb.basis(()), g1)
    with pytest.raises(ValueError, match="empty word"):
        leib_bracket(LinComb.basis(()) + LinComb.basis((2,)), g1)
