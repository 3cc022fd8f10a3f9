"""Free Lie algebra: Lyndon words, Witt dimensions, expansion/rewriting."""

import random
from fractions import Fraction
from itertools import product

import pytest

from free_oracle import left_normed_tensor
from roncoalg.errors import DegreeOverflowError, NotLieElementError
from roncoalg.freelie import (
    expand_to_tensor,
    format_word,
    is_lyndon,
    left_normed_bracketing,
    lie_bracket,
    lie_generator,
    lyndon_words,
    parse_word,
    rewrite_to_lyndon,
    standard_factorization,
    tensor_commutator,
    witt_dim,
)
from roncoalg.lincomb import LinComb


def oracle_is_lyndon(word):
    """A word is Lyndon iff it is strictly smaller than all its rotations."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def random_lie_element(rng, d, degrees):
    out = LinComb.zero()
    for _ in range(rng.randint(1, 3)):
        n = rng.choice(degrees)
        word = rng.choice(lyndon_words(d, n))
        out = out + LinComb.basis(word, rng.randint(-3, 3))
    return out


def test_is_lyndon_matches_rotation_oracle():
    for d, max_len in ((2, 6), (3, 4)):
        for n in range(1, max_len + 1):
            for word in product(range(1, d + 1), repeat=n):
                assert is_lyndon(word) == oracle_is_lyndon(word), word
    assert not is_lyndon(())


def test_lyndon_words_enumeration():
    assert lyndon_words(2, 1) == ((1,), (2,))
    assert lyndon_words(2, 2) == ((1, 2),)
    assert lyndon_words(2, 3) == ((1, 1, 2), (1, 2, 2))
    assert lyndon_words(2, 4) == ((1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2))
    # agrees with brute force and is lexicographically sorted
    for d in (1, 2, 3):
        for n in range(1, 6):
            brute = tuple(w for w in product(range(1, d + 1), repeat=n) if oracle_is_lyndon(w))
            assert lyndon_words(d, n) == brute
            assert list(lyndon_words(d, n)) == sorted(lyndon_words(d, n))
    with pytest.raises(ValueError):
        lyndon_words(0, 1)
    with pytest.raises(ValueError):
        lyndon_words(2, 0)


def test_witt_dim_counts_lyndon_words():
    for d in (1, 2, 3, 4):
        for n in range(1, 7):
            assert witt_dim(d, n) == len(lyndon_words(d, n)), (d, n)
    assert [witt_dim(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert witt_dim(3, 3) == 8
    assert witt_dim(3, 6) == 116
    with pytest.raises(ValueError):
        witt_dim(2, 0)


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
    # the suffix is the longest proper Lyndon suffix
    for word in lyndon_words(3, 5):
        u, v = standard_factorization(word)
        assert u + v == word
        assert is_lyndon(u) and is_lyndon(v)
        for i in range(1, len(word) - len(v)):
            assert not is_lyndon(word[i:])
    with pytest.raises(ValueError):
        standard_factorization((1,))
    with pytest.raises(ValueError):
        standard_factorization((2, 1))


def test_expand_112():
    x = expand_to_tensor(LinComb.basis((1, 1, 2)))
    assert x.coeffs == {
        (1, 1, 2): Fraction(1),
        (1, 2, 1): Fraction(-2),
        (2, 1, 1): Fraction(1),
    }


def test_expand_12():
    x = expand_to_tensor(LinComb.basis((1, 2)))
    assert x.coeffs == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_expansion_is_triangular():
    # a Lyndon word expands to itself (coefficient 1) plus larger words of
    # the same length
    for d in (2, 3):
        for n in range(1, 6):
            for word in lyndon_words(d, n):
                exp = expand_to_tensor(LinComb.basis(word))
                assert exp[word] == 1
                for other in exp.keys():
                    assert len(other) == n
                    assert other >= word


def test_rewrite_inverts_expansion():
    rng = random.Random(31)
    for _ in range(30):
        x = random_lie_element(rng, 2, (1, 2, 3, 4, 5))
        assert rewrite_to_lyndon(expand_to_tensor(x)) == x
    for _ in range(15):
        x = random_lie_element(rng, 3, (1, 2, 3, 4))
        assert rewrite_to_lyndon(expand_to_tensor(x)) == x


def test_rewrite_rejects_non_lie_tensors():
    symmetric = LinComb.basis((1, 2)) + LinComb.basis((2, 1))
    with pytest.raises(NotLieElementError):
        rewrite_to_lyndon(symmetric)
    with pytest.raises(NotLieElementError):
        rewrite_to_lyndon(LinComb.basis((1, 1)))
    with pytest.raises(NotLieElementError):
        rewrite_to_lyndon(LinComb.basis((2, 1)))


def test_rewrite_names_the_empty_word():
    # the empty word is no Lie element; it is cleared first, and its name is no crash
    with pytest.raises(NotLieElementError, match=r"term \(\) \(the empty word\) has no Lyndon"):
        rewrite_to_lyndon(LinComb({(): 1}))
    with pytest.raises(NotLieElementError, match=r"the empty word"):
        rewrite_to_lyndon(LinComb({(): 2, (1,): 1, (1, 2): -1}))


def test_rewrite_clears_shorter_words_first():
    # 111 < 21 lexicographically, but the shorter word is cleared (and named) first
    with pytest.raises(NotLieElementError, match=r"term 21 "):
        rewrite_to_lyndon(LinComb.basis((2, 1)) + LinComb.basis((1, 1, 1)))


def test_bracket_small_values():
    g1, g2 = lie_generator(1), lie_generator(2)
    assert lie_bracket(g1, g2) == LinComb.basis((1, 2))
    assert lie_bracket(g2, g1) == LinComb.basis((1, 2), -1)
    assert lie_bracket(g1, g1).is_zero()
    # [[1,2],2] is the basis element 122; [1,[1,2]] is 112
    b12 = lie_bracket(g1, g2)
    assert lie_bracket(b12, g2) == LinComb.basis((1, 2, 2))
    assert lie_bracket(g1, b12) == LinComb.basis((1, 1, 2))


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(77)
    for _ in range(25):
        x = random_lie_element(rng, 2, (1, 2))
        y = random_lie_element(rng, 2, (1, 2))
        z = random_lie_element(rng, 2, (1, 2))
        assert lie_bracket(x, y) + lie_bracket(y, x) == LinComb.zero()
        jac = (
            lie_bracket(lie_bracket(x, y), z)
            + lie_bracket(lie_bracket(y, z), x)
            + lie_bracket(lie_bracket(z, x), y)
        )
        assert jac.is_zero()


def test_bracket_degree_cap():
    x = LinComb.basis(lyndon_words(2, 5)[0])
    with pytest.raises(DegreeOverflowError):
        lie_bracket(x, x)
    assert lie_bracket(x, x, max_degree=10).is_zero()
    y = LinComb.basis(lyndon_words(2, 4)[0])
    assert lie_bracket(x, y, max_degree=9) == -lie_bracket(y, x, max_degree=9)


def test_brackets_of_lower_pieces_span_each_degree():
    # the degree-n piece is spanned by brackets of lower basis elements
    from roncoalg.linalg import SpanBuilder

    d = 2
    for n in range(2, 7):
        words = lyndon_words(d, n)
        index = {w: i for i, w in enumerate(words)}
        sb = SpanBuilder(len(words))
        for p in range(1, n):
            for u in lyndon_words(d, p):
                for v in lyndon_words(d, n - p):
                    z = lie_bracket(LinComb.basis(u), LinComb.basis(v))
                    if z:
                        sb.add({index[w]: c for w, c in z})
        assert sb.rank == witt_dim(d, n)


def test_left_normed_bracketing_of_words():
    # [[1,2],1] = -112 in the Lyndon basis
    x = left_normed_bracketing(LinComb.basis((1, 2, 1)))
    assert x == LinComb.basis((1, 1, 2), -1)
    # left-normed bracketing of a Lyndon word of degree n, re-expanded,
    # is n times the element (checked here at small degree)
    for word in lyndon_words(2, 3):
        t = expand_to_tensor(LinComb.basis(word))
        assert left_normed_tensor(t) == t.scale(3)


def test_tensor_commutator():
    a = LinComb.basis((1,))
    b = LinComb.basis((2,))
    assert tensor_commutator(a, b).coeffs == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    assert tensor_commutator(a, a).is_zero()
    # 1 and 11 commute, and so do 12 and 1212
    assert tensor_commutator(a, LinComb.basis((1, 1))).is_zero()
    assert tensor_commutator(LinComb.basis((1, 2)), LinComb.basis((1, 2, 1, 2))).is_zero()
    x = LinComb([((1,), 2), ((2,), 1)])
    y = LinComb([((1, 1), 1), ((2,), 3)])
    # 2·[1,11] + 6·[1,2] + [2,11] + 3·[2,2]
    assert tensor_commutator(x, y).coeffs == {(1, 2): 6, (2, 1): -6, (2, 1, 1): 1, (1, 1, 2): -1}


def test_word_formatting():
    assert format_word((1, 1, 2)) == "112"
    assert format_word((1, 1, 2), 2) == "112"
    assert format_word((1, 10, 2)) == "1.10.2"
    assert format_word((1, 2), 12) == "1.2"
    assert format_word(()) == format_word((), 3) == ""
    assert parse_word("112") == (1, 1, 2)
    assert parse_word("1.10.2") == (1, 10, 2)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("102")  # "0" is not a generator index


@pytest.mark.parametrize("text", ["١٢", "1_0.2", "²", " 1", "+1", "1.+2", "1..2", "1.", "1. 2"])
def test_parse_word_reads_ascii_digits_only(text):
    # int() reads "١" as 1 and "1_0" as 10; each of these was once a word
    with pytest.raises(ValueError, match="invalid word"):
        parse_word(text)


def test_expand_validates_lyndon_keys():
    with pytest.raises(ValueError):
        expand_to_tensor(LinComb.basis((2, 1)))


def test_left_normed_bracketing_rejects_the_empty_word():
    # the empty word once recursed without end (RecursionError)
    with pytest.raises(ValueError, match="empty word"):
        left_normed_bracketing(LinComb.basis(()))
    with pytest.raises(ValueError, match="empty word"):
        left_normed_bracketing(LinComb({(1, 2): 1, (): 3}))
