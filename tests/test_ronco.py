"""Free algebra of the square-bracket identities: projection, section,
bracket, graded data, truncations."""

import random
from fractions import Fraction

import pytest

from roncoalg.errors import DegreeOverflowError, UnknownGeneratorError
from roncoalg.freelie import lie_bracket, lyndon_words, witt_dim
from roncoalg.leibniz import leib_bracket
from roncoalg.lincomb import LinComb
from roncoalg.ronco import (
    element_degree,
    eval_term,
    format_key,
    graded_basis,
    graded_dim,
    graded_kernel_basis,
    key_sort_key,
    project,
    ronco_bracket,
    ronco_generator,
    section,
    truncate_to_structure,
    truncation_basis,
)
from roncoalg.structure import bracket_eval, verify_variety
from roncoalg.terms import parse_term


def random_words(rng, d, max_len, terms=3):
    out = LinComb.zero()
    for _ in range(rng.randint(1, terms)):
        n = rng.randint(1, max_len)
        word = tuple(rng.randint(1, d) for _ in range(n))
        out = out + LinComb.basis(word, rng.randint(-3, 3))
    return out


def test_project_words():
    # degree 1 passes through; higher words go to (left-normed prefix) ⊗ last
    assert project(LinComb.basis((2,))) == LinComb.basis(((), 2))
    assert project(LinComb.basis((1, 2))) == LinComb.basis(((1,), 2))
    # prefix [g2,g1] = -[g1,g2]
    assert project(LinComb.basis((2, 1, 2))) == LinComb.basis(((1, 2), 2), -1)
    # prefix [g1,g1] = 0
    assert project(LinComb.basis((1, 1, 2))).is_zero()
    # [[g1,g2],g1] = -(112): prefix of the word 121
    assert project(LinComb.basis((1, 2, 1, 1))) == LinComb.basis(((1, 1, 2), 1), -1)


def test_section_values():
    assert section(LinComb.basis(((), 1))) == LinComb.basis((1,))
    # ((1,2), v): (1/2)(12 - 21) ⊗ v
    x = section(LinComb.basis(((1, 2), 1)))
    assert x.coeffs == {(1, 2, 1): Fraction(1, 2), (2, 1, 1): Fraction(-1, 2)}


def test_project_section_is_identity():
    for d in (2, 3):
        for n in range(1, 6):
            for key in graded_basis(d, n):
                x = LinComb.basis(key)
                assert project(section(x)) == x
    rng = random.Random(9)
    for _ in range(20):
        x = LinComb.zero()
        for _ in range(3):
            n = rng.randint(1, 5)
            key = rng.choice(graded_basis(2, n))
            x = x + LinComb.basis(key, rng.randint(-2, 2))
        assert project(section(x)) == x


def test_projection_is_a_bracket_homomorphism():
    rng = random.Random(10)
    for _ in range(40):
        x = random_words(rng, 2, 3)
        y = random_words(rng, 2, 3)
        assert project(leib_bracket(x, y)) == ronco_bracket(project(x), project(y))


def test_bracket_with_generator_follows_the_direct_rule():
    # [σ(l)⊗u, g_v] = [σ(l), g_u] ⊗ v
    for d in (2, 3):
        for n in range(2, 5):
            for word, u in graded_basis(d, n):
                for v in range(1, d + 1):
                    got = ronco_bracket(LinComb.basis((word, u)), ronco_generator(v))
                    lie = lie_bracket(LinComb.basis(word), LinComb.basis((u,)))
                    assert got == lie.map_keys(lambda l: (l, v))


def test_square_identities_hold():
    rng = random.Random(12)
    for _ in range(15):
        x = LinComb.zero()
        for _ in range(2):
            n = rng.randint(1, 3)
            x = x + LinComb.basis(rng.choice(graded_basis(2, n)), rng.randint(-2, 2))
        y = LinComb.basis(rng.choice(graded_basis(2, rng.randint(1, 2))))
        assert ronco_bracket(ronco_bracket(x, x), y).is_zero()
        lhs = ronco_bracket(ronco_bracket(x, y), y) + ronco_bracket(ronco_bracket(y, x), y)
        # polarized form [[x,y],z] + [[y,x],z] = 0 with z = y
        assert lhs.is_zero()


def test_bracket_values():
    g1, g2 = ronco_generator(1), ronco_generator(2)
    assert ronco_bracket(g1, g2) == LinComb.basis(((1,), 2))
    assert ronco_bracket(ronco_bracket(g1, g2), g1) == LinComb.basis(((1, 2), 1))
    assert ronco_bracket(ronco_bracket(g1, g1), g2).is_zero()
    assert ronco_bracket(g1, ronco_bracket(g2, g2)).is_zero()


def test_graded_dims():
    for d in (1, 2, 3):
        assert graded_dim(d, 1) == d
        for n in range(2, 7):
            assert graded_dim(d, n) == d * witt_dim(d, n - 1)
    assert [graded_dim(2, n) for n in range(1, 7)] == [2, 4, 2, 4, 6, 12]
    with pytest.raises(ValueError):
        graded_dim(0, 1)
    with pytest.raises(ValueError):
        graded_dim(2, 0)


def test_graded_basis_order():
    assert graded_basis(2, 1) == [((), 1), ((), 2)]
    assert graded_basis(2, 3) == [((1, 2), 1), ((1, 2), 2)]
    for d in (2, 3):
        for n in range(1, 6):
            keys = graded_basis(d, n)
            assert len(keys) == graded_dim(d, n)
            assert keys == sorted(keys, key=key_sort_key)


def test_graded_kernel_basis_degree_two():
    basis = graded_kernel_basis(2, 2)
    assert basis == [
        LinComb.basis(((1,), 1)),
        LinComb.basis(((1,), 2)) + LinComb.basis(((2,), 1)),
        LinComb.basis(((2,), 2)),
    ]


def test_graded_kernel_dimensions_match_witt_deficit():
    for d in (2, 3):
        for n in range(2, 7):
            kernel = graded_kernel_basis(d, n)
            assert len(kernel) == d * witt_dim(d, n - 1) - witt_dim(d, n)
            # the graded piece splits as (Lie part) + (kernel)
            assert graded_dim(d, n) == witt_dim(d, n) + len(kernel)
    assert [len(graded_kernel_basis(2, n)) for n in range(2, 7)] == [3, 0, 1, 0, 3]


def test_graded_kernel_elements_are_central():
    for n in (2, 4):
        for x in graded_kernel_basis(2, n):
            for v in (1, 2):
                g = ronco_generator(v)
                assert ronco_bracket(x, g).is_zero()
                assert ronco_bracket(g, x).is_zero()


def test_graded_kernel_argument_errors():
    with pytest.raises(ValueError):
        graded_kernel_basis(2, 1)
    with pytest.raises(DegreeOverflowError):
        graded_kernel_basis(2, 9)


@pytest.mark.parametrize("d, n, message", [
    (2, 0, "the kernel lives in degrees >= 2, got n=0"),
    (0, 3, "generator count must be >= 1, got d=0"),
    (-1, 3, "generator count must be >= 1, got d=-1"),
    # the generator count is refused before the degree cap
    (0, 9, "generator count must be >= 1, got d=0"),
])
def test_graded_kernel_refusals_name_the_arguments_given(d, n, message):
    with pytest.raises(ValueError) as exc:
        graded_kernel_basis(d, n)
    assert str(exc.value) == message


def test_element_degree_and_format():
    x = LinComb.basis(((), 2)) + LinComb.basis(((1, 2), 1))
    assert element_degree(x) == 3
    assert element_degree(LinComb.zero()) == 0
    assert format_key(((), 2)) == "g2"
    assert format_key(((1, 2), 1)) == "[12|1]"
    assert format_key(((1, 10), 3), 10) == "[1.10|3]"


def test_truncation_basis_and_structure():
    assert truncation_basis(1, 2) == [((), 1), ((1,), 1)]
    a = truncate_to_structure(1, 2)
    assert a.dim == 2
    assert a.bracket == {(0, 0): {1: Fraction(1)}}

    t23 = truncate_to_structure(2, 3)
    assert t23.dim == 2 + 2 + 4
    assert verify_variety(t23, "ronco").ok
    # brackets that would land above the cutoff are zero
    keys = truncation_basis(2, 3)
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if len(ki[0]) + 1 + len(kj[0]) + 1 > 3:
                assert (i, j) not in t23.bracket

    # the table reproduces ronco_bracket on basis keys
    index = {key: i for i, key in enumerate(keys)}
    e = lambda i: tuple(Fraction(k == i) for k in range(t23.dim))
    got = bracket_eval(t23, e(index[((), 1)]), e(index[((), 2)]))
    expect = [Fraction(0)] * t23.dim
    expect[index[((1,), 2)]] = Fraction(1)
    assert list(got) == expect


def test_truncation_dimensions():
    assert truncate_to_structure(2, 4).dim == 2 + 4 + 2 + 4
    assert truncate_to_structure(3, 3).dim == 3 + 9 + 9
    with pytest.raises(DegreeOverflowError):
        truncate_to_structure(2, 9)
    with pytest.raises(ValueError):
        truncate_to_structure(0, 2)


def test_eval_term():
    x = eval_term(parse_term("[[g1,g2],g1] + 2*g1"), 2)
    assert x.coeffs == {((1, 2), 1): Fraction(1), ((), 1): Fraction(2)}
    assert eval_term(parse_term("[[g1,g1],g2]"), 2).is_zero()
    with pytest.raises(UnknownGeneratorError):
        eval_term(parse_term("g4"), 3)
    with pytest.raises(DegreeOverflowError):
        eval_term(parse_term("[[g1,g2],[g1,g2]]"), 2, max_degree=3)


def test_project_rejects_the_empty_word():
    # the empty word once recursed without end (RecursionError)
    with pytest.raises(ValueError, match="empty word"):
        project(LinComb.basis(()))
    with pytest.raises(ValueError, match="empty word"):
        project(LinComb({(1, 2): 1, (): 3}))
