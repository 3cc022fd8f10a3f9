"""The paper's freeness theorem, checked by brute force in the free Leibniz
algebra with the oracle word bracket, which shares no Lyndon code with 𝒱.

In the free right Leibniz algebra the identity [[x,x],y] = 0 makes squares
central, so the degree-n part Iₙ of the ideal it generates is spanned by
[[…[[a,b]+[b,a], g_i₁]…], g_iₖ] with a, b words and k ≥ 1; a bracket with a
generator appends its letter.  𝒱 is the quotient by that ideal, so
dim Iₙ = dⁿ − dim 𝒱ₙ; and `project` kills every spanning element, which by
the dimension count makes ker `project` = Iₙ.
"""

from itertools import combinations, permutations, product
from math import factorial

import pytest

from free_oracle import leib_bracket
from roncoalg.linalg import SpanBuilder
from roncoalg.lincomb import LinComb
from roncoalg.ronco import graded_dim, project


def words(d: int, n: int) -> list[tuple]:
    return list(product(range(1, d + 1), repeat=n))


def square_ideal_spanners(d: int, n: int):
    """[a,b]+[b,a] for words a ≤ b, followed by k ≥ 1 appended letters, in degree n."""
    for m in range(2, n):
        for i in range(1, m // 2 + 1):
            for a in words(d, i):
                for b in words(d, m - i):
                    if i == m - i and b < a:
                        continue
                    x, y = LinComb.basis(a), LinComb.basis(b)
                    square = leib_bracket(x, y) + leib_bracket(y, x)
                    for tail in words(d, n - m):
                        yield square.map_keys(lambda w: w + tail)


@pytest.mark.parametrize("d, n", [(2, n) for n in range(2, 8)] + [(3, n) for n in range(2, 6)])
def test_square_ideal_is_the_kernel_of_project(d, n):
    index = {w: i for i, w in enumerate(words(d, n))}
    span = SpanBuilder(len(index))
    for x in square_ideal_spanners(d, n):
        assert project(x).is_zero()
        span.add({index[w]: c for w, c in x})
    assert span.rank == d**n - graded_dim(d, n)


def multilinear_square_ideal_spanners(n: int):
    """[a,b]+[b,a] for words a and b, followed by a tail of k ≥ 1 letters, on
    disjoint letters that together use each of 1..n once."""
    letters = range(1, n + 1)
    for m in range(2, n):
        for inner in combinations(letters, m):
            rest = [c for c in letters if c not in inner]
            for i in range(1, m // 2 + 1):
                for left in combinations(inner, i):
                    if 2 * i == m and left[0] != inner[0]:  # each unordered split {A, B} once
                        continue
                    right = [c for c in inner if c not in left]
                    for a in permutations(left):
                        for b in permutations(right):
                            x, y = LinComb.basis(a), LinComb.basis(b)
                            square = leib_bracket(x, y) + leib_bracket(y, x)
                            for tail in permutations(rest):
                                yield square.map_keys(lambda w: w + tail)


@pytest.mark.parametrize("n", range(2, 7))
def test_square_ideal_is_the_kernel_of_project_multilinear(n):
    """ker `project` = Iₙ in degree n for any number of generators, from the
    words that use each of the letters 1..n once.

    The reduction (Schur–Weyl duality).  Over ℚ, Iₙ and ker `project` are
    subfunctors of V ↦ V^⊗n: the ideal is generated by a natural operation,
    and `project` is the natural quotient map onto 𝒱(V).  Such a subfunctor
    F is fixed by its multilinear part, the S_n-submodule F(ℚⁿ) ∩ ℚS_n of
    the words that use each letter once: F(V) is spanned by the images of
    that part under the linear maps ℚⁿ → V that substitute vectors of V for
    the letters (polarization and restitution, as char ℚ = 0).  So two
    subfunctors with equal multilinear parts are equal, for every d.

    The check.  The multilinear part of Iₙ is spanned by the spanners above
    (a multilinear element of the ideal uses each letter once in a, b and
    the tail).  `project` kills every spanner that enlarges the span, so it
    kills the span.  `project` maps onto 𝒱ₙ, whose multilinear part has
    dimension n·(n−2)! (𝒱 ≅ Lie(V) ⊗ V: (n−2)! multilinear Lie words on the
    first n − 1 letters, times n choices of the last), so its kernel has
    dimension n! − n·(n−2)!.  The span reaches that rank, so it is the
    whole kernel.  n = 7 (37,800 spanners, rank 4,200) takes a few seconds
    and runs in CI; here n ≤ 6.
    """
    index = {w: i for i, w in enumerate(permutations(range(1, n + 1)))}
    span = SpanBuilder(len(index))
    for x in multilinear_square_ideal_spanners(n):
        if span.add({index[w]: c for w, c in x}):
            assert project(x).is_zero()
    assert span.rank == factorial(n) - n * factorial(n - 2)
