"""The paper's freeness theorem, checked by brute force in the free Leibniz
algebra with the oracle word bracket, which shares no Lyndon code with 𝒱.

In the free right Leibniz algebra the identity [[x,x],y] = 0 makes squares
central, so the degree-n part Iₙ of the ideal it generates is spanned by
[[…[[a,b]+[b,a], g_i₁]…], g_iₖ] with a, b words and k ≥ 1; a bracket with a
generator appends its letter.  𝒱 is the quotient by that ideal, so
dim Iₙ = dⁿ − dim 𝒱ₙ; and `project` kills every spanning element, which by
the dimension count makes ker `project` = Iₙ.
"""

from itertools import product

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
