"""`lie_quotient` without its ideal closure, under a random GL_n(ℚ) change of
basis: the quotient equals the closure version kept in `structure_oracle`,
and the span of squares is already a two-sided ideal."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from basis_change import change_basis, invertible
from roncoalg.errors import NotInVarietyError
from roncoalg.linalg import SpanBuilder
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    StructureAlgebra,
    abelian,
    ann_subspace,
    cross_product,
    direct_sum,
    free_nil2,
    lie_quotient,
    verify_variety,
)

ALGEBRAS = (
    lambda: truncate_to_structure(1, 3),
    lambda: truncate_to_structure(2, 3),
    lambda: truncate_to_structure(2, 4),
    lambda: free_nil2(3),
    cross_product,
    lambda: direct_sum(cross_product(), abelian(1)),
    lambda: direct_sum(truncate_to_structure(2, 3), cross_product()),
    # Leibniz but not in the ronco variety: [e1,e1] = e2, [e2,e1] = e2
    lambda: StructureAlgebra(2, {(0, 0): {1: 1}, (1, 0): {1: 1}}),
    # not Leibniz: [e2,[e1,e1]] = [e2,e2] = e1, while [[e2,e1],e1] = 0
    lambda: StructureAlgebra(2, {(0, 0): {1: 1}, (1, 1): {0: 1}}),
)


@cache
def stock(index: int) -> StructureAlgebra:
    return ALGEBRAS[index]()


@st.composite
def basis_changed(draw) -> StructureAlgebra:
    a = stock(draw(st.integers(0, len(ALGEBRAS) - 1)))
    return change_basis(a, draw(invertible(a.dim)))


def quotient_or_error(quotient, a):
    try:
        return quotient(a)
    except NotInVarietyError:
        return NotInVarietyError


def check_squares_span_an_ideal(a: StructureAlgebra):
    """[x, s] = 0 and [s, x] ∈ span of squares, for every square s."""
    squares = [{k: v for k, v in enumerate(vec) if v} for vec in ann_subspace(a)]
    span = SpanBuilder(a.dim)
    for s in squares:
        span.add(s)
    for s in squares:
        for i in range(a.dim):
            assert not oracle._act_left(a.bracket, i, s)
            assert span.contains(oracle._act_right(a.bracket, s, i))


def check(a: StructureAlgebra):
    q = quotient_or_error(lie_quotient, a)
    assert q == quotient_or_error(oracle.lie_quotient, a)
    if q is not NotInVarietyError:
        assert verify_variety(q, "lie").ok
        check_squares_span_an_ideal(a)


@pytest.mark.parametrize("index", range(len(ALGEBRAS)))
def test_quotient_matches_oracle_in_stock_basis(index):
    check(stock(index))


@settings(max_examples=40, deadline=None)
@given(basis_changed())
def test_quotient_matches_oracle_after_change_of_basis(a):
    check(a)
