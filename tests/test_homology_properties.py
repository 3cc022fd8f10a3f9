"""The four homology functors and the variety checks under a random GL_n(ℚ)
change of basis: reports equal to the pre-refactor functors kept in
`homology_oracle`, `h1_adjoint` equal to `hl2` on Lie algebras, and
dimensions and `verify` verdicts equal to those of the algebra in its stock
basis."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homology_oracle as oracle
from basis_change import change_basis, invertible, signed_permutation_and_scaling
from roncoalg.errors import NotInVarietyError
from roncoalg.homology import h1_adjoint, hl1, hl2, hr0
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    StructureAlgebra,
    abelian,
    cross_product,
    direct_sum,
    _integer_tables,
    free_nil2,
    lie_quotient,
    ronco_to_mu,
    verify_mu,
    verify_variety,
)

FUNCTORS = (("hl1", hl1, oracle.hl1), ("hl2", hl2, oracle.hl2),
            ("hr0", hr0, oracle.hr0), ("h1_adjoint", h1_adjoint, oracle.h1_adjoint))

ALGEBRAS = (
    lambda: free_nil2(2),
    lambda: free_nil2(3),
    lambda: free_nil2(4),
    cross_product,
    lambda: direct_sum(free_nil2(2), cross_product()),
    lambda: direct_sum(cross_product(), abelian(1)),
    lambda: truncate_to_structure(2, 3),
    # not Leibniz: [e2,[e1,e1]] = [e2,e2] = e1, while [[e2,e1],e1] = 0
    lambda: StructureAlgebra(2, {(0, 0): {1: 1}, (1, 1): {0: 1}}),
)


@cache
def stock(index: int) -> StructureAlgebra:
    return ALGEBRAS[index]()


@st.composite
def basis_changed(draw) -> tuple[int, StructureAlgebra]:
    index = draw(st.integers(0, len(ALGEBRAS) - 1))
    a = stock(index)
    return index, change_basis(a, draw(invertible(a.dim)))


def report_or_error(functor, a):
    try:
        return functor(a)
    except NotInVarietyError:
        return NotInVarietyError


@settings(max_examples=30, deadline=None)
@given(basis_changed())
def test_reports_match_oracle_after_change_of_basis(case):
    _, a = case
    for name, functor, reference in FUNCTORS:
        assert report_or_error(functor, a) == report_or_error(reference, a), name
    adjoint = report_or_error(h1_adjoint, a)
    if adjoint is not NotInVarietyError:
        assert adjoint == hl2(a)


# Sparse Lie algebras.  A GL_n(ℚ) change of basis makes every table dense,
# so only these, in signed-permutation-and-scaling bases, have zero cells
# [e_j,e_k] whose hr0 relations are skipped.
SPARSE_LIE = (
    lambda: direct_sum(free_nil2(2), abelian(2)),
    lambda: direct_sum(free_nil2(3), abelian(1)),
    lambda: direct_sum(free_nil2(4), abelian(3)),
    lambda: direct_sum(cross_product(), abelian(1)),
    lambda: direct_sum(cross_product(), abelian(4)),
    lambda: lie_quotient(truncate_to_structure(2, 4)),
    lambda: lie_quotient(truncate_to_structure(4, 2)),
)
# Mersenne primes past 2⁶⁴: every entry of a scaled table keeps one of them
# in its denominator, so every functor spans integers of several machine
# words: hr0's and hl1's relations, and Loday's columns and boundaries
PRIME_DENOMINATORS = (2**89 - 1, 2**107 - 1, 2**127 - 1)


def sparse_bases(index: int):
    """(seed, the sparse Lie algebra in that seed's signed-permutation basis)."""
    a = SPARSE_LIE[index]()
    for seed in range(12):
        b = signed_permutation_and_scaling(a, seed, (1, 2, 3, 5), PRIME_DENOMINATORS)
        assert _integer_tables(b.bracket)[0] > 2**64
        assert len(b.bracket) == len(a.bracket) < a.dim * a.dim
        yield seed, b


@pytest.mark.parametrize("index", range(len(SPARSE_LIE)))
def test_hr0_and_hl1_match_oracle_on_sparse_lie_algebras(index):
    for seed, b in sparse_bases(index):
        assert hr0(b) == oracle.hr0(b), seed
        assert hl1(b) == oracle.hl1(b), seed


@pytest.mark.parametrize("index", range(len(SPARSE_LIE)))
def test_hl2_and_h1_adjoint_match_oracle_on_sparse_lie_algebras(index):
    for seed, b in sparse_bases(index):
        assert hl2(b) == oracle.hl2(b), seed
        assert h1_adjoint(b) == oracle.h1_adjoint(b), seed


@settings(max_examples=60, deadline=None)
@given(basis_changed())
def test_dimensions_survive_change_of_basis(case):
    index, a = case
    for name, functor, _ in FUNCTORS:
        before, after = report_or_error(functor, stock(index)), report_or_error(functor, a)
        if before is NotInVarietyError:
            assert after is NotInVarietyError, name
        else:
            assert after.dimension == before.dimension, name


@pytest.mark.parametrize("index", range(len(ALGEBRAS)))
def test_reports_match_oracle_in_stock_basis(index):
    a = stock(index)
    for name, functor, reference in FUNCTORS:
        assert report_or_error(functor, a) == report_or_error(reference, a), name


@settings(max_examples=60, deadline=None)
@given(basis_changed())
def test_verify_verdicts_survive_change_of_basis(case):
    index, a = case
    before = stock(index)
    for variety in ("leibniz", "lie", "ronco", "symmetric-leibniz"):
        assert verify_variety(a, variety).ok == verify_variety(before, variety).ok, variety
    if verify_variety(before, "ronco").ok:
        for symmetric in (False, True):
            assert verify_mu(ronco_to_mu(a), symmetric).ok == verify_mu(ronco_to_mu(before), symmetric).ok
