"""The four homology functors and the variety checks under a random GL_n(ℚ)
change of basis: reports equal to the pre-refactor functors kept in
`homology_oracle`, and dimensions and `verify` verdicts equal to those of
the algebra in its stock basis."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homology_oracle as oracle
from roncoalg.errors import NotInVarietyError
from roncoalg.homology import h1_adjoint, hl1, hl2, hr0
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    StructureAlgebra,
    abelian,
    bracket_eval,
    cross_product,
    direct_sum,
    free_nil2,
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

SCALES = st.sampled_from([Fraction(c) for c in ("1", "-1", "2", "-1/3")])


@cache
def stock(index: int) -> StructureAlgebra:
    return ALGEBRAS[index]()


def inverse(p: list[list[Fraction]]) -> list[list[Fraction]]:
    """Dense Gauss–Jordan inverse; `p` is known to be invertible."""
    n = len(p)
    rows = [list(p[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@st.composite
def invertible(draw, n: int) -> list[list[Fraction]]:
    """A scaled permutation matrix followed by up to n shears
    (column x += c·column y), so the new basis stays fairly sparse."""
    perm = draw(st.permutations(range(n)))
    p = [[draw(SCALES) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, n))):
        x, y, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(SCALES)
        if x != y:
            for row in p:
                row[x] += c * row[y]
    return p


def change_basis(a: StructureAlgebra, p: list[list[Fraction]]) -> StructureAlgebra:
    """Structure constants in the basis e'_x = Σ_i p[i][x]·e_i."""
    n = a.dim
    p_inv = inverse(p)
    columns = [[p[i][x] for i in range(n)] for x in range(n)]
    table = {}
    for x in range(n):
        for y in range(n):
            w = bracket_eval(a, columns[x], columns[y])
            table[(x, y)] = {k: sum(p_inv[k][m] * w[m] for m in range(n)) for k in range(n)}
    return StructureAlgebra(n, table)


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
