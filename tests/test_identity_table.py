"""The table-driven identity checks and the sparse conversions, compared
report for report with the dense loops kept in `structure_oracle`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from basis_change import HEAVY_COEFFICIENTS, change_basis, invertible
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    MuAlgebra,
    StructureAlgebra,
    _ann_span,
    _row,
    cross_product,
    free_nil2,
    mu_to_ronco,
    ronco_to_mu,
    verify_mu,
    verify_variety,
)

ONE = Fraction(1)
VARIETIES = ("leibniz", "lie", "ronco", "symmetric-leibniz")
COEFFICIENTS = st.sampled_from([Fraction(c) for c in ("-2", "-1", "-1/2", "1/3", "1", "3/2")])


@st.composite
def tables(draw, keys: range, values: range, symmetry=st.sampled_from([0, 1, -1]),
           coefficients=COEFFICIENTS):
    """A sparse table with cells (i, j) over `keys` and entries over `values`.

    symmetry 1 or -1 makes the table symmetric or antisymmetric, so that
    some of the identities hold and others fail.
    """
    if not keys or not values:
        return {}
    cells = st.dictionaries(st.sampled_from(values), coefficients, min_size=1, max_size=2)
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    table = draw(st.dictionaries(pairs, cells, max_size=2 * len(keys)))
    sign = draw(symmetry)
    if sign:
        for (i, j), cell in list(table.items()):
            table[(j, i)] = cell if i == j else {k: sign * v for k, v in cell.items()}
    return table


def exact(report):
    """The report, after checking that every residual entry is a Fraction
    (`==` cannot tell the int 0 from Fraction(0))."""
    assert all(type(v) is Fraction for violation in report.violations for v in violation.residual)
    return report


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([COEFFICIENTS, HEAVY_COEFFICIENTS]))
def test_verify_variety_matches_oracle(data, coefficients):
    dim = data.draw(st.integers(1, 5))
    a = StructureAlgebra(dim, data.draw(tables(range(dim), range(dim), coefficients=coefficients)))
    for variety in VARIETIES:
        assert exact(verify_variety(a, variety)) == oracle.verify_variety(a, variety)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.sampled_from([COEFFICIENTS, HEAVY_COEFFICIENTS]))
def test_verify_mu_matches_oracle(data, symmetric, coefficients):
    dim = data.draw(st.integers(1, 5))
    m = MuAlgebra(dim, data.draw(tables(range(dim), range(dim), st.sampled_from([0, -1]), coefficients)),
                  data.draw(tables(range(dim), range(dim), st.sampled_from([0, 1]), coefficients)))
    assert exact(verify_mu(m, symmetric)) == oracle.verify_mu(m, symmetric)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([COEFFICIENTS, HEAVY_COEFFICIENTS]))
def test_conversions_match_oracle(data, coefficients):
    # brackets of the first `low` basis vectors land in the rest, which
    # brackets to zero: a 2-step nilpotent Leibniz algebra, so in 'ronco'
    dim = data.draw(st.integers(1, 5))
    low = data.draw(st.integers(0, dim))
    a = StructureAlgebra(dim, data.draw(tables(range(low), range(low, dim), coefficients=coefficients)))
    m = ronco_to_mu(a)
    assert m == oracle.split_bracket(a) == oracle.split_bracket_by_halves(a)
    assert mu_to_ronco(m) == oracle.recombine(m) == oracle.recombine_by_scaling(m) == a
    # the conversions adopt the tables they build, which hold only Fractions
    assert all(type(v) is Fraction for table in (m.lie_bracket, m.product, mu_to_ronco(m).bracket)
               for cell in table.values() for v in cell.values())
    assert _ann_span(a).basis() == oracle.ann_span(a).basis()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_conversions_match_the_scaled_passes_after_a_change_of_basis(data):
    # a 2-step nilpotent algebra or a truncation of the free square-identity
    # algebra, with heavy coefficients, in a random basis of GL_n(ℚ)
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 5))
        low = data.draw(st.integers(0, dim))
        table = data.draw(tables(range(low), range(low, dim), coefficients=HEAVY_COEFFICIENTS))
        a = StructureAlgebra(dim, table)
    else:
        a = truncate_to_structure(*data.draw(st.sampled_from([(1, 2), (2, 2), (1, 4), (2, 3)])))
    a = change_basis(a, data.draw(invertible(a.dim)))
    m = ronco_to_mu(a)
    assert m == oracle.split_bracket_by_halves(a)
    assert mu_to_ronco(m) == oracle.recombine_by_scaling(m) == a


def test_row_rejects_a_mix_of_cells_and_nested_monomials():
    # the evaluator divides a cell row by D and a nested row by D²
    with pytest.raises(ValueError, match="mixes cell monomials with nested ones"):
        _row("mixed", "+b(i,j) -b(i,b(i,j))")
    assert _row("cells", "+b(i,j) +b(j,i)")[0] == "cells"


def test_stock_algebras_match_oracle():
    algebras = [free_nil2(3), cross_product(), StructureAlgebra(2)]
    algebras += [truncate_to_structure(g, d) for g, d in ((1, 2), (2, 2), (2, 3), (1, 4))]
    for a in algebras:
        for variety in VARIETIES:
            assert exact(verify_variety(a, variety)) == oracle.verify_variety(a, variety)
        m = oracle.split_bracket(a)
        for symmetric in (False, True):
            assert exact(verify_mu(m, symmetric)) == oracle.verify_mu(m, symmetric)


def listing(report):
    return [(v.axiom, v.indices) for v in report.violations]


def test_repeated_variable_axioms():
    # [e1,e1] = e2 and [e2,e1] = e1: [[e1,e1],e1] = e1
    a = StructureAlgebra(2, {(0, 0): {1: ONE}, (1, 0): {0: ONE}})
    report = verify_variety(a, "ronco")
    assert report == oracle.verify_variety(a, "ronco")
    assert [v for v in listing(report) if v[0] == "square-bracket"] == [("square-bracket", (1, 1))]
    report = verify_variety(a, "lie")
    assert report == oracle.verify_variety(a, "lie")
    assert [v for v in listing(report) if v[0] == "alternating"] == [("alternating", (1,))]
    # {e1,e2} = e3 and e1·e3 = e4: e1{e1,e2} = e4
    m = MuAlgebra(4, lie_bracket={(0, 1): {2: ONE}, (1, 0): {2: -ONE}},
                  product={(0, 2): {3: ONE}, (2, 0): {3: ONE}})
    report = verify_mu(m)
    assert report == oracle.verify_mu(m)
    assert [v for v in listing(report) if v[0] == "skew-action"] == [("skew-action", (1, 2))]


def test_triple_product_violations_interleave_per_tuple():
    # e1·e1 = e2 and e2·e1 = e1
    m = MuAlgebra(2, product={(0, 0): {1: ONE}, (1, 0): {0: ONE}})
    report = verify_mu(m)
    assert report == oracle.verify_mu(m)
    assert [v for v in listing(report) if v[0].startswith("triple-product")] == [
        ("triple-product-left", (1, 1, 1)),
        ("triple-product-right", (1, 2, 1)),
        ("triple-product-left", (2, 1, 1)),
        ("triple-product-right", (2, 2, 1)),
    ]
