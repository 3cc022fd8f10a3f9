"""The table-driven identity checks and the sparse conversions, compared
report for report with the dense loops kept in `structure_oracle`, and
with the candidate-tuple evaluator kept there, also past the dense loops'
reach; the cases where the row-by-row check filters, sorts or refuses."""

import functools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from basis_change import HEAVY_COEFFICIENTS, change_basis, invertible, signed_permutation_and_scaling
from roncoalg.errors import NotInVarietyError
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


# algebras past the dense oracle's reach, dimensions 10 to 21
LARGE = [("truncate", 2, 4), ("truncate", 3, 3), ("truncate", 2, 5),
         ("free_nil2", 4), ("free_nil2", 5), ("free_nil2", 6)]


@functools.cache
def large(recipe: tuple) -> StructureAlgebra:
    return truncate_to_structure(*recipe[1:]) if recipe[0] == "truncate" else free_nil2(recipe[1])


def perturbed(data, dim: int, table: dict) -> dict:
    """`table` with one entry moved by a nonzero amount, so that rows fail."""
    i, j, k = (data.draw(st.integers(0, dim - 1)) for _ in range(3))
    out = {key: dict(cell) for key, cell in table.items()}
    cell = out.setdefault((i, j), {})
    cell[k] = cell.get(k, 0) + data.draw(COEFFICIENTS)
    return out


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_rows_checked_whole_match_the_candidate_tuples_past_the_dense_reach(data):
    # a ronco algebra in a random basis (GL_n(ℚ) up to dimension 12, the
    # benchmark's signed permutation and scaling beyond: GL_n fills the
    # table), then one perturbed cell; its μ split, with one perturbed cell
    a = large(data.draw(st.sampled_from(LARGE)))
    if a.dim <= 12 and data.draw(st.booleans()):
        a = change_basis(a, data.draw(invertible(a.dim)))
    else:
        a = signed_permutation_and_scaling(a, data.draw(st.integers(0, 2**32)), (1, 2, 3, 5), (1, 2, 3, 7))
    m = ronco_to_mu(a)
    a = StructureAlgebra(a.dim, perturbed(data, a.dim, a.bracket))
    for variety in VARIETIES:
        assert exact(verify_variety(a, variety)) == oracle.candidate_verify_variety(a, variety)
    if data.draw(st.booleans()):
        m = MuAlgebra(m.dim, perturbed(data, m.dim, m.lie_bracket), m.product)
    else:
        m = MuAlgebra(m.dim, m.lie_bracket, perturbed(data, m.dim, m.product))
    for symmetric in (False, True):
        assert exact(verify_mu(m, symmetric)) == oracle.candidate_verify_mu(m, symmetric)


def same_as_the_oracles(report, algebra, *args):
    """`report`, after checking it equals both oracles' reports."""
    if isinstance(algebra, MuAlgebra):
        assert exact(report) == oracle.candidate_verify_mu(algebra, *args) == oracle.verify_mu(algebra, *args)
    else:
        assert exact(report) == oracle.candidate_verify_variety(algebra, *args) == oracle.verify_variety(algebra, *args)
    return report


def test_two_rows_of_one_group_fail_at_the_same_tuple():
    # e1·e1 = e1: e1·(e1·e1) and (e1·e1)·e1 are both e1, reported in row order
    m = MuAlgebra(1, product={(0, 0): {0: ONE}})
    assert listing(same_as_the_oracles(verify_mu(m), m)) == [
        ("triple-product-right", (1, 1, 1)), ("triple-product-left", (1, 1, 1))]


def test_a_later_group_fails_at_an_earlier_tuple():
    # [e1,e1] = e2 and [e2,e2] = e2: every Leibniz violation comes before the
    # alternating ones, though (1,) sorts before each Leibniz tuple
    a = StructureAlgebra(2, {(0, 0): {1: ONE}, (1, 1): {1: ONE}})
    assert listing(same_as_the_oracles(verify_variety(a, "lie"), a, "lie")) == [
        ("leibniz", (1, 1, 2)), ("leibniz", (1, 2, 1)), ("leibniz", (2, 1, 1)), ("leibniz", (2, 2, 2)),
        ("alternating", (1,)), ("alternating", (2,))]


FILTERED_FIRST_MONOMIALS = {
    # axiom: (algebra, verify arguments, the tuples it fails at); in each, the
    # first monomial's family has values at tuples the row must not read
    "antisymmetry": (StructureAlgebra(3, {(0, 1): {2: ONE}, (1, 0): {2: -ONE}, (0, 2): {1: ONE}, (2, 0): {1: ONE}}),
                     ("lie",), [(1, 3)]),
    "commutative": (MuAlgebra(4, product={(0, 1): {3: ONE}, (1, 0): {3: ONE}, (0, 2): {3: ONE}, (2, 0): {3: -ONE}}),
                    (), [(1, 3)]),
    "alternating": (StructureAlgebra(3, {(0, 1): {2: ONE}, (1, 0): {2: -ONE}, (1, 1): {0: ONE}}),
                    ("lie",), [(2,)]),
    "square-bracket": (StructureAlgebra(3, {(0, 1): {2: ONE}, (0, 0): {2: ONE}, (2, 0): {1: ONE}}),
                       ("ronco",), [(1, 1)]),
    "skew-action": (MuAlgebra(4, lie_bracket={(0, 1): {2: ONE}, (1, 0): {2: -ONE}},
                              product={(0, 2): {3: ONE}, (2, 0): {3: ONE}, (1, 2): {3: ONE}, (2, 1): {3: ONE}}),
                    (), [(1, 2), (2, 1)]),
}


@pytest.mark.parametrize("axiom", sorted(FILTERED_FIRST_MONOMIALS))
def test_first_monomials_that_need_filtering(axiom):
    algebra, args, tuples = FILTERED_FIRST_MONOMIALS[axiom]
    report = verify_mu(algebra) if isinstance(algebra, MuAlgebra) else verify_variety(algebra, *args)
    assert [t for name, t in listing(same_as_the_oracles(report, algebra, *args)) if name == axiom] == tuples


def test_conversions_refuse_with_the_report_that_verify_gives():
    a = StructureAlgebra(2, {(0, 0): {1: ONE}, (1, 0): {0: ONE}})
    m = MuAlgebra(2, product={(0, 0): {1: ONE}, (1, 0): {0: ONE}})
    for convert, report in ((ronco_to_mu, verify_variety(a, "ronco")), (mu_to_ronco, verify_mu(m))):
        with pytest.raises(NotInVarietyError) as info:
            convert(a if convert is ronco_to_mu else m)
        assert not report.ok
        assert info.value.report == report


def test_an_empty_algebra_of_dimension_100000_verifies_at_once():
    a, m = StructureAlgebra(100_000), MuAlgebra(100_000)
    start = time.perf_counter()
    reports = [verify_variety(a, variety) for variety in VARIETIES] + [verify_mu(m, s) for s in (False, True)]
    assert ronco_to_mu(a) == m and mu_to_ronco(m) == a
    assert time.perf_counter() - start < 1
    assert all(report.ok for report in reports)
