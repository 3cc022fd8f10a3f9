"""Each algebra's integer form, (D, its tables times D), made once per algebra.

The JSON reader and the conversions give an algebra its form alone, and its
Fraction tables are made from it when first read.  These properties hold
that lazy record to the oracles: the reader that built Fraction tables
(`jsonio_oracle`), the standard library's encoder, the per-call
`_integer_tables`, and the Fraction conversions of `structure_oracle`.  The
algebras are drawn at random, and in random GL_n(ℚ) and signed-permutation
bases of stock algebras, with denominators past 2⁶⁴.
"""

import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import free_oracle
import jsonio_oracle
import structure_oracle
from basis_change import HEAVY_COEFFICIENTS, change_basis, invertible, signed_permutation_and_scaling
from roncoalg.jsonio import dumps_algebra, dumps_canonical, loads_algebra
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    MuAlgebra,
    StructureAlgebra,
    _integer_tables,
    cross_product,
    direct_sum,
    free_nil2,
    mu_to_ronco,
    ronco_to_mu,
)

# Mersenne primes past 2⁶⁴, so that D and the scaled values span several machine words
PRIME_DENOMINATORS = (2**89 - 1, 2**107 - 1, 2**127 - 1)
HUGE_COEFFICIENTS = st.builds(Fraction, st.integers(-2**70, 2**70).filter(bool),
                              st.sampled_from((1, 3) + PRIME_DENOMINATORS))
VALUES = st.sampled_from([HEAVY_COEFFICIENTS, HUGE_COEFFICIENTS,
                          st.sampled_from([Fraction(c) for c in ("-2", "-1/2", "1/3", "1")])])

# stock square-identity algebras (each is Leibniz with [[x,x],y] = 0)
STOCK = (
    lambda: truncate_to_structure(2, 3),
    lambda: truncate_to_structure(3, 2),
    lambda: free_nil2(3),
    cross_product,
    lambda: direct_sum(truncate_to_structure(2, 2), cross_product()),
)


def fields(x) -> tuple:
    return (x.bracket,) if isinstance(x, StructureAlgebra) else (x.lie_bracket, x.product)


@st.composite
def sparse_table(draw, dim: int, values) -> dict:
    if not dim:
        return {}
    index = st.integers(0, dim - 1)
    return draw(st.dictionaries(st.tuples(index, index), st.dictionaries(index, values, min_size=1, max_size=3),
                                max_size=2 * dim))


@st.composite
def random_algebras(draw):
    """A StructureAlgebra or MuAlgebra with random sparse tables."""
    dim, values = draw(st.integers(0, 6)), draw(VALUES)
    if draw(st.booleans()):
        return StructureAlgebra(dim, draw(sparse_table(dim, values)))
    return MuAlgebra(dim, draw(sparse_table(dim, values)), draw(sparse_table(dim, values)))


@st.composite
def changed_bases(draw):
    """A stock algebra in a GL_n(ℚ) basis, or in a signed-permutation basis
    scaled by p/q with q past 2⁶⁴."""
    a = draw(st.sampled_from(STOCK))()
    if draw(st.booleans()):
        return change_basis(a, draw(invertible(a.dim)))
    return signed_permutation_and_scaling(a, draw(st.integers(0, 10**6)), (1, 2, 3, 5), PRIME_DENOMINATORS)


def check_lazy_record(made, oracle):
    """`made` has its integer form only; it must equal `oracle`, a record
    built from Fraction tables, in every way a caller can see."""
    scale, tables = made._form
    assert all(type(v) is int and v for table in tables for cell in table.values() for v in cell.values())
    assert all(cell for table in tables for cell in table.values())
    assert [{key: {k: Fraction(v, scale) for k, v in cell.items()} for key, cell in table.items()}
            for table in tables] == list(fields(oracle))
    assert dumps_algebra(made) == dumps_canonical(jsonio_oracle.algebra_to_obj(oracle))
    text = pickle.dumps(made)  # reads the tables
    made_tables = fields(made)
    assert made_tables == fields(oracle) and made._form == (scale, tables)
    assert all(type(v) is Fraction and v for table in made_tables for cell in table.values() for v in cell.values())
    cells = [cell for table in made_tables for cell in table.values()]
    assert len({id(cell) for cell in cells}) == len(cells)  # no two cells share a dict
    assert fields(made) is not made_tables and all(a is b for a, b in zip(fields(made), made_tables))  # made once
    assert made == oracle
    assert pickle.dumps(made) == text and pickle.loads(text) == oracle
    with pytest.raises(TypeError):
        hash(made)


def read(x) -> tuple:
    """(`x` read back from its standard-library text, the oracle reader's algebra)."""
    text = dumps_canonical(jsonio_oracle.algebra_to_obj(x))
    return loads_algebra(text), jsonio_oracle.obj_to_algebra(json.loads(text))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_algebras(), changed_bases()))
def test_a_read_algebra_is_the_oracle_readers(x):
    made, oracle = read(x)
    assert made._form == _integer_tables(*fields(oracle))  # D is the lcm of the denominators
    check_lazy_record(made, oracle)
    assert made == x and repr(made) == repr(oracle)  # the cells in the order of the rows


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_algebras(), changed_bases()))
def test_repr_equality_and_pickle_do_not_depend_on_when_the_tables_are_read(x):
    oracle = read(x)[1]
    first = [read(x)[0] for _ in range(3)]  # no table read yet
    seen = repr(first[0]), first[1] == oracle, pickle.dumps(first[2])
    later = read(x)[0]
    fields(later)  # the tables are made
    assert (repr(later), later == oracle, pickle.dumps(later)) == seen
    assert seen[:2] == (repr(oracle), True)


@settings(max_examples=100, deadline=None)
@given(changed_bases(), st.booleans())
def test_conversions_are_the_oracle_conversions(a, from_json):
    if from_json:
        a = read(a)[0]
    mu = ronco_to_mu(a)
    mu_oracle = structure_oracle.split_bracket_by_halves(a)
    check_lazy_record(mu, mu_oracle)
    for m in (mu, read(mu)[0]):
        back = mu_to_ronco(m)
        check_lazy_record(back, structure_oracle.recombine_by_scaling(mu_oracle))
        assert back == a


def test_the_reader_takes_d_over_the_values_in_lowest_terms():
    # "2/4" and "-3/9" are 1/2 and -1/3, so D is 6, not 36; "0/5" is dropped
    text = json.dumps({"dim": 2, "kind": "leibniz", "bracket": [
        {"i": 1, "j": 1, "c": [{"k": 1, "v": "2/4"}, {"k": 2, "v": "0/5"}]},
        {"i": 1, "j": 2, "c": [{"k": 2, "v": "-3/9"}]},
    ]})
    made = loads_algebra(text)
    assert made._form == (6, [{(0, 0): {0: 3}, (0, 1): {1: -2}}])
    assert made.bracket == {(0, 0): {0: Fraction(1, 2)}, (0, 1): {1: Fraction(-1, 3)}}


def test_a_lazy_record_has_no_other_attribute():
    made = loads_algebra(dumps_algebra(free_nil2(2)))
    with pytest.raises(AttributeError, match="'StructureAlgebra' object has no attribute 'product'"):
        made.product
    assert not hasattr(made, "lie_bracket") and hasattr(made, "bracket")


@pytest.mark.parametrize("d, n", [(1, 3), (2, 4), (3, 3), (4, 2)])
def test_stock_constructions_are_made_in_their_integer_form(d, n):
    # truncations and free 2-step nilpotent algebras have integral structure
    # constants, so they are built as their form over D = 1
    made, oracle = truncate_to_structure(d, n), free_oracle.truncate_to_structure(d, n)
    assert made._form == (1, [{key: {k: int(v) for k, v in cell.items()} for key, cell in oracle.bracket.items()}])
    check_lazy_record(made, oracle)
    wedges = {(i, j): i * d - i * (i + 1) // 2 + j - i - 1 for i in range(d) for j in range(i + 1, d)}
    oracle = StructureAlgebra(d + len(wedges), {(a, b): {d + w: Fraction(s)} for (i, j), w in wedges.items()
                                                for a, b, s in ((i, j, 1), (j, i, -1))})
    check_lazy_record(free_nil2(d), oracle)
    assert free_nil2(d)._form[0] == 1
