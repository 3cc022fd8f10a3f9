"""Canonical JSON round-trips and input validation."""

import json
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basis_change import HEAVY_COEFFICIENTS, perfbench_workloads, seeded_truncation
import jsonio_oracle
from jsonio_oracle import algebra_to_obj, graded_kernel_text
from roncoalg.cli import MAX_BASIS_SIZE
from roncoalg import jsonio
from roncoalg.freelie import DEFAULT_MAX_DEGREE
from roncoalg.homology import HomologyReport, hr0
from roncoalg.jsonio import (
    dumps_algebra,
    dumps_canonical,
    dumps_graded_kernel,
    loads_algebra,
    obj_to_algebra,
    report_to_obj,
    ronco_element_to_obj,
    vectors_to_obj,
)
from roncoalg.linalg import parse_rational
from roncoalg.lincomb import LinComb
from roncoalg.ronco import (
    _graded_kernel,
    eval_term,
    graded_basis,
    graded_dim,
    graded_kernel_basis,
    key_sort_key,
    truncate_to_structure,
)
from roncoalg.structure import MuAlgebra, StructureAlgebra, free_nil2, ronco_to_mu
from roncoalg.terms import parse_term

GOLDEN_T12 = """\
{
  "dim": 2,
  "kind": "leibniz",
  "bracket": [
    {
      "i": 1,
      "j": 1,
      "c": [
        {
          "k": 2,
          "v": "1"
        }
      ]
    }
  ]
}
"""


def test_golden_dump():
    assert dumps_algebra(truncate_to_structure(1, 2)) == GOLDEN_T12


def test_round_trips():
    for x in (
        truncate_to_structure(1, 2),
        truncate_to_structure(2, 3),
        free_nil2(3),
        StructureAlgebra(0),
        ronco_to_mu(truncate_to_structure(2, 3)),
        MuAlgebra(2, lie_bracket={(0, 1): {0: Fraction(-1, 3)}, (1, 0): {0: Fraction(1, 3)}}),
    ):
        assert loads_algebra(dumps_algebra(x)) == x


def test_dump_is_insertion_order_independent():
    one = Fraction(1)
    a = StructureAlgebra(3, {(0, 1): {2: one}, (1, 0): {2: -one}})
    b = StructureAlgebra(3, {(1, 0): {2: -one}, (0, 1): {2: one}})
    assert dumps_algebra(a) == dumps_algebra(b)


def test_dumps_canonical_shape():
    assert dumps_canonical({"a": 1}) == '{\n  "a": 1\n}\n'
    obj = algebra_to_obj(ronco_to_mu(truncate_to_structure(1, 2)))
    assert obj["kind"] == "mu"
    assert obj["lie_bracket"] == []
    assert obj["product"] == [{"i": 1, "j": 1, "c": [{"k": 2, "v": "1"}]}]


LEIBNIZ_2 = {"dim": 2, "kind": "leibniz"}


def row(i, j, *entries):
    return {"i": i, "j": j, "c": [{"k": k, "v": v} for k, v in entries]}


# (object, the message it is refused with); the ids "obj0", "obj1", ... are
# pytest's own for the list of objects that first held these cases
MALFORMED = [
    ([], "algebra JSON must be an object"),
    ({"kind": "leibniz", "bracket": []}, '"dim" must be a nonnegative integer, got None'),
    ({"dim": -1, "kind": "leibniz", "bracket": []}, '"dim" must be a nonnegative integer, got -1'),
    ({"dim": "2", "kind": "leibniz", "bracket": []}, '"dim" must be a nonnegative integer, got \'2\''),
    ({"dim": 2}, '"kind" must be "leibniz" or "mu", got None'),
    ({"dim": 2, "kind": "lie", "bracket": []}, '"kind" must be "leibniz" or "mu", got \'lie\''),
    ({"dim": 2, "kind": "leibniz"}, 'kind "leibniz" requires a "bracket" key'),
    ({"dim": 2, "kind": "mu", "lie_bracket": []}, 'kind "mu" requires a "product" key'),
    ({**LEIBNIZ_2, "bracket": {}}, "bracket must be a list of rows"),
    ({**LEIBNIZ_2, "bracket": [{"i": 1, "j": 1}]}, "malformed row in bracket: {'i': 1, 'j': 1}"),
    ({**LEIBNIZ_2, "bracket": [row(1, 3)]}, "row index (1, 3) out of range 1..2"),
    ({**LEIBNIZ_2, "bracket": [row(0, 1)]}, "row index (0, 1) out of range 1..2"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1), row(1, 1)]}, "duplicate row (1, 1) in bracket"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, "1"), (2, "1"))]}, "duplicate entry k=2 in bracket row (1, 1)"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (3, "1"))]}, "entry index 3 out of range 1..2"),
    ({**LEIBNIZ_2, "bracket": [{"i": 1, "j": 1, "c": [{"k": 2}]}]},
     "malformed entry in bracket row (1, 1): {'k': 2}"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, "0.5"))]}, "not a rational literal: '0.5'"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, "1/0"))]}, "zero denominator in rational literal: '1/0'"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, 1))]}, "coefficient must be a rational string, got 1"),
    # non-ASCII digits: "٣" was read as 3 and written back as "3"
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, "٣"))]}, "not a rational literal: '٣'"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, "1/٣"))]}, "not a rational literal: '1/٣'"),
    # an entry list that is not a list; 5 and null once crashed the reader with a TypeError
    ({"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": 5}]},
     "entries of bracket row (1, 1) must be a list, got 5"),
    ({"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": None}]},
     "entries of bracket row (1, 1) must be a list, got None"),
    ({"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": "1"}]},
     "entries of bracket row (1, 1) must be a list, got '1'"),
    ({"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": {}}]},
     "entries of bracket row (1, 1) must be a list, got {}"),
    # zero values and empty cells are dropped, but still take their index
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (2, "0"), (2, "1"))]}, "duplicate entry k=2 in bracket row (1, 1)"),
    ({**LEIBNIZ_2, "bracket": [row(1, 1, (1, "1"), (2, "-0"), (2, "0/7"))]},
     "duplicate entry k=2 in bracket row (1, 1)"),
    ({**LEIBNIZ_2, "bracket": [row(1, 2), row(1, 2, (1, "1"))]}, "duplicate row (1, 2) in bracket"),
    ({**LEIBNIZ_2, "bracket": [row(2, 1, (1, "0/7")), row(1, 1), row(2, 1)]}, "duplicate row (2, 1) in bracket"),
    ({"dim": 2, "kind": "mu", "lie_bracket": [row(1, 2, (1, "0"))], "product": [row(1, 1, (1, "1/2 ")),
      row(2, 2, (1, 2))]}, "coefficient must be a rational string, got 2"),
]


@pytest.mark.parametrize("obj, message", MALFORMED, ids=[f"obj{n}" for n in range(len(MALFORMED))])
def test_rejects_malformed_algebra_objects(obj, message):
    with pytest.raises(ValueError) as exc:
        obj_to_algebra(obj)
    assert str(exc.value) == message


def test_zero_values_and_empty_cells_are_dropped():
    obj = {"dim": 2, "kind": "mu",
           "lie_bracket": [row(1, 2, (1, "0"), (2, " 1/2")), row(2, 1, (2, "-0"), (1, "0/7")), row(2, 2)],
           "product": [row(1, 1, (2, "2/4"), (1, "1/2 "))]}
    half = Fraction(1, 2)
    x = obj_to_algebra(obj)
    assert x == MuAlgebra(2, {(0, 1): {1: half}}, {(0, 0): {0: half, 1: half}})
    assert x.lie_bracket == {(0, 1): {1: half}}
    assert all(type(v) is Fraction for table in (x.lie_bracket, x.product)
               for cell in table.values() for v in cell.values())


def fresh(*values):
    """One of `values`, a new copy at each draw, since mutations edit drawn objects in place."""
    return st.sampled_from(values).map(deepcopy)


# Coefficient strings for the reader: zeros in three spellings, padded and
# unreduced spellings of one value; then strings that fail to parse, and
# values that are no strings at all.
VALUE_TEXTS = st.sampled_from(["0", "-0", "0/7", "1", "-1", "1/2", " 1/2", "1/2 ", "2/4", "-3/7", "10/6", "12"])
BAD_VALUES = fresh("", "0.5", "1/0", "1/-2", "+1", "٣", "1/٣", "x", 1, 0, -2, 1.5, True, None, [], {})
BAD_ROWS = fresh(None, 5, "row", [], {"i": 1, "j": 1}, {"i": 1, "c": []}, {"j": 1, "c": []})
BAD_ENTRIES = fresh(None, 3, "e", [2, "1"], {"k": 1}, {"v": "1"}, {})
TABLES = {"leibniz": ("bracket",), "mu": ("lie_bracket", "product")}
# the parts inside the tables, where most checks are, are drawn more often
MUTATIONS = ["dim", "kind", "drop-table", "table", "cells"] + 2 * ["row", "row-index", "duplicate-row", "entry",
                                                                  "entry-index", "duplicate-k", "value"]


def rows_of(dim: int):
    """Well-formed rows: distinct cells, distinct entries within a row,
    empty and all-zero rows included."""
    if not dim:
        return st.builds(list)
    index = st.integers(1, dim)
    entries = st.lists(st.fixed_dictionaries({"k": index, "v": VALUE_TEXTS}), max_size=dim,
                       unique_by=lambda e: e["k"])
    return st.lists(st.fixed_dictionaries({"i": index, "j": index, "c": entries}), max_size=2 * dim,
                    unique_by=lambda r: (r["i"], r["j"]))


@st.composite
def algebra_objects(draw):
    """A valid algebra object, or one with one to three mutations."""
    dim = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(sorted(TABLES)))
    obj = {"dim": dim, "kind": kind}
    for key in TABLES[kind]:
        obj[key] = draw(rows_of(dim))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3]))):
        mutate(draw, obj)
    return obj


def mutate(draw, obj: dict):
    """Break one part of `obj` in place; a part that is already gone is left alone."""
    dim = obj["dim"] if type(obj.get("dim")) is int and obj["dim"] > 0 else 1
    bad_index = fresh(0, -1, dim + 1, 10**6, True, False, 1.0, "1", None, [1])  # out of range, or no int
    keys = TABLES.get(obj.get("kind"), ())
    tables = [obj[key] for key in keys if isinstance(obj.get(key), list)]
    rows = [r for t in tables for r in t if isinstance(r, dict) and isinstance(r.get("c"), list)]
    entries = [e for r in rows for e in r["c"] if isinstance(e, dict)]
    what = draw(st.sampled_from(MUTATIONS))
    if what == "dim":
        obj["dim"] = draw(fresh(-1, 4, 10**6, "2", 2.0, True, None))
    elif what == "kind":
        obj["kind"] = draw(fresh("lie", "leibniz", "mu", None, 1))
    elif what == "drop-table" and keys:
        obj.pop(draw(st.sampled_from(keys)), None)
    elif what == "table" and keys:
        obj[draw(st.sampled_from(keys))] = draw(fresh({}, None, "[]", 3))
    elif what == "row" and tables:
        t = draw(st.sampled_from(tables))
        t.insert(draw(st.integers(0, len(t))), draw(BAD_ROWS))
    elif what == "row-index" and rows:
        draw(st.sampled_from(rows))[draw(st.sampled_from("ij"))] = draw(bad_index)
    elif what == "cells" and rows:
        draw(st.sampled_from(rows))["c"] = draw(fresh(None, 5, "1", {}, ()))
    elif what == "duplicate-row" and tables:
        # a cell written twice; the first may be empty or all zeros
        t = draw(st.sampled_from(tables))
        i, j = draw(st.integers(1, dim)), draw(st.integers(1, dim))
        first = draw(fresh([], [{"k": 1, "v": "0"}], [{"k": 1, "v": "-0"}, {"k": dim, "v": "0/7"}],
                           [{"k": 1, "v": "1/2"}]))
        second = draw(fresh([], [{"k": 1, "v": "1"}]))
        at = draw(st.integers(0, len(t)))
        t[at:at] = [{"i": i, "j": j, "c": first}, {"i": i, "j": j, "c": second}]
    elif what == "entry" and rows:
        c = draw(st.sampled_from(rows))["c"]
        c.insert(draw(st.integers(0, len(c))), draw(BAD_ENTRIES))
    elif what == "entry-index" and entries:
        draw(st.sampled_from(entries))["k"] = draw(bad_index)
    elif what == "duplicate-k" and rows:
        # an index given twice in a row; the first may hold a zero
        r = draw(st.sampled_from(rows))
        k = draw(st.sampled_from([e["k"] for e in r["c"] if isinstance(e, dict) and "k" in e] or [1]))
        r["c"][:0] = [{"k": k, "v": draw(st.sampled_from(["0", "-0", "0/7"]))}, {"k": k, "v": draw(VALUE_TEXTS)}]
    elif what == "value" and entries:
        draw(st.sampled_from(entries))["v"] = draw(BAD_VALUES | VALUE_TEXTS)


def outcome(read, obj):
    try:
        return read(obj)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=600, deadline=None)
@given(algebra_objects())
@example({"dim": 2, "kind": "leibniz", "bracket": [row(1, 1, (1, "0"), (1, "1"))]})
@example({"dim": 2, "kind": "leibniz", "bracket": [row(1, 1, (2, "-0")), row(1, 2), row(1, 1, (1, "1"))]})
@example({"dim": 2, "kind": "mu", "lie_bracket": [row(1, 2, (1, "0/7"))], "product": [row(1, 2), row(1, 2)]})
@example({"dim": 2, "kind": "mu", "lie_bracket": [row(1, 2, (1, " 1/2"), (2, "2/4"))],
          "product": [row(2, 1, (1, "1/2 "), (2, "0"))]})
@example({"dim": 2, "kind": "leibniz", "bracket": [row(1, 1, (1, None))]})
@example({"dim": 2, "kind": "leibniz", "bracket": [row(1, 1, (3, "1"))]})
def test_reader_matches_the_oracle(obj):
    # the same algebra, with values that are Fractions, or the same message
    got = outcome(obj_to_algebra, obj)
    assert got == outcome(jsonio_oracle.obj_to_algebra, obj)
    if not isinstance(got, str):
        tables = (got.bracket,) if isinstance(got, StructureAlgebra) else (got.lie_bracket, got.product)
        assert all(cell and all(type(v) is Fraction and v for v in cell.values())
                   for table in tables for cell in table.values())


def test_each_distinct_coefficient_string_is_parsed_once_per_load(monkeypatch):
    a = seeded_truncation(3, 4, 1)
    for text in (dumps_algebra(a), dumps_algebra(ronco_to_mu(a))):
        obj = json.loads(text)
        strings = [e["v"] for key in TABLES[obj["kind"]] for r in obj[key] for e in r["c"]]
        parsed = []
        monkeypatch.setattr(jsonio, "parse_rational", lambda s: parsed.append(s) or parse_rational(s))
        assert loads_algebra(text) == jsonio_oracle.obj_to_algebra(obj)
        assert sorted(parsed) == sorted(set(strings))
        assert len(parsed) < len(strings)


def test_ronco_element_to_obj():
    x = eval_term(parse_term("2*g1 - 1/2*[g1,g2]"), num_gens=2)
    assert ronco_element_to_obj(x, 2) == {
        "deg1": ["2", "0"],
        "higher": [["1", 2, "-1/2"]],
    }
    assert ronco_element_to_obj(LinComb(), 3) == {"deg1": ["0", "0", "0"], "higher": []}
    # higher-degree entries come out in graded order
    y = eval_term(parse_term("[[g1,g2],[g1,g3]]"), num_gens=3)
    obj = ronco_element_to_obj(y, 3)
    assert obj["deg1"] == ["0", "0", "0"]
    words = [entry[0] for entry in obj["higher"]]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_report_to_obj():
    report = HomologyReport(1, ((Fraction(1, 2), Fraction(0)),))
    assert report_to_obj(report) == {"dimension": 1, "representatives": [["1/2", "0"]]}
    obj = report_to_obj(hr0(free_nil2(2)))
    assert obj["dimension"] == 3
    assert len(obj["representatives"]) == 3
    assert all(len(vec) == 6 for vec in obj["representatives"])


def test_vectors_to_obj():
    assert vectors_to_obj([(Fraction(1), Fraction(-2, 3))]) == [["1", "-2/3"]]
    assert vectors_to_obj([]) == []


COEFFICIENTS = st.sampled_from([Fraction(c) for c in ("-2", "-1/2", "1/3", "1", "7/5")])


@st.composite
def sparse_tables(draw, dim: int, values=COEFFICIENTS) -> dict:
    if not dim:
        return {}
    index = st.integers(0, dim - 1)
    return draw(st.dictionaries(st.tuples(index, index),
                                st.dictionaries(index, values, min_size=1, max_size=3), max_size=2 * dim))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_algebras_dump_the_same_bytes_after_a_round_trip(data):
    dim = data.draw(st.integers(0, 6))
    for a in (StructureAlgebra(dim, data.draw(sparse_tables(dim))),
              MuAlgebra(dim, data.draw(sparse_tables(dim)), data.draw(sparse_tables(dim)))):
        text = dumps_algebra(a)
        assert dumps_algebra(loads_algebra(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([COEFFICIENTS, HEAVY_COEFFICIENTS]))
def test_ronco_element_to_obj_prints_format_rational(data, values):
    # the coefficients are printed with str, which is format_rational's text
    # for a Fraction and for an int
    d = data.draw(st.sampled_from([1, 2, 3, 10]))
    keys = [key for n in range(1, 5) for key in graded_basis(d, n)]
    coeffs = data.draw(st.dictionaries(st.sampled_from(keys), values, max_size=6))
    for x in (LinComb(coeffs), LinComb._of({k: int(c) for k, c in coeffs.items() if int(c)})):
        assert ronco_element_to_obj(x, d) == jsonio_oracle.ronco_element_to_obj(x, d)


def standard_library_bytes(x) -> str:
    return dumps_canonical(algebra_to_obj(x))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([COEFFICIENTS, HEAVY_COEFFICIENTS]))
def test_direct_writer_prints_the_standard_library_bytes(data, values):
    dim = data.draw(st.integers(0, 8))
    tables = [data.draw(sparse_tables(dim, values)) for _ in range(3)]
    for x in (StructureAlgebra(dim, tables[0]), MuAlgebra(dim, tables[1], tables[2]),
              MuAlgebra(dim, lie_bracket=tables[1]), MuAlgebra(dim, product=tables[2])):
        assert dumps_algebra(x) == standard_library_bytes(x)


def test_direct_writer_on_the_benchmark_inputs():
    # every truncation of the truncate-verify workload, in the stock basis
    # and in its seeded bases for seeds 1-10, and the mu split of each
    workloads = perfbench_workloads()
    for d, n in workloads.TRUNCATIONS:
        name = f"trunc-{d}-{n}"
        stock = truncate_to_structure(d, n)
        algebras = [stock]
        dim, table = workloads.parse_table(dumps_algebra(stock))
        for seed in range(1, 11):
            changed = workloads.change_basis(dim, table, workloads._rng("truncate-verify", seed, name))
            algebras.append(StructureAlgebra(dim, changed))
        for a in algebras:
            for x in (a, ronco_to_mu(a)):
                assert dumps_algebra(x) == standard_library_bytes(x)


# Every degree the graded-kernel command computes for up to 4 generators,
# within the degree cap and MAX_BASIS_SIZE (2 ≤ n ≤ 8; n ≤ 7 for d = 4);
# d = 1, n ≥ 3 has an empty kernel.  10 and 11 generators print words with dots.
GRADED_KERNELS = [(d, n) for d in range(1, 5) for n in range(2, DEFAULT_MAX_DEGREE + 1)
                  if graded_dim(d, n) <= MAX_BASIS_SIZE] + [(d, n) for d in (10, 11) for n in (2, 3)]


@pytest.mark.parametrize("d, n", GRADED_KERNELS)
def test_graded_kernel_writer_prints_the_standard_library_bytes(d, n):
    # the writer prints the integer kernel; the oracle, the library's Fractions
    keys, kernel = _graded_kernel(d, n)
    assert dumps_graded_kernel(n, keys, kernel, d) == graded_kernel_text(n, graded_kernel_basis(d, n), d)


def integer_kernel_of(elements: list) -> tuple[list, list]:
    """Sorted keys of some elements, and each element as (column, numerator,
    denominator) entries in column order: the writer's input."""
    keys = sorted({key for x in elements for key in x.keys()}, key=key_sort_key)
    column = {key: j for j, key in enumerate(keys)}
    return keys, [sorted((column[key], c.numerator, c.denominator) for key, c in x) for x in elements]


def test_graded_kernel_writer_on_an_empty_kernel_and_entries_not_in_lowest_terms():
    assert graded_kernel_basis(1, 3) == []
    assert dumps_graded_kernel(3, *_graded_kernel(1, 3), 1) == graded_kernel_text(3, [], 1) == (
        '{\n  "degree": 3,\n  "dimension": 0,\n  "basis": []\n}\n')
    # degree-2 elements with rational coefficients, and the zero element
    elements = [eval_term(parse_term(t), num_gens=11)
                for t in ("2*[g1,g2] - 1/2*[g1,g11]", "-3/7*[g10,g3] + 5*[g2,g1]", "0*[g1,g2]")]
    keys, kernel = integer_kernel_of(elements)
    assert dumps_graded_kernel(2, keys, kernel, 11) == graded_kernel_text(2, elements, 11)
    # every entry is written in lowest terms, integral or not
    scaled = [[(j, 6 * num, 6 * den) for j, num, den in vec] for vec in kernel]
    assert dumps_graded_kernel(2, keys, scaled, 11) == graded_kernel_text(2, elements, 11)
    keys, kernel = _graded_kernel(4, 5)
    scaled = [[(j, -10 * num, 10 * den) for j, num, den in vec] for vec in kernel]
    negated = [-x for x in graded_kernel_basis(4, 5)]
    assert dumps_graded_kernel(5, keys, scaled, 4) == graded_kernel_text(5, negated, 4)
