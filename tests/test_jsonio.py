"""Canonical JSON round-trips and input validation."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_change import HEAVY_COEFFICIENTS
import jsonio_oracle
from jsonio_oracle import algebra_to_obj, graded_kernel_text
from roncoalg.cli import MAX_BASIS_SIZE
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
from roncoalg.lincomb import LinComb
from roncoalg.ronco import eval_term, graded_basis, graded_dim, graded_kernel_basis, truncate_to_structure
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


@pytest.mark.parametrize("obj", [
    [],
    {"kind": "leibniz", "bracket": []},
    {"dim": -1, "kind": "leibniz", "bracket": []},
    {"dim": "2", "kind": "leibniz", "bracket": []},
    {"dim": 2},
    {"dim": 2, "kind": "lie", "bracket": []},
    {"dim": 2, "kind": "leibniz"},
    {"dim": 2, "kind": "mu", "lie_bracket": []},
    {"dim": 2, "kind": "leibniz", "bracket": {}},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 3, "c": []}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 0, "j": 1, "c": []}]},
    {"dim": 2, "kind": "leibniz",
     "bracket": [{"i": 1, "j": 1, "c": []}, {"i": 1, "j": 1, "c": []}]},
    {"dim": 2, "kind": "leibniz",
     "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "1"}, {"k": 2, "v": "1"}]}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 3, "v": "1"}]}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2}]}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "0.5"}]}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "1/0"}]}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": 1}]}]},
    # non-ASCII digits: "٣" was read as 3 and written back as "3"
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "٣"}]}]},
    {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "1/٣"}]}]},
    # an entry list that is not a list; 5 and null once crashed the reader with a TypeError
    {"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": 5}]},
    {"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": None}]},
    {"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": "1"}]},
    {"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": {}}]},
])
def test_rejects_malformed_algebra_objects(obj):
    with pytest.raises(ValueError):
        obj_to_algebra(obj)


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


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_direct_writer_on_the_benchmark_inputs():
    # every truncation of the truncate-verify workload, in the stock basis
    # and in its seeded bases for seeds 1-10, and the mu split of each
    workloads = _perfbench_workloads()
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
    basis = graded_kernel_basis(d, n)
    assert dumps_graded_kernel(n, basis, d) == graded_kernel_text(n, basis, d)


def test_graded_kernel_writer_on_empty_and_degree_one_parts():
    assert graded_kernel_basis(1, 3) == []
    assert dumps_graded_kernel(3, [], 1) == graded_kernel_text(3, [], 1) == (
        '{\n  "degree": 3,\n  "dimension": 0,\n  "basis": []\n}\n')
    # the writer takes any elements: a degree-1 part, no higher part, the zero element
    elements = [eval_term(parse_term(t), num_gens=11) for t in ("2*g1 - 1/2*[g1,g11]", "-3/7*g10", "0*g2")]
    assert dumps_graded_kernel(2, elements, 11) == graded_kernel_text(2, elements, 11)
