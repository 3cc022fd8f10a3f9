"""The reduced-echelon engine of `roncoalg.linalg`, compared result for
result with the fraction-free elimination kept in `linalg_oracle`."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from roncoalg.linalg import SpanBuilder, SparseMatrix, _dense, quotient_dim, rank, rank_and_kernel

COEFFICIENTS = st.sampled_from([Fraction(c) for c in ("-3", "-1", "-1/2", "1/3", "1", "2", "5/4")])


@st.composite
def matrices(draw):
    """Sparse rational matrices up to 8×7, with zero rows and with
    duplicate, scaled and summed copies of earlier rows; 0×n and n×0 too."""
    cols = draw(st.integers(0, 7))
    row = st.dictionaries(st.integers(0, cols - 1), COEFFICIENTS, max_size=cols) if cols else st.just({})
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2)]))
        combined = {j: first.get(j, 0) + c * second.get(j, 0) for j in first.keys() | second.keys()}
        rows.insert(draw(st.integers(0, len(rows))), combined)
    return SparseMatrix.from_row_dicts(rows, cols)


def dense_rows(m: SparseMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


def test_degenerate_shapes_match_oracle():
    for m in (SparseMatrix(0, 0, {}), SparseMatrix(0, 4, {}), SparseMatrix(4, 0, {}),
              SparseMatrix(3, 3, {})):
        assert rank(m) == oracle.rank(m)
        assert rank_and_kernel(m) == oracle.rank_and_kernel(m)
        assert quotient_dim(m.cols, dense_rows(m)) == oracle.quotient_dim(m.cols, dense_rows(m))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_kernel_and_quotient_match_oracle(m):
    assert rank(m) == oracle.rank(m)
    assert rank_and_kernel(m) == oracle.rank_and_kernel(m)
    t = m.transpose()
    assert rank_and_kernel(t) == oracle.rank_and_kernel(t)
    rows = dense_rows(m)
    assert quotient_dim(m.cols, rows) == oracle.quotient_dim(m.cols, rows)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_span_builder_matches_oracle(m, data):
    span, reference = SpanBuilder(m.cols), oracle.SpanBuilder(m.cols)
    for row in m.row_dicts():
        assert span.add(row) == reference.add(row)
        assert span.rank == reference.rank
    assert span.basis() == reference.basis()
    assert span.pivot_columns() == reference.pivot_columns()
    assert [_dense(m.cols, vec) for vec in span.kernel()] == oracle.rank_and_kernel(m)[1]
    if m.cols:
        probe = data.draw(st.dictionaries(st.integers(0, m.cols - 1), COEFFICIENTS))
        assert span.reduce(probe) == reference.reduce(probe)
        assert span.contains(probe) == reference.contains(probe)


# The engine keeps `int` and `Fraction` entries as given and indexes the
# rows that hold each column; `oracle.FractionSpanBuilder` is the engine
# from before, which made every entry a Fraction and scanned every row.
INTS = st.sampled_from([-6, -3, -2, -1, 1, 2, 3, 7])
FRACTIONS = st.sampled_from([Fraction(c) for c in ("-3", "-2", "-1", "-1/2", "1/3", "1", "2", "5/4")])
NUMBERS = {"int": INTS, "Fraction": FRACTIONS, "mixed": INTS | FRACTIONS}
SCALES = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), Fraction(3)])


def as_dict(vec) -> dict:
    return dict(vec) if isinstance(vec, dict) else dict(enumerate(vec))


def vectors(dim: int, entry):
    """Vectors of length `dim`: sparse dicts (explicit zeros allowed) or dense lists."""
    if not dim:
        return st.just({}) | st.just([])
    return (st.dictionaries(st.integers(0, dim - 1), entry | st.just(0), max_size=dim)
            | st.lists(entry | st.just(0), min_size=dim, max_size=dim))


@st.composite
def vector_lists(draw, max_dim=7, max_vectors=6):
    """(dim, vectors) with int, Fraction or mixed entries; then repeated,
    scaled and combined copies of earlier vectors, some of which cancel to
    zero."""
    dim = draw(st.integers(0, max_dim))
    entry = NUMBERS[draw(st.sampled_from(sorted(NUMBERS)))]
    found = draw(st.lists(vectors(dim, entry), max_size=max_vectors))
    for _ in range(draw(st.integers(0, 4)) if found else 0):
        first, second = as_dict(draw(st.sampled_from(found))), as_dict(draw(st.sampled_from(found)))
        c = draw(SCALES)
        combined = {j: first.get(j, 0) + c * second.get(j, 0) for j in first.keys() | second.keys()}
        if draw(st.booleans()):
            combined = [combined.get(j, 0) for j in range(dim)]
        found.insert(draw(st.integers(0, len(found))), combined)
    return dim, found


def assert_exact(values):
    for v in values:
        assert type(v) is Fraction, (type(v), v)


def assert_same_span(span, reference, probes):
    assert span.rank == reference.rank
    assert span.pivot_columns() == reference.pivot_columns()
    rows = span.rows()
    assert rows == reference.rows()
    kernel = span.kernel()
    assert [list(vec.items()) for vec in kernel] == [list(vec.items()) for vec in reference.kernel()]
    basis = span.basis()
    assert basis == reference.basis()
    for row in rows + kernel:
        assert_exact(row.values())
    for vec in basis:
        assert_exact(vec)
    for probe in probes:
        residual = span.reduce(probe)
        assert residual == reference.reduce(probe)
        assert_exact(residual.values())
        assert span.contains(probe) == reference.contains(probe)


def build_both(dim, vectors):
    span, reference = SpanBuilder(dim), oracle.FractionSpanBuilder(dim)
    for vec in vectors:
        assert span.add(vec) == reference.add(vec)
        assert span.rank == reference.rank
    return span, reference


@settings(max_examples=300, deadline=None)
@given(vector_lists(), st.data())
def test_span_builder_matches_the_fraction_engine(drawn, data):
    dim, added = drawn
    span, reference = build_both(dim, added)
    probes = data.draw(st.lists(vectors(dim, NUMBERS["mixed"]), max_size=3))
    assert_same_span(span, reference, probes + added[:2])


@settings(max_examples=100, deadline=None)
@given(vector_lists(max_dim=12, max_vectors=14))
def test_span_builder_matches_the_fraction_engine_with_fill_in(drawn):
    """Wider spans, so that back-substitution fills in columns the index
    did not list for a row when it was added."""
    dim, added = drawn
    span, reference = build_both(dim, added)
    assert_same_span(span, reference, added[:3])


FLOATS = st.sampled_from([0.0, 0.5, -2.0, 0.25, 3.0, -0.75])
BOOLS = st.booleans()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_float_and_bool_entries_go_through_fraction(dim, data):
    entry = data.draw(st.sampled_from([FLOATS, BOOLS, FLOATS | BOOLS | INTS]))
    rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=6))
    span, reference = build_both(dim, rows)
    assert quotient_dim(dim, rows) == dim - reference.rank
    assert_same_span(span, reference, rows[:2])


def test_span_builder_hands_out_fractions_for_integral_input():
    """An integral span with unit leads keeps its entries as ints inside;
    every value handed out is still a Fraction."""
    span, reference = build_both(4, [{0: 1, 1: 2, 3: -1}, [0, 1, 3, 0], {0: 1, 1: 3, 2: 3, 3: -1}])
    assert span.rank == 2
    assert_same_span(span, reference, [{2: 5}, [1, 0, 0, 0], {1: 1, 3: 2}])
    assert span.rows() == [{0: 1, 2: -6, 3: -1}, {1: 1, 2: 3}]


# The engine keeps its rows as int numerators over one denominator;
# `oracle.MixedSpanBuilder` is the engine from before, which kept int and
# Fraction entries as given and divided each row by its lead.  Heights run
# up to 2**80, so that gcds and lcms work on multi-word integers.
BIG = 2**80
HEIGHTS = st.integers(-BIG, BIG) | st.sampled_from([-3, -2, -1, 1, 2, 3, 6])
ENTRIES = (HEIGHTS
           | st.builds(Fraction, HEIGHTS, st.integers(1, BIG) | st.sampled_from([2, 3, 4, 9]))
           | st.sampled_from([0.5, -0.25, 3.0, -2.0, 0.0]) | st.booleans() | st.just(0))
EXACT_SCALES = st.sampled_from([Fraction(c) for c in ("-2", "-1", "1/3", "1", "3/2", "7")])
QUERIES = ("rows", "basis", "kernel", "integer_kernel", "pivot_columns", "rank")


def drawn_vector(data, dim, added):
    """A fresh vector (sparse or dense), or a combination of vectors added
    so far, so that some probes lie in the span and some adds enlarge
    nothing."""
    if added and data.draw(st.booleans()):
        picked = data.draw(st.lists(st.sampled_from(added), min_size=1, max_size=3))
        combined: dict = {}
        for vec in picked:
            c = data.draw(EXACT_SCALES)
            for j, v in as_dict(vec).items():
                combined[j] = combined.get(j, 0) + c * Fraction(v)
        return combined if data.draw(st.booleans()) else [combined.get(j, 0) for j in range(dim)]
    return data.draw(vectors(dim, ENTRIES))


def handed_out(value):
    """Every number in a value the engine hands out."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple)):
        return [v for item in value for v in handed_out(item)]
    return []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.data())
def test_integer_engine_matches_the_mixed_engine_call_for_call(dim, data):
    span, reference = SpanBuilder(dim), oracle.MixedSpanBuilder(dim)
    added = []
    for _ in range(data.draw(st.integers(1, 24))):
        op = data.draw(st.sampled_from(("add", "add", "add", "reduce", "contains") + QUERIES))
        if op == "integer_kernel":
            # the oracle has no integer reader: its entries are kernel()'s, item for item
            got = span.integer_kernel()
            assert all(type(num) is int and type(den) is int and den > 0 for vec in got for _, num, den in vec)
            as_fractions = [[(j, Fraction(num, den)) for j, num, den in vec] for vec in got]
            assert as_fractions == [list(vec.items()) for vec in span.kernel()]
            assert as_fractions == [list(vec.items()) for vec in reference.kernel()]
            continue
        if op in QUERIES:
            got = getattr(span, op)
            expected = getattr(reference, op)
            if op != "rank":
                got, expected = got(), expected()
        else:
            vec = drawn_vector(data, dim, added)
            got, expected = getattr(span, op)(vec), getattr(reference, op)(vec)
            if op == "add":
                added.append(vec)
        assert got == expected, op
        if op == "kernel":
            assert [list(vec.items()) for vec in got] == [list(vec.items()) for vec in expected]
        assert_exact(handed_out(got))
    assert_same_span(span, reference, added[:2])
    assert [list(row.items()) for row in span.rows()] == [list(row.items()) for row in reference.rows()]
