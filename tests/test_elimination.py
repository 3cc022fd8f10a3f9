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
