"""Exact linear algebra against an independent dense-elimination oracle."""

import random
from fractions import Fraction

import pytest

from roncoalg.linalg import (
    SpanBuilder,
    SparseMatrix,
    format_rational,
    parse_rational,
    quotient_dim,
    rank,
    rank_and_kernel,
)


def dense_rank(rows, cols):
    """Plain Gauss-Jordan over Fraction; deliberately naive."""
    rows = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        r += 1
    return r


def random_matrix(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < 0.4:
                row.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return rows


def test_parse_rational():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("4/2") == Fraction(2)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)
    for bad in ("1.5", "1/0", "1/-2", "", "a", "1/2/3", "+1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational_is_canonical():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"
    # round trip
    for text in ("0", "5", "-7/3", "1/2"):
        assert format_rational(parse_rational(text)) == text


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): Fraction(1)})
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(0, 0): Fraction(0)})
    m = SparseMatrix.from_rows([[1, 2], [0, 0]])
    assert m.rows == 2 and m.cols == 2
    assert m.entries == {(0, 0): Fraction(1), (0, 1): Fraction(2)}
    with pytest.raises(ValueError):
        SparseMatrix.from_rows([[1, 2], [3]])


def test_rank_small_cases():
    assert rank(SparseMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(SparseMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(SparseMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(SparseMatrix(0, 3, {})) == 0


def test_rank_matches_dense_oracle():
    rng = random.Random(20260814)
    for trial in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = random_matrix(rng, nrows, ncols)
        m = SparseMatrix.from_rows(rows, ncols)
        expected = dense_rank(rows, ncols)
        assert rank(m) == expected, (trial, rows)
        assert rank(m.transpose()) == expected


def test_rank_exact_on_hilbert_like_matrix():
    # entries 1/(i+j+1): full rank, denominators explode under naive pivoting
    n = 6
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    assert rank(SparseMatrix.from_rows(rows)) == n


def test_kernel_vectors_are_exact_and_complete():
    rng = random.Random(96)
    for _ in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = random_matrix(rng, nrows, ncols)
        m = SparseMatrix.from_rows(rows, ncols)
        r, kernel = rank_and_kernel(m)
        assert r == dense_rank(rows, ncols)
        assert r + len(kernel) == ncols
        for vec in kernel:
            assert all(v == 0 for v in m.mul_vector(vec))
        if kernel:
            assert dense_rank(kernel, ncols) == len(kernel)


def test_kernel_free_coordinate_convention():
    # x + 2y = 0: one free column (y), free coordinate pinned to 1
    r, kernel = rank_and_kernel(SparseMatrix.from_rows([[1, 2]]))
    assert r == 1
    assert kernel == [(Fraction(-2), Fraction(1))]

    # zero matrix: kernel is the standard basis, in column order
    r, kernel = rank_and_kernel(SparseMatrix(2, 3, {}))
    assert r == 0
    assert kernel == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    # generally: each kernel vector is 1 at its own free column and 0 at the
    # free columns of the others, and the free columns come in increasing order
    rng = random.Random(7)
    rows = random_matrix(rng, 5, 8)
    m = SparseMatrix.from_rows(rows, 8)
    _, kernel = rank_and_kernel(m)
    markers = []
    for vec in kernel:
        own = [j for j, v in enumerate(vec) if v == 1
               and all(other[j] == 0 for other in kernel if other is not vec)]
        assert own, vec
        markers.append(min(own))
    assert markers == sorted(markers)


def test_quotient_dim():
    assert quotient_dim(3, []) == 3
    assert quotient_dim(3, [[1, 0, 0], [1, 0, 0]]) == 2
    assert quotient_dim(2, [[1, 1], [1, -1]]) == 0
    with pytest.raises(ValueError):
        quotient_dim(3, [[1, 0]])
    with pytest.raises(ValueError):
        quotient_dim(-1, [])


def test_span_builder_membership_and_rank():
    sb = SpanBuilder(3)
    assert sb.add([1, 0, 1])
    assert sb.add([0, 1, 0])
    assert not sb.add([1, 1, 1])  # dependent
    assert sb.rank == 2
    assert sb.contains([2, 3, 2])
    assert not sb.contains([0, 0, 1])
    assert sb.pivot_columns() == [0, 1]


def test_span_builder_basis_is_insertion_order_independent():
    rng = random.Random(5)
    vectors = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(5)) for _ in range(6)]
    reference = SpanBuilder(5)
    for v in vectors:
        reference.add(v)
    for _ in range(10):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        sb = SpanBuilder(5)
        for v in shuffled:
            sb.add(v)
        assert sb.basis() == reference.basis()
        assert sb.pivot_columns() == reference.pivot_columns()


def test_span_builder_reduce_residual():
    sb = SpanBuilder(3)
    sb.add([1, 2, 0])
    sb.add([0, 0, 3])
    residual = sb.reduce([1, 5, 7])
    # residual vanishes on pivot columns and is zero iff the vector is in the span
    for pc in sb.pivot_columns():
        assert pc not in residual
    assert residual == {1: Fraction(3)}
    assert sb.reduce([2, 4, 3]) == {}


def test_span_builder_accepts_sparse_dicts():
    sb = SpanBuilder(4)
    assert sb.add({0: Fraction(1), 3: Fraction(2)})
    assert sb.contains({0: Fraction(2), 3: Fraction(4)})
    assert not sb.contains({1: Fraction(1)})


def test_span_builder_refuses_indices_outside_its_dimension():
    sb = SpanBuilder(3)
    sb.add([0, 1, 2])
    for method in (sb.add, sb.reduce, sb.contains):
        for vec, message in (({0: 1, 5: 2}, "index 5 out of range for dimension 3"),
                             ({-1: 1}, "index -1 out of range for dimension 3"),
                             ({-2: 1, 4: 1}, "index -2 out of range for dimension 3"),
                             ({3: 0}, "index 3 out of range for dimension 3"),
                             ([1, 0, 0, 0], "index 3 out of range for dimension 3"),
                             ([0, 0, 0, 0, 0], "index 4 out of range for dimension 3")):
            with pytest.raises(ValueError) as info:
                method(vec)
            assert str(info.value) == message
    # nothing was taken in: the span is still the one vector added before
    assert sb.rank == 1 and sb.pivot_columns() == [1]
    assert sb.basis() == [(Fraction(0), Fraction(1), Fraction(2))]
    assert sb.kernel() == [{0: Fraction(1)}, {2: Fraction(1), 1: Fraction(-2)}]
    empty = SpanBuilder(0)
    assert not empty.add([]) and not empty.add({}) and empty.kernel() == []
    with pytest.raises(ValueError) as info:
        empty.add({0: 1})
    assert str(info.value) == "index 0 out of range for dimension 0"


def test_span_builder_refuses_a_dimension_that_is_not_a_nonnegative_int():
    for dim, shown in ((-1, "-1"), (2.0, "2.0"), (True, "True"), ("3", "'3'"), (None, "None")):
        with pytest.raises(ValueError) as info:
            SpanBuilder(dim)
        assert str(info.value) == f"dimension must be a nonnegative int, got {shown}"


def test_span_builder_non_unit_leads_and_large_denominators():
    """Rows with non-unit leads are kept in lowest terms over their own
    denominator; what comes out is the RREF in normalized Fractions."""
    big = 2**80 + 1
    sb = SpanBuilder(4)
    assert sb.add({0: 2, 1: 3, 3: Fraction(1, big)})
    assert sb.add([0, 6, Fraction(4, 3), 0])
    assert not sb.add({0: 4, 1: 12, 2: Fraction(4, 3), 3: Fraction(2, big)})
    assert sb.rows() == [{0: Fraction(1), 2: Fraction(-1, 3), 3: Fraction(1, 2 * big)},
                         {1: Fraction(1), 2: Fraction(2, 9)}]
    assert sb.reduce({2: 1, 3: 1}) == {2: Fraction(1), 3: Fraction(1)}
    assert sb.reduce({0: Fraction(1, 7)}) == {2: Fraction(1, 21), 3: Fraction(-1, 14 * big)}
    assert sb.kernel() == [{2: Fraction(1), 0: Fraction(1, 3), 1: Fraction(-2, 9)},
                           {3: Fraction(1), 0: Fraction(-1, 2 * big)}]
