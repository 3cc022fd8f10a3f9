"""Exact rational sparse matrices: rank, kernel, quotient dimensions.

One elimination engine serves everything: `SpanBuilder` keeps the reduced
row echelon form (RREF) of a span over ℚ, one vector at a time.  Ranks,
kernels and quotient dimensions are read off it.  No floating point
anywhere, and no `Fraction` arithmetic inside the builder: each RREF row is
kept as `int` numerators over one positive `int` denominator, and a gcd is
taken only for a row whose denominator is not 1 (see `SpanBuilder`).  Every
value it hands out is a normalized `Fraction`, but for the `int`s of
`integer_kernel`.  It indexes, per column, the rows that may hold that
column, so a new pivot is back-substituted only into those rows.

The result is deterministic: the RREF depends only on the span, and its
pivots are the leading columns of the row space.

Inside the package vectors are sparse {index: Fraction} dicts; `_dense`
alone makes dense tuples, for the public functions that return them, and
`_check_dense` holds all of them to one budget, `MAX_DENSE_ENTRIES`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import RoncoError
from .lincomb import Record, _add_scaled


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$", re.ASCII)  # \d: 0-9, not "٣"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0); reject anything else, including floats."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p" or "p/q" with q > 1, gcd-reduced."""
    return str(Fraction(value))


Vector = Sequence[Fraction]


def _dense(dim: int, vec: dict) -> tuple[Fraction, ...]:
    """The dense tuple of length `dim` of a sparse vector."""
    out = [Fraction(0)] * dim
    for j, v in vec.items():
        out[j] = v
    return tuple(out)


# Largest count × length of the dense vectors one result may hold: the
# representatives of a homology report, the residuals of a verification
# report.  A larger count raises RoncoError before any of them is built.
# It admits hl2 of the dimension-99 truncation (3 generators up to degree 5:
# 201 representatives of length 9801, 1,970,001 entries, about 3-3.5 s on
# Python 3.11, 2 vCPUs) and refuses hl1 of an empty dimension-2000 algebra
# (4,000,000 entries), which unguarded took 10 s, 639 MB and printed 44 MB.
MAX_DENSE_ENTRIES = 2_000_000


def _check_dense(op: str, noun: str, count: int, length: int):
    if count * length > MAX_DENSE_ENTRIES:
        raise RoncoError(f"{op}: {count} {noun} of length {length} "
                         f"({count * length} entries) exceed the limit of {MAX_DENSE_ENTRIES}")


class SparseMatrix(Record):
    """Sparse matrix over the rationals; only nonzero entries are stored.

    `entries` maps (row, col) to a nonzero Fraction.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict):
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i}, {j}) out of range")
            if not v:
                raise ValueError(f"stored zero at ({i}, {j})")
        super().__init__(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "SparseMatrix":
        entries: dict = {}
        n = 0
        width = cols
        for i, row in enumerate(rows):
            n = i + 1
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"row {i} has length {len(row)}, expected {width}")
            for j, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(i, j)] = v
        return cls(n, width if width is not None else 0, entries)

    @classmethod
    def from_row_dicts(cls, rows: Sequence[dict], cols: int) -> "SparseMatrix":
        entries = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                v = Fraction(v)
                if v:
                    entries[(i, j)] = v
        return cls(len(rows), cols, entries)

    def row_dicts(self) -> list[dict]:
        rows: list[dict] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def mul_vector(self, vec: Vector) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return out


class SpanBuilder:
    """Incrementally maintained reduced echelon basis of a span of vectors.

    Supports rank queries, membership tests, and a canonical (RREF) basis;
    the basis depends only on the span, not on insertion order.

    Each RREF row is kept as a dict of `int` numerators over one positive
    `int` denominator, which is the row's own entry at its pivot.  An input
    vector is cleared once by the lcm of its `Fraction` denominators (a
    float or bool entry goes through `Fraction` exactly), so every step of
    the elimination is `int` arithmetic.  A row with lead ±1 keeps
    denominator 1 and is never divided by a gcd; a row whose denominator is
    not 1 is divided by the gcd of its entries when it is stored and each
    time a new row is back-substituted into it, so it is the RREF row times
    the lcm of that row's denominators.  Every value handed out (`rows`,
    `basis`, `reduce`, `kernel`; not `integer_kernel`) is a normalized `Fraction`.

    Indices run over 0..dim−1; a vector with another index, or a dense
    vector longer than `dim`, raises ValueError.
    """

    def __init__(self, dim: int):
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dimension must be a nonnegative int, got {dim!r}")
        self.dim = dim
        self._rows: dict[int, dict] = {}  # pivot col -> int row over the denominator row[pivot] > 0
        # column -> pivots of the rows that may hold it: every row that does,
        # and perhaps some whose entry has since cancelled
        self._holders: dict[int, set] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> tuple[dict, int]:
        """The residual of a vector as `int` numerators over one positive denominator."""
        row, den = _integral(vec, self.dim)
        rows = self._rows
        # Each basis row vanishes on every other pivot column, so clearing
        # the pivots present in the input clears them all, in any order.
        for pc in [j for j in row if j in rows]:
            base = rows[pc]
            a, d = row[pc], base[pc]
            if d != 1:  # row/den − (a/den)·(base/d), over den·d/g
                g = gcd(a, d)
                a //= g
                d //= g
                row = {j: v * d for j, v in row.items()}
                den *= d
            _add_scaled(row, -a, base)
        return row, den

    def add(self, vec) -> bool:
        """Add a vector; True iff it enlarged the span."""
        row, _ = self._reduce(vec)  # a common scale changes no RREF row
        if not row:
            return False
        pc = min(row)
        lead = row[pc]
        if lead < 0:
            row = {j: -v for j, v in row.items()}
        if lead != 1 and lead != -1:
            row = _lowest_terms(row)
        d = row[pc]
        rows = self._rows
        # Back-substitute only into the rows listed for column pc; each of
        # them, and the new row, may then hold every column the new row holds.
        targets = self._holders.pop(pc, ())
        holding = [self._holders.setdefault(j, set()) for j in row if j != pc]
        for p in targets:
            other = rows[p]
            a = other.get(pc)
            if a:
                if d != 1:  # other/e − (a/e)·(row/d), over e·d/g
                    g = gcd(a, d)
                    a //= g
                    other = {j: v * (d // g) for j, v in other.items()}
                _add_scaled(other, -a, row)
                rows[p] = other if other[p] == 1 else _lowest_terms(other)
                for pivots in holding:
                    pivots.add(p)
        for pivots in holding:
            pivots.add(pc)
        rows[pc] = row
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)[0]

    def reduce(self, vec) -> dict:
        """Canonical residual of a vector modulo the span (sparse dict).

        The residual vanishes on all pivot columns, so it is supported on
        the complement; it is zero exactly when the vector lies in the span.
        """
        return _fractions(*self._reduce(vec))

    def rows(self) -> list[dict]:
        """Sparse RREF rows sorted by pivot column (fresh dicts)."""
        return [_fractions(row, row[pc]) for pc, row in sorted(self._rows.items())]

    def integer_kernel(self) -> list[list[tuple[int, int, int]]]:
        """Basis of the vectors orthogonal to the span as lists of (column,
        `int` numerator, positive `int` denominator), one per free column f,
        in increasing order: x[f] = 1, then x[pc] = −row_pc[f] for each pivot
        column pc, in the order the rows were added.  The kernel depends only
        on which columns depend on earlier ones, so it is read off the integer
        rows unchanged: x[pc] is −v over d, the row's entry at f over its
        denominator, not always in lowest terms."""
        kernel = {f: [(f, 1, 1)] for f in range(self.dim) if f not in self._rows}
        for pc, row in self._rows.items():
            d = row[pc]
            for f, v in row.items():
                if f != pc:
                    kernel[f].append((pc, -v, d))
        return list(kernel.values())

    def kernel(self) -> list[dict]:
        """`integer_kernel` with each vector a sparse dict of Fractions, in the same order."""
        return [{j: Fraction(n) if d == 1 else Fraction(n, d) for j, n, d in vec}
                for vec in self.integer_kernel()]

    def basis(self) -> list[tuple[Fraction, ...]]:
        """Canonical dense basis, rows sorted by pivot column."""
        return [_dense(self.dim, row) for row in self.rows()]

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)


_INT = frozenset((int,))
_EXACT = frozenset((int, Fraction))


def _integral(vec, dim: int) -> tuple[dict, int]:
    """A vector's nonzero entries as `int` numerators over the lcm of their
    denominators, after checking its indices against `dim`."""
    if not isinstance(vec, dict):
        if len(vec) > dim:
            raise ValueError(f"index {len(vec) - 1} out of range for dimension {dim}")
        vec = dict(enumerate(vec))
    elif vec:
        lo, hi = min(vec), max(vec)
        if lo < 0 or hi >= dim:
            raise ValueError(f"index {lo if lo < 0 else hi} out of range for dimension {dim}")
    kinds = set(map(type, vec.values()))
    if kinds <= _INT:
        return {j: v for j, v in vec.items() if v}, 1
    if not kinds <= _EXACT:  # a float, a bool or another number: exactly, through Fraction
        vec = {j: Fraction(v) for j, v in vec.items()}
    den = lcm(*{v.denominator for v in vec.values()})
    if den == 1:
        return {j: n for j, v in vec.items() if (n := v.numerator)}, 1
    return {j: n * (den // v.denominator) for j, v in vec.items() if (n := v.numerator)}, den


def _lowest_terms(row: dict) -> dict:
    """An `int` row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _fractions(row: dict, den: int) -> dict:
    """A fresh copy of an `int` row over `den`, every value a Fraction."""
    if den == 1:
        return {j: Fraction(v) for j, v in row.items()}
    return {j: Fraction(v, den) for j, v in row.items()}


def _span(dim: int, vectors: Iterable) -> SpanBuilder:
    span = SpanBuilder(dim)
    for vec in vectors:
        span.add(vec)
    return span


def rank(m: SparseMatrix) -> int:
    return _span(m.cols, m.row_dicts()).rank


def rank_and_kernel(m: SparseMatrix) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank plus a deterministic basis of the right kernel.

    Every returned vector v satisfies m·v = 0 exactly; vectors are indexed
    by the free columns in increasing order, the free coordinate being 1.
    """
    span = _span(m.cols, m.row_dicts())
    return span.rank, [_dense(m.cols, vec) for vec in span.kernel()]


def quotient_dim(ambient_dim: int, relations: Sequence[Vector]) -> int:
    """Dimension of the quotient of an ambient space by the span of relations."""
    if ambient_dim < 0:
        raise ValueError("ambient dimension must be nonnegative")
    for i, rel in enumerate(relations):
        if len(rel) != ambient_dim:
            raise ValueError(
                f"relation {i} has length {len(rel)}, expected ambient dimension {ambient_dim}"
            )
    return ambient_dim - _span(ambient_dim, relations).rank
