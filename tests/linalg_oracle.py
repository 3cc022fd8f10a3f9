"""Reference implementations of the exact elimination in `roncoalg.linalg`.

These are the fraction-free (Bareiss) rank and kernel and the span builder
that reduced by every pivot on every call, as `roncoalg.linalg` had them
before all elimination moved onto the incremental reduced echelon form;
`FractionSpanBuilder`, that incremental engine as it was before it kept
integral entries as `int` and indexed the rows that hold each column: it
made every entry a `Fraction` and scanned every row for each new pivot;
and `MixedSpanBuilder`, the engine as it was before its rows became `int`
numerators over one denominator: it kept `int` and `Fraction` entries as
given, so a non-unit lead turned the rest of the span into `Fraction`
arithmetic.  They are kept, unchanged, only so that tests can compare the
current engine against them result for result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from roncoalg.lincomb import _add_scaled
from roncoalg.linalg import SparseMatrix, Vector, _dense


def _integer_rows(m: SparseMatrix) -> list[dict]:
    """Scale each row by the lcm of its denominators (rank/kernel preserved)."""
    rows = []
    for row in m.row_dicts():
        if row:
            scale = lcm(*(v.denominator for v in row.values()))
            rows.append({j: int(v * scale) for j, v in row.items()})
        else:
            rows.append({})
    return rows


def _bareiss_echelon(rows: list[dict], cols: int) -> tuple[list[int], list[dict]]:
    """In-place fraction-free elimination.

    Returns (pivot_cols, rows); rows[0:len(pivot_cols)] form an integer
    echelon basis with pivot columns strictly increasing.
    """
    nrows = len(rows)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for col in range(cols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i].get(col):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(r + 1, nrows):
            row = rows[i]
            c = row.pop(col, 0)
            if c:
                updated: dict = {}
                for j in row.keys() | prow.keys():
                    if j == col:
                        continue
                    val = (p * row.get(j, 0) - c * prow.get(j, 0)) // prev
                    if val:
                        updated[j] = val
                rows[i] = updated
            else:
                for j in list(row):
                    row[j] = p * row[j] // prev
        pivot_cols.append(col)
        prev = p
        r += 1
    return pivot_cols, rows


def rank(m: SparseMatrix) -> int:
    seen = set()
    rows = []
    for row in _integer_rows(m):
        if not row:
            continue
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            rows.append(row)
    pivots, _ = _bareiss_echelon(rows, m.cols)
    return len(pivots)


def rank_and_kernel(m: SparseMatrix) -> tuple[int, list[tuple[Fraction, ...]]]:
    pivot_cols, rows = _bareiss_echelon(_integer_rows(m), m.cols)
    r = len(pivot_cols)
    kernel: list[tuple[Fraction, ...]] = []
    free_cols = [j for j in range(m.cols) if j not in set(pivot_cols)]
    for f in free_cols:
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for k in range(r - 1, -1, -1):
            pc = pivot_cols[k]
            row = rows[k]
            s = Fraction(0)
            for j, v in row.items():
                if j > pc and x[j]:
                    s += v * x[j]
            if s:
                x[pc] = -s / row[pc]
        kernel.append(tuple(x))
    return r, kernel


def quotient_dim(ambient_dim: int, relations: Sequence[Vector]) -> int:
    if ambient_dim < 0:
        raise ValueError("ambient dimension must be nonnegative")
    for i, rel in enumerate(relations):
        if len(rel) != ambient_dim:
            raise ValueError(
                f"relation {i} has length {len(rel)}, expected ambient dimension {ambient_dim}"
            )
    if not relations:
        return ambient_dim
    return ambient_dim - rank(SparseMatrix.from_rows(relations, ambient_dim))


class SpanBuilder:
    """Reduced echelon span that reduces by every pivot, in order, on each call."""

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> dict:
        row = {j: Fraction(v) for j, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
        for pc in sorted(self._rows):
            c = row.get(pc)
            if c:
                base = self._rows[pc]
                for j, v in base.items():
                    nv = row.get(j, Fraction(0)) - c * v
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
        return row

    def add(self, vec) -> bool:
        row = self._reduce(vec)
        if not row:
            return False
        pc = min(row)
        lead = row[pc]
        row = {j: v / lead for j, v in row.items()}
        for other in self._rows.values():
            c = other.get(pc)
            if c:
                for j, v in row.items():
                    nv = other.get(j, Fraction(0)) - c * v
                    if nv:
                        other[j] = nv
                    else:
                        other.pop(j, None)
        self._rows[pc] = row
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def reduce(self, vec) -> dict:
        return self._reduce(vec)

    def basis(self) -> list[tuple[Fraction, ...]]:
        out = []
        for pc in sorted(self._rows):
            row = self._rows[pc]
            dense = [Fraction(0)] * self.dim
            for j, v in row.items():
                dense[j] = v
            out.append(tuple(dense))
        return out

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)


class FractionSpanBuilder:
    """Incrementally maintained reduced echelon basis of a span of vectors.

    Supports rank queries, membership tests, and a canonical (RREF) basis;
    the basis depends only on the span, not on insertion order.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}  # pivot col -> row dict with row[pivot] == 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> dict:
        row = {j: Fraction(v) for j, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
        # Each basis row vanishes on every other pivot column, so clearing
        # the pivots present in the input clears them all, in any order.
        for pc in [j for j in row if j in self._rows]:
            _add_scaled(row, -row[pc], self._rows[pc])
        return row

    def add(self, vec) -> bool:
        """Add a vector; True iff it enlarged the span."""
        row = self._reduce(vec)
        if not row:
            return False
        pc = min(row)
        lead = row[pc]
        row = {j: v / lead for j, v in row.items()}
        for other in self._rows.values():
            c = other.get(pc)
            if c:
                _add_scaled(other, -c, row)
        self._rows[pc] = row
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def reduce(self, vec) -> dict:
        """Canonical residual of a vector modulo the span (sparse dict).

        The residual vanishes on all pivot columns, so it is supported on
        the complement; it is zero exactly when the vector lies in the span.
        """
        return self._reduce(vec)

    def rows(self) -> list[dict]:
        """Sparse RREF rows sorted by pivot column (shared; do not mutate)."""
        return [self._rows[pc] for pc in sorted(self._rows)]

    def kernel(self) -> list[dict]:
        """Sparse basis of the vectors orthogonal to the span, read off the RREF.

        One vector per free column f, in increasing order: x[f] = 1 and
        x[pc] = −row_pc[f] for every pivot column pc.
        """
        kernel = {f: {f: Fraction(1)} for f in range(self.dim) if f not in self._rows}
        for pc, row in self._rows.items():
            for f, v in row.items():
                if f != pc:
                    kernel[f][pc] = -v
        return list(kernel.values())

    def basis(self) -> list[tuple[Fraction, ...]]:
        """Canonical dense basis, rows sorted by pivot column."""
        return [_dense(self.dim, row) for row in self.rows()]

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)


class MixedSpanBuilder:
    """Incrementally maintained reduced echelon basis of a span of vectors.

    Supports rank queries, membership tests, and a canonical (RREF) basis;
    the basis depends only on the span, not on insertion order.

    Entries are kept as given when they are `int` or `Fraction`, so integral
    rows stay in fast `int` arithmetic; any other number goes through
    `Fraction`.  Every value handed out (`rows`, `basis`, `reduce`,
    `kernel`) is a `Fraction`.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}  # pivot col -> row dict with row[pivot] == 1
        # column -> pivots of the rows that may hold it: every row that does,
        # and perhaps some whose entry has since cancelled
        self._holders: dict[int, set] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec) -> dict:
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        row = {j: v if type(v) is int or type(v) is Fraction else Fraction(v) for j, v in items if v}
        # Each basis row vanishes on every other pivot column, so clearing
        # the pivots present in the input clears them all, in any order.
        for pc in [j for j in row if j in self._rows]:
            _add_scaled(row, -row[pc], self._rows[pc])
        return row

    def add(self, vec) -> bool:
        """Add a vector; True iff it enlarged the span."""
        row = self._reduce(vec)
        if not row:
            return False
        pc = min(row)
        lead = row[pc]
        if lead == -1:
            row = {j: -v for j, v in row.items()}
        elif lead != 1:
            if type(lead) is int:  # int / int would be a float
                row = {j: Fraction(v, lead) if type(v) is int else v / lead for j, v in row.items()}
            else:
                row = {j: v / lead for j, v in row.items()}
        # Back-substitute only into the rows listed for column pc; each of
        # them, and the new row, may then hold every column the new row holds.
        targets = self._holders.pop(pc, ())
        holding = [self._holders.setdefault(j, set()) for j in row if j != pc]
        for p in targets:
            other = self._rows[p]
            c = other.get(pc)
            if c:
                _add_scaled(other, -c, row)
                for pivots in holding:
                    pivots.add(p)
        for pivots in holding:
            pivots.add(pc)
        self._rows[pc] = row
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)

    def reduce(self, vec) -> dict:
        """Canonical residual of a vector modulo the span (sparse dict).

        The residual vanishes on all pivot columns, so it is supported on
        the complement; it is zero exactly when the vector lies in the span.
        """
        return _exact(self._reduce(vec))

    def rows(self) -> list[dict]:
        """Sparse RREF rows sorted by pivot column (fresh dicts)."""
        return [_exact(self._rows[pc]) for pc in sorted(self._rows)]

    def kernel(self) -> list[dict]:
        """Sparse basis of the vectors orthogonal to the span, read off the RREF.

        One vector per free column f, in increasing order: x[f] = 1 and
        x[pc] = −row_pc[f] for every pivot column pc.
        """
        kernel = {f: {f: Fraction(1)} for f in range(self.dim) if f not in self._rows}
        for pc, row in self._rows.items():
            for f, v in row.items():
                if f != pc:
                    kernel[f][pc] = -v if type(v) is Fraction else Fraction(-v)
        return list(kernel.values())

    def basis(self) -> list[tuple[Fraction, ...]]:
        """Canonical dense basis, rows sorted by pivot column."""
        return [_dense(self.dim, row) for row in self.rows()]

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)


def _exact(row: dict) -> dict:
    """A copy of a sparse row with every value a Fraction."""
    return {j: v if type(v) is Fraction else Fraction(v) for j, v in row.items()}
