"""Reference implementations of the four homology functors.

These are the functions `roncoalg.homology` had before the chain data went
through one shared quotient and one shared homology helper: each builds
and checks its own complex, takes ranks with the fraction-free elimination
of `linalg_oracle`, and counts every quotient twice.  They are kept,
unchanged apart from their imports and docstrings, only so that tests can
compare the current functors against them report for report.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from linalg_oracle import SpanBuilder, quotient_dim, rank_and_kernel
from roncoalg.errors import InternalError, NotInVarietyError
from roncoalg.homology import HomologyReport
from roncoalg.linalg import SparseMatrix
from roncoalg.structure import StructureAlgebra, basis_vector, verify_variety


def _require(a: StructureAlgebra, variety: str, op: str):
    report = verify_variety(a, variety)
    if not report.ok:
        raise NotInVarietyError(f"{op} needs an algebra in the {variety} variety", report)


def _invariant(holds: bool, message: str):
    if not holds:
        raise InternalError(message)


def _bump(acc: dict, key, c: Fraction):
    nv = acc.get(key, Fraction(0)) + c
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


def _dedupe(cols: list[dict]) -> list[dict]:
    seen = set()
    out = []
    for col in cols:
        if not col:
            continue
        key = frozenset(col.items())
        if key not in seen:
            seen.add(key)
            out.append(col)
    return out


def _dense(length: int, col: dict) -> tuple[Fraction, ...]:
    vec = [Fraction(0)] * length
    for k, v in col.items():
        vec[k] = v
    return tuple(vec)


def _coset_representatives(ambient: int, span: SpanBuilder) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(basis_vector(ambient, i) for i in range(ambient) if i not in set(span.pivot_columns()))


def hl1(a: StructureAlgebra) -> HomologyReport:
    _require(a, "leibniz", "hl1")
    span = SpanBuilder(a.dim)
    relations = []
    for key in sorted(a.bracket):
        cell = a.bracket[key]
        span.add(cell)
        relations.append(_dense(a.dim, cell))
    dimension = quotient_dim(a.dim, relations)
    _invariant(dimension == a.dim - span.rank, "hl1: quotient dimension differs from the span rank")
    reps = _coset_representatives(a.dim, span)
    _invariant(len(reps) == dimension, "hl1: representative count differs from the dimension")
    return HomologyReport(dimension, reps)


def hl2(a: StructureAlgebra) -> HomologyReport:
    _require(a, "leibniz", "hl2")
    n = a.dim
    bracket_entries: dict = {}
    for (i, j), cell in a.bracket.items():
        for m, c in cell.items():
            bracket_entries[(m, i * n + j)] = c
    bracket_matrix = SparseMatrix(n, n * n, bracket_entries)

    columns = []
    for i, j, k in product(range(n), repeat=3):
        col: dict = {}
        for m, c in a.cell(i, j).items():
            _bump(col, m * n + k, c)
        for m, c in a.cell(i, k).items():
            _bump(col, m * n + j, -c)
        for m, c in a.cell(j, k).items():
            _bump(col, i * n + m, -c)
        if col:
            columns.append(col)
    columns = _dedupe(columns)

    for col in columns:
        out: dict = {}
        for t, c in col.items():
            i, j = divmod(t, n)
            for m, v in a.cell(i, j).items():
                _bump(out, m, c * v)
        _invariant(not out, "hl2: boundary image escapes the bracket kernel")

    _, kernel = rank_and_kernel(bracket_matrix)
    span = SpanBuilder(n * n)
    for col in columns:
        span.add(col)
    dimension = len(kernel) - span.rank
    reps = []
    for vec in kernel:
        if span.add(vec):
            reps.append(vec)
    _invariant(len(reps) == dimension, "hl2: representative count differs from the dimension")
    return HomologyReport(dimension, tuple(reps))


def hr0(a: StructureAlgebra) -> HomologyReport:
    _require(a, "lie", "hr0")
    n = a.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: t for t, pair in enumerate(pairs)}

    def sym(p: int, q: int) -> int:
        return index[(p, q) if p <= q else (q, p)]

    columns = []
    for i, j, k in product(range(n), repeat=3):
        col: dict = {}
        for m, c in a.cell(j, k).items():
            _bump(col, sym(i, m), c)
        for m, c in a.cell(i, j).items():
            _bump(col, sym(m, k), -c)
        if col:
            columns.append(col)
    columns = _dedupe(columns)

    dimension = quotient_dim(len(pairs), [_dense(len(pairs), col) for col in columns])
    span = SpanBuilder(len(pairs))
    for col in columns:
        span.add(col)
    _invariant(dimension == len(pairs) - span.rank, "hr0: quotient dimension differs from the span rank")
    reps = _coset_representatives(len(pairs), span)
    _invariant(len(reps) == dimension, "hr0: representative count differs from the dimension")
    return HomologyReport(dimension, reps)


def h1_adjoint(a: StructureAlgebra) -> HomologyReport:
    _require(a, "lie", "h1_adjoint")
    n = a.dim
    d1_entries: dict = {}
    for m in range(n):
        for x in range(n):
            for p, c in a.cell(x, m).items():
                d1_entries[(p, m * n + x)] = c
    d1 = SparseMatrix(n, n * n, d1_entries)

    wedges = [(x, y) for x in range(n) for y in range(x + 1, n)]
    columns = []
    for m in range(n):
        for x, y in wedges:
            col: dict = {}
            for p, c in a.cell(x, m).items():
                _bump(col, p * n + y, c)
            for p, c in a.cell(y, m).items():
                _bump(col, p * n + x, -c)
            for q, c in a.cell(x, y).items():
                _bump(col, m * n + q, c)
            if col:
                columns.append(col)
    columns = _dedupe(columns)

    for col in columns:
        out: dict = {}
        for t, c in col.items():
            m, x = divmod(t, n)
            for p, v in a.cell(x, m).items():
                _bump(out, p, c * v)
        _invariant(not out, "h1_adjoint: d1∘d2 is nonzero")

    _, kernel = rank_and_kernel(d1)
    span = SpanBuilder(n * n)
    for col in columns:
        span.add(col)
    dimension = len(kernel) - span.rank
    reps = []
    for vec in kernel:
        if span.add(vec):
            reps.append(vec)
    _invariant(len(reps) == dimension, "h1_adjoint: representative count differs from the dimension")
    return HomologyReport(dimension, tuple(reps))
