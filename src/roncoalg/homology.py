"""Low-degree homology of structure-constant algebras, all over ℚ.

  * `hl1`:  𝔤/[𝔤,𝔤] for Leibniz algebras.
  * `hl2`:  Ker([−,−]: 𝔤⊗𝔤 → 𝔤) / Im(d: 𝔤⊗³ → 𝔤⊗²) with
            d(x⊗y⊗z) = [x,y]⊗z − [x,z]⊗y − x⊗[y,z], for Leibniz algebras.
  * `hr0`:  Sym²(𝔤) modulo x⊙[y,z] = [x,y]⊙z, for Lie algebras.
  * `h1_adjoint`: H₁ of the Chevalley–Eilenberg complex of a Lie algebra
            with coefficients in the adjoint module (x·m = [x,m]).

Index conventions: tensor square (i,j) ↦ i·dim+j; tensor cube likewise
lexicographic; symmetric-square keys i ≤ j in lexicographic order; wedge
keys i < j in lexicographic order; m⊗x chains put the module factor first.

Every boundary map is checked against the next map (the composite must be
exactly zero) before any rank is subtracted; a failure is an internal bug,
not bad input, and raises InternalError (under `python -O` as well).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InternalError, NotInVarietyError
from .linalg import SparseMatrix, SpanBuilder, quotient_dim, rank_and_kernel
from .structure import StructureAlgebra, basis_vector, verify_variety


@dataclass(frozen=True)
class HomologyReport:
    """Dimension plus explicit cycle representatives in the chain space."""

    dimension: int
    representatives: tuple[tuple[Fraction, ...], ...]


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
    """Abelianization 𝔤/[𝔤,𝔤]; representatives are surviving basis vectors."""
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
    """Kernel of the bracket on 𝔤⊗𝔤 modulo boundaries from 𝔤⊗³."""
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
    """Symmetric square modulo x⊙[y,z] = [x,y]⊙z."""
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
    """H₁ of the Chevalley–Eilenberg complex with adjoint coefficients.

    Chains: M⊗Λ²𝔤 → M⊗𝔤 → M with M = 𝔤, x·m = [x,m],
    d₁(m⊗x) = x·m and d₂(m⊗x∧y) = (x·m)⊗y − (y·m)⊗x + m⊗[x,y]
    (the relative sign on the m⊗[x,y] term is forced by d₁∘d₂ = 0).
    """
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
