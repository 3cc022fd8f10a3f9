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

Each functor only builds its chain data; two helpers do the linear algebra.
`_quotient` (hl1, hr0) spans the relations once and keeps the basis vectors
off the pivot columns.  `_homology` (hl2, h1_adjoint) checks that the
outgoing boundary kills every incoming boundary (∂∘∂ = 0), spans the
boundaries, and keeps the kernel vectors that enlarge that span; it then
checks that boundaries and kept cycles span the whole kernel, that rank
and kernel dimension add up to the chain dimension, and that every kept
cycle has zero boundary.  A failed check is an internal bug, not bad input,
and raises InternalError (under `python -O` as well).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .errors import InternalError, NotInVarietyError
from .lincomb import _add_scaled
from .linalg import SparseMatrix, SpanBuilder, _span, rank_and_kernel
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


def _quotient(ambient: int, relations: Iterable[dict]) -> HomologyReport:
    """The ambient space modulo the span of the relations."""
    pivots = set(_span(ambient, filter(None, relations)).pivot_columns())
    reps = tuple(basis_vector(ambient, i) for i in range(ambient) if i not in pivots)
    return HomologyReport(len(reps), reps)


def _homology(op: str, d_out: SparseMatrix, boundaries: Iterable[dict]) -> HomologyReport:
    """Ker d_out modulo the span of the boundaries (sparse chain vectors)."""
    columns: list[dict] = [{} for _ in range(d_out.cols)]
    for (i, j), v in d_out.entries.items():
        columns[j][i] = v
    span = SpanBuilder(d_out.cols)
    for b in filter(None, boundaries):
        out: dict = {}
        for t, c in b.items():
            _add_scaled(out, c, columns[t])
        _invariant(not out, f"{op}: the boundary of a boundary is nonzero")
        span.add(b)
    rank, kernel = rank_and_kernel(d_out)
    reps = tuple(vec for vec in kernel if span.add(vec))
    _invariant(span.rank == len(kernel), f"{op}: cycle rank differs from the kernel dimension")
    _invariant(rank + len(kernel) == d_out.cols,
               f"{op}: rank plus kernel dimension differs from the chain dimension")
    for vec in reps:
        _invariant(not any(d_out.mul_vector(vec)), f"{op}: a kept cycle has a nonzero boundary")
    return HomologyReport(len(reps), reps)


def hl1(a: StructureAlgebra) -> HomologyReport:
    """Abelianization 𝔤/[𝔤,𝔤]; representatives are surviving basis vectors."""
    _require(a, "leibniz", "hl1")
    return _quotient(a.dim, a.bracket.values())


def hl2(a: StructureAlgebra) -> HomologyReport:
    """Kernel of the bracket on 𝔤⊗𝔤 modulo boundaries from 𝔤⊗³."""
    _require(a, "leibniz", "hl2")
    n = a.dim
    bracket = SparseMatrix(n, n * n, {(m, i * n + j): c for (i, j), cell in a.bracket.items()
                                      for m, c in cell.items()})

    def boundary(i: int, j: int, k: int) -> dict:
        col = {m * n + k: c for m, c in a.cell(i, j).items()}
        _add_scaled(col, -1, {m * n + j: c for m, c in a.cell(i, k).items()})
        _add_scaled(col, -1, {i * n + m: c for m, c in a.cell(j, k).items()})
        return col

    return _homology("hl2", bracket, (boundary(i, j, k) for i, j, k in product(range(n), repeat=3)))


def hr0(a: StructureAlgebra) -> HomologyReport:
    """Symmetric square modulo x⊙[y,z] = [x,y]⊙z."""
    _require(a, "lie", "hr0")
    n = a.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: t for t, pair in enumerate(pairs)}

    def sym(p: int, q: int) -> int:
        return index[(p, q) if p <= q else (q, p)]

    def relation(i: int, j: int, k: int) -> dict:
        col = {sym(i, m): c for m, c in a.cell(j, k).items()}
        _add_scaled(col, -1, {sym(m, k): c for m, c in a.cell(i, j).items()})
        return col

    return _quotient(len(pairs), (relation(i, j, k) for i, j, k in product(range(n), repeat=3)))


def h1_adjoint(a: StructureAlgebra) -> HomologyReport:
    """H₁ of the Chevalley–Eilenberg complex with adjoint coefficients.

    Chains: M⊗Λ²𝔤 → M⊗𝔤 → M with M = 𝔤, x·m = [x,m],
    d₁(m⊗x) = x·m and d₂(m⊗x∧y) = (x·m)⊗y − (y·m)⊗x + m⊗[x,y]
    (the relative sign on the m⊗[x,y] term is forced by d₁∘d₂ = 0).
    """
    _require(a, "lie", "h1_adjoint")
    n = a.dim
    d1 = SparseMatrix(n, n * n, {(p, m * n + x): c for m in range(n) for x in range(n)
                                 for p, c in a.cell(x, m).items()})

    def boundary(m: int, x: int, y: int) -> dict:
        col = {p * n + y: c for p, c in a.cell(x, m).items()}
        _add_scaled(col, -1, {p * n + x: c for p, c in a.cell(y, m).items()})
        _add_scaled(col, 1, {m * n + q: c for q, c in a.cell(x, y).items()})
        return col

    return _homology("h1_adjoint", d1, (boundary(m, x, y) for m in range(n)
                                        for x in range(n) for y in range(x + 1, n)))
