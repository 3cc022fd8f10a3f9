"""Low-degree homology of structure-constant algebras, all over ℚ.

  * `hl1`:  𝔤/[𝔤,𝔤] for Leibniz algebras.
  * `hl2`:  Ker([−,−]: 𝔤⊗𝔤 → 𝔤) / Im(d: 𝔤⊗³ → 𝔤⊗²) with
            d(x⊗y⊗z) = [x,y]⊗z − [x,z]⊗y − x⊗[y,z], for Leibniz algebras.
  * `hr0`:  Sym²(𝔤) modulo x⊙[y,z] = [x,y]⊙z, for Lie algebras.
  * `h1_adjoint`: H₁ of the Chevalley–Eilenberg complex of a Lie algebra
            with coefficients in the adjoint module (x·m = [x,m]).

Index conventions: tensor square (i,j) ↦ i·dim+j; tensor cube likewise
lexicographic; symmetric-square keys i ≤ j in lexicographic order; m⊗x
chains put the module factor first, so they index like the tensor square.

Each functor only builds sparse chain data; three helpers do the rest.
All four read the algebra's integer form, the bracket table times a common
denominator D, made once per algebra, that the variety precondition
(`_require`, through `structure._require_ok`) checked and hands on, so
their chain data are `int` vectors; scaling every vector by D changes no
span, kernel or RREF, so no report changes.
`_quotient` (hl1, hr0) spans the relations once and keeps the basis
vectors off the pivot columns; hr0 builds x⊙[y,z] − [x,y]⊙z only for
the basis triples whose cell [y,z] is nonzero, which span the same
relations (see `hr0`).  `_leibniz_complex` (hl2, h1_adjoint)
builds Loday's d(x⊗y⊗z) over the triples it is given; on a Lie algebra
the adjoint Chevalley–Eilenberg complex is HL₂'s up to sign (see
`h1_adjoint`).  `_homology` takes the outgoing boundary ∂ as sparse
columns, checks ∂∘∂ = 0 on every incoming boundary, spans the boundaries,
and keeps the cycles read off the RREF of ∂'s rows that enlarge that span;
it then checks that boundaries and kept cycles span the whole kernel, that
rank and kernel dimension add up to the chain dimension, and that every
kept cycle has zero boundary.  A failed check is an internal bug, not bad
input, and raises InternalError (under `python -O` as well).  Only the kept
representatives are made dense, and only if there are at most
`linalg.MAX_DENSE_ENTRIES` entries in all; more raise RoncoError before any
of them is built.  A chain space larger than `MAX_CHAIN_DIM` is refused
before anything else, the variety check included.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Iterable

from .errors import InternalError, RoncoError
from .lincomb import Record, _add_scaled, _extend_linearly
# MAX_DENSE_ENTRIES stays importable from here; the budget is read in linalg
from .linalg import MAX_DENSE_ENTRIES, SpanBuilder, _check_dense, _dense, _span
from .structure import _EMPTY, StructureAlgebra, _require_ok, basis_vector


class HomologyReport(Record):
    """Dimension plus explicit cycle representatives in the chain space.

    `representatives` is a tuple of dense Fraction tuples.
    """

    __slots__ = ("dimension", "representatives")


# Largest chain space a functor may build, for an algebra of dimension n: n
# for hl1, n² for hl2 (𝔤⊗𝔤) and h1_adjoint (m⊗x), n(n+1)/2 for hr0 (Sym²𝔤).
# It admits hl2 up to n = 100; hl2 of a dimension-99 truncation (3 generators
# up to degree 5, chain dimension 9801) takes about 3-3.5 s (Python 3.11, 2 vCPUs).
MAX_CHAIN_DIM = 10_000


def _require(a: StructureAlgebra, variety: str, op: str, chain_dim: int) -> dict:
    """The bracket table times D that the variety precondition checked."""
    if chain_dim > MAX_CHAIN_DIM:
        raise RoncoError(f"the chain dimension of {op} ({chain_dim}) exceeds the limit of {MAX_CHAIN_DIM}")
    _, (table,) = _require_ok(a, variety, f"{op} needs an algebra in the {variety} variety")
    return table


def _invariant(holds: bool, message: str):
    if not holds:
        raise InternalError(message)


def _quotient(op: str, ambient: int, relations: Iterable[dict]) -> HomologyReport:
    """The ambient space modulo the span of the relations (sparse `int` vectors)."""
    pivots = set(_span(ambient, filter(None, relations)).pivot_columns())
    _check_dense(op, "representatives", ambient - len(pivots), ambient)
    reps = tuple(basis_vector(ambient, i) for i in range(ambient) if i not in pivots)
    return HomologyReport(len(reps), reps)


def _homology(op: str, columns: list[dict], boundaries: Iterable[dict]) -> HomologyReport:
    """Ker ∂ modulo the span of the boundaries, ∂ given by its sparse columns."""
    image = partial(_extend_linearly, columns.__getitem__)
    rows: dict = {}
    for t, col in enumerate(columns):
        for p, v in col.items():
            rows.setdefault(p, {})[t] = v
    span = SpanBuilder(len(columns))
    for b in filter(None, boundaries):
        _invariant(not image(b), f"{op}: the boundary of a boundary is nonzero")
        span.add(b)
    cycles = _span(len(columns), rows.values())
    kernel = cycles.kernel()
    reps = [vec for vec in kernel if span.add(vec)]
    _invariant(span.rank == len(kernel), f"{op}: cycle rank differs from the kernel dimension")
    _invariant(cycles.rank + len(kernel) == len(columns),
               f"{op}: rank plus kernel dimension differs from the chain dimension")
    for vec in reps:
        _invariant(not image(vec), f"{op}: a kept cycle has a nonzero boundary")
    _check_dense(op, "representatives", len(reps), len(columns))
    return HomologyReport(len(reps), tuple(_dense(len(columns), vec) for vec in reps))


def hl1(a: StructureAlgebra) -> HomologyReport:
    """Abelianization 𝔤/[𝔤,𝔤]; representatives are surviving basis vectors."""
    return _quotient("hl1", a.dim, _require(a, "leibniz", "hl1", a.dim).values())


def _leibniz_complex(op: str, n: int, table: dict, triples: Iterable[tuple]) -> HomologyReport:
    """H₂ of Loday's complex 𝔤⊗³ → 𝔤⊗² → 𝔤, boundaries taken over `triples`.

    Column i·n+j of ∂ is [e_i,e_j]; d(i⊗j⊗k) = [i,j]⊗k − [i,k]⊗j − i⊗[j,k].
    Both are read off `table`, the bracket times D that the precondition
    checked, so they are `int` vectors, each D times the true one: ∂'s
    kernel, the span of the boundaries and every RREF are those of ℚ.
    """
    def cell(i: int, j: int) -> dict:
        return table.get((i, j), _EMPTY)

    def boundary(i: int, j: int, k: int) -> dict:
        col = {m * n + k: c for m, c in cell(i, j).items()}
        _add_scaled(col, -1, {m * n + j: c for m, c in cell(i, k).items()})
        _add_scaled(col, -1, {i * n + m: c for m, c in cell(j, k).items()})
        return col

    return _homology(op, [cell(i, j) for i, j in product(range(n), repeat=2)],
                     (boundary(i, j, k) for i, j, k in triples))


def hl2(a: StructureAlgebra) -> HomologyReport:
    """Kernel of the bracket on 𝔤⊗𝔤 modulo boundaries from 𝔤⊗³."""
    table = _require(a, "leibniz", "hl2", a.dim * a.dim)
    return _leibniz_complex("hl2", a.dim, table, product(range(a.dim), repeat=3))


def hr0(a: StructureAlgebra) -> HomologyReport:
    """Symmetric square modulo x⊙[y,z] = [x,y]⊙z.

    The relations R(i,j,k) = e_i⊙[e_j,e_k] − [e_i,e_j]⊙e_k are built only
    for the triples whose cell (j,k) is nonzero, i outer and the cells
    sorted, from the bracket table times a common denominator, so they are
    `int` vectors.  The skipped ones lie in the span of the kept:
    for any bilinear bracket R(i,j,k) + R(k,i,j) + R(j,k,i) = 0, as ⊙ is
    commutative.  If [e_j,e_k] = 0, then R(i,j,k) = −[e_i,e_j]⊙e_k, which
    is zero when [e_i,e_j] = 0; otherwise R(k,i,j) is kept, and
    R(j,k,i) = e_j⊙[e_k,e_i] is zero or kept, so R(i,j,k) is minus the sum
    of two relations that are kept or zero.  The span is therefore that of
    all n³ relations, and `_quotient` reads only its pivot columns, which
    neither a common scale nor the order of the relations changes.
    """
    n = a.dim
    size = n * (n + 1) // 2
    table = _require(a, "lie", "hr0", size)
    sym = [[0] * n for _ in range(n)]  # sym[p][q]: the index of e_p⊙e_q, keys p ≤ q in order
    for t, (p, q) in enumerate((p, q) for p in range(n) for q in range(p, n)):
        sym[p][q] = sym[q][p] = t
    cells = sorted(table.items())

    def relation(i: int, k: int, cell: dict, left: dict) -> dict:
        col = {sym[i][m]: c for m, c in cell.items()}
        _add_scaled(col, -1, {sym[m][k]: c for m, c in left.items()})
        return col

    return _quotient("hr0", size, (relation(i, k, cell, table.get((i, j), _EMPTY))
                                   for i in range(n) for (j, k), cell in cells))


def h1_adjoint(a: StructureAlgebra) -> HomologyReport:
    """H₁ of the Chevalley–Eilenberg complex with adjoint coefficients.

    Chains: M⊗Λ²𝔤 → M⊗𝔤 → M with M = 𝔤, x·m = [x,m],
    d₁(m⊗x) = x·m and d₂(m⊗x∧y) = (x·m)⊗y − (y·m)⊗x + m⊗[x,y].
    On a Lie algebra this is HL₂'s complex up to sign:
      * d₁(m⊗x) = [x,m] = −[m,x], the negated bracket column of m⊗x;
      * d₂(m⊗x∧y) = −d(m⊗x⊗y), the negated Leibniz boundary;
      * d(m⊗x⊗y) + d(m⊗y⊗x) = −m⊗([x,y]+[y,x]) = 0 (x = y included), so
        the triples with x < y span every Leibniz boundary.
    Negating columns or boundaries changes neither span nor RREF, so the
    report, representatives included, is that of `hl2`.
    """
    table = _require(a, "lie", "h1_adjoint", a.dim * a.dim)
    n = a.dim
    return _leibniz_complex("h1_adjoint", n, table,
                            ((m, x, y) for m in range(n) for x in range(n) for y in range(x + 1, n)))
