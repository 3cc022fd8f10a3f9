"""Reference implementations of the identity checks and conversions.

These are the dense loops that `roncoalg.structure` used before its
identity table: every basis tuple is visited, empty cells included.  They
are kept, unchanged, only so that tests can compare the table-driven
evaluator against them report for report.  They compose brackets with the
Fraction actions `_act_left` / `_act_right`, which the evaluator no longer
uses: it works on integer-scaled tables.  `lie_quotient` is the version
that closed the span of squares under both multiplications before taking
the quotient; the closure never adds a vector to a Leibniz algebra's span.
`split_bracket_by_halves` and `recombine_by_scaling` are the sparse
conversions that scaled whole cells by ½ and by 1 through `_add_scaled`.
"""

from __future__ import annotations

from fractions import Fraction

from roncoalg.errors import NotInVarietyError
from roncoalg.linalg import SpanBuilder
from roncoalg.structure import (
    _EMPTY,
    MuAlgebra,
    StructureAlgebra,
    VerificationReport,
    Violation,
    _add_scaled,
    _ann_span,
)


def _act_left(table: dict, i: int, vec: dict) -> dict:
    """[e_i, vec] as a sparse dict."""
    out: dict = {}
    for m, c in vec.items():
        _add_scaled(out, c, table.get((i, m), _EMPTY))
    return out


def _act_right(table: dict, vec: dict, j: int) -> dict:
    """[vec, e_j] as a sparse dict."""
    out: dict = {}
    for m, c in vec.items():
        _add_scaled(out, c, table.get((m, j), _EMPTY))
    return out


class _Checker:
    def __init__(self, dim: int):
        self.dim = dim
        self.violations: list[Violation] = []

    def require_zero(self, axiom: str, indices: tuple[int, ...], residual: dict):
        if residual:
            dense = [Fraction(0)] * self.dim
            for k, v in residual.items():
                dense[k] = v
            self.violations.append(Violation(axiom, tuple(i + 1 for i in indices), tuple(dense)))


def _check_leibniz(ch: _Checker, bk: dict, axiom: str = "leibniz"):
    # [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j] = 0
    n = ch.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = _act_left(bk, i, bk.get((j, k), _EMPTY))
                _add_scaled(acc, Fraction(-1), _act_right(bk, bk.get((i, j), _EMPTY), k))
                _add_scaled(acc, Fraction(1), _act_right(bk, bk.get((i, k), _EMPTY), j))
                ch.require_zero(axiom, (i, j, k), acc)


def verify_variety(a: StructureAlgebra, variety: str) -> VerificationReport:
    bk = a.bracket
    n = a.dim
    ch = _Checker(n)
    if variety not in ("leibniz", "lie", "ronco", "symmetric-leibniz"):
        raise ValueError(f"unknown variety: {variety!r}")
    _check_leibniz(ch, bk)
    if variety == "lie":
        for i in range(n):
            ch.require_zero("alternating", (i,), dict(a.cell(i, i)))
        for i in range(n):
            for j in range(i + 1, n):
                acc = dict(a.cell(i, j))
                _add_scaled(acc, Fraction(1), a.cell(j, i))
                ch.require_zero("antisymmetry", (i, j), acc)
    elif variety == "ronco":
        # [[e_i,e_j],e_k] + [[e_j,e_i],e_k] = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = _act_right(bk, a.cell(i, j), k)
                    _add_scaled(acc, Fraction(1), _act_right(bk, a.cell(j, i), k))
                    ch.require_zero("polarized-square-bracket", (i, j, k), acc)
        # [[e_i,e_i],e_j] = 0
        for i in range(n):
            for j in range(n):
                ch.require_zero("square-bracket", (i, j), _act_right(bk, a.cell(i, i), j))
    elif variety == "symmetric-leibniz":
        # [[e_i,e_j],e_k] - [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]] = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = _act_right(bk, a.cell(i, j), k)
                    _add_scaled(acc, Fraction(-1), _act_left(bk, i, a.cell(j, k)))
                    _add_scaled(acc, Fraction(1), _act_left(bk, j, a.cell(i, k)))
                    ch.require_zero("right-leibniz", (i, j, k), acc)
    return VerificationReport(variety, tuple(ch.violations))


def verify_mu(m: MuAlgebra, symmetric: bool = False) -> VerificationReport:
    n = m.dim
    lie, prod = m.lie_bracket, m.product
    ch = _Checker(n)
    for i in range(n):
        for j in range(i + 1, n):
            acc = dict(m.product_cell(i, j))
            _add_scaled(acc, Fraction(-1), m.product_cell(j, i))
            ch.require_zero("commutative", (i, j), acc)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ch.require_zero("triple-product-right", (i, j, k), _act_left(prod, i, m.product_cell(j, k)))
                ch.require_zero("triple-product-left", (i, j, k), _act_right(prod, m.product_cell(i, j), k))
    for i in range(n):
        ch.require_zero("bracket-alternating", (i,), dict(m.lie_cell(i, i)))
    for i in range(n):
        for j in range(i + 1, n):
            acc = dict(m.lie_cell(i, j))
            _add_scaled(acc, Fraction(1), m.lie_cell(j, i))
            ch.require_zero("bracket-antisymmetry", (i, j), acc)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ch.require_zero("product-bracket", (i, j, k), _act_right(lie, m.product_cell(i, j), k))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # {e_i,{e_j,e_k}} + {e_k,{e_i,e_j}} + {e_j,{e_k,e_i}} - e_i{e_j,e_k}
                acc = _act_left(lie, i, m.lie_cell(j, k))
                _add_scaled(acc, Fraction(1), _act_left(lie, k, m.lie_cell(i, j)))
                _add_scaled(acc, Fraction(1), _act_left(lie, j, m.lie_cell(k, i)))
                _add_scaled(acc, Fraction(-1), _act_left(prod, i, m.lie_cell(j, k)))
                ch.require_zero("coupled-jacobi", (i, j, k), acc)
    if symmetric:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ch.require_zero("symmetric", (i, j, k), _act_left(prod, i, m.lie_cell(j, k)))
    # derived consequence: x{y,z} is skew-symmetric in (x, y)
    for i in range(n):
        for j in range(n):
            ch.require_zero("skew-action", (i, j), _act_left(prod, i, m.lie_cell(i, j)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = _act_left(prod, i, m.lie_cell(j, k))
                _add_scaled(acc, Fraction(1), _act_left(prod, j, m.lie_cell(i, k)))
                ch.require_zero("skew-action-polarized", (i, j, k), acc)
    return VerificationReport("mu-symmetric" if symmetric else "mu", tuple(ch.violations))


def split_bracket(a: StructureAlgebra) -> MuAlgebra:
    """The body of `ronco_to_mu` after its variety check."""
    half = Fraction(1, 2)
    lie: dict = {}
    prod: dict = {}
    for i in range(a.dim):
        for j in range(a.dim):
            fwd, rev = a.cell(i, j), a.cell(j, i)
            anti: dict = {}
            _add_scaled(anti, half, fwd)
            _add_scaled(anti, -half, rev)
            if anti:
                lie[(i, j)] = anti
            sym: dict = {}
            _add_scaled(sym, half, fwd)
            _add_scaled(sym, half, rev)
            if sym:
                prod[(i, j)] = sym
    return MuAlgebra(a.dim, lie, prod)


def recombine(m: MuAlgebra) -> StructureAlgebra:
    """The body of `mu_to_ronco` after its axiom check."""
    bracket: dict = {}
    for i in range(m.dim):
        for j in range(m.dim):
            acc = dict(m.lie_cell(i, j))
            _add_scaled(acc, Fraction(1), m.product_cell(i, j))
            if acc:
                bracket[(i, j)] = acc
    return StructureAlgebra(m.dim, bracket)


def split_bracket_by_halves(a: StructureAlgebra) -> MuAlgebra:
    """The sparse body that `ronco_to_mu` had, after its variety check,
    before it split each pair of cells in one pass over common denominators."""
    half = Fraction(1, 2)
    lie: dict = {}
    prod: dict = {}
    for i, j in sorted(a.bracket.keys() | {(j, i) for i, j in a.bracket}):
        for table, sign in ((lie, -half), (prod, half)):
            acc: dict = {}
            _add_scaled(acc, half, a.cell(i, j))
            _add_scaled(acc, sign, a.cell(j, i))
            if acc:
                table[(i, j)] = acc
    return MuAlgebra(a.dim, lie, prod)


def recombine_by_scaling(m: MuAlgebra) -> StructureAlgebra:
    """The sparse body that `mu_to_ronco` had, after its axiom check."""
    bracket: dict = {}
    for i, j in sorted(m.lie_bracket.keys() | m.product.keys()):
        acc = dict(m.lie_cell(i, j))
        _add_scaled(acc, Fraction(1), m.product_cell(i, j))
        if acc:
            bracket[(i, j)] = acc
    return StructureAlgebra(m.dim, bracket)


def ann_span(a: StructureAlgebra) -> SpanBuilder:
    sb = SpanBuilder(a.dim)
    for i in range(a.dim):
        for j in range(i, a.dim):
            acc = dict(a.cell(i, j))
            _add_scaled(acc, Fraction(1), a.cell(j, i))
            if acc:
                sb.add(acc)
    return sb


def lie_quotient(a: StructureAlgebra) -> StructureAlgebra:
    """Quotient by the two-sided ideal generated by all squares.

    The result is presented on the complement of the ideal's pivot
    coordinates (so its basis is a subset of the input basis, in order)
    and satisfies the Lie identities whenever the input is Leibniz.
    """
    report = verify_variety(a, "leibniz")
    if not report.ok:
        raise NotInVarietyError("lie_quotient needs a Leibniz algebra", report)
    bk = a.bracket
    sb = _ann_span(a)
    changed = True
    while changed:
        changed = False
        for vd in sb.rows():  # live rows: an add may reduce vd in place, within the same span
            for i in range(a.dim):
                for image in (_act_left(bk, i, vd), _act_right(bk, vd, i)):
                    if image and sb.add(image):
                        changed = True
    pivots = set(sb.pivot_columns())
    kept = [i for i in range(a.dim) if i not in pivots]
    pos = {b: q for q, b in enumerate(kept)}
    bracket: dict = {}
    for qi, bi in enumerate(kept):
        for qj, bj in enumerate(kept):
            residual = sb.reduce(a.cell(bi, bj))
            if residual:
                bracket[(qi, qj)] = {pos[m]: c for m, c in residual.items()}
    return StructureAlgebra(len(kept), bracket)
