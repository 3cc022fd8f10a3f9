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

`candidate_verify_variety` and `candidate_verify_mu` are the table-driven
evaluator that came before the row-by-row one, with its own copy of the
identity table: for each group of rows it collected the index tuples that
some monomial's nonzero values reach, sorted them, and summed every row at
every tuple in an accumulator of its own.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable

from roncoalg.errors import NotInVarietyError
from roncoalg.linalg import SpanBuilder, _check_dense, _dense
from roncoalg.structure import (
    _EMPTY,
    MuAlgebra,
    StructureAlgebra,
    VerificationReport,
    Violation,
    _add_scaled,
    _ann_span,
    _integer_tables,
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


# The identity table.  A row is (axiom, monomials, filter on the 0-based
# indices).  Monomials are written over the tables b (the bracket), l and p
# (bracket and product of a mu-algebra) and the variables i, j, k:
#   +t(x,y)          the cell [e_x, e_y] of t
#   +o(x,t(y,z))     [e_x, [e_y, e_z]], shape "left"
#   +o(t(x,y),z)     [[e_x, e_y], e_z], shape "right"
# A variable may repeat; every monomial of a row must use all its variables,
# and a row is all cells or all nested monomials.  A group of rows is checked
# in one pass over the index tuples, so that their violations interleave
# tuple by tuple.  A monomial is (sign, (shape, outer, inner), args, read,
# repeated): `args` reads its slots (x, y[, z]) off an index tuple, and `read`
# reads the index tuple off the slots, each variable from its first slot
# (a 1-tuple when there is one variable).

def _row(axiom: str, text: str, keep: Callable | None = None) -> tuple:
    monomials = []
    for term in text.split():
        sign, letters = (1 if term[0] == "+" else -1), [c for c in term if c.isalpha()]
        if len(letters) == 3:
            shape = ("cell", None, letters[0], letters[1:])
        elif letters[1] in "ijk":
            shape = ("left", letters[0], letters[2], letters[1:2] + letters[3:])
        else:
            shape = ("right", letters[0], letters[1], letters[2:])
        slots = ["ijk".index(c) for c in shape[3]]
        first = [slots.index(v) for v in range(max(slots) + 1)]
        read = operator.itemgetter(*first) if len(first) > 1 else operator.itemgetter(slice(1))
        monomials.append((sign, shape[:3], operator.itemgetter(*slots), read, len(first) < len(slots)))
    if len({mono[1][0] == "cell" for mono in monomials}) > 1:
        raise ValueError(f"row {axiom!r} mixes cell monomials with nested ones")
    return axiom, monomials, keep


_LEIBNIZ = [_row("leibniz", "+b(i,b(j,k)) -b(b(i,j),k) +b(b(i,k),j)")]
_VARIETY_GROUPS = {
    "leibniz": [_LEIBNIZ],
    "lie": [_LEIBNIZ, [_row("alternating", "+b(i,i)")],
            [_row("antisymmetry", "+b(i,j) +b(j,i)", operator.lt)]],
    "ronco": [_LEIBNIZ, [_row("polarized-square-bracket", "+b(b(i,j),k) +b(b(j,i),k)")],
              [_row("square-bracket", "+b(b(i,i),j)")]],
    "symmetric-leibniz": [_LEIBNIZ, [_row("right-leibniz", "+b(b(i,j),k) -b(i,b(j,k)) +b(j,b(i,k))")]],
}
_MU_GROUPS = [
    [_row("commutative", "+p(i,j) -p(j,i)", operator.lt)],
    [_row("triple-product-right", "+p(i,p(j,k))"), _row("triple-product-left", "+p(p(i,j),k)")],
    [_row("bracket-alternating", "+l(i,i)")],
    [_row("bracket-antisymmetry", "+l(i,j) +l(j,i)", operator.lt)],
    [_row("product-bracket", "+l(p(i,j),k)")],
    [_row("coupled-jacobi", "+l(i,l(j,k)) +l(k,l(i,j)) +l(j,l(k,i)) -p(i,l(j,k))")],
    [_row("symmetric", "+p(i,l(j,k))")],  # only with symmetric=True
    [_row("skew-action", "+p(i,l(i,j))")],
    [_row("skew-action-polarized", "+p(i,l(j,k)) +p(j,l(i,k))")],
]


def _composites(tables: dict, partners: dict, shape: str, outer: str, inner: str) -> dict:
    """{(x, y, z): value} for every nonzero o(x,t(y,z)) ("left") or o(t(x,y),z) ("right")."""
    out: dict = {}
    o = tables[outer]
    for (x, y), cell in tables[inner].items():
        for m, c in cell.items():
            if shape == "left":
                for a in partners.get((outer, 0, m), ()):
                    _add_scaled(out.setdefault((a, x, y), {}), c, o[(a, m)])
            else:
                for z in partners.get((outer, 1, m), ()):
                    _add_scaled(out.setdefault((x, y, z), {}), c, o[(m, z)])
    return {key: value for key, value in out.items() if value}


def _check(variety: str, dim: int, tables: dict, groups: list) -> VerificationReport:
    """Evaluate each group of rows at the index tuples its nonzero values reach.

    The tuples are visited in lexicographic order, so the violations come
    out as a loop over all basis tuples would list them.
    """
    scale, scaled = _integer_tables(*tables.values())
    tables = dict(zip(tables, scaled))
    partners: dict = {}  # (table, 0, m) -> [a : (a, m) nonzero], (table, 1, m) -> [c : (m, c) nonzero]
    for name, table in tables.items():
        for a, c in table:
            partners.setdefault((name, 0, c), []).append(a)
            partners.setdefault((name, 1, a), []).append(c)
    # (shape, outer, inner) -> {slots: nonzero value}, built once and shared by every row
    families = {family for group in groups for _, monomials, _ in group for _, family, *_ in monomials}
    values = {f: tables[f[2]] if f[0] == "cell" else _composites(tables, partners, *f) for f in families}
    found = []  # (axiom, tuple, sparse residual)
    for group in groups:
        candidates: set = set()
        for _, monomials, _ in group:
            for _, family, args, read, repeated in monomials:
                support = values[family]
                if repeated:  # a variable in two slots binds only where they agree
                    support = [slots for slots in support if args(read(slots)) == slots]
                candidates.update(map(read, support))
        for t in sorted(candidates):
            for axiom, monomials, keep in group:
                if keep and not keep(*t):
                    continue
                acc: dict = {}
                for sign, family, args, _, _ in monomials:
                    _add_scaled(acc, sign, values[family].get(args(t), _EMPTY))
                if acc:  # a cell row sums D times the true values, a nested row D² times
                    d = scale if monomials[0][1][0] == "cell" else scale * scale
                    found.append((axiom, t, {k: Fraction(v, d) for k, v in acc.items()}))
    _check_dense(f"verify {variety}", "residuals", len(found), dim)
    return VerificationReport(variety, tuple(Violation(axiom, tuple(i + 1 for i in t), _dense(dim, residual))
                                          for axiom, t, residual in found))


def candidate_verify_variety(a: StructureAlgebra, variety: str) -> VerificationReport:
    if variety not in _VARIETY_GROUPS:
        raise ValueError(f"unknown variety: {variety!r}")
    return _check(variety, a.dim, {"b": a.bracket}, _VARIETY_GROUPS[variety])


def candidate_verify_mu(m: MuAlgebra, symmetric: bool = False) -> VerificationReport:
    groups = [g for g in _MU_GROUPS if symmetric or g[0][0] != "symmetric"]
    tables = {"l": m.lie_bracket, "p": m.product}
    return _check("mu-symmetric" if symmetric else "mu", m.dim, tables, groups)


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
