"""Finite-dimensional algebras given by structure constants.

A `StructureAlgebra` stores one bilinear bracket as a sparse table
``bracket[(i, j)] = {k: c}`` meaning [e_i, e_j] = Σ_k c·e_k (0-based
indices internally; reports and JSON use 1-based).  A `MuAlgebra` stores
two tables: an antisymmetric bracket {−,−} and a commutative product.

`verify_variety` / `verify_mu` check defining identities on all basis
tuples and return the violations as data; the conversion maps between the
two presentations refuse inputs whose report is non-empty.

The identities are rows of one table, each a signed sum of bracket
monomials such as ``+b(i,b(j,k)) -b(b(i,j),k) +b(b(i,k),j)``; a variety is
a list of rows in `_VARIETY_GROUPS`.  One evaluator reads only the nonzero
values, so the cost follows the nonzero cells, not dim³.  It computes in
`int`s on the tables times D, the lcm of all their denominators, which
`_check`, the one caller of `_integer_tables`, makes once per call; it
builds every composite such as [[e_x,e_y],e_z] once per call, shared by
all rows.  Each row is checked whole: its first monomial's values, keyed
by index tuple, must equal the other monomials' values scattered onto the
same tuples, one dict comparison; only a row that fails is summed, at the
tuples where the two differ.  A row is all cells or all nested monomials,
so its sum is D or D² times the true value; a violation's residual is that
sum divided back, the exact tuple of Fractions.  The residuals are made
dense only within the budget `linalg.MAX_DENSE_ENTRIES`; more raise
RoncoError before any of them is.  The variety precondition, `_require_ok`,
hands the tables times D it checked to its caller: the conversions read
them and divide D back once per entry, and `homology` builds its chain
data from them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from .errors import NotInVarietyError
from .lincomb import Record, _add_scaled
from .linalg import SpanBuilder, _check_dense, _dense, parse_rational

_EMPTY: dict = {}


def _check_dim(dim: int):
    if type(dim) is not int or dim < 0:
        raise ValueError(f"dimension must be a nonnegative int, got {dim!r}")


def _normalize_table(dim: int, table: dict) -> dict:
    """The table with every value a Fraction and no zeros or empty cells,
    the check of a table passed to a constructor.  Every index must be an
    int in range, as the JSON reader requires: the writer prints it with %d.
    A float or bool value is refused, not rounded; a string must be "p" or "p/q".

    The JSON reader and the conversions build normalized tables themselves
    and adopt them through `Record._of`, so this runs on tables that code
    builds, not on every file that is read."""
    out: dict = {}
    for (i, j), cell in table.items():
        if not (type(i) is int and type(j) is int and 0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"table index ({i!r}, {j!r}) is no int pair in range for dimension {dim}")
        ncell: dict = {}
        for k, v in cell.items():
            if not (type(k) is int and 0 <= k < dim):
                raise ValueError(f"value index {k!r} is no int in range for dimension {dim}")
            if type(v) is not Fraction:
                if isinstance(v, (float, bool)):  # Fraction(0.1) is 3602879701896397/2**55
                    raise ValueError(f"value {v!r} at index {k} of cell ({i}, {j}) is no exact rational")
                v = parse_rational(v) if isinstance(v, str) else Fraction(v)
            if v:
                ncell[k] = v
        if ncell:
            out[(i, j)] = ncell
    return out


class StructureAlgebra(Record):
    """An algebra with one bracket, presented by structure constants."""

    __slots__ = ("dim", "bracket")

    def __init__(self, dim: int, bracket: dict | None = None):
        _check_dim(dim)
        super().__init__(dim, _normalize_table(dim, bracket or {}))

    def cell(self, i: int, j: int) -> dict:
        """Sparse coordinates of [e_i, e_j] (0-based; do not mutate)."""
        return self.bracket.get((i, j), _EMPTY)


class MuAlgebra(Record):
    """An algebra with an antisymmetric bracket and a commutative product."""

    __slots__ = ("dim", "lie_bracket", "product")

    def __init__(self, dim: int, lie_bracket: dict | None = None, product: dict | None = None):
        _check_dim(dim)
        super().__init__(dim, _normalize_table(dim, lie_bracket or {}),
                         _normalize_table(dim, product or {}))

    def lie_cell(self, i: int, j: int) -> dict:
        return self.lie_bracket.get((i, j), _EMPTY)

    def product_cell(self, i: int, j: int) -> dict:
        return self.product.get((i, j), _EMPTY)


# ---------------------------------------------------------------------------
# evaluation

def _table_eval(table: dict, dim: int, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
    if len(x) != dim or len(y) != dim:
        raise ValueError(f"vectors must have length {dim}, got {len(x)} and {len(y)}")
    out = [Fraction(0)] * dim
    for (i, j), cell in table.items():
        c = Fraction(x[i]) * Fraction(y[j])
        if c:
            for k, v in cell.items():
                out[k] += c * v
    return tuple(out)


def bracket_eval(a: StructureAlgebra, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
    """[x, y] for coordinate vectors x, y."""
    return _table_eval(a.bracket, a.dim, x, y)


def mu_bracket_eval(m: MuAlgebra, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
    return _table_eval(m.lie_bracket, m.dim, x, y)


def mu_product_eval(m: MuAlgebra, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
    return _table_eval(m.product, m.dim, x, y)


def basis_vector(dim: int, i: int) -> tuple[Fraction, ...]:
    """Standard basis vector e_i (0-based)."""
    if not 0 <= i < dim:
        raise ValueError(f"basis index {i} out of range for dimension {dim}")
    return _dense(dim, {i: Fraction(1)})


# ---------------------------------------------------------------------------
# identity verification

class Violation(Record):
    """One failed identity instance.

    `axiom` names the identity; `indices` are the 1-based basis indices
    substituted into it; `residual` is the dense value of the left-hand side
    minus right-hand side, a tuple of Fractions.
    """

    __slots__ = ("axiom", "indices", "residual")


class VerificationReport(Record):
    __slots__ = ("variety", "violations")  # violations: a tuple of Violation

    @property
    def ok(self) -> bool:
        return not self.violations


# The identity table.  A row is (axiom, monomials, filter on the 0-based
# indices).  Monomials are written over the tables b (the bracket), l and p
# (bracket and product of a mu-algebra) and the variables i, j, k:
#   +t(x,y)          the cell [e_x, e_y] of t
#   +o(x,t(y,z))     [e_x, [e_y, e_z]], shape "left"
#   +o(t(x,y),z)     [[e_x, e_y], e_z], shape "right"
# A variable may repeat; every monomial of a row must use all its variables,
# and a row is all cells or all nested monomials.  The rows of a group
# report together, their violations interleaved tuple by tuple.  A monomial
# is (sign, (shape, outer, inner), args, read, repeated): `args` reads its
# slots (x, y[, z]) off an index tuple, and `read` reads the index tuple off
# the slots, each variable from its first slot (a 1-tuple when there is one
# variable); `read` is None when the slots are the variables in order.

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
        monomials.append((sign, shape[:3], operator.itemgetter(*slots),
                          None if slots == list(range(len(slots))) else read, len(first) < len(slots)))
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
    [_row("symmetric", "+p(i,l(j,k))")],  # only in "mu-symmetric"
    [_row("skew-action", "+p(i,l(i,j))")],
    [_row("skew-action-polarized", "+p(i,l(j,k)) +p(j,l(i,k))")],
]
_MU_VARIETIES = {"mu": [g for g in _MU_GROUPS if g[0][0] != "symmetric"], "mu-symmetric": _MU_GROUPS}


def _integer_tables(*tables: dict) -> tuple[int, list[dict]]:
    """(D, the tables times D), D the lcm of every denominator in all of them,
    so that every value is an `int`; D is 1 when there are no values."""
    scale = math.lcm(*{v.denominator for table in tables for cell in table.values() for v in cell.values()})
    return scale, [{key: {k: v.numerator * (scale // v.denominator) for k, v in cell.items()}
                    for key, cell in table.items()} for table in tables]


def _composites(tables: dict, shape: str, outer: str, inner: str) -> dict:
    """{(x, y, z): value} for every nonzero o(x,t(y,z)) ("left") or o(t(x,y),z) ("right")."""
    left = shape == "left"
    near: dict = {}  # m -> [(a, [e_a, e_m])] ("left") or [(c, [e_m, e_c])] ("right")
    for (a, c), cell in tables[outer].items():
        near.setdefault(c if left else a, []).append((a if left else c, cell))
    out: dict = {}
    for (x, y), cell in tables[inner].items():
        for m, c in cell.items():
            for a, image in near.get(m, ()):
                key = (a, x, y) if left else (x, y, a)
                acc = out.get(key)
                if acc is None:  # the first contribution: nonzero times nonzero
                    out[key] = {k: c * v for k, v in image.items()}
                else:
                    _add_scaled(acc, c, image)
    return {key: value for key, value in out.items() if value}


def _at_tuples(values: dict, monomial: tuple, keep: Callable | None):
    """(t, value) for every index tuple t of a row at which a monomial is
    nonzero and `keep` holds, off its family's {slots: value}."""
    _, _, args, read, repeated = monomial
    if read is None and keep is None:
        return values.items()
    pairs = ((read(slots) if read else slots, slots, value) for slots, value in values.items())
    return [(t, v) for t, slots, v in pairs if (not repeated or args(t) == slots) and (keep is None or keep(*t))]


def _check(x: StructureAlgebra | MuAlgebra, variety: str) -> tuple[VerificationReport, int, list[dict]]:
    """(report, D, the tables times D): the one place where an algebra's
    integer table is made; every row of the variety is checked on it, and it
    is handed on to the caller.

    A row holds when its first monomial's values, keyed by index tuple, equal
    Σ −sign·(each other monomial) scattered onto the same tuples: one dict
    comparison.  Only a row that fails is summed, and only at the tuples
    where the two sides differ.  The violations are sorted by group, tuple
    and row, as a loop over all basis tuples would list them.
    """
    mu = variety in _MU_VARIETIES
    scale, scaled = _integer_tables(*((x.lie_bracket, x.product) if mu else (x.bracket,)))
    tables = dict(zip("lp" if mu else "b", scaled))
    groups = (_MU_VARIETIES if mu else _VARIETY_GROUPS)[variety]
    # (shape, outer, inner) -> {slots: nonzero value}, built once and shared by every row
    families = {family for group in groups for _, monomials, _ in group for _, family, *_ in monomials}
    values = {f: tables[f[2]] if f[0] == "cell" else _composites(tables, *f) for f in families}
    found = []  # ((group, tuple, row), axiom, sparse residual)
    for g, group in enumerate(groups):
        for r, (axiom, (lead, *others), keep) in enumerate(group):
            first = values[lead[1]]
            if lead[3] or keep:
                first = dict(_at_tuples(first, lead, keep))
            scatter: dict = {}
            for monomial in others:
                c = -lead[0] * monomial[0]
                for t, value in _at_tuples(values[monomial[1]], monomial, keep):
                    _add_scaled(scatter.setdefault(t, {}), c, value)
            scatter = {t: value for t, value in scatter.items() if value}  # drop where the others cancel
            if first != scatter:  # the row sums sign·(first − scatter): D times the true value for cells, D² nested
                d = lead[0] * (scale if lead[1][0] == "cell" else scale * scale)
                for t in first.keys() | scatter.keys():
                    if first.get(t) != scatter.get(t):  # neither side holds a zero, so they differ by one
                        acc = dict(first.get(t, _EMPTY))
                        _add_scaled(acc, -1, scatter.get(t, _EMPTY))
                        found.append(((g, t, r), axiom, {k: Fraction(v, d) for k, v in acc.items()}))
    _check_dense(f"verify {variety}", "residuals", len(found), x.dim)
    found.sort(key=operator.itemgetter(0))
    return VerificationReport._of(variety, tuple(Violation._of(axiom, tuple(i + 1 for i in t), _dense(x.dim, residual))
                                              for (_, t, _), axiom, residual in found)), scale, scaled


def verify_variety(a: StructureAlgebra, variety: str) -> VerificationReport:
    """Check the defining identities of a variety on all basis tuples.

    Varieties: "leibniz"; "lie" (adds alternation and antisymmetry);
    "ronco" (adds the polarized and diagonal square-bracket identities);
    "symmetric-leibniz" (adds the second Leibniz identity
    [[x,y],z] = [x,[y,z]] − [y,[x,z]]).
    """
    if variety not in _VARIETY_GROUPS:
        raise ValueError(f"unknown variety: {variety!r}")
    return _check(a, variety)[0]


def verify_mu(m: MuAlgebra, symmetric: bool = False) -> VerificationReport:
    """Check the coupled bracket/product axioms on all basis tuples.

    Axioms: commutativity of the product; vanishing of all triple
    products; alternation and antisymmetry of the bracket; products are
    central for the bracket ({xy, z} = 0); the coupling
    {x,{y,z}} + {z,{x,y}} + {y,{z,x}} = x{y,z}.  The implied skew-symmetry
    of (x,y,z) ↦ x{y,z} is reported as a derived check; with
    `symmetric=True` the stronger identity x{y,z} = 0 is required.
    """
    return _check(m, "mu-symmetric" if symmetric else "mu")[0]


def _require_ok(x: StructureAlgebra | MuAlgebra, variety: str, message: str) -> tuple[int, list[dict]]:
    """The one variety precondition: refuse, with the report, unless `x` is
    in the variety; otherwise hand on (D, the tables times D) it checked."""
    report, scale, tables = _check(x, variety)
    if not report.ok:
        raise NotInVarietyError(message, report)
    return scale, tables


# ---------------------------------------------------------------------------
# conversions

class _Fractions(dict):
    """(numerator, denominator) -> the Fraction, each one made once: the
    entries of a converted table repeat a few values many times."""

    def __missing__(self, key):
        value = self[key] = Fraction(*key)
        return value


def ronco_to_mu(a: StructureAlgebra) -> MuAlgebra:
    """Split the bracket into {x,y} = ([x,y]−[y,x])/2 and xy = ([x,y]+[y,x])/2.

    The check and the split read one integer table, the bracket times D:
    each half is (x ∓ y)/2D.  Each unordered pair {i, j} is split once:
    (j, i) gets the negated antisymmetric half and the same symmetric half.
    """
    scale, (table,) = _require_ok(a, "ronco", "input does not satisfy the square-bracket identities")
    lie: dict = {}
    prod: dict = {}
    made = _Fractions()
    for i, j in {(i, j) if i <= j else (j, i) for i, j in table}:
        anti = dict(table.get((i, j), _EMPTY))
        sym = dict(anti)
        _add_scaled(anti, -1, table.get((j, i), _EMPTY))
        _add_scaled(sym, 1, table.get((j, i), _EMPTY))
        if anti:  # never for i == j
            lie[(i, j)] = {k: made[x, 2 * scale] for k, x in anti.items()}
            lie[(j, i)] = {k: made[-x, 2 * scale] for k, x in anti.items()}
        if sym:
            prod[(i, j)] = {k: made[x, 2 * scale] for k, x in sym.items()}
            if i != j:
                prod[(j, i)] = dict(prod[(i, j)])  # no two cells share a dict
    return MuAlgebra._of(a.dim, lie, prod)  # normalized: nonzero Fractions, no empty cells


def mu_to_ronco(m: MuAlgebra) -> StructureAlgebra:
    """Recombine as [x,y] = {x,y} + xy: (l + p)/D on the tables times D
    that the axiom check reads."""
    scale, (lie, prod) = _require_ok(m, "mu", "input does not satisfy the bracket/product axioms")
    bracket: dict = {}
    made = _Fractions()
    for key in lie.keys() | prod.keys():
        cell = dict(lie.get(key, _EMPTY))
        _add_scaled(cell, 1, prod.get(key, _EMPTY))
        if cell:
            bracket[key] = {k: made[x, scale] for k, x in cell.items()}
    return StructureAlgebra._of(m.dim, bracket)  # normalized: nonzero Fractions, no empty cells


# ---------------------------------------------------------------------------
# squares, the Lie quotient, and stock algebras

def ann_subspace(a: StructureAlgebra) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the span of all squares [x, x].

    In characteristic 0 that span equals the span of the symmetrized
    brackets [e_i,e_j] + [e_j,e_i], which is what is accumulated here.
    """
    return _ann_span(a).basis()


def _ann_span(a: StructureAlgebra) -> SpanBuilder:
    sb = SpanBuilder(a.dim)
    for i, j in sorted({(min(key), max(key)) for key in a.bracket}):
        acc = dict(a.cell(i, j))
        _add_scaled(acc, Fraction(1), a.cell(j, i))
        if acc:
            sb.add(acc)
    return sb


def lie_quotient(a: StructureAlgebra) -> StructureAlgebra:
    """Quotient by the two-sided ideal generated by all squares.

    In a right Leibniz algebra the span of the squares is already that
    ideal: [x,[y,y]] = [[x,y],y] − [[x,y],y] = 0, and with w = [y,x],
    [[y,y],x] = [y,[y,x]] + [[y,x],y] = [y+w,y+w] − [y,y] − [w,w].  So no
    closure is needed, but the Leibniz identity is, and it is checked.
    The result is presented on the complement of the span's pivot
    coordinates (so its basis is a subset of the input basis, in order)
    and satisfies the Lie identities.
    """
    _require_ok(a, "leibniz", "lie_quotient needs a Leibniz algebra")
    sb = _ann_span(a)
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


def free_nil2(d: int) -> StructureAlgebra:
    """The free 2-step nilpotent Lie algebra: V ⊕ Λ²(V), [u, v] = u∧v.

    Basis: the d generators, then the wedges e_i∧e_j (i < j) in
    lexicographic order; wedges bracket to zero with everything.
    """
    if d < 1:
        raise ValueError(f"generator count must be >= 1, got {d}")
    wedge_index = {}
    for i in range(d):
        for j in range(i + 1, d):
            wedge_index[(i, j)] = d + len(wedge_index)
    bracket: dict = {}
    for (i, j), w in wedge_index.items():
        bracket[(i, j)] = {w: Fraction(1)}
        bracket[(j, i)] = {w: Fraction(-1)}
    return StructureAlgebra(d + len(wedge_index), bracket)


def abelian(dim: int) -> StructureAlgebra:
    return StructureAlgebra(dim, {})


def cross_product() -> StructureAlgebra:
    """The 3-dimensional simple Lie algebra [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    one = Fraction(1)
    return StructureAlgebra(3, {
        (0, 1): {2: one}, (1, 0): {2: -one},
        (1, 2): {0: one}, (2, 1): {0: -one},
        (2, 0): {1: one}, (0, 2): {1: -one},
    })


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Block-diagonal sum; cross brackets vanish."""
    bracket: dict = {key: dict(cell) for key, cell in a.bracket.items()}
    for (i, j), cell in b.bracket.items():
        bracket[(i + a.dim, j + a.dim)] = {k + a.dim: v for k, v in cell.items()}
    return StructureAlgebra(a.dim + b.dim, bracket)
