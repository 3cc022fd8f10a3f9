"""Homology functors, cross-checked against a naive dense construction
of the same chain complexes."""

import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

from roncoalg import homology, linalg
from roncoalg.errors import NotInVarietyError, RoncoError
from roncoalg.homology import hl1, hl2, hr0, h1_adjoint
from roncoalg.linalg import SpanBuilder
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    StructureAlgebra,
    abelian,
    basis_vector,
    bracket_eval,
    cross_product,
    direct_sum,
    free_nil2,
)


def dense_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * p for v, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def tensor(u, v):
    return tuple(a * b for a in u for b in v)


def leibniz_suite():
    return [
        abelian(2),
        free_nil2(2),
        free_nil2(3),
        cross_product(),
        direct_sum(free_nil2(2), abelian(1)),
        truncate_to_structure(2, 3),
    ]


def lie_suite():
    return [
        abelian(3),
        free_nil2(2),
        free_nil2(3),
        cross_product(),
        direct_sum(cross_product(), abelian(2)),
    ]


# dense oracle boundary maps ------------------------------------------------

def oracle_hl2_boundaries(a):
    n = a.dim
    e = [basis_vector(n, i) for i in range(n)]
    cols = []
    for i, j, k in product(range(n), repeat=3):
        col = [x - y for x, y in zip(tensor(bracket_eval(a, e[i], e[j]), e[k]),
                                     tensor(bracket_eval(a, e[i], e[k]), e[j]))]
        col = [x - y for x, y in zip(col, tensor(e[i], bracket_eval(a, e[j], e[k])))]
        if any(col):
            cols.append(col)
    return cols


def oracle_hl2_dim(a):
    n = a.dim
    bracket_rows = []
    for i in range(n):
        for j in range(n):
            row = bracket_eval(a, basis_vector(n, i), basis_vector(n, j))
            bracket_rows.append(row)
    kernel_dim = n * n - dense_rank(bracket_rows)
    boundaries = oracle_hl2_boundaries(a)
    return kernel_dim - (dense_rank(boundaries) if boundaries else 0)


def oracle_hr0_relations(a):
    n = a.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}

    def sym_outer(u, v):
        out = [Fraction(0)] * len(pairs)
        for p in range(n):
            for q in range(n):
                if u[p] and v[q]:
                    out[index[(p, q) if p <= q else (q, p)]] += u[p] * v[q]
        return out

    e = [basis_vector(n, i) for i in range(n)]
    rels = []
    for i, j, k in product(range(n), repeat=3):
        lhs = sym_outer(e[i], bracket_eval(a, e[j], e[k]))
        rhs = sym_outer(bracket_eval(a, e[i], e[j]), e[k])
        rel = [x - y for x, y in zip(lhs, rhs)]
        if any(rel):
            rels.append(rel)
    return len(pairs), rels


def oracle_h1ad_boundaries(a):
    n = a.dim
    e = [basis_vector(n, i) for i in range(n)]
    cols = []
    for m in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                col = [Fraction(0)] * (n * n)
                xm = bracket_eval(a, e[x], e[m])
                ym = bracket_eval(a, e[y], e[m])
                for p in range(n):
                    col[p * n + y] += xm[p]
                    col[p * n + x] -= ym[p]
                for q, c in a.cell(x, y).items():
                    col[m * n + q] += c
                if any(col):
                    cols.append(col)
    return cols


def oracle_h1ad_dim(a):
    n = a.dim
    d1_rows = []
    for m in range(n):
        for x in range(n):
            d1_rows.append(bracket_eval(a, basis_vector(n, x), basis_vector(n, m)))
    kernel_dim = n * n - dense_rank(d1_rows)
    boundaries = oracle_h1ad_boundaries(a)
    return kernel_dim - (dense_rank(boundaries) if boundaries else 0)


# hl1 -----------------------------------------------------------------------

def test_hl1_values():
    report = hl1(abelian(3))
    assert report.dimension == 3
    assert report.representatives == tuple(basis_vector(3, i) for i in range(3))
    report = hl1(free_nil2(2))
    assert report.dimension == 2
    assert report.representatives == (basis_vector(3, 0), basis_vector(3, 1))
    # perfect algebra: nothing survives
    assert hl1(cross_product()).dimension == 0
    # truncations: everything above degree 1 is a bracket
    assert hl1(truncate_to_structure(2, 3)).dimension == 2
    assert hl1(truncate_to_structure(2, 4)).dimension == 2


def test_hl1_requires_leibniz():
    with pytest.raises(NotInVarietyError):
        hl1(StructureAlgebra(1, {(0, 0): {0: Fraction(1)}}))


# hl2 -----------------------------------------------------------------------

def test_hl2_values():
    for d in (1, 2, 3):
        assert hl2(abelian(d)).dimension == d * d
    assert hl2(cross_product()).dimension == 0
    assert hl2(free_nil2(2)).dimension == 5


def test_hl2_against_dense_oracle():
    for a in leibniz_suite():
        assert hl2(a).dimension == oracle_hl2_dim(a), a


def test_hl2_representatives():
    for a in (free_nil2(2), free_nil2(3), truncate_to_structure(2, 3)):
        n = a.dim
        report = hl2(a)
        span = SpanBuilder(n * n)
        for col in oracle_hl2_boundaries(a):
            span.add(col)
        for vec in report.representatives:
            # a genuine cycle: the bracket kills it
            out = [Fraction(0)] * n
            for t, c in enumerate(vec):
                if c:
                    i, j = divmod(t, n)
                    for m, v in a.cell(i, j).items():
                        out[m] += c * v
            assert not any(out)
            # independent modulo the boundary image
            assert span.add(vec)
        assert report.dimension == len(report.representatives)


# hr0 -----------------------------------------------------------------------

def test_hr0_values():
    for d in (1, 2, 3, 4):
        assert hr0(abelian(d)).dimension == d * (d + 1) // 2
    assert [hr0(free_nil2(d)).dimension for d in (1, 2, 3, 4, 5)] == [1, 3, 7, 14, 25]


def test_closed_forms_of_the_finite_families():
    # dim HL₂(free_nil2(k)) = k(k²+1)/2, dim HR₀(free_nil2(k)) = (k³+5k)/6 and
    # dim HL₂(truncate(d, 2)) = d³, as measured for the per-partition homology;
    # dim HL₂(truncate(d, 3)) for d ≤ 4 (algebra dimensions 2, 8, 21, 44), the
    # first values a per-content hl2 must reproduce
    assert [hl2(free_nil2(k)).dimension for k in range(1, 7)] == [k * (k * k + 1) // 2 for k in range(1, 7)]
    assert [hr0(free_nil2(k)).dimension for k in range(1, 9)] == [(k**3 + 5 * k) // 6 for k in range(1, 9)]
    assert [hl2(truncate_to_structure(d, 2)).dimension for d in range(1, 6)] == [d**3 for d in range(1, 6)]
    assert [hl2(truncate_to_structure(d, 3)).dimension for d in range(1, 5)] == [1, 10, 45, 136]
    assert [k * (k * k + 1) // 2 for k in range(1, 7)] == [1, 5, 15, 34, 65, 111]
    assert [(k**3 + 5 * k) // 6 for k in range(1, 9)] == [1, 3, 7, 14, 25, 41, 63, 92]


def test_hr0_against_dense_oracle():
    for a in lie_suite():
        pairs, rels = oracle_hr0_relations(a)
        expected = pairs - (dense_rank(rels) if rels else 0)
        assert hr0(a).dimension == expected, a


def test_hr0_representatives():
    for a in (free_nil2(2), cross_product()):
        pairs, rels = oracle_hr0_relations(a)
        report = hr0(a)
        span = SpanBuilder(pairs)
        for rel in rels:
            span.add(rel)
        for vec in report.representatives:
            # surviving standard basis pairs, independent modulo relations
            assert sorted(vec) == [0] * (pairs - 1) + [1]
            assert span.add(vec)


def test_hr0_requires_lie():
    with pytest.raises(NotInVarietyError):
        hr0(truncate_to_structure(1, 2))
    with pytest.raises(NotInVarietyError):
        hr0(StructureAlgebra(1, {(0, 0): {0: Fraction(1)}}))


# h1 with adjoint coefficients ----------------------------------------------

def test_h1_adjoint_values():
    for d in (1, 2, 3):
        assert h1_adjoint(abelian(d)).dimension == d * d
    assert h1_adjoint(cross_product()).dimension == 0


def test_h1_adjoint_against_dense_oracle():
    for a in lie_suite():
        assert h1_adjoint(a).dimension == oracle_h1ad_dim(a), a


def test_h1_adjoint_matches_hl2_on_lie_algebras():
    for a in lie_suite():
        assert h1_adjoint(a) == hl2(a), a


def test_h1_adjoint_representatives():
    for a in (free_nil2(2), free_nil2(3)):
        n = a.dim
        report = h1_adjoint(a)
        span = SpanBuilder(n * n)
        for col in oracle_h1ad_boundaries(a):
            span.add(col)
        for vec in report.representatives:
            # killed by d1: sum of [x, m] over the chain m⊗x is zero
            out = [Fraction(0)] * n
            for t, c in enumerate(vec):
                if c:
                    m, x = divmod(t, n)
                    for p, v in a.cell(x, m).items():
                        out[p] += c * v
            assert not any(out)
            assert span.add(vec)


def test_h1_adjoint_requires_lie():
    with pytest.raises(NotInVarietyError):
        h1_adjoint(truncate_to_structure(2, 3))


def test_invariant_checks_survive_python_O():
    # under -O every assert is stripped; the invariant checks must still run.
    # A kernel basis missing a vector leaves boundaries plus kept cycles short
    # of the whole kernel, which the cycle-rank check reports; a wrong Möbius
    # function makes a Witt dimension non-integral.
    program = textwrap.dedent("""
        from roncoalg import freelie, homology, linalg
        from roncoalg.errors import InternalError
        from roncoalg.structure import free_nil2
        if __debug__:
            raise SystemExit("not running under -O")
        print(homology.hl2(free_nil2(3)).dimension)
        full_kernel = linalg.SpanBuilder.kernel

        def short_kernel(self):
            return full_kernel(self)[:-1]

        linalg.SpanBuilder.kernel = short_kernel
        try:
            homology.hl2(free_nil2(3))
        except InternalError as exc:
            print(f"InternalError: {exc}")
        freelie._mobius = lambda n: 1
        try:
            freelie.witt_dim(2, 3)
        except InternalError as exc:
            print(f"InternalError: {exc}")
    """)
    result = subprocess.run([sys.executable, "-O", "-c", program],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "15\n"
        "InternalError: hl2: cycle rank differs from the kernel dimension\n"
        "InternalError: witt_dim: necklace count 10 is not divisible by 3\n"
    )


def test_cycle_checks_survive_python_O():
    # A kernel basis short of one vector, or holding a vector outside the
    # kernel, can pass the cycle-rank check: dropping the first kernel vector
    # of hl2(free_nil2(3)) used to give dimension 14 instead of 15 silently.
    program = textwrap.dedent("""
        from fractions import Fraction
        from roncoalg import homology, linalg
        from roncoalg.errors import InternalError
        from roncoalg.structure import free_nil2
        if __debug__:
            raise SystemExit("not running under -O")
        full_kernel = linalg.SpanBuilder.kernel

        def drop_first(self):
            return full_kernel(self)[1:]

        def first_not_a_cycle(self):
            # the first pivot is the smallest chain index whose column of ∂ is nonzero
            j = min(self.pivot_columns())
            return [{j: Fraction(1)}] + full_kernel(self)[1:]

        for patch in (drop_first, first_not_a_cycle):
            linalg.SpanBuilder.kernel = patch
            try:
                print(homology.hl2(free_nil2(3)).dimension)
            except InternalError as exc:
                print(f"InternalError: {exc}")
    """)
    result = subprocess.run([sys.executable, "-O", "-c", program],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "InternalError: hl2: rank plus kernel dimension differs from the chain dimension\n"
        "InternalError: hl2: a kept cycle has a nonzero boundary\n"
    )


@pytest.mark.parametrize("op, entries", [(hl1, lambda n: n * n), (hl2, lambda n: n**4),
                                         (hr0, lambda n: (n * (n + 1) // 2) ** 2), (h1_adjoint, lambda n: n**4)])
def test_dense_entries_limit_boundary(monkeypatch, op, entries):
    # the abelian algebra keeps every chain, so its report holds entries(n) dense entries
    monkeypatch.setattr(linalg, "MAX_DENSE_ENTRIES", entries(3))
    assert op(abelian(3)).dimension ** 2 == entries(3)
    with pytest.raises(RoncoError, match="exceed the limit"):
        op(abelian(4))
