"""Structure-constant algebras: evaluation, identity verification,
bracket/product conversions, squares and the Lie quotient."""

import random
import sys
from fractions import Fraction

import pytest

from roncoalg import homology, linalg, structure
from roncoalg.errors import NotInVarietyError, RoncoError
from roncoalg.jsonio import dumps_algebra, loads_algebra
from roncoalg.linalg import SpanBuilder
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import (
    MuAlgebra,
    StructureAlgebra,
    Violation,
    _integer_tables,
    abelian,
    ann_subspace,
    basis_vector,
    bracket_eval,
    cross_product,
    direct_sum,
    free_nil2,
    lie_quotient,
    mu_bracket_eval,
    mu_product_eval,
    mu_to_ronco,
    ronco_to_mu,
    verify_mu,
    verify_variety,
)

ONE = Fraction(1)


def symmetric_mu_example():
    """dim 4: {e1,e2} = e3 and e1·e1 = e4; satisfies x{y,z} = 0."""
    return MuAlgebra(
        4,
        lie_bracket={(0, 1): {2: ONE}, (1, 0): {2: -ONE}},
        product={(0, 0): {3: ONE}},
    )


def bad_leibniz_1dim():
    return StructureAlgebra(1, {(0, 0): {0: ONE}})


def test_table_normalization_and_equality():
    a = StructureAlgebra(2, {(0, 0): {1: 1}, (0, 1): {0: 0}})
    b = StructureAlgebra(2, {(0, 0): {1: Fraction(2, 2)}})
    assert a == b
    assert a.cell(0, 0) == {1: ONE}
    assert a.cell(1, 1) == {}
    with pytest.raises(ValueError):
        StructureAlgebra(2, {(0, 2): {0: 1}})
    with pytest.raises(ValueError):
        StructureAlgebra(2, {(0, 0): {2: 1}})


def test_normalization_keeps_fractions_and_converts_the_rest():
    class Third(Fraction):
        pass

    half = Fraction(1, 2)
    a = StructureAlgebra(2, {(0, 0): {0: half, 1: Third(1, 3)}, (0, 1): {0: 2, 1: "3/4"}})
    assert a.cell(0, 0)[0] is half
    assert a.bracket == {(0, 0): {0: half, 1: Fraction(1, 3)}, (0, 1): {0: Fraction(2), 1: Fraction(3, 4)}}
    assert all(type(v) is Fraction for cell in a.bracket.values() for v in cell.values())


# each builds an algebra of one class from a dimension and one table
BUILDERS = {
    "leibniz": lambda dim, table: StructureAlgebra(dim, table),
    "mu-bracket": lambda dim, table: MuAlgebra(dim, lie_bracket=table),
    "mu-product": lambda dim, table: MuAlgebra(dim, product=table),
}


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("dim, table", [
    (3.0, {}),
    (True, {}),
    (2, {(0, 1.0): {1: ONE}}),
    (2, {(False, 1): {1: ONE}}),
    (2, {(0, 1): {1.0: ONE}}),
    (2, {(0, 1): {True: ONE}}),
], ids=["float-dim", "bool-dim", "float-row-index", "bool-row-index", "float-entry-index",
        "bool-entry-index"])
def test_dimension_and_indices_must_be_ints(builder, dim, table):
    # the JSON reader refuses these, and the writer would print 3.0 as 3 and True as 1
    with pytest.raises(ValueError, match="int"):
        builder(dim, table)


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("value", [0.1, 2.0, True, False, "٣", "0.5"],
                         ids=["float", "integral-float", "true", "false", "non-ascii-digit", "decimal-string"])
def test_values_must_be_exact_rationals(builder, value):
    # Fraction(0.1) is 3602879701896397/2**55 and Fraction(True) is 1: both were stored silently
    with pytest.raises(ValueError, match=r"(\(0, 1\)|not a rational literal)"):
        builder(2, {(0, 1): {1: value}})


def test_bracket_eval():
    assert bracket_eval(abelian(3), basis_vector(3, 0), basis_vector(3, 1)) == (0, 0, 0)
    nil2 = free_nil2(2)
    assert bracket_eval(nil2, basis_vector(3, 0), basis_vector(3, 1)) == (0, 0, 1)
    assert bracket_eval(nil2, basis_vector(3, 1), basis_vector(3, 0)) == (0, 0, -1)
    zero = (Fraction(0),) * 3
    assert bracket_eval(nil2, basis_vector(3, 0), zero) == zero
    # bilinearity on a random pair
    rng = random.Random(1)
    x, y = ([Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2))
    lhs = bracket_eval(nil2, [2 * c for c in x], y)
    rhs = tuple(2 * c for c in bracket_eval(nil2, x, y))
    assert lhs == rhs
    with pytest.raises(ValueError):
        bracket_eval(nil2, [1, 0], [0, 0, 0])


def test_verify_variety_accepts():
    for variety in ("leibniz", "lie", "ronco", "symmetric-leibniz"):
        assert verify_variety(abelian(3), variety).ok
    assert verify_variety(cross_product(), "lie").ok
    assert verify_variety(free_nil2(3), "lie").ok
    assert verify_variety(truncate_to_structure(2, 3), "ronco").ok
    # [a,a] = c is symmetric Leibniz but not Lie
    t12 = truncate_to_structure(1, 2)
    assert verify_variety(t12, "symmetric-leibniz").ok
    assert verify_variety(t12, "ronco").ok
    assert not verify_variety(t12, "lie").ok
    with pytest.raises(ValueError):
        verify_variety(abelian(1), "hopf")


def test_verify_variety_violation_details():
    report = verify_variety(bad_leibniz_1dim(), "leibniz")
    assert not report.ok
    assert report.violations == (Violation("leibniz", (1, 1, 1), (ONE,)),)
    # Lie check flags the non-alternating diagonal
    report = verify_variety(truncate_to_structure(1, 2), "lie")
    axioms = {v.axiom for v in report.violations}
    assert "alternating" in axioms
    assert all(v.indices == (1,) for v in report.violations if v.axiom == "alternating")


def test_verify_mu():
    assert verify_mu(MuAlgebra(2), symmetric=True).ok
    assert verify_mu(symmetric_mu_example(), symmetric=True).ok
    report = verify_mu(MuAlgebra(1, product={(0, 0): {0: ONE}}))
    axioms = {(v.axiom, v.indices) for v in report.violations}
    assert ("triple-product-left", (1, 1, 1)) in axioms
    assert ("triple-product-right", (1, 1, 1)) in axioms
    # non-commutative product
    report = verify_mu(MuAlgebra(2, product={(0, 1): {0: ONE}}))
    assert ("commutative", (1, 2)) in {(v.axiom, v.indices) for v in report.violations}
    # antisymmetric non-Jacobi bracket, no product: only the coupled axiom fails
    m = MuAlgebra(3, lie_bracket={(0, 1): {2: ONE}, (1, 0): {2: -ONE}, (1, 2): {0: ONE},
                                  (2, 1): {0: -ONE}, (2, 0): {0: ONE}, (0, 2): {0: -ONE}})
    report = verify_mu(m)
    assert not report.ok
    assert {v.axiom for v in report.violations} == {"coupled-jacobi"}


def test_ronco_to_mu_values():
    # abelian input: everything zero
    m = ronco_to_mu(abelian(2))
    assert m.lie_bracket == {} and m.product == {}
    # [a,a] = c: bracket part vanishes, product keeps the square
    m = ronco_to_mu(truncate_to_structure(1, 2))
    assert m.lie_bracket == {}
    assert m.product == {(0, 0): {1: ONE}}
    # Lie input: product vanishes, bracket is copied
    m = ronco_to_mu(cross_product())
    assert m.product == {}
    assert m.lie_bracket == cross_product().bracket


def test_conversion_identity_bracket_is_sum_of_parts():
    for a in (truncate_to_structure(2, 3), truncate_to_structure(1, 2), cross_product()):
        m = ronco_to_mu(a)
        for i in range(a.dim):
            for j in range(a.dim):
                ei, ej = basis_vector(a.dim, i), basis_vector(a.dim, j)
                lie = mu_bracket_eval(m, ei, ej)
                prod = mu_product_eval(m, ei, ej)
                assert tuple(l + p for l, p in zip(lie, prod)) == bracket_eval(a, ei, ej)


def test_round_trips_are_exact():
    for a in (abelian(3), cross_product(), truncate_to_structure(1, 2),
              truncate_to_structure(2, 3), truncate_to_structure(2, 4), free_nil2(3)):
        m = ronco_to_mu(a)
        assert verify_mu(m).ok
        assert mu_to_ronco(m) == a
    m = symmetric_mu_example()
    a = mu_to_ronco(m)
    assert verify_variety(a, "ronco").ok
    assert verify_variety(a, "symmetric-leibniz").ok
    assert ronco_to_mu(a) == m


def test_conversions_reject_bad_inputs():
    with pytest.raises(NotInVarietyError) as exc:
        ronco_to_mu(bad_leibniz_1dim())
    assert not exc.value.report.ok
    with pytest.raises(NotInVarietyError):
        mu_to_ronco(MuAlgebra(1, product={(0, 0): {0: ONE}}))


def test_symmetric_correspondence():
    # symmetric Leibniz input -> mu with x{y,z} = 0, and back
    t12 = truncate_to_structure(1, 2)
    assert verify_mu(ronco_to_mu(t12), symmetric=True).ok
    back = mu_to_ronco(symmetric_mu_example())
    assert verify_variety(back, "symmetric-leibniz").ok


def test_polarization_soundness():
    rng = random.Random(2026)
    for a in (truncate_to_structure(2, 4), mu_to_ronco(symmetric_mu_example())):
        assert verify_variety(a, "ronco").ok
        for _ in range(50):
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a.dim)]
            y = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a.dim)]
            assert all(c == 0 for c in bracket_eval(a, bracket_eval(a, x, x), y))


def test_ann_subspace():
    assert ann_subspace(cross_product()) == []
    assert ann_subspace(abelian(4)) == []
    assert ann_subspace(truncate_to_structure(1, 2)) == [(Fraction(0), ONE)]
    sb = SpanBuilder(8)
    for v in ann_subspace(truncate_to_structure(2, 3)):
        sb.add(v)
    assert sb.rank == 3


def test_lie_quotient():
    so3 = cross_product()
    assert lie_quotient(so3) == so3
    q = lie_quotient(truncate_to_structure(1, 2))
    assert q == abelian(1)
    q = lie_quotient(truncate_to_structure(2, 3))
    assert q.dim == 2 + 1 + 2
    assert verify_variety(q, "lie").ok
    q = lie_quotient(truncate_to_structure(2, 4))
    assert q.dim == 2 + 1 + 2 + 3
    assert verify_variety(q, "lie").ok
    with pytest.raises(NotInVarietyError):
        lie_quotient(bad_leibniz_1dim())


def test_squares_span_the_quotient_kernel():
    # the span of symmetrized brackets already equals the ideal killed by
    # the Lie quotient, for the stock test algebras
    for a in (truncate_to_structure(1, 2), truncate_to_structure(2, 3),
              truncate_to_structure(2, 4), cross_product(), free_nil2(3), abelian(2)):
        sb = SpanBuilder(a.dim)
        for v in ann_subspace(a):
            sb.add(v)
        q = lie_quotient(a)
        assert sb.rank == a.dim - q.dim
        # quotient basis = complement of the ideal's pivots, so every pivot
        # coordinate vector reduces into the ann span
        kept = set(range(a.dim)) - set(sb.pivot_columns())
        assert len(kept) == q.dim


def test_free_nil2():
    assert free_nil2(1) == abelian(1)
    nil2 = free_nil2(2)
    assert nil2.dim == 3
    assert nil2.cell(0, 1) == {2: ONE}
    assert nil2.cell(1, 0) == {2: -ONE}
    assert free_nil2(3).dim == 6
    assert free_nil2(4).dim == 10
    # wedges are central
    for j in range(3):
        assert free_nil2(3).cell(4, j) == {}
    assert verify_variety(free_nil2(4), "lie").ok
    with pytest.raises(ValueError):
        free_nil2(0)


def test_direct_sum():
    s = direct_sum(free_nil2(2), abelian(1))
    assert s.dim == 4
    assert verify_variety(s, "lie").ok
    assert s.cell(0, 1) == {2: ONE}
    assert s.cell(0, 3) == {}
    s2 = direct_sum(cross_product(), free_nil2(2))
    assert s2.cell(3, 4) == {5: ONE}
    assert verify_variety(s2, "lie").ok


def test_bracket_product_coupling_identities():
    # product side: 2·x{y,z} = [[x,y],z] + [[y,z],x] + [[z,x],y]
    # bracket side: 2·{x,{y,z}} = [[x,y],z] + [[z,x],y] - [[y,z],x]
    # and the action (x,y) ↦ x{y,z} kills repeats: x{x,y} = 0, x{y,z} + y{x,z} = 0
    for a in (truncate_to_structure(2, 3), truncate_to_structure(1, 2),
              cross_product(), free_nil2(2), mu_to_ronco(symmetric_mu_example())):
        m = ronco_to_mu(a)
        n = a.dim
        e = [basis_vector(n, i) for i in range(n)]

        def br(x, y):
            return bracket_eval(a, x, y)

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    x, y, z = e[i], e[j], e[k]
                    ps_lhs = tuple(2 * c for c in mu_product_eval(m, x, mu_bracket_eval(m, y, z)))
                    ps_rhs = tuple(
                        p + q + r for p, q, r in zip(
                            br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))
                    )
                    assert ps_lhs == ps_rhs, (i, j, k)
                    ms_lhs = tuple(2 * c for c in mu_bracket_eval(m, x, mu_bracket_eval(m, y, z)))
                    ms_rhs = tuple(
                        p + q - r for p, q, r in zip(
                            br(br(x, y), z), br(br(z, x), y), br(br(y, z), x))
                    )
                    assert ms_lhs == ms_rhs, (i, j, k)
                    skew = tuple(
                        p + q for p, q in zip(
                            mu_product_eval(m, x, mu_bracket_eval(m, y, z)),
                            mu_product_eval(m, y, mu_bracket_eval(m, x, z)))
                    )
                    assert all(c == 0 for c in skew), (i, j, k)
            for j in range(n):
                diag = mu_product_eval(m, e[i], mu_bracket_eval(m, e[i], e[j]))
                assert all(c == 0 for c in diag)


def test_dense_residuals_limit_boundary(monkeypatch):
    # [e_a,e_a] = e_a on every basis vector fails "lie" twice per vector
    # (alternating, leibniz): 2n residuals of length n, 2n² dense entries
    def diagonal(n):
        return StructureAlgebra(n, {(a, a): {a: Fraction(1)} for a in range(n)})

    monkeypatch.setattr(linalg, "MAX_DENSE_ENTRIES", 2 * 3**2)
    assert len(verify_variety(diagonal(3), "lie").violations) == 6
    with pytest.raises(RoncoError, match=r"^verify lie: 8 residuals of length 4 \(32 entries\) exceed the limit of 18$"):
        verify_variety(diagonal(4), "lie")


def test_integer_tables_scale_by_the_lcm_of_all_denominators():
    first = {(0, 1): {0: Fraction(1, 6), 2: Fraction(-3, 4)}, (1, 0): {1: Fraction(5)}}
    second = {(2, 2): {0: Fraction(7, 10)}}
    scale, scaled = _integer_tables(first, second)
    assert scale == 60  # lcm(6, 4, 1, 10), over both tables
    assert scaled == [{(0, 1): {0: 10, 2: -45}, (1, 0): {1: 300}}, {(2, 2): {0: 42}}]
    for table, ints in zip((first, second), scaled):
        for key, cell in table.items():
            assert all(type(v) is int and v == cell[k] * scale for k, v in ints[key].items())
    assert _integer_tables({}) == (1, [{}])
    assert _integer_tables(free_nil2(3).bracket)[0] == 1


def test_each_call_converts_its_table_once(monkeypatch):
    # an algebra makes its integer form once: one built from Fractions
    # converts its tables on first use, once across all nine operations, and
    # one read from JSON or made by a conversion never converts; every loaded
    # roncoalg module that holds `_integer_tables` gets the counting wrapper
    calls = []
    original = structure._integer_tables

    def counted(*tables):
        calls.append(tables)
        return original(*tables)

    for name, module in list(sys.modules.items()):
        if name == "roncoalg" or name.startswith("roncoalg."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)

    def run_all(lie, ronco, mu):
        homology.hl1(lie), homology.hl2(lie), homology.hr0(lie), homology.h1_adjoint(lie)
        ronco_to_mu(ronco), mu_to_ronco(mu), lie_quotient(ronco)
        verify_variety(ronco, "ronco"), verify_mu(mu)

    # the stock constructions are made as their integer form, so these two
    # are built again from their Fraction tables
    lie, ronco = (StructureAlgebra(x.dim, x.bracket) for x in (free_nil2(3), truncate_to_structure(2, 3)))
    calls.clear()
    mu = ronco_to_mu(ronco)  # made by a conversion
    run_all(lie, ronco, mu)
    assert [tuple(map(id, tables)) for tables in calls] == [(id(ronco.bracket),), (id(lie.bracket),)]
    read = [loads_algebra(dumps_algebra(x)) for x in (lie, ronco, mu)]
    calls.clear()
    run_all(*read)
    run_all(read[0], read[1], ronco_to_mu(read[1]))
    assert calls == []
