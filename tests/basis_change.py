"""A random GL_n(ℚ) change of basis for structure-constant algebras,
coefficients of large height, and the benchmark's seeded inputs, shared by
the property tests."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from roncoalg.jsonio import dumps_algebra
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import StructureAlgebra, bracket_eval

SCALES = st.sampled_from([Fraction(c) for c in ("1", "-1", "2", "-1/3")])
# coprime and large denominators and large numerators: the identity checks
# scale every table by the lcm of its denominators, so residuals divide by up
# to (5·7·11·16·(10⁶+3))²
HEAVY_COEFFICIENTS = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                               st.sampled_from([1, 5, 7, 11, 16, 10**6 + 3]))


def inverse(p: list[list[Fraction]]) -> list[list[Fraction]]:
    """Dense Gauss–Jordan inverse; `p` is known to be invertible."""
    n = len(p)
    rows = [list(p[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@st.composite
def invertible(draw, n: int) -> list[list[Fraction]]:
    """A scaled permutation matrix followed by up to n shears
    (column x += c·column y), so the new basis stays fairly sparse."""
    perm = draw(st.permutations(range(n)))
    p = [[draw(SCALES) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, n))):
        x, y, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(SCALES)
        if x != y:
            for row in p:
                row[x] += c * row[y]
    return p


def change_basis(a: StructureAlgebra, p: list[list[Fraction]]) -> StructureAlgebra:
    """Structure constants in the basis e'_x = Σ_i p[i][x]·e_i."""
    n = a.dim
    p_inv = inverse(p)
    columns = [[p[i][x] for i in range(n)] for x in range(n)]
    table = {}
    for x in range(n):
        for y in range(n):
            w = bracket_eval(a, columns[x], columns[y])
            table[(x, y)] = {k: sum(p_inv[k][m] * w[m] for m in range(n)) for k in range(n)}
    return StructureAlgebra(n, table)


def signed_permutation_and_scaling(a: StructureAlgebra, seed: int, numerators, denominators) -> StructureAlgebra:
    """`a` in the basis e'_x = s_x·e_π(x), as the benchmark's `change_basis`
    builds it: π and each s_x = ±p/q (p from `numerators`, q from
    `denominators`) drawn from `random.Random(seed)`.  It keeps every zero
    cell zero, unlike a GL_n(ℚ) change of basis, which fills the table."""
    rng = random.Random(seed)
    perm = list(range(a.dim))
    rng.shuffle(perm)
    inv = [0] * a.dim
    for x, p in enumerate(perm):
        inv[p] = x
    scale = [Fraction(rng.choice(numerators), rng.choice(denominators)) * rng.choice((1, -1))
             for _ in range(a.dim)]
    table = {}
    for (i, j), cell in a.bracket.items():
        x, y = inv[i], inv[j]
        table[(x, y)] = {inv[k]: scale[x] * scale[y] * v / scale[inv[k]] for k, v in cell.items()}
    return StructureAlgebra(a.dim, table)


def perfbench_workloads():
    """The benchmark's `workloads` module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def seeded_truncation(d: int, n: int, seed: int) -> StructureAlgebra:
    """truncate(d, n) in the signed-permutation-and-scaling basis that the
    `truncate-verify` benchmark draws for `seed`."""
    workloads = perfbench_workloads()
    dim, table = workloads.parse_table(dumps_algebra(truncate_to_structure(d, n)))
    rng = workloads._rng("truncate-verify", seed, f"trunc-{d}-{n}")
    return StructureAlgebra(dim, workloads.change_basis(dim, table, rng))
