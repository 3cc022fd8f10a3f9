"""Seeded inputs, job lists and correctness checks for the benchmark workloads.

A workload is a fixed list of roncoalg CLI calls (`Job`s) built from a
seed.  Each job names the exit code it must return and, optionally, an
invariant its stdout must satisfy.  The invariants hold for every seed;
byte-exact stdout digests for recorded seeds live in `golden.json`.

The seed changes only what leaves the cost of a job nearly unchanged, so
that runs on different seeds are comparable:

* `truncate-verify` and `homology`: every input algebra is rewritten in a
  seeded signed-permutation-and-scaling basis e'_a = s_a·e_π(a).  This
  keeps the sparsity pattern and every dimension, but permutes the
  elimination order and raises the coefficient height.
* `free-eval`: the bracket shapes and generator labels are fixed; the seed
  draws a rational coefficient for every leaf.

All randomness goes through `random.Random.random()`, whose output for a
given seed Python keeps stable across versions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# (generators, top degree) of the truncations of the free square-identity
# algebra, dimensions 12 to 45.  The small ones make the middle of the job
# times dense, so the median does not jump between jobs of different cost.
# Larger ones, (2,7) at dim 48 up to (3,5) at dim 99, take 3-20 s per
# verify/convert chain, which would leave fewer than three rounds per run.
TRUNCATIONS = ((2, 4), (2, 5), (4, 2), (3, 3), (2, 6), (3, 4))

LIE_OPS = ("hl1", "hl2", "hr0", "h1ad")
LEIBNIZ_OPS = ("hl1", "hl2")
# label -> (how to build the base algebra, homology ops run on it)
# free_nil2(7) and (8) (2-5 s per operation) and the (2,5) and (2,6)
# truncations are left out to keep a round under about ten seconds; hl2 of
# the (3,4) truncation alone takes four.
HOMOLOGY_BASES = {
    "nil2-4": (("free-nil2", 4), LIE_OPS),
    "nil2-5": (("free-nil2", 5), LIE_OPS),
    "nil2-6": (("free-nil2", 6), LIE_OPS),
    "nil2-5+cross": (("free-nil2+cross", 5), LIE_OPS),
    "trunc-3-4": (("ronco-truncate", 3, 4), LEIBNIZ_OPS),
}

# (generators, degree) classes of the free-eval bracket terms, and how many
# terms each class gets.  The shapes and labels come from a fixed stream so
# that every seed runs the same amount of free-algebra arithmetic.  Degree 10
# on 3 generators is left out: one such term took 6 s, most of a round.
TERM_CLASSES = ((2, 7), (2, 8), (2, 9), (2, 10), (3, 7), (3, 8), (3, 9))
TERMS_PER_CLASS = 2
GRADED_KERNELS = ((2, 8), (2, 9), (2, 10), (3, 6), (3, 7), (4, 5), (4, 6))
FREE_EVAL_ENV = {"RONCO_MAX_DEGREE": "10"}

# Coefficient pools: basis scalings for the structure-constant inputs and
# leaf coefficients for the bracket terms.
_SCALES = tuple(Fraction(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if Fraction(p, q).denominator == q)
_LEAF_COEFFS = ("1", "2", "3", "1/2", "2/3", "-1", "-2", "-3/2")

WORKLOADS = ("truncate-verify", "homology", "free-eval")


@dataclass
class Job:
    """One CLI call and what counts as its correct result."""

    label: str  # stable across seeds and checkouts; keys the golden digests
    argv: list[str]
    expect_rc: int = 0
    env: dict = field(default_factory=dict)
    save: Path | None = None  # stdout is written here for a later job to read
    check: Callable[[bytes], str | None] | None = None  # failure message or None


# ---------------------------------------------------------------------------
# seeded choices, built only on Random.random()

def _rng(workload: str, seed: int, item: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{item}")


def _below(rng: random.Random, n: int) -> int:
    return int(rng.random() * n)


def _shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = _below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# structure-constant tables in the package's canonical JSON form

def parse_table(text: bytes | str) -> tuple[int, dict]:
    """(dim, {(i, j): {k: Fraction}}) with 0-based indices, from kind "leibniz" JSON."""
    obj = json.loads(text)
    if obj.get("kind") != "leibniz":
        raise ValueError(f"expected a kind \"leibniz\" algebra, got {obj.get('kind')!r}")
    table = {
        (row["i"] - 1, row["j"] - 1): {e["k"] - 1: Fraction(e["v"]) for e in row["c"]}
        for row in obj["bracket"]
    }
    return obj["dim"], table


def dump_table(dim: int, table: dict) -> bytes:
    """Canonical JSON: rows sorted by (i, j), entries by k, zero cells dropped."""
    rows = []
    for i, j in sorted(table):
        cell = {k: v for k, v in table[(i, j)].items() if v}
        if cell:
            rows.append({"i": i + 1, "j": j + 1,
                         "c": [{"k": k + 1, "v": str(v)} for k, v in sorted(cell.items())]})
    obj = {"dim": dim, "kind": "leibniz", "bracket": rows}
    return (json.dumps(obj, indent=2) + "\n").encode()


def change_basis(dim: int, table: dict, rng: random.Random) -> dict:
    """Structure constants in the basis e'_a = s_a·e_π(a).

    [e'_a, e'_b] = s_a s_b [e_πa, e_πb], and e_k = e'_π⁻¹(k) / s_π⁻¹(k).
    """
    perm = _shuffled(rng, list(range(dim)))
    inv = [0] * dim
    for a, p in enumerate(perm):
        inv[p] = a
    scale = [_SCALES[_below(rng, len(_SCALES))] * (1 if rng.random() < 0.5 else -1) for _ in range(dim)]
    out: dict = {}
    for (i, j), cell in table.items():
        a, b = inv[i], inv[j]
        out[(a, b)] = {inv[k]: scale[a] * scale[b] * v / scale[inv[k]] for k, v in cell.items()}
    return out


def cross_product_table() -> tuple[int, dict]:
    """[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2 and the antisymmetric partners."""
    table = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        table[(i, j)] = {k: Fraction(1)}
        table[(j, i)] = {k: Fraction(-1)}
    return 3, table


def direct_sum(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    (na, ta), (nb, tb) = a, b
    table = dict(ta)
    for (i, j), cell in tb.items():
        table[(i + na, j + na)] = {k + na: v for k, v in cell.items()}
    return na + nb, table


# ---------------------------------------------------------------------------
# free Lie dimensions, for the graded-kernel invariant

def mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def witt(d: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on d generators."""
    return sum(mobius(n // k) * d**k for k in range(1, n + 1) if n % k == 0) // n


def graded_kernel_dim(d: int, n: int) -> int:
    """Kernel of (Lie degree n−1) ⊗ V → Lie degree n, which is onto for n >= 2."""
    return d * witt(d, n - 1) - witt(d, n)


# ---------------------------------------------------------------------------
# stdout checks

def expect_bytes(expected: bytes, what: str) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        return None if out == expected else f"stdout differs from {what}"
    return check


def expect_violations(out: bytes) -> str | None:
    lines = out.decode().splitlines()
    if not lines or not lines[-1].endswith(" violation(s)"):
        return "no violation count printed"
    count = int(lines[-1].split()[0])
    listed = sum(line.startswith("violation: ") for line in lines[:-1])
    if count < 1 or listed != count:
        return f"{count} violation(s) claimed, {listed} listed"
    return None


def chain_dim(op: str, n: int) -> int:
    """Length of a representative vector: the chain space the cycles live in."""
    return {"hl1": n, "hl2": n * n, "hr0": n * (n + 1) // 2, "h1ad": n * n}[op]


def expect_homology(op: str, n: int, base_dim: int | None) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        obj = json.loads(out)
        if base_dim is None:
            return "no recorded dimension for the unchanged input"
        if obj["dimension"] != base_dim:
            return f"dimension {obj['dimension']}, the unchanged input has {base_dim}"
        reps = obj["representatives"]
        if len(reps) != base_dim or any(len(r) != chain_dim(op, n) for r in reps):
            return "representatives do not match the dimension or the chain space"
        return None
    return check


def expect_graded_kernel(d: int, n: int) -> Callable[[bytes], str | None]:
    want = graded_kernel_dim(d, n)

    def check(out: bytes) -> str | None:
        obj = json.loads(out)
        if obj["dimension"] != want or len(obj["basis"]) != want:
            return f"kernel dimension {obj['dimension']}, expected d·W(d,n−1) − W(d,n) = {want}"
        return None
    return check


def expect_nonempty(out: bytes) -> str | None:
    return None if out.strip() else "empty output"


# ---------------------------------------------------------------------------
# job lists

# Runs one untimed CLI call during set-up and returns its stdout.
SetupCli = Callable[[list[str]], bytes]


def build(workload: str, seed: int, work: Path, cli: SetupCli, base_dims: dict) -> list[Job]:
    """Write the seeded inputs into `work` and return the workload's job list."""
    if workload == "truncate-verify":
        return _truncate_verify(seed, work, cli)
    if workload == "homology":
        return _homology(seed, work, cli, base_dims)
    if workload == "free-eval":
        return _free_eval(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _truncate_verify(seed: int, work: Path, cli: SetupCli) -> list[Job]:
    jobs = []
    for d, n in TRUNCATIONS:
        name = f"trunc-{d}-{n}"
        truncate = ["ronco-truncate", "--gens", str(d), "--max", str(n)]
        original = cli(truncate)
        dim, table = parse_table(original)
        changed = dump_table(dim, change_basis(dim, table, _rng("truncate-verify", seed, name)))
        src, mu = work / f"{name}.json", work / f"{name}.mu.json"
        src.write_bytes(changed)
        jobs += [
            Job(f"{name}/ronco-truncate", truncate, check=expect_bytes(original, "the set-up run")),
            Job(f"{name}/verify-ronco", ["verify", "--variety", "ronco", str(src)],
                check=expect_bytes(b"OK: ronco verified, no violations\n", "the OK line")),
            Job(f"{name}/verify-lie", ["verify", "--variety", "lie", str(src)],
                expect_rc=1, check=expect_violations),
            Job(f"{name}/convert-mu", ["convert", "--to", "mu", str(src)], save=mu),
            Job(f"{name}/convert-ronco", ["convert", "--to", "ronco", str(mu)],
                check=expect_bytes(changed, "the convert input")),
        ]
    return jobs


def base_algebra(recipe: tuple, cli: SetupCli) -> tuple[int, dict]:
    kind = recipe[0]
    if kind == "free-nil2":
        return parse_table(cli(["free-nil2", "--dim", str(recipe[1])]))
    if kind == "free-nil2+cross":
        return direct_sum(parse_table(cli(["free-nil2", "--dim", str(recipe[1])])), cross_product_table())
    if kind == "ronco-truncate":
        return parse_table(cli(["ronco-truncate", "--gens", str(recipe[1]), "--max", str(recipe[2])]))
    raise ValueError(f"unknown recipe {recipe!r}")


def _homology(seed: int, work: Path, cli: SetupCli, base_dims: dict) -> list[Job]:
    jobs = []
    for name, (recipe, ops) in HOMOLOGY_BASES.items():
        dim, table = base_algebra(recipe, cli)
        src = work / f"{name}.json"
        src.write_bytes(dump_table(dim, change_basis(dim, table, _rng("homology", seed, name))))
        for op in ops:
            label = f"{name}/{op}"
            jobs.append(Job(label, ["homology", "--which", op, str(src)],
                            check=expect_homology(op, dim, base_dims.get(label))))
    return jobs


def random_term(rng: random.Random, degree: int, gens: int) -> str:
    """A bracket term with `degree` leaves, none of whose brackets is [t,t]."""
    if degree == 1:
        return f"g{1 + _below(rng, gens)}"
    while True:
        left = 1 + _below(rng, degree - 1)
        a, b = random_term(rng, left, gens), random_term(rng, degree - left, gens)
        if a != b:
            return f"[{a},{b}]"


def term_pool() -> list[tuple[int, int, str]]:
    """(generators, degree, term) for every class, identical for every seed."""
    rng = random.Random("free-eval/shapes")
    return [(d, n, random_term(rng, n, d)) for d, n in TERM_CLASSES for _ in range(TERMS_PER_CLASS)]


def with_leaf_coefficients(term: str, rng: random.Random) -> str:
    out = []
    for part in term.split("g"):
        if out:
            out.append(f"{_LEAF_COEFFS[_below(rng, len(_LEAF_COEFFS))]}*g")
        out.append(part)
    return "".join(out)


def _free_eval(seed: int) -> list[Job]:
    jobs = []
    for t, (d, n, shape) in enumerate(term_pool()):
        expr = with_leaf_coefficients(shape, _rng("free-eval", seed, f"term-{t}"))
        for command in ("ronco-eval", "leib-bracket"):
            jobs.append(Job(f"term-{t}-d{d}-n{n}/{command}", [command, "--gens", str(d), "--expr", expr],
                            env=FREE_EVAL_ENV, check=expect_nonempty))
    for d, n in GRADED_KERNELS:
        jobs.append(Job(f"graded-kernel-{d}-{n}", ["graded-kernel", "--gens", str(d), "--deg", str(n)],
                        env=FREE_EVAL_ENV, check=expect_graded_kernel(d, n)))
    return jobs
