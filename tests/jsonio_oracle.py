"""The schema objects that `roncoalg.jsonio` built for an algebra and for a
free square-identity element, and the graded-kernel document that
`roncoalg.cli` built, before they were written directly; and the algebra
reader that parsed every coefficient and let the constructors check the
table again.

Kept unchanged only so that tests can check that `dumps_algebra(x)` equals
`dumps_canonical(algebra_to_obj(x))`, and `dumps_graded_kernel` of the
integer kernel equals `graded_kernel_text` of `graded_kernel_basis`, the
standard library's encoding of the same object, byte for byte; and that `jsonio.obj_to_algebra` returns what
`obj_to_algebra` returns, or raises the same message.
"""

from __future__ import annotations

from fractions import Fraction

from roncoalg import jsonio
from roncoalg.freelie import format_word
from roncoalg.linalg import format_rational, parse_rational
from roncoalg.lincomb import LinComb
from roncoalg.ronco import key_sort_key
from roncoalg.structure import MuAlgebra, StructureAlgebra


def _table_to_rows(table: dict) -> list:
    rows = []
    for i, j in sorted(table):
        cell = table[(i, j)]
        rows.append({
            "i": i + 1,
            "j": j + 1,
            "c": [{"k": k + 1, "v": format_rational(v)} for k, v in sorted(cell.items())],
        })
    return rows


def algebra_to_obj(x: StructureAlgebra | MuAlgebra) -> dict:
    if isinstance(x, StructureAlgebra):
        return {"dim": x.dim, "kind": "leibniz", "bracket": _table_to_rows(x.bracket)}
    if isinstance(x, MuAlgebra):
        return {
            "dim": x.dim,
            "kind": "mu",
            "lie_bracket": _table_to_rows(x.lie_bracket),
            "product": _table_to_rows(x.product),
        }
    raise TypeError(f"not an algebra: {x!r}")


def ronco_element_to_obj(x: LinComb, num_gens: int) -> dict:
    """Degree-1 part as a dense coefficient list; higher part as sorted
    (word-string, generator, rational-string) triples."""
    deg1 = [Fraction(0)] * num_gens
    higher = []
    for key, c in x.sorted_items(key=key_sort_key):
        word, v = key
        if not word:
            deg1[v - 1] = c
        else:
            higher.append([format_word(word, num_gens), v, format_rational(c)])
    return {"deg1": [format_rational(c) for c in deg1], "higher": higher}


def graded_kernel_text(degree: int, basis: list, gens: int) -> str:
    """What `graded-kernel` printed for a kernel basis of degree `degree` on `gens` generators."""
    obj = {
        "degree": degree,
        "dimension": len(basis),
        "basis": [ronco_element_to_obj(x, gens) for x in basis],
    }
    return jsonio.dumps_canonical(obj)


def _rows_to_table(rows, dim: int, what: str) -> dict:
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a list of rows")
    table: dict = {}
    for row in rows:
        if not isinstance(row, dict) or not {"i", "j", "c"} <= row.keys():
            raise ValueError(f"malformed row in {what}: {row!r}")
        i, j = row["i"], row["j"]
        if not (type(i) is int and type(j) is int and 1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"row index ({i!r}, {j!r}) out of range 1..{dim}")
        if (i - 1, j - 1) in table:
            raise ValueError(f"duplicate row ({i}, {j}) in {what}")
        if not isinstance(row["c"], list):
            raise ValueError(f"entries of {what} row ({i}, {j}) must be a list, got {row['c']!r}")
        cell: dict = {}
        for entry in row["c"]:
            if not isinstance(entry, dict) or not {"k", "v"} <= entry.keys():
                raise ValueError(f"malformed entry in {what} row ({i}, {j}): {entry!r}")
            k = entry["k"]
            if not (type(k) is int and 1 <= k <= dim):
                raise ValueError(f"entry index {k!r} out of range 1..{dim}")
            if k - 1 in cell:
                raise ValueError(f"duplicate entry k={k} in {what} row ({i}, {j})")
            if not isinstance(entry["v"], str):
                raise ValueError(f"coefficient must be a rational string, got {entry['v']!r}")
            cell[k - 1] = parse_rational(entry["v"])
        table[(i - 1, j - 1)] = cell
    return table


def obj_to_algebra(obj) -> StructureAlgebra | MuAlgebra:
    if not isinstance(obj, dict):
        raise ValueError("algebra JSON must be an object")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 0:
        raise ValueError(f"\"dim\" must be a nonnegative integer, got {dim!r}")
    kind = obj.get("kind")
    if kind == "leibniz":
        if "bracket" not in obj:
            raise ValueError('kind "leibniz" requires a "bracket" key')
        return StructureAlgebra(dim, _rows_to_table(obj["bracket"], dim, "bracket"))
    if kind == "mu":
        for key in ("lie_bracket", "product"):
            if key not in obj:
                raise ValueError(f'kind "mu" requires a "{key}" key')
        return MuAlgebra(
            dim,
            _rows_to_table(obj["lie_bracket"], dim, "lie_bracket"),
            _rows_to_table(obj["product"], dim, "product"),
        )
    raise ValueError(f'"kind" must be "leibniz" or "mu", got {kind!r}')
