"""The schema objects that `roncoalg.jsonio` built for an algebra before it
wrote algebras directly.

Kept unchanged only so that tests can check that `dumps_algebra(x)` equals
`dumps_canonical(algebra_to_obj(x))`, the standard library's encoding of the
same object, byte for byte.
"""

from __future__ import annotations

from roncoalg.linalg import format_rational
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
