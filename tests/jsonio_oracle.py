"""The schema objects that `roncoalg.jsonio` built for an algebra and for a
free square-identity element, and the graded-kernel document that
`roncoalg.cli` built, before they were written directly.

Kept unchanged only so that tests can check that `dumps_algebra(x)` equals
`dumps_canonical(algebra_to_obj(x))`, and `dumps_graded_kernel` equals
`graded_kernel_text`, the standard library's encoding of the same object,
byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from roncoalg import jsonio
from roncoalg.freelie import format_word
from roncoalg.linalg import format_rational
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
