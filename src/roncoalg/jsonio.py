"""Canonical JSON forms for algebras, elements, and reports.

Algebra schema (1-based indices, zero cells omitted):

    {"dim": N, "kind": "leibniz",
     "bracket": [{"i": 1, "j": 2, "c": [{"k": 3, "v": "1/2"}]}]}

    {"dim": N, "kind": "mu", "lie_bracket": [...], "product": [...]}

Output is order-canonicalized — rows sorted by (i, j), entries by k,
rationals in reduced "p" / "p/q" form — so equal algebras serialize to
identical bytes, with indent 2 and a trailing newline.  Algebras and
graded-kernel bases are written directly, from templates for their fixed
schemas (`dumps_algebra`, `dumps_graded_kernel`); homology reports still
build plain objects and go through `dumps_canonical`, which prints the same
layout with the standard library's encoder.

An algebra is read into and written from its integer form (see
`structure._Algebra`), so no Fraction table is made on the way.  Reading is
one pass over the rows and entries (`_rows_to_table`), with one message per
malformed part, checked in a fixed order; it refuses an index given twice
even when its value or cell is empty, and parses each distinct coefficient
string once.  `_integer_form` then gives the form that `_integer_tables`
makes of the normalized tables, which is adopted without a second check.
Writing formats each distinct `int` once per call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .freelie import format_word
from .linalg import _rational_pair, format_rational
from .lincomb import LinComb
from .ronco import key_sort_key
from .structure import MuAlgebra, StructureAlgebra


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# structure-constant algebras

# The one fixed schema, written from templates, because `json.dumps` with
# an indent runs CPython's pure-Python encoder.  Every dim and index is an
# int, and every value is written in lowest terms as `format_rational`
# writes it, so `%d` and `%s` print the bytes `dumps_canonical` would.
_LEIBNIZ = '{\n  "dim": %d,\n  "kind": "leibniz",\n  "bracket": %s\n}\n'
_MU = '{\n  "dim": %d,\n  "kind": "mu",\n  "lie_bracket": %s,\n  "product": %s\n}\n'
_ROW = '\n    {\n      "i": %d,\n      "j": %d,\n      "c": [%s\n      ]\n    }'
_ENTRY = '\n        {\n          "k": %d,\n          "v": "%s"\n        }'


def _list_text(items: list, indent: str) -> str:
    """A JSON list of already written items, closed at `indent`; "[]" when empty."""
    return "[" + ",".join(items) + "\n" + indent + "]" if items else "[]"


class _Texts(dict):
    """x -> the text of x/D in lowest terms, "p" or "p/q", each written once per call."""

    __slots__ = ("scale",)

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, x: int) -> str:
        g = gcd(x, self.scale)
        text = self[x] = str(x // g) if g == self.scale else f"{x // g}/{self.scale // g}"
        return text


def _rows_text(table: dict, texts: _Texts) -> str:
    return _list_text([
        _ROW % (i + 1, j + 1, ",".join([_ENTRY % (k + 1, texts[x]) for k, x in sorted(table[i, j].items())]))
        for i, j in sorted(table)
    ], "  ")


def _rows_to_table(rows, dim: int, what: str, values: dict) -> dict:
    """The table of `rows`, its cells holding coefficient strings, checked
    in one pass over the entries.

    Each distinct coefficient string is parsed once, into `values` (string
    -> (p, q) in lowest terms), which the caller shares between the tables
    of one load.
    Zero values and empty cells stay, so a repeated index is refused like
    any other, and `_integer_form` drops them.
    """
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a list of rows")
    table: dict = {}
    for row in rows:
        if not (isinstance(row, dict) and "i" in row and "j" in row and "c" in row):
            raise ValueError(f"malformed row in {what}: {row!r}")
        i, j = row["i"], row["j"]
        if not (type(i) is int and type(j) is int and 1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"row index ({i!r}, {j!r}) out of range 1..{dim}")
        if (key := (i - 1, j - 1)) in table:
            raise ValueError(f"duplicate row ({i}, {j}) in {what}")
        entries = row["c"]
        if not isinstance(entries, list):
            raise ValueError(f"entries of {what} row ({i}, {j}) must be a list, got {entries!r}")
        cell: dict = {}
        for entry in entries:
            try:
                k, text = entry["k"], entry["v"]
            except (TypeError, KeyError):
                raise ValueError(f"malformed entry in {what} row ({i}, {j}): {entry!r}") from None
            if not (type(k) is int and 1 <= k <= dim):
                raise ValueError(f"entry index {k!r} out of range 1..{dim}")
            if k - 1 in cell:
                raise ValueError(f"duplicate entry k={k} in {what} row ({i}, {j})")
            if not isinstance(text, str):
                raise ValueError(f"coefficient must be a rational string, got {text!r}")
            if text not in values:
                values[text] = _rational_pair(text)
            cell[k - 1] = text
        table[key] = cell
    return table


def _integer_form(values: dict, *tables: dict) -> tuple[int, list[dict]]:
    """(D, the tables times D) of `_rows_to_table`'s tables, D the lcm of the
    denominators in `values`: each string is replaced in place by its `int`,
    then zero values and empty cells are dropped."""
    scale = lcm(*{q for _, q in values.values()})
    ints = {text: p * (scale // q) for text, (p, q) in values.items()}
    for table in tables:
        for cell in table.values():
            for k, text in cell.items():
                cell[k] = ints[text]
    if not all(ints.values()):
        tables = [{key: {k: v for k, v in cell.items() if v} for key, cell in table.items()} for table in tables]
    return scale, [table if all(table.values()) else {key: cell for key, cell in table.items() if cell}
                   for table in tables]


def obj_to_algebra(obj) -> StructureAlgebra | MuAlgebra:
    """The algebra of a schema object; a malformed one raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("algebra JSON must be an object")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 0:
        raise ValueError(f"\"dim\" must be a nonnegative integer, got {dim!r}")
    kind = obj.get("kind")
    values: dict = {}  # coefficient string -> (p, q), for this load
    if kind == "leibniz":
        if "bracket" not in obj:
            raise ValueError('kind "leibniz" requires a "bracket" key')
        bracket = _rows_to_table(obj["bracket"], dim, "bracket", values)
        return StructureAlgebra._of_integers(dim, *_integer_form(values, bracket))
    if kind == "mu":
        for key in ("lie_bracket", "product"):
            if key not in obj:
                raise ValueError(f'kind "mu" requires a "{key}" key')
        lie = _rows_to_table(obj["lie_bracket"], dim, "lie_bracket", values)
        product = _rows_to_table(obj["product"], dim, "product", values)
        return MuAlgebra._of_integers(dim, *_integer_form(values, lie, product))
    raise ValueError(f'"kind" must be "leibniz" or "mu", got {kind!r}')


def loads_algebra(text: str) -> StructureAlgebra | MuAlgebra:
    try:
        obj = json.loads(text)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ValueError("algebra JSON is nested too deeply") from None
    return obj_to_algebra(obj)


def dumps_algebra(x: StructureAlgebra | MuAlgebra) -> str:
    """The canonical JSON text of an algebra, byte for byte what
    `dumps_canonical` prints for its schema object, written from its
    integer form."""
    if not isinstance(x, (StructureAlgebra, MuAlgebra)):
        raise TypeError(f"not an algebra: {x!r}")
    scale, tables = x._form
    texts = _Texts(scale)
    return (_LEIBNIZ if len(tables) == 1 else _MU) % (x.dim, *[_rows_text(table, texts) for table in tables])


# ---------------------------------------------------------------------------
# free-algebra elements in (lyndon_word, generator) coordinates

def ronco_element_to_obj(x: LinComb, num_gens: int) -> dict:
    """Degree-1 part as a dense coefficient list; higher part as sorted
    (word-string, generator, rational-string) triples."""
    # every coefficient is an int or a normalized Fraction, whose str is
    # `format_rational`'s "p" or "p/q"
    deg1 = ["0"] * num_gens
    higher = []
    for (word, v), c in x.sorted_items(key=key_sort_key):
        if word:
            higher.append([format_word(word, num_gens), v, str(c)])
        else:
            deg1[v - 1] = str(c)
    return {"deg1": deg1, "higher": higher}


# The graded-kernel document, written from templates for the same reason as
# algebras: every word and rational string is made of ASCII digits, ".",
# "-" and "/", which the encoder prints as they are, and every generator,
# degree and dimension is an int.
_KERNEL = '{\n  "degree": %d,\n  "dimension": %d,\n  "basis": %s\n}\n'
_ELEMENT = '\n    {\n      "deg1": %s,\n      "higher": %s\n    }'
_DEG1 = '\n        "%s"'
_HIGHER_KEY = '\n        [\n          "%s",\n          %d,\n          "'  # a triple up to its coefficient
_HIGHER_END = '"\n        ]'


def dumps_graded_kernel(degree: int, keys: Sequence, kernel: Sequence, num_gens: int) -> str:
    """The canonical JSON text of a graded-kernel basis, byte for byte what
    `dumps_canonical` prints for {"degree", "dimension", "basis"}, each
    element given by `ronco_element_to_obj`.  `keys` and `kernel` are as
    `ronco._graded_kernel` gives them: keys of one degree >= 2 (so every
    deg1 list is all "0") in key order, and (column, `int` numerator,
    positive `int` denominator) entries by column, so in key order too.
    Entries are written in lowest terms; each word and key is formatted
    once per call."""
    deg1 = _list_text([_DEG1 % "0"] * num_gens, "      ")
    texts: list = [None] * len(keys)
    words: dict = {}
    elements = []
    for vec in kernel:
        higher = []
        for j, num, den in vec:
            text = texts[j]
            if text is None:
                word, v = keys[j]
                w = words.get(word)
                if w is None:
                    w = words[word] = format_word(word, num_gens)
                text = texts[j] = _HIGHER_KEY % (w, v)
            g = gcd(num, den)
            c = num // g if den == g else f"{num // g}/{den // g}"
            higher.append(f"{text}{c}{_HIGHER_END}")
        elements.append(_ELEMENT % (deg1, _list_text(higher, "      ")))
    return _KERNEL % (degree, len(kernel), _list_text(elements, "  "))


# ---------------------------------------------------------------------------
# homology reports

def report_to_obj(report) -> dict:
    return {
        "dimension": report.dimension,
        "representatives": vectors_to_obj(report.representatives),
    }


def vectors_to_obj(vectors: Sequence[Sequence[Fraction]]) -> list:
    return [[format_rational(v) for v in vec] for vec in vectors]
