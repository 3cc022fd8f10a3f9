"""Formal linear combinations with exact rational coefficients.

`LinComb` is the universal value type of the package: an element of a free
module with a distinguished basis, stored as a dict from basis key to a
nonzero `fractions.Fraction`.  The meaning of a key is fixed by the module
that produces the element:

  * tensor words / free Leibniz elements: tuples of 1-based generator
    indices, e.g. ``(1, 2, 2)``;
  * free Lie elements: Lyndon words (tuples as above);
  * free Ronco elements: pairs ``(lyndon_word, generator)`` where the empty
    word ``()`` marks the degree-1 summand.

Zero coefficients are never stored, so equality is plain dict equality.
Sparse dicts are added by one loop, `_add_scaled`; `_extend_linearly`
extends a map on basis keys linearly through it, and `_extend_bilinearly`
a map on pairs of keys bilinearly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


Scalar = int | Fraction


def _add_scaled(acc: dict, scale: Scalar, term: dict):
    """acc += scale·term on sparse dicts, in place; entries that cancel are dropped.

    `term` stores no zeros, as no sparse vector in this package does.  The
    one add-and-drop-zeros loop of the package: free-algebra brackets,
    `LinComb` construction, structure tables and elimination all add
    through it.
    """
    if not scale:
        return
    for k, v in term.items():
        if k in acc:
            nv = acc[k] + scale * v
            if nv:
                acc[k] = nv
            else:
                del acc[k]
        else:
            acc[k] = scale * v


def _extend_linearly(image, x: dict, acc: dict | None = None) -> dict:
    """Σ c·image(key) over the sparse dict x, added into `acc` (a new dict if
    None) and returned: a map on basis keys, extended linearly.  Images are
    sparse dicts and are only read, so a cache may share them."""
    out = {} if acc is None else acc
    for key, c in x.items():
        _add_scaled(out, c, image(key))
    return out


def _extend_bilinearly(image, x: dict, y: dict, acc: dict | None = None) -> dict:
    """Σ c·c′·image(u, v) over the keys u of x and v of y, added into `acc`
    (a new dict if None) and returned: a map on pairs of basis keys,
    extended bilinearly.  Images are only read, as in `_extend_linearly`."""
    out = {} if acc is None else acc
    for u, cu in x.items():
        for v, cv in y.items():
            _add_scaled(out, cu * cv, image(u, v))
    return out


class Record:
    """Base of the package's small immutable value types.

    A subclass lists its fields, in order, in `__slots__`, and is built from
    them by position or keyword.  Two records are equal when they are of the
    same class and their fields are equal; the hash is that of the field
    tuple, so a record with a dict field is unhashable; the repr reads
    ``Name(field=value, ...)``; assignment raises AttributeError.  A
    subclass with defaults or validation defines its own `__init__` and
    calls this one.  These classes are written out by hand, not generated
    by the standard library's frozen-class decorator: importing it (it
    pulls in `inspect`) and generating each class's methods is a fixed
    cost of every command-line call.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        if len(values) < len(names):
            missing = ", ".join(name for name in names if name not in values)
            raise TypeError(f"{type(self).__name__}() missing argument(s): {missing}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        """Give each record class its `_of(*values)`: adopt `values` as the
        fields, in order, without copying them and without the checks of
        the subclass's `__init__`; the caller has built them in the form
        those checks would give.  It writes each field through its slot
        descriptor, one call per field, with no loop for one to three
        fields: the term parser builds a node per bracket, scalar and leaf."""
        super().__init_subclass__(**kwargs)
        new = object.__new__
        setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if len(setters) == 1:
            (s0,) = setters

            def _of(a):
                out = new(cls)
                s0(out, a)
                return out
        elif len(setters) == 2:
            s0, s1 = setters

            def _of(a, b):
                out = new(cls)
                s0(out, a)
                s1(out, b)
                return out
        elif len(setters) == 3:
            s0, s1, s2 = setters

            def _of(a, b, c):
                out = new(cls)
                s0(out, a)
                s1(out, b)
                s2(out, c)
                return out
        else:
            def _of(*values):
                out = new(cls)
                for setter, value in zip(setters, values, strict=True):
                    setter(out, value)
                return out
        cls._of = staticmethod(_of)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()


class LinComb:
    """Immutable-by-convention sparse linear combination."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | Iterable[tuple[object, Scalar]] | None = None):
        data: dict = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for key, c in items:
                _add_scaled(data, Fraction(c), {key: 1})
        self.coeffs = data

    @classmethod
    def basis(cls, key, coeff: Scalar = 1) -> "LinComb":
        coeff = Fraction(coeff)  # one key, nothing to merge: skips the Fraction product of __init__
        return cls._of({key: coeff} if coeff else {})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def _of(cls, data: dict) -> "LinComb":
        """Adopt `data` without copying; it must hold only nonzero Fractions."""
        out = cls.__new__(cls)
        out.coeffs = data
        return out

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, key) -> Fraction:
        return self.coeffs.get(key, Fraction(0))

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.coeffs.items())

    def keys(self):
        return self.coeffs.keys()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        data = dict(self.coeffs)
        _add_scaled(data, 1, other.coeffs)
        return LinComb._of(data)

    def __sub__(self, other: "LinComb") -> "LinComb":
        data = dict(self.coeffs)
        _add_scaled(data, -1, other.coeffs)
        return LinComb._of(data)

    def __neg__(self) -> "LinComb":
        return LinComb._of({key: -c for key, c in self.coeffs.items()})

    def scale(self, scalar: Scalar) -> "LinComb":
        scalar = Fraction(scalar)
        if not scalar:
            return LinComb()
        return LinComb._of({key: scalar * c for key, c in self.coeffs.items()})

    def __rmul__(self, scalar: Scalar) -> "LinComb":
        return self.scale(scalar)

    def __mul__(self, scalar: Scalar) -> "LinComb":
        return self.scale(scalar)

    def map_keys(self, fn) -> "LinComb":
        """Push the combination through a key transformation (may merge keys)."""
        return LinComb((fn(key), c) for key, c in self.coeffs.items())

    def sorted_items(self, key=None) -> list[tuple[object, Fraction]]:
        return sorted(self.coeffs.items(), key=(lambda kv: key(kv[0])) if key else None)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LinComb(0)"
        parts = ", ".join(f"{k!r}: {c}" for k, c in self.sorted_items())
        return f"LinComb({{{parts}}})"


def format_lincomb(lc: LinComb, key_str, sort_key) -> str:
    """Human-readable expansion, e.g. ``12 - 2·121 + 211``.

    Terms are ordered by `sort_key`; a coefficient of magnitude 1 is left
    implicit, otherwise it is printed as a canonical rational followed by a
    middle dot.  The sign and the magnitude are read off the coefficient's
    text, which for an `int` or a `Fraction` is its canonical rational.
    """
    coeffs = lc.coeffs
    if not coeffs:
        return "0"
    pieces: list[str] = []
    for key in sorted(coeffs, key=sort_key):
        text = str(coeffs[key])
        negative = text[0] == "-"
        mag = text[1:] if negative else text
        body = key_str(key) if mag == "1" else f"{mag}·{key_str(key)}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"{' - ' if negative else ' + '}{body}")
    return "".join(pieces)
