"""The package's immutable value types, built on `lincomb.Record`.

Each keeps the behaviour it had as a frozen dataclass: positional and
keyword construction, defaults, equality within one class only, a hash
of the fields, a ``Name(field=value, ...)`` repr and no assignment.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from roncoalg.homology import HomologyReport
from roncoalg.linalg import SparseMatrix
from roncoalg.lincomb import Record
from roncoalg.structure import MuAlgebra, StructureAlgebra, VerificationReport, Violation
from roncoalg.terms import Bracket, Diff, Generator, Scale, Sum

G1, G2 = Generator(1), Generator(2)
HALF = Fraction(1, 2)

# (class, field values, hashable)
CASES = [
    (Generator, (1,), True),
    (Bracket, (G1, G2), True),
    (Scale, (HALF, G1), True),
    (Sum, ((G1, G2),), True),
    (Diff, (G1, G2), True),
    (StructureAlgebra, (2, {(0, 1): {1: HALF}}), False),
    (MuAlgebra, (2, {(0, 1): {1: HALF}, (1, 0): {1: -HALF}}, {(0, 0): {1: HALF}}), False),
    (Violation, ("leibniz", (1, 2, 1), (Fraction(0), HALF)), True),
    (VerificationReport, ("lie", ()), True),
    (SparseMatrix, (2, 3, {(0, 2): HALF}), False),
    (HomologyReport, (1, ((HALF, Fraction(0)),)), True),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, values, hashable", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, values, hashable):
    names = cls.__slots__
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == x
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == x
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)


@pytest.mark.parametrize("cls, values, hashable", CASES, ids=IDS)
def test_equality_and_hash(cls, values, hashable):
    x, y = cls(*values), cls(*values)
    assert x == y and not x != y
    assert x != values and x != object()
    if hashable:
        assert hash(x) == hash(y) and len({x, y}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("cls, values, hashable", CASES, ids=IDS)
def test_repr_names_the_fields(cls, values, hashable):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, values, hashable", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, values, hashable):
    x = cls(*values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, name) for name in cls.__slots__) == values


@pytest.mark.parametrize("cls, values, hashable", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, values, hashable):
    x = cls(*values)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x


def test_examples():
    assert repr(Bracket(G1, Scale(HALF, G2))) == (
        "Bracket(left=Generator(index=1), right=Scale(coeff=Fraction(1, 2), "
        "term=Generator(index=2)))"
    )
    assert repr(StructureAlgebra(1)) == "StructureAlgebra(dim=1, bracket={})"
    assert Bracket(G1, G2) != Diff(G1, G2)
    assert Bracket(G1, G2) != Bracket(G2, G1)
    assert VerificationReport("lie", ()).ok
    assert not VerificationReport("lie", (Violation("lie", (1,), ()),)).ok


def test_defaults_and_validation():
    assert StructureAlgebra(2) == StructureAlgebra(2, {}) == StructureAlgebra(dim=2)
    assert MuAlgebra(2) == MuAlgebra(2, {}, {}) == MuAlgebra(2, product={})
    # tables are normalized: values become Fractions, zeros are dropped
    assert StructureAlgebra(2, {(0, 1): {0: 1, 1: 0}}).bracket == {(0, 1): {0: Fraction(1)}}
    with pytest.raises(ValueError):
        StructureAlgebra(-1)
    with pytest.raises(ValueError):
        MuAlgebra(1, {(0, 1): {0: 1}})
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(0, 0): Fraction(0)})
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(1, 0): Fraction(1)})
    with pytest.raises(TypeError):
        Generator()
    with pytest.raises(TypeError):
        HomologyReport(1)


@pytest.mark.parametrize("cls, values, hashable", CASES, ids=IDS)
def test_of_adopts_the_given_fields(cls, values, hashable):
    x = cls._of(*values)
    assert type(x) is cls and x == cls(*values)
    assert all(getattr(x, name) is value for name, value in zip(cls.__slots__, values))
    with pytest.raises(AttributeError):
        setattr(x, cls.__slots__[0], values[0])


def test_of_skips_the_constructor_checks():
    # index 1 is out of range for dim 1, which the constructor refuses
    table = {(1, 1): {0: HALF}}
    with pytest.raises(ValueError):
        StructureAlgebra(1, table)
    assert StructureAlgebra._of(1, table).bracket is table


def test_of_for_a_record_with_more_than_three_fields():
    class Four(Record):
        __slots__ = ("a", "b", "c", "d")

    x = Four._of(1, 2, 3, 4)
    assert x == Four(1, 2, 3, 4) and (x.a, x.d) == (1, 4)
    with pytest.raises(ValueError):
        Four._of(1, 2, 3)
