"""`LinComb`, the package's sparse linear combination, and the loops it
adds with.

The constructor merges (key, coefficient) pairs into nonzero `Fraction`s;
the arithmetic methods are pinned here on small values, and so are the
zero-scale shortcut of `_add_scaled`, the linear extension
`_extend_linearly` and the bilinear extension `_extend_bilinearly`.
"""

from fractions import Fraction

import pytest

from roncoalg.lincomb import LinComb, _add_scaled, _extend_bilinearly, _extend_linearly


def test_constructor_merges_repeated_keys():
    x = LinComb([((1,), 1), ((2,), 3), ((1,), 2)])
    assert x.coeffs == {(1,): 3, (2,): 3}


def test_constructor_drops_cancelling_pairs():
    assert LinComb([((1,), 2), ((1,), -2)]).coeffs == {}
    x = LinComb([((1,), 2), ((2,), 1), ((1,), -2), ((1,), 5)])
    assert x.coeffs == {(1,): 5, (2,): 1}


def test_constructor_drops_zero_coefficients():
    assert LinComb([((1,), 0), ((2,), Fraction(0)), ((3,), 0.0)]).coeffs == {}
    assert LinComb({(1,): 0, (2,): 4}).coeffs == {(2,): 4}
    assert LinComb({}).is_zero() and LinComb(None).is_zero() and LinComb([]).is_zero()


@pytest.mark.parametrize("coeff, exact", [
    (3, Fraction(3)),
    (-2, Fraction(-2)),
    (0.5, Fraction(1, 2)),
    (0.1, Fraction(3602879701896397, 36028797018963968)),  # the float's exact value
    (Fraction(-4, 6), Fraction(-2, 3)),
])
def test_constructor_makes_exact_fractions(coeff, exact):
    for x in (LinComb([("k", coeff)]), LinComb({"k": coeff}), LinComb.basis("k", coeff)):
        assert x.coeffs == {"k": exact}
        assert type(x.coeffs["k"]) is Fraction


def test_merged_coefficients_are_fractions():
    x = LinComb([("a", 1), ("a", 0.5), ("b", 2), ("b", Fraction(1, 3))])
    assert x.coeffs == {"a": Fraction(3, 2), "b": Fraction(7, 3)}
    assert all(type(c) is Fraction for c in x.coeffs.values())


def test_len_counts_nonzero_terms():
    assert len(LinComb()) == 0
    assert len(LinComb([("a", 1), ("b", 2), ("a", -1)])) == 1


def test_equal_combinations_hash_equal():
    x = LinComb([("a", 1), ("b", Fraction(1, 2))])
    y = LinComb([("b", 0.5), ("c", 7), ("a", 1), ("c", -7)])
    assert x == y and hash(x) == hash(y)
    assert len({x, y, LinComb.basis("a")}) == 2
    assert hash(LinComb()) == hash(LinComb([("a", 0)]))


def test_scalar_multiplication_from_either_side():
    x = LinComb([("a", 1), ("b", Fraction(-3, 4))])
    assert 2 * x == x * 2 == x.scale(2) == LinComb([("a", 2), ("b", Fraction(-3, 2))])
    assert Fraction(1, 3) * x == x.scale(Fraction(1, 3))
    assert (0 * x).is_zero() and (x * 0).is_zero()


def test_repr():
    assert repr(LinComb()) == "LinComb(0)"
    assert repr(LinComb([((2,), 1), ((1,), Fraction(-1, 2))])) == "LinComb({(1,): -1/2, (2,): 1})"
    assert repr(LinComb.basis(((1,), 2))) == "LinComb({((1,), 2): 1})"


def test_add_scaled_by_zero_leaves_the_accumulator_unchanged():
    acc = {"a": Fraction(1), "b": Fraction(-2)}
    _add_scaled(acc, 0, {"a": Fraction(-1), "c": Fraction(5)})
    _add_scaled(acc, Fraction(0), {"b": Fraction(2)})
    assert acc == {"a": 1, "b": -2}


def test_linear_extension():
    image = {"a": {"x": 1, "y": 2}, "b": {"y": -1}, "c": {}}.__getitem__
    assert _extend_linearly(image, {}) == {}
    assert _extend_linearly(image, {"a": 1, "b": 2, "c": 5}) == {"x": 1}
    assert _extend_linearly(image, {"a": Fraction(1, 2), "b": 3}) == {"x": Fraction(1, 2), "y": -2}


def test_linear_extension_adds_into_the_accumulator():
    image = {"a": {"x": 1, "y": 2}}.__getitem__
    acc = {"y": -4, "z": 1}
    assert _extend_linearly(image, {"a": 2}, acc) is acc
    assert acc == {"x": 2, "z": 1}
    fresh = _extend_linearly(image, {"a": 1})
    fresh["x"] = 0
    assert image("a") == {"x": 1, "y": 2}  # images are read, never written



def test_bilinear_extension_adds_into_the_accumulator():
    images = {("a", "p"): {"x": 1, "y": 2}, ("b", "p"): {"y": -1}}

    def image(u, v):
        return images[u, v]

    assert _extend_bilinearly(image, {}, {"p": 1}) == {}
    acc = {"y": -3, "z": 1}
    assert _extend_bilinearly(image, {"a": 2, "b": -2}, {"p": Fraction(1, 2)}, acc) is acc
    assert acc == {"x": 1, "z": 1}  # y: −3 + 1·2 + (−1)·(−1) = 0 is dropped
    fresh = _extend_bilinearly(image, {"a": 1}, {"p": 1})
    assert fresh == {"x": 1, "y": 2}
    fresh["x"] = 0
    assert image("a", "p") == {"x": 1, "y": 2}  # images are read, never written
