"""`format_lincomb`, which reads signs and magnitudes off the coefficient's
text, against the printer that compared `Fraction`s (`tests/terms_oracle.py`).

The output must be byte-identical on random combinations with `Fraction`
and `int` coefficients: ±1, a negative leading term, large numerators and
zero, under word keys and under keys of the free square-identity algebra.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import terms_oracle as oracle
from roncoalg import ronco
from roncoalg.freelie import format_word, word_sort_key
from roncoalg.lincomb import LinComb, format_lincomb

BIG = 10**40
COEFFICIENTS = st.one_of(
    st.sampled_from([1, -1, Fraction(1), Fraction(-1), 0, Fraction(0), 2, Fraction(-1, 2), -BIG, Fraction(BIG, 3)]),
    st.integers(-BIG, BIG),
    st.fractions(),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
WORDS = st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple)
RONCO_KEYS = st.tuples(st.one_of(st.just(()), WORDS), st.integers(1, 12))


def assert_same(coeffs: dict, key_str, sort_key):
    lc = LinComb._of(coeffs)
    assert format_lincomb(lc, key_str, sort_key) == oracle.format_lincomb(lc, key_str, sort_key)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(WORDS, COEFFICIENTS, max_size=8), st.sampled_from([None, 12]))
@example({}, None)
@example({(1, 2): Fraction(-1), (1,): 1, (2, 1): Fraction(-3, 2)}, None)
@example({(1,): -BIG, (2,): Fraction(1, BIG)}, 12)
def test_words_print_as_the_oracle_prints_them(coeffs, alphabet_size):
    assert_same(coeffs, lambda w: format_word(w, alphabet_size), word_sort_key)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(RONCO_KEYS, COEFFICIENTS, max_size=8))
@example({((), 1): -1, ((1,), 2): Fraction(1, 2)})
def test_square_identity_keys_print_as_the_oracle_prints_them(coeffs):
    assert_same(coeffs, lambda k: ronco.format_key(k, 12), ronco.key_sort_key)
