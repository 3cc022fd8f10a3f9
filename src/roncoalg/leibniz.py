"""Free Leibniz algebra on d generators, as the tensor module of words.

Basis in degree n: all words of length n over {1..d} (tuples of ints).
The defining bracket acts by

    [w, (v,)]     = w + (v,)                       (append a letter)
    [w, u + (v,)] = [[w, u], (v,)] - [[w, (v,)], u]

which extends the right-append rule so that the right Leibniz identity
[x,[y,z]] = [[x,y],z] - [[x,z],y] holds identically.
"""

from __future__ import annotations

from functools import cache

from .errors import DegreeOverflowError, UnknownGeneratorError
from .freelie import DEFAULT_MAX_DEGREE, Word, element_degree
from .lincomb import LinComb, _add_scaled
from . import terms


def leib_generator(i: int) -> LinComb:
    """The generator g_i as a degree-1 word."""
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return LinComb.basis((i,))


@cache
def _word_bracket(left: Word, right: Word) -> dict:
    """[left, right] of two words, as {word: nonzero int}; shared, never mutated."""
    if len(right) == 1:
        return {left + right: 1}
    head, last = right[:-1], right[-1:]
    # [w, head.last] = [[w, head], last] - [[w, last], head]
    out = _apply_right(_word_bracket(left, head), last)
    _add_scaled(out, -1, _apply_right(_word_bracket(left, last), head))
    return out


def _apply_right(x: dict, right: Word) -> dict:
    out: dict = {}
    for word, c in x.items():
        _add_scaled(out, c, _word_bracket(word, right))
    return out


def leib_bracket(x: LinComb, y: LinComb, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Bracket of two word combinations, bilinear in both slots."""
    if x.is_zero() or y.is_zero():
        return LinComb.zero()
    total = element_degree(x) + element_degree(y)
    if total > max_degree:
        raise DegreeOverflowError(
            f"bracket lands in degree {total}, above the cap {max_degree}"
        )
    out: dict = {}
    for wx, cx in x:
        for wy, cy in y:
            _add_scaled(out, cx * cy, _word_bracket(wx, wy))
    return LinComb._of(out)


def eval_term(term: terms.Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Evaluate a parsed bracket term with g_i as free Leibniz generators."""

    def generator(i: int) -> LinComb:
        if i > num_gens:
            raise UnknownGeneratorError(f"generator g{i} out of range (have {num_gens})")
        return leib_generator(i)

    return terms.evaluate(term, generator, lambda a, b: leib_bracket(a, b, max_degree))
