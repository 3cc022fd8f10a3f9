"""Free Leibniz algebra on d generators, as the tensor module of words.

Basis in degree n: all words of length n over {1..d} (tuples of ints); the
word w = v1⋯vn is the left-normed bracket [[g_v1, g_v2], …, g_vn].  The
bracket with a generator appends a letter, [w, g_v] = w + (v,).  A longer
right factor y acts through its image in the free Lie algebra (right
multiplication kills squares), which is the left-normed bracketing of its
words; `freelie.act` applies that Lie element letter by letter, so the
right Leibniz identity [x,[y,z]] = [[x,y],z] − [[x,z],y] holds identically.
"""

from __future__ import annotations

from .freelie import DEFAULT_MAX_DEGREE, Word, _check_degree, act, element_degree, left_normed_bracketing
from .freelie import lie_generator as leib_generator  # g_i is the word (i,) in both algebras
from .lincomb import LinComb
from . import terms


def _append(word: Word, v: int) -> dict:
    return {word + (v,): 1}


def leib_bracket(x: LinComb, y: LinComb, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Bracket of two word combinations, bilinear in both slots."""
    if x.is_zero() or y.is_zero():
        return LinComb.zero()
    if () in x.coeffs:
        raise ValueError("the empty word is no element of the free Leibniz algebra")
    _check_degree("bracket of degree", element_degree(x) + element_degree(y), max_degree)
    return LinComb._of(act(_append, x.coeffs, left_normed_bracketing(y).coeffs))


def eval_term(term: terms.Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Evaluate a parsed bracket term with g_i as free Leibniz generators."""
    return terms._evaluate_on(term, num_gens, leib_generator, lambda a, b: leib_bracket(a, b, max_degree))
