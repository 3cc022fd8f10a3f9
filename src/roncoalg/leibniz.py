"""Free Leibniz algebra on d generators, as the tensor module of words.

Basis in degree n: all words of length n over {1..d} (tuples of ints); the
word w = v1⋯vn is the left-normed bracket [[g_v1, g_v2], …, g_vn].  The
bracket with a generator appends a letter, [w, g_v] = w·v.  A longer right
factor y acts through its image in the free Lie algebra (right
multiplication kills squares), and a Lyndon word ℓ = ℓ₁ℓ₂ acts by
R_ℓ = R_ℓ₂∘R_ℓ₁ − R_ℓ₁∘R_ℓ₂.  By induction on ℓ that is
R_ℓ(w) = w·expand(ℓ), the standard bracketing of ℓ as a tensor, so the
bracket is concatenation: [x, y] = x·T(y), where T sends each word of y to
the tensor expansion of its left-normed bracketing.  No Lyndon rewriting
happens, and the right Leibniz identity [x,[y,z]] = [[x,y],z] − [[x,z],y]
holds identically.

T is a map of Lie algebras into the tensor algebra with the commutator:
T[x,y] = T(x)·T(y) − T(y)·T(x), which is also the recursion of T on a
left-normed word (`freelie._commutator` serves both).  So `eval_term`
takes a bracket inside another only as its T-image, and a bracket whose
value is needed is value(left)·T(right).  This route is taken when the
term's static degree is within the cap (see `terms`); otherwise each
bracket is `leib_bracket` of the two values, which checks the cap on them.
"""

from __future__ import annotations

from functools import cache

from .freelie import DEFAULT_MAX_DEGREE, Word, _check_degree, _commutator, _concatenate, element_degree
from .freelie import lie_generator as leib_generator  # g_i is the word (i,) in both algebras
from .lincomb import LinComb, _extend_linearly
from . import terms


@cache
def _left_normed_tensor(word: Word) -> dict:
    """T(w1⋯wk): [[w1, w2], …, wk] expanded in the tensor algebra, as
    {word: nonzero int}.  T(v) = v for a letter, and
    T(w1⋯wk) = T(w1⋯wk₋₁)·wk − wk·T(w1⋯wk₋₁).  Shared, do not mutate."""
    if len(word) == 1:
        return {word: 1}
    return _commutator(_left_normed_tensor(word[:-1]), {word[-1:]: 1})


def leib_bracket(x: LinComb, y: LinComb, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Bracket of two word combinations, bilinear in both slots: x·T(y)."""
    if x.is_zero() or y.is_zero():
        return LinComb.zero()
    if () in x.coeffs:
        raise ValueError("the empty word is no element of the free Leibniz algebra")
    _check_degree("bracket of degree", element_degree(x) + element_degree(y), max_degree)
    if () in y.coeffs:
        raise ValueError("the empty word has no left-normed bracketing")
    return LinComb._of(_concatenate(x.coeffs, _extend_linearly(_left_normed_tensor, y.coeffs)))


def eval_term(term: terms.Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Evaluate a parsed bracket term with g_i as free Leibniz generators,
    through tensor images when the cap allows (module docstring)."""
    return terms._evaluate_free(term, num_gens, max_degree, leib_generator,
                                lambda a, b: leib_bracket(a, b, max_degree), _concatenate, _commutator)
