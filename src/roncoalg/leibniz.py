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
"""

from __future__ import annotations

from functools import cache

from .freelie import DEFAULT_MAX_DEGREE, Word, _check_degree, element_degree
from .freelie import lie_generator as leib_generator  # g_i is the word (i,) in both algebras
from .lincomb import LinComb, _add_scaled, _extend_linearly
from . import terms


@cache
def _left_normed_tensor(word: Word) -> dict:
    """T(w1⋯wk): [[w1, w2], …, wk] expanded in the tensor algebra, as
    {word: nonzero int}.  T(v) = v for a letter, and
    T(w1⋯wk) = T(w1⋯wk₋₁)·wk − wk·T(w1⋯wk₋₁).  Shared, do not mutate."""
    if len(word) == 1:
        return {word: 1}
    head, last = _left_normed_tensor(word[:-1]), word[-1:]
    out = {t + last: c for t, c in head.items()}
    _add_scaled(out, -1, {last + t: c for t, c in head.items()})
    return out


def leib_bracket(x: LinComb, y: LinComb, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Bracket of two word combinations, bilinear in both slots: x·T(y)."""
    if x.is_zero() or y.is_zero():
        return LinComb.zero()
    if () in x.coeffs:
        raise ValueError("the empty word is no element of the free Leibniz algebra")
    _check_degree("bracket of degree", element_degree(x) + element_degree(y), max_degree)
    if () in y.coeffs:
        raise ValueError("the empty word has no left-normed bracketing")
    ty = _extend_linearly(_left_normed_tensor, y.coeffs)
    out: dict = {}
    for w, c in x.coeffs.items():
        _add_scaled(out, c, {w + t: ct for t, ct in ty.items()})
    return LinComb._of(out)


def eval_term(term: terms.Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Evaluate a parsed bracket term with g_i as free Leibniz generators."""
    return terms._evaluate_on(term, num_gens, leib_generator, lambda a, b: leib_bracket(a, b, max_degree))
