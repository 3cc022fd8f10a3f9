"""The free algebra on d generators in the variety cut out by the square
identities [[x,x],y] = 0 on top of the Leibniz identity.

Underlying graded module: degree 1 is spanned by the generators; degree
n >= 2 is (free Lie of degree n-1) ⊗ (generators).  Basis keys are pairs
``(lyndon_word, v)`` with ``lyndon_word = ()`` marking degree 1, so the
degree of a key is always ``len(lyndon_word) + 1``.

The bracket is computed on these keys, with integer coefficients, through
the Lie quotient φ, where (ℓ, v) ↦ [ℓ, g_v] and ((), v) ↦ g_v.  Right
multiplication kills squares in any Leibniz algebra, so [x, y] depends on
y only through φy, and a Lyndon word ℓ = ℓ₁ℓ₂ (standard factorization)
acts by R_ℓ = R_ℓ₂∘R_ℓ₁ − R_ℓ₁∘R_ℓ₂.  A generator acts through φ as well:
[X, g_v] = φ(X)⊗v.  φ is an algebra map, so by induction on ℓ,
R_ℓ(X) = Ψ(φX, ℓ), with Ψ linear in its first slot and

    Ψ(ζ, v) = ζ⊗v,    Ψ(ζ, ℓ₁ℓ₂) = Ψ([ζ,ℓ₁], ℓ₂) − Ψ([ζ,ℓ₂], ℓ₁).

So [x, y] depends on x, too, only through φx: the kernel of φ annihilates
the algebra from both sides, [k, y] = 0 = [y, k].  `_image_bracket` is Ψ
on a pair of Lyndon words, and the bracket sums it over the Lyndon words
of φx and φy.

`eval_term` uses this on terms: a bracket inside another is needed only
as its Lie image, φ[a,b] = [φa, φb] (`freelie._lie_product`), and a
bracket whose value is needed is `_bracket_images(φa, φb)`.  This route is
taken when the term's static degree is within the cap (see `terms`);
otherwise each bracket is `ronco_bracket` of the two values, which checks
the cap on them.

The same bracket is the composite through the free Leibniz algebra:
`section` embeds into tensor words, `leib_bracket` multiplies there, and
`project` maps a word w·v to (left-normed bracketing of w) ⊗ v, computed in
Lyndon coordinates by `freelie._left_normed_word`.  The tests keep that
composite as the reference for the direct bracket.

`section` splits `project` exactly: a Lie tensor of degree n equals 1/n
times its left-normed bracketing, so sending (ℓ, v) to
(1/|ℓ|)·expand(ℓ)·v makes project∘section the identity.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache

from .freelie import (
    DEFAULT_MAX_DEGREE,
    Word,
    _check_degree,
    _expand_word,
    _generator_index,
    _left_normed_word,
    _lie_product,
    _lyndon_bracket,
    _require_lyndon,
    format_word,
    lyndon_words,
    standard_factorization,
    witt_dim,
)
from .lincomb import LinComb, _extend_bilinearly, _extend_linearly
from .linalg import _span
from .structure import StructureAlgebra
from . import terms

RKey = tuple[Word, int]


def ronco_generator(i: int) -> LinComb:
    return LinComb.basis(((), _generator_index(i)))


def key_degree(key: RKey) -> int:
    return len(key[0]) + 1


def element_degree(x: LinComb) -> int:
    return max((key_degree(k) for k in x.keys()), default=0)


def key_sort_key(key: RKey) -> tuple:
    word, v = key
    return (len(word) + 1, word, v)


def format_key(key: RKey, alphabet_size: int | None = None) -> str:
    word, v = key
    if not word:
        return f"g{v}"
    return f"[{format_word(word, alphabet_size)}|{v}]"


@cache
def _project_word(word: Word) -> dict:
    """project of one word, as {key: nonzero int}; shared, do not mutate."""
    if len(word) == 1:
        return {((), word[0]): 1}
    return {(l, word[-1]): c for l, c in _left_normed_word(word[:-1]).items()}


def project(x: LinComb) -> LinComb:
    """Quotient map from tensor words: v1⊗…⊗vn ↦ [[v1,…],v_{n-1}] ⊗ vn."""
    if () in x.coeffs:
        raise ValueError("project needs words of length >= 1, got the empty word")
    return LinComb._of(_extend_linearly(_project_word, x.coeffs))


@cache
def _section_key(key: RKey) -> LinComb:
    word, v = key
    if not word:
        return LinComb.basis((v,))
    return _expand_word(word).map_keys(lambda w: w + (v,)).scale(Fraction(1, len(word)))


def section(x: LinComb) -> LinComb:
    """Right inverse of `project`, landing in tensor words.

    Sends (ℓ, v) to (1/|ℓ|)·expand(ℓ)⊗v; the 1/|ℓ| factor is exactly what
    the left-normed bracketing of a degree-|ℓ| Lie tensor multiplies by.
    """
    return LinComb._of(_extend_linearly(lambda key: _section_key(key).coeffs, x.coeffs))


def _key_image(key: RKey) -> dict:
    """Image of one key in the free Lie algebra, as {Lyndon word: nonzero int}:
    (ℓ, v) ↦ [ℓ, g_v] and ((), v) ↦ g_v.  May be shared; do not mutate."""
    word, v = key
    return _lyndon_bracket(word, (v,)) if word else {(v,): 1}


def _lie_image(y: LinComb) -> dict:
    """Image of an element in the free Lie algebra, key by key."""
    return _extend_linearly(_key_image, y.coeffs)


@cache
def _image_bracket(w: Word, word: Word) -> dict:
    """Ψ(w, ℓ) = [X, ℓ] for any X whose Lie image is the Lyndon word w, with
    ℓ = `word`, as {key: nonzero int}: (w, v) for a letter ℓ = v, else
    Ψ([w,ℓ₁], ℓ₂) + Ψ([ℓ₂,w], ℓ₁) for ℓ = ℓ₁ℓ₂.  Shared, do not mutate."""
    if len(word) == 1:
        return {(w, word[0]): 1}
    first, second = standard_factorization(word)
    out = _extend_bilinearly(_image_bracket, _lyndon_bracket(w, first), {second: 1})
    return _extend_bilinearly(_image_bracket, _lyndon_bracket(second, w), {first: 1}, out)


def _bracket_images(zx: dict, zy: dict) -> dict:
    """Σ c·c′·Ψ(w, ℓ) over the Lyndon words w of zx and ℓ of zy: the bracket
    of any two elements whose Lie images are zx and zy."""
    return _extend_bilinearly(_image_bracket, zx, zy)


def ronco_bracket(x: LinComb, y: LinComb, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Bracket of two elements in (lyndon_word, generator) coordinates.

    Reads x and y only through their Lie images (module docstring); the
    result equals project(leib_bracket(section(x), section(y))).
    """
    if x.is_zero() or y.is_zero():
        return LinComb.zero()
    _check_degree("bracket of degree", element_degree(x) + element_degree(y), max_degree)
    _require_lyndon([word for xy in (x, y) for word, _ in xy.keys() if word])
    return LinComb._of(_bracket_images(_lie_image(x), _lie_image(y)))


def eval_term(term: terms.Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Evaluate a parsed bracket term with g_i as the degree-1 generators,
    through Lie images when the cap allows (module docstring)."""
    return terms._evaluate_free(term, num_gens, max_degree, ronco_generator,
                                lambda a, b: ronco_bracket(a, b, max_degree),
                                _bracket_images, _lie_product, left_image=True)


def graded_dim(d: int, n: int) -> int:
    """Dimension of the degree-n graded piece on d generators."""
    if d < 1 or n < 1:
        raise ValueError(f"generator count and degree must be >= 1, got d={d}, n={n}")
    if n == 1:
        return d
    return witt_dim(d, n - 1) * d


def graded_basis(d: int, n: int) -> list[RKey]:
    """Deterministic basis keys of the degree-n piece, sorted by `key_sort_key`."""
    if n == 1:
        return [((), v) for v in range(1, d + 1)]
    return [(word, v) for word in lyndon_words(d, n - 1) for v in range(1, d + 1)]


def _graded_kernel(d: int, n: int, max_degree: int = DEFAULT_MAX_DEGREE) -> tuple[list, list]:
    """The integer core of `graded_kernel_basis`: the basis keys, and each kernel
    vector's `SpanBuilder.integer_kernel` entries sorted by column (key order).

    The rows (one per Lyndon word of degree n) are spanned sorted by their
    lowest column, largest first.  A row whose lowest column is no pivot
    yet then leads left of every pivot already held, so it changes none of
    the rows held (its other columns may still be reduced); only a row that
    shares its lowest column with an earlier one may back-substitute.  The
    reduced echelon form does not depend on the order, so neither does the
    kernel.
    """
    if n < 2:
        raise ValueError(f"the kernel lives in degrees >= 2, got n={n}")
    if d < 1:
        raise ValueError(f"generator count must be >= 1, got d={d}")
    _check_degree("degree", n, max_degree)
    keys = graded_basis(d, n)
    rows: dict = {}  # Lyndon word of degree n -> {column j: coefficient of it in [ξ_j, g_v_j]}
    for j, key in enumerate(keys):
        for target, c in _key_image(key).items():
            rows.setdefault(target, {})[j] = c
    kernel = _span(len(keys), sorted(rows.values(), key=min, reverse=True)).integer_kernel()
    return keys, [sorted(vec) for vec in kernel]


def graded_kernel_basis(d: int, n: int, max_degree: int = DEFAULT_MAX_DEGREE) -> list[LinComb]:
    """Basis of the kernel of the bracket-to-Lie map in degree n >= 2.

    The map sends ξ⊗v to [ξ, g_v] in the free Lie algebra; its kernel
    measures the failure of the degree-n piece to be Lie.  Kernel vectors
    come from the deterministic echelon kernel, one per free basis key,
    each with its keys in basis order.  The kernel depends only on which
    columns depend on earlier ones, so `_graded_kernel` reads it off the
    integer RREF unchanged; here its entries become Fractions.
    """
    keys, kernel = _graded_kernel(d, n, max_degree)
    return [LinComb._of({keys[j]: Fraction(num, den) for j, num, den in vec}) for vec in kernel]


def truncation_basis(d: int, max_deg: int) -> list[RKey]:
    """Basis keys of all degrees 1..max_deg, in (degree, word, generator) order."""
    if d < 1 or max_deg < 1:
        raise ValueError(f"generator count and cutoff must be >= 1, got d={d}, N={max_deg}")
    return [key for n in range(1, max_deg + 1) for key in graded_basis(d, n)]


def truncate_to_structure(d: int, max_deg: int, max_degree: int = DEFAULT_MAX_DEGREE) -> StructureAlgebra:
    """Finite-dimensional quotient by all components of degree > max_deg.

    Basis order matches `truncation_basis(d, max_deg)`; brackets landing
    above the cutoff are set to zero, which is compatible with the defining
    identities because the discarded part is an ideal.
    """
    _check_degree("cutoff", max_deg, max_degree)
    keys = truncation_basis(d, max_deg)
    degrees = [key_degree(key) for key in keys]
    images = [_key_image(key) for key in keys]  # int images keep the brackets in int arithmetic
    index = {key: i for i, key in enumerate(keys)}
    bracket: dict = {}
    for i, zi in enumerate(images):
        # the keys are sorted by degree, so those that fit beside keys[i] are a prefix
        for j in range(bisect_right(degrees, max_deg - degrees[i])):
            z = _bracket_images(zi, images[j])  # Lyndon keys, degree ≤ cutoff ≤ cap: no checks
            if z:
                bracket[(i, j)] = {index[key]: c for key, c in z.items()}
    return StructureAlgebra(len(keys), bracket)
