"""Free Lie algebra on generators g1..gd in the Lyndon-word basis.

A Lie element is a `LinComb` whose keys are Lyndon words (tuples of 1-based
generator indices); the basis element for a Lyndon word is its right
standard bracketing.  The bracket stays in these coordinates: two Lyndon
words are bracketed by the classical rewriting of Lyndon brackets
(Reutenauer, *Free Lie Algebras*, ch. 4-5), with integer coefficients and
one cache entry per pair of words; `lie_bracket` and the left-normed
bracketing of words (one letter at a time) are built on it.  Maps on
words, and on pairs of words, reach elements through
`lincomb._extend_linearly` and `lincomb._extend_bilinearly`.

Lie elements also act from the right on the other free algebras.  In any
right Leibniz algebra [x,[y,z]] = [[x,y],z] − [[x,z],y], so right
multiplication kills squares and [x, y] depends on y only through its image
in the free Lie algebra: a Lyndon word ℓ = ℓ₁ℓ₂ (standard factorization)
acts by R_ℓ = R_ℓ₂∘R_ℓ₁ − R_ℓ₁∘R_ℓ₂.  `leibniz` and `ronco` each solve that
recursion in closed form for their own generator rule.

The tensor algebra, where ``[a, b] = a⊗b - b⊗a``, serves only the
embedding `expand_to_tensor`, its inverse `rewrite_to_lyndon`, the
section of the free square-identity algebra and the free Leibniz bracket,
through one commutator, `_commutator`.  A tensor element is a
`LinComb` keyed by arbitrary words.  The Lyndon expansion is triangular (a
Lyndon word maps to itself plus lexicographically larger words of the same
degree), which makes `rewrite_to_lyndon` a plain back-substitution loop.

The bracket accepts a degree cap (default 8) and refuses larger results.
"""

from __future__ import annotations

from functools import cache

from .errors import DegreeOverflowError, InternalError, NotLieElementError
from .lincomb import LinComb, _add_scaled, _extend_bilinearly, _extend_linearly

Word = tuple[int, ...]

DEFAULT_MAX_DEGREE = 8


# ---------------------------------------------------------------------------
# words

def is_lyndon(word: Word) -> bool:
    """A nonempty word is Lyndon iff it is strictly smaller than every proper suffix."""
    n = len(word)
    if n == 0:
        return False
    return all(word < word[i:] for i in range(1, n))


def format_word(word: Word, alphabet_size: int | None = None) -> str:
    """"112" for single-digit alphabets, "1.10.2" once indices exceed 9;
    "" for the empty word."""
    wide = (alphabet_size or max(word, default=0)) > 9
    sep = "." if wide else ""
    return sep.join(str(a) for a in word)


def parse_word(text: str) -> Word:
    parts = text.split(".") if "." in text else list(text)
    # ASCII digits only: int() also reads "١", " 1" and "1_0"
    if not (parts and all(p.isascii() and p.isdigit() and int(p) >= 1 for p in parts)):
        raise ValueError(f"invalid word: {text!r}")
    return tuple(int(p) for p in parts)


def word_sort_key(word: Word) -> tuple:
    return (len(word), word)


@cache
def lyndon_words(d: int, n: int) -> tuple[Word, ...]:
    """All Lyndon words of length exactly n over 1..d, lexicographically ordered.

    Duval's generator produces every Lyndon word of length <= n in lex
    order; filtering by length preserves the order.
    """
    if d < 1 or n < 1:
        raise ValueError(f"alphabet size and length must be >= 1, got d={d}, n={n}")
    out: list[Word] = []
    w = [1]
    while w:
        if len(w) == n:
            out.append(tuple(w))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(out)


def witt_dim(d: int, n: int) -> int:
    """Dimension of the degree-n graded piece of the free Lie algebra on d generators."""
    if d < 1 or n < 1:
        raise ValueError(f"alphabet size and degree must be >= 1, got d={d}, n={n}")
    total = 0
    for k in range(1, n + 1):
        if n % k == 0:
            total += _mobius(n // k) * d**k
    if total % n:
        raise InternalError(f"witt_dim: necklace count {total} is not divisible by {n}")
    return total // n


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


@cache
def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split w = u·v with v the longest proper Lyndon suffix; u, v are Lyndon.

    The smallest proper suffix of a word is Lyndon, and every longer suffix
    has it as a smaller proper suffix, so it is the longest proper Lyndon
    suffix (Lothaire, *Combinatorics on Words*, ch. 5).  A word is Lyndon
    iff it is smaller than that suffix, so one pass over the suffixes finds
    v and checks the input.  Cached: the brackets factor the same words
    again and again.
    """
    v = min((word[i:] for i in range(1, len(word))), default=None)
    if v is None or not word < v:
        raise ValueError(f"standard factorization needs a Lyndon word of length >= 2, got {word}")
    u = word[:len(word) - len(v)]
    if not is_lyndon(u):
        raise InternalError(f"standard_factorization: prefix {u} of {word} is not Lyndon")
    return u, v


# ---------------------------------------------------------------------------
# elements

def _generator_index(i: int) -> int:
    """The index of g_i, for the generators of all three free algebras."""
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return i


def lie_generator(i: int) -> LinComb:
    """The generator g_i as a degree-1 word (also `leibniz.leib_generator`)."""
    return LinComb.basis((_generator_index(i),))


def element_degree(x: LinComb) -> int:
    """Maximal word length occurring in x (0 for the zero element)."""
    return max((len(k) for k in x.keys()), default=0)


def _check_degree(what: str, degree: int, max_degree: int):
    """The package's one degree cap, shared by every bracket, kernel and truncation."""
    if degree > max_degree:
        raise DegreeOverflowError(f"{what} {degree} exceeds the cap {max_degree}")


def _concatenate(x: dict, y: dict, acc: dict | None = None) -> dict:
    """x⊗y of sparse tensor elements (words concatenated), added into `acc`
    (a new dict if None); the one of x and y with fewer words is walked word
    by word."""
    if len(x) <= len(y):
        return _extend_linearly(lambda u: {u + v: c for v, c in y.items()}, x, acc)
    return _extend_linearly(lambda v: {u + v: c for u, c in x.items()}, y, acc)


def _commutator(a: dict, b: dict) -> dict:
    """a⊗b - b⊗a of sparse tensor elements, in a new dict."""
    return _concatenate(b, {u: -c for u, c in a.items()}, _concatenate(a, b))


def tensor_commutator(a: LinComb, b: LinComb) -> LinComb:
    """a⊗b - b⊗a on tensor elements, extended bilinearly."""
    return LinComb._of(_commutator(a.coeffs, b.coeffs))


@cache
def _expand_word(word: Word) -> LinComb:
    if len(word) == 1:
        return LinComb.basis(word)
    u, v = standard_factorization(word)
    return tensor_commutator(_expand_word(u), _expand_word(v))


def _require_lyndon(words):
    for word in words:
        if not is_lyndon(word):
            raise ValueError(f"key {word} is not a Lyndon word")


def expand_to_tensor(x: LinComb) -> LinComb:
    """Embed a Lie element into the tensor algebra via its standard bracketings."""
    _require_lyndon(x.keys())
    return LinComb._of(_extend_linearly(lambda word: _expand_word(word).coeffs, x.coeffs))


def rewrite_to_lyndon(t: LinComb) -> LinComb:
    """Inverse of `expand_to_tensor` on Lie elements.

    Repeatedly clears the smallest remaining word, shortest first and then
    lexicographically, which for a Lie element must be Lyndon; a non-Lyndon
    leading word means the input was not a Lie element.
    """
    work = dict(t.coeffs)
    result: dict = {}
    while work:
        word = min(work, key=word_sort_key)
        if not is_lyndon(word):
            raise NotLieElementError(
                f"residual tensor term {format_word(word) or '() (the empty word)'} has no Lyndon leading word"
            )
        c = work[word]
        _add_scaled(work, -c, _expand_word(word).coeffs)  # clears word: its coefficient is 1
        result[word] = c
    return LinComb(result)


@cache
def _lyndon_bracket(u: Word, v: Word) -> dict:
    """[u, v] of two Lyndon words, as {Lyndon word: nonzero int}.

    For u < v with standard factorization u = u1·u2, the word uv is Lyndon
    with standard factorization (u, v) when u is a letter or u2 >= v;
    otherwise Jacobi gives [u, v] = [[u1, v], u2] + [u1, [u2, v]], and the
    classical rewriting recurses on those brackets: the outer bracket of
    each sum is extended bilinearly over the Lyndon words of the inner one.
    The result is shared through the cache and must not be mutated.
    """
    if u == v:
        return {}
    if u > v:
        return {w: -c for w, c in _lyndon_bracket(v, u).items()}
    if len(u) == 1:
        return {u + v: 1}
    u1, u2 = standard_factorization(u)
    if u2 >= v:
        return {u + v: 1}
    out = _extend_bilinearly(_lyndon_bracket, _lyndon_bracket(u1, v), {u2: 1})
    return _extend_bilinearly(_lyndon_bracket, {u1: 1}, _lyndon_bracket(u2, v), out)


@cache
def _left_normed_word(word: Word) -> dict:
    """[[w1, w2], ..., wn] as {Lyndon word: nonzero int}; shared, do not mutate."""
    if len(word) == 1:
        return {word: 1}
    return _extend_linearly(lambda w: _lyndon_bracket(w, word[-1:]), _left_normed_word(word[:-1]))


def left_normed_bracketing(t: LinComb) -> LinComb:
    """Left-normed bracketing of a tensor element, as a Lie element."""
    if () in t.coeffs:
        raise ValueError("the empty word has no left-normed bracketing")
    return LinComb._of(_extend_linearly(_left_normed_word, t.coeffs))


def lie_bracket(x: LinComb, y: LinComb, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    """Bracket of two Lie elements in Lyndon coordinates.

    Bilinear extension of `_lyndon_bracket` over the keys of x and y; the
    tensor algebra is never visited.
    """
    if x.is_zero() or y.is_zero():
        return LinComb()
    _check_degree("bracket of degree", element_degree(x) + element_degree(y), max_degree)
    _require_lyndon((*x.keys(), *y.keys()))
    return LinComb._of(_lie_product(x.coeffs, y.coeffs))


def _lie_product(x: dict, y: dict) -> dict:
    """[x, y] of sparse Lie elements in Lyndon coordinates, unchecked."""
    return _extend_bilinearly(_lyndon_bracket, x, y)
