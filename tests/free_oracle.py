"""The tensor-algebra composites and loops that the direct free-algebra
code replaced, kept as test oracles.

`standard_factorization` scans the proper suffixes from the longest down
and tests each for the Lyndon property, as `freelie` once did.  The
oracle's tensor expansion (`_expand_word`, `expand_to_tensor`,
`rewrite_to_lyndon`) is built on it, so `lie_bracket`,
`left_normed_bracketing` and `section` factor no word with the code under
test.  `lie_bracket` embeds both factors in the tensor algebra, takes the
commutator there and rewrites it in Lyndon coordinates.  `leib_bracket`
multiplies free Leibniz words by splitting off the last
letter of the right factor, [w, u·v] = [[w, u], v] − [[w, v], u], without
the free Lie algebra.  `left_normed_bracketing` expands left-normed
bracketings as tensors (2ⁿ⁻¹ terms) and rewrites them in Lyndon
coordinates.  `ronco_bracket` lifts both factors to free Leibniz words
with the oracle `section`, multiplies there with the oracle `leib_bracket`
and projects back; with `project` computed in Lyndon coordinates, this
composite shares only `_lyndon_bracket` with the direct bracket, and
`lie_bracket` checks that function through the tensor algebra.
`graded_kernel_basis` builds the degree-n kernel from the oracle Lie
bracket, and `truncate_to_structure` brackets every pair of truncation
basis keys with the oracle `ronco_bracket`, skipping those above the
cutoff.  None of them has a degree cap.

The right action of the free Lie algebra, which the free Leibniz and 𝒱
brackets once shared, is kept as a second oracle for them: `right_action`
applies a Lyndon word ℓ = ℓ₁ℓ₂ to one basis key as R_ℓ₂∘R_ℓ₁ − R_ℓ₁∘R_ℓ₂,
from a module's generator rule `letter(key, v) = [key, g_v]` (`_append`
for words, `_letter` for 𝒱 keys), and `act` sums it over the keys of an
element and the Lyndon words of a Lie element.  It acts on every key of
the left factor, so it does not use that the bracket reads the left factor
only through its Lie image.  `right_action_leib_bracket`,
`right_action_ronco_bracket` and `right_action_truncation` are the three
former package paths built on it.
"""

from functools import cache

from roncoalg.errors import InternalError, NotLieElementError
from roncoalg.freelie import format_word, is_lyndon, lyndon_words, tensor_commutator, word_sort_key
from roncoalg.freelie import left_normed_bracketing as lyndon_left_normed_bracketing
from roncoalg.linalg import SparseMatrix, rank_and_kernel
from roncoalg.lincomb import LinComb, _add_scaled
from roncoalg.ronco import _key_image, _lie_image, graded_basis, key_degree, project, truncation_basis
from roncoalg.structure import StructureAlgebra


def standard_factorization(word: tuple) -> tuple[tuple, tuple]:
    """Split w = u·v with v the longest proper Lyndon suffix; u, v are Lyndon."""
    if len(word) < 2 or not is_lyndon(word):
        raise ValueError(f"standard factorization needs a Lyndon word of length >= 2, got {word}")
    for i in range(1, len(word)):
        v = word[i:]
        if is_lyndon(v):
            u = word[:i]
            if not is_lyndon(u):
                raise InternalError(f"standard_factorization: prefix {u} of {word} is not Lyndon")
            return u, v
    raise InternalError("unreachable: every Lyndon word has a Lyndon proper suffix")


@cache
def _expand_word(word: tuple) -> LinComb:
    """The right standard bracketing of a Lyndon word, as a tensor."""
    if len(word) == 1:
        return LinComb.basis(word)
    u, v = standard_factorization(word)
    return tensor_commutator(_expand_word(u), _expand_word(v))


def expand_to_tensor(x: LinComb) -> LinComb:
    out: dict = {}
    for word, c in x:
        _add_scaled(out, c, _expand_word(word).coeffs)
    return LinComb._of(out)


def rewrite_to_lyndon(t: LinComb) -> LinComb:
    """Clear the smallest remaining word, shortest first, which must be Lyndon."""
    work = dict(t.coeffs)
    result: dict = {}
    while work:
        word = min(work, key=word_sort_key)
        if not is_lyndon(word):
            raise NotLieElementError(
                f"residual tensor term {format_word(word) or '() (the empty word)'} has no Lyndon leading word"
            )
        c = work[word]
        _add_scaled(work, -c, _expand_word(word).coeffs)
        result[word] = c
    return LinComb(result)


def lie_bracket(x: LinComb, y: LinComb) -> LinComb:
    return rewrite_to_lyndon(tensor_commutator(expand_to_tensor(x), expand_to_tensor(y)))


@cache
def _word_bracket(left: tuple, right: tuple) -> dict:
    """[left, right] of two words, as {word: nonzero int}; shared, never mutated."""
    if len(right) == 1:
        return {left + right: 1}
    head, last = right[:-1], right[-1:]
    # [w, head.last] = [[w, head], last] - [[w, last], head]
    out = _apply_right(_word_bracket(left, head), last)
    _add_scaled(out, -1, _apply_right(_word_bracket(left, last), head))
    return out


def _apply_right(x: dict, right: tuple) -> dict:
    out: dict = {}
    for word, c in x.items():
        _add_scaled(out, c, _word_bracket(word, right))
    return out


def leib_bracket(x: LinComb, y: LinComb) -> LinComb:
    out: dict = {}
    for wx, cx in x:
        for wy, cy in y:
            _add_scaled(out, cx * cy, _word_bracket(wx, wy))
    return LinComb._of(out)


def section(x: LinComb) -> LinComb:
    """(ℓ, v) ↦ (1/|ℓ|)·expand(ℓ)·v and ((), v) ↦ v, with the oracle expansion."""
    out: dict = {}
    for (word, v), c in x:
        if not word:
            _add_scaled(out, c, {(v,): 1})
        else:
            _add_scaled(out, c / len(word), {w + (v,): cw for w, cw in _expand_word(word)})
    return LinComb._of(out)


def ronco_bracket(x: LinComb, y: LinComb) -> LinComb:
    return project(leib_bracket(section(x), section(y)))


def graded_kernel_basis(d: int, n: int) -> list[LinComb]:
    keys = graded_basis(d, n)
    targets = {word: i for i, word in enumerate(lyndon_words(d, n))}
    entries: dict = {}
    for j, (word, v) in enumerate(keys):
        for target, c in lie_bracket(LinComb.basis(word), LinComb.basis((v,))):
            entries[(targets[target], j)] = c
    _, kernel = rank_and_kernel(SparseMatrix(len(targets), len(keys), entries))
    return [LinComb((keys[j], c) for j, c in enumerate(vec) if c) for vec in kernel]


@cache
def _left_normed_tensor_word(word: tuple) -> LinComb:
    """Tensor expansion of the left-normed bracketing [[w1,w2],...,wn]."""
    if len(word) == 1:
        return LinComb.basis(word)
    return tensor_commutator(_left_normed_tensor_word(word[:-1]), LinComb.basis((word[-1],)))


def left_normed_tensor(t: LinComb) -> LinComb:
    """Replace every word by its left-normed bracketing, inside the tensor algebra."""
    out: dict = {}
    for word, c in t:
        _add_scaled(out, c, _left_normed_tensor_word(word).coeffs)
    return LinComb._of(out)


def left_normed_bracketing(t: LinComb) -> LinComb:
    return rewrite_to_lyndon(left_normed_tensor(t))


def truncate_to_structure(d: int, max_deg: int) -> StructureAlgebra:
    keys = truncation_basis(d, max_deg)
    index = {key: i for i, key in enumerate(keys)}
    bracket: dict = {}
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if key_degree(ki) + key_degree(kj) > max_deg:
                continue
            z = ronco_bracket(LinComb.basis(ki), LinComb.basis(kj))
            if z:
                bracket[(i, j)] = {index[key]: c for key, c in z}
    return StructureAlgebra(len(keys), bracket)


@cache
def right_action(letter, key, word: tuple) -> dict:
    """R_ℓ(key) = [key, ℓ] for the Lie basis element of the Lyndon word ℓ,
    as {key: nonzero int}; shared, never mutated."""
    if len(word) == 1:
        return letter(key, word[0])
    first, second = standard_factorization(word)
    out = act(letter, right_action(letter, key, first), {second: 1})
    _add_scaled(out, -1, act(letter, right_action(letter, key, second), {first: 1}))
    return out


def act(letter, x: dict, lie: dict) -> dict:
    """Σ c·c′·R_ℓ(key) over the keys of x and the Lyndon words ℓ of lie."""
    out: dict = {}
    for word, cw in lie.items():
        for key, cx in x.items():
            _add_scaled(out, cx * cw, right_action(letter, key, word))
    return out


def _append(word: tuple, v: int) -> dict:
    """[w, g_v] in the free Leibniz algebra."""
    return {word + (v,): 1}


def _letter(key: tuple, v: int) -> dict:
    """[key, g_v] in 𝒱: (w, v) for each Lyndon word w of the key's Lie image."""
    return {(w, v): c for w, c in _key_image(key).items()}


def right_action_leib_bracket(x: LinComb, y: LinComb) -> LinComb:
    """The Lyndon coordinates of y act on every word of x."""
    return LinComb._of(act(_append, x.coeffs, lyndon_left_normed_bracketing(y).coeffs))


def right_action_ronco_bracket(x: LinComb, y: LinComb) -> LinComb:
    """The Lie image of y acts on every key of x."""
    return LinComb._of(act(_letter, x.coeffs, _lie_image(y)))


def right_action_truncation(d: int, max_deg: int) -> StructureAlgebra:
    """`truncate_to_structure` with each cell bracketed by `act`."""
    keys = truncation_basis(d, max_deg)
    index = {key: i for i, key in enumerate(keys)}
    bracket: dict = {}
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if key_degree(ki) + key_degree(kj) > max_deg:
                continue
            z = act(_letter, {ki: 1}, _key_image(kj))
            if z:
                bracket[(i, j)] = {index[key]: c for key, c in z.items()}
    return StructureAlgebra(len(keys), bracket)
