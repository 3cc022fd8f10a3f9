"""The tensor-algebra composites that the direct free-algebra brackets
replaced, kept as test oracles.

`lie_bracket` embeds both factors in the tensor algebra, takes the
commutator there and rewrites it in Lyndon coordinates.  `ronco_bracket`
lifts both factors to free Leibniz words with `section`, multiplies there
and projects back.  `graded_kernel_basis` builds the degree-n kernel from
the oracle Lie bracket.  None of them has a degree cap.
"""

from roncoalg.freelie import expand_to_tensor, lyndon_words, rewrite_to_lyndon, tensor_commutator
from roncoalg.leibniz import leib_bracket
from roncoalg.linalg import SparseMatrix, rank_and_kernel
from roncoalg.lincomb import LinComb
from roncoalg.ronco import graded_basis, project, section

UNCAPPED = 10**9


def lie_bracket(x: LinComb, y: LinComb) -> LinComb:
    return rewrite_to_lyndon(tensor_commutator(expand_to_tensor(x), expand_to_tensor(y)))


def ronco_bracket(x: LinComb, y: LinComb) -> LinComb:
    return project(leib_bracket(section(x), section(y), max_degree=UNCAPPED))


def graded_kernel_basis(d: int, n: int) -> list[LinComb]:
    keys = graded_basis(d, n)
    targets = {word: i for i, word in enumerate(lyndon_words(d, n))}
    entries: dict = {}
    for j, (word, v) in enumerate(keys):
        for target, c in lie_bracket(LinComb.basis(word), LinComb.basis((v,))):
            entries[(targets[target], j)] = c
    _, kernel = rank_and_kernel(SparseMatrix(len(targets), len(keys), entries))
    return [LinComb((keys[j], c) for j, c in enumerate(vec) if c) for vec in kernel]
