"""Each input rule is enforced by one helper; these tests pin what every
caller of it says.

  * the degree cap (`freelie._check_degree`): the three brackets, the
    graded kernel and the truncation;
  * the generator range (`terms._in_range`): both term evaluators, on both routes;
  * the generator index (`freelie._generator_index`): the generators of
    the three free algebras;
  * the Lyndon keys (`freelie._require_lyndon`): the Lie bracket, the
    tensor embedding and the bracket of the square-identity algebra;
  * the variety precondition (`structure._require_ok`): both conversions,
    the Lie quotient and the four homology functors;
  * the chain space (`homology._require`): the four homology functors;
  * the algebra kind (`cli._load_algebra`): `verify`, `convert`, `homology`.
"""

import time
from fractions import Fraction

import pytest

from roncoalg.cli import main
from roncoalg.errors import DegreeOverflowError, NotInVarietyError, RoncoError
from roncoalg.freelie import expand_to_tensor, lie_bracket, lie_generator
from roncoalg.homology import MAX_CHAIN_DIM, h1_adjoint, hl1, hl2, hr0
from roncoalg.jsonio import dumps_algebra
from roncoalg.leibniz import leib_bracket, leib_generator
from roncoalg.lincomb import LinComb
from roncoalg.ronco import graded_kernel_basis, ronco_bracket, ronco_generator, truncate_to_structure
from roncoalg.structure import (
    MuAlgebra, StructureAlgebra, VerificationReport, Violation, lie_quotient, mu_to_ronco, ronco_to_mu,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# degree cap

@pytest.mark.parametrize("compute, message", [
    (lambda: lie_bracket(LinComb.basis((1, 1, 1, 1, 2)), LinComb.basis((1, 2, 2, 2))),
     "bracket of degree 9 exceeds the cap 8"),
    (lambda: leib_bracket(LinComb.basis((1,) * 5), LinComb.basis((2, 3, 4, 5))),
     "bracket of degree 9 exceeds the cap 8"),
    (lambda: ronco_bracket(LinComb.basis(((1, 1, 2), 1)), LinComb.basis(((1, 2, 2, 2), 1))),
     "bracket of degree 9 exceeds the cap 8"),
    (lambda: graded_kernel_basis(2, 9), "degree 9 exceeds the cap 8"),
    (lambda: truncate_to_structure(2, 9), "cutoff 9 exceeds the cap 8"),
])
def test_degree_cap_message(compute, message):
    with pytest.raises(DegreeOverflowError) as exc:
        compute()
    assert str(exc.value) == message


def test_degree_cap_message_through_the_cli(capsys, monkeypatch):
    monkeypatch.setenv("RONCO_MAX_DEGREE", "2")
    for command in ("leib-bracket", "ronco-eval"):
        assert run(capsys, [command, "--gens", "2", "--expr", "[[g1,g2],g1]"]) == (
            2, "", "error: bracket of degree 3 exceeds the cap 2\n")


# ---------------------------------------------------------------------------
# generator range

@pytest.mark.parametrize("command", ["leib-bracket", "ronco-eval"])
def test_generator_out_of_range(capsys, command):
    assert run(capsys, [command, "--gens", "2", "--expr", "[g1,g9]"]) == (
        2, "", "error: generator g9 out of range (have 2)\n")


# ---------------------------------------------------------------------------
# generator index

@pytest.mark.parametrize("generator", [lie_generator, leib_generator, ronco_generator],
                         ids=["lie", "leibniz", "ronco"])
@pytest.mark.parametrize("i", [0, -1])
def test_generator_index_below_one(generator, i):
    with pytest.raises(ValueError) as exc:
        generator(i)
    assert str(exc.value) == f"generator index must be >= 1, got {i}"


def test_leibniz_and_lie_generators_are_one_function():
    # g_i is the word (i,) in both algebras
    assert leib_generator is lie_generator
    assert leib_generator(2) == LinComb.basis((2,))


# ---------------------------------------------------------------------------
# Lyndon keys

NOT_LYNDON = LinComb.basis((2, 1))
NOT_LYNDON_KEY = LinComb.basis(((2, 1), 1))  # the 𝒱 key (2, 1)⊗g1


@pytest.mark.parametrize("compute", [
    lambda: lie_bracket(NOT_LYNDON, lie_generator(1)),
    lambda: lie_bracket(lie_generator(1), NOT_LYNDON),
    lambda: expand_to_tensor(NOT_LYNDON),
    lambda: ronco_bracket(NOT_LYNDON_KEY, ronco_generator(1)),
    lambda: ronco_bracket(ronco_generator(1), NOT_LYNDON_KEY),
], ids=["lie-left", "lie-right", "expand", "ronco-left", "ronco-right"])
def test_non_lyndon_key(compute):
    with pytest.raises(ValueError) as exc:
        compute()
    assert str(exc.value) == "key (2, 1) is not a Lyndon word"


# ---------------------------------------------------------------------------
# variety precondition

BAD = StructureAlgebra(1, {(0, 0): {0: Fraction(1)}})  # [e1,e1] = e1 fails the Leibniz identity
BAD_MU = MuAlgebra(1, {}, {(0, 0): {0: Fraction(1)}})  # e1·e1 = e1 is a nonzero triple product
NOT_LIE = truncate_to_structure(1, 2)  # [e1,e1] = e2


def report(variety, *violations):
    return VerificationReport(variety, tuple(
        Violation(axiom, indices, tuple(Fraction(c) for c in residual))
        for axiom, indices, residual in violations))


LEIBNIZ_REPORT = report("leibniz", ("leibniz", (1, 1, 1), (1,)))
LIE_REPORT = report("lie", ("alternating", (1,), (0, 1)))


@pytest.mark.parametrize("op, algebra, message, expected", [
    (ronco_to_mu, BAD, "input does not satisfy the square-bracket identities",
     report("ronco", ("leibniz", (1, 1, 1), (1,)), ("polarized-square-bracket", (1, 1, 1), (2,)),
            ("square-bracket", (1, 1), (1,)))),
    (mu_to_ronco, BAD_MU, "input does not satisfy the bracket/product axioms",
     report("mu", ("triple-product-right", (1, 1, 1), (1,)), ("triple-product-left", (1, 1, 1), (1,)))),
    (lie_quotient, BAD, "lie_quotient needs a Leibniz algebra", LEIBNIZ_REPORT),
    (hl1, BAD, "hl1 needs an algebra in the leibniz variety", LEIBNIZ_REPORT),
    (hl2, BAD, "hl2 needs an algebra in the leibniz variety", LEIBNIZ_REPORT),
    (hr0, NOT_LIE, "hr0 needs an algebra in the lie variety", LIE_REPORT),
    (h1_adjoint, NOT_LIE, "h1_adjoint needs an algebra in the lie variety", LIE_REPORT),
])
def test_variety_precondition(op, algebra, message, expected):
    with pytest.raises(NotInVarietyError) as exc:
        op(algebra)
    assert str(exc.value) == message
    assert exc.value.report == expected


# ---------------------------------------------------------------------------
# chain space

@pytest.mark.parametrize("op, largest, past", [
    (hl1, 10_000, 10_001), (hl2, 100, 101 * 101), (hr0, 140, 141 * 142 // 2), (h1_adjoint, 100, 101 * 101),
], ids=["hl1", "hl2", "hr0", "h1_adjoint"])
def test_chain_space_cap(op, largest, past):
    # The cap is checked before the variety: at the largest admitted dimension
    # [e1,e1] = e1, in neither variety, is refused by the variety check, one
    # dimension past it by the cap, at once.  Unguarded, hl2 of the empty
    # dimension-101 algebra ran 6 s before the dense budget refused it.
    assert MAX_CHAIN_DIM == 10_000
    with pytest.raises(NotInVarietyError):
        op(StructureAlgebra(largest, {(0, 0): {0: Fraction(1)}}))
    algebra = StructureAlgebra(largest + 1, {(0, 0): {0: Fraction(1)}})
    start = time.perf_counter()
    with pytest.raises(RoncoError) as exc:
        op(algebra)
    assert time.perf_counter() - start < 0.1
    assert type(exc.value) is RoncoError
    assert str(exc.value) == f"the chain dimension of {op.__name__} ({past}) exceeds the limit of 10000"


# ---------------------------------------------------------------------------
# algebra kind

@pytest.mark.parametrize("argv, kind, message", [
    (["verify", "--variety", "mu"], "leibniz", '--variety mu needs a kind "mu" algebra'),
    (["verify", "--variety", "mu-symmetric"], "leibniz", '--variety mu-symmetric needs a kind "mu" algebra'),
    (["verify", "--variety", "symmetric"], "mu", '--variety symmetric needs a kind "leibniz" algebra'),
    (["verify", "--variety", "lie"], "mu", '--variety lie needs a kind "leibniz" algebra'),
    (["convert", "--to", "mu"], "mu", 'convert --to mu needs a kind "leibniz" algebra'),
    (["convert", "--to", "ronco"], "leibniz", 'convert --to ronco needs a kind "mu" algebra'),
    (["homology", "--which", "hl1"], "mu", 'homology needs a kind "leibniz" algebra'),
])
def test_kind_mismatch(tmp_path, capsys, argv, kind, message):
    t = truncate_to_structure(2, 3)
    path = tmp_path / "a.json"
    path.write_text(dumps_algebra(ronco_to_mu(t) if kind == "mu" else t))
    assert run(capsys, argv + [str(path)]) == (2, "", f"error: {message}\n")
