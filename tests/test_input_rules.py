"""Each input rule is enforced by one helper; these tests pin what every
caller of it says.

  * the degree cap (`freelie._check_degree`): the three brackets, the
    graded kernel and the truncation;
  * the generator range (`terms._evaluate_on`): both term evaluators;
  * the variety precondition (`structure._require_ok`): both conversions,
    the Lie quotient and the four homology functors;
  * the algebra kind (`cli._load_algebra`): `verify`, `convert`, `homology`.
"""

from fractions import Fraction

import pytest

from roncoalg.cli import main
from roncoalg.errors import DegreeOverflowError, NotInVarietyError
from roncoalg.freelie import lie_bracket
from roncoalg.homology import h1_adjoint, hl1, hl2, hr0
from roncoalg.jsonio import dumps_algebra
from roncoalg.leibniz import leib_bracket
from roncoalg.lincomb import LinComb
from roncoalg.ronco import graded_kernel_basis, ronco_bracket, truncate_to_structure
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
