"""Command-line behavior: golden outputs, exit codes, file round-trips.

Everything runs in-process through main(argv) except one subprocess check
of the `python -m roncoalg` entry point.
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_oracle
from basis_change import HEAVY_COEFFICIENTS, seeded_truncation
from roncoalg import homology, ronco
from roncoalg.cli import _COMMANDS, _HOMOLOGY, MAX_BASIS_SIZE, _build_parser, _print_violations, main
from roncoalg.errors import RoncoError
from roncoalg.homology import MAX_CHAIN_DIM, MAX_DENSE_ENTRIES, h1_adjoint, hl1, hl2, hr0
from roncoalg.jsonio import dumps_algebra, loads_algebra
from roncoalg.ronco import truncate_to_structure
from roncoalg.structure import StructureAlgebra, Violation, free_nil2, ronco_to_mu, verify_variety

WITT_GOLDEN = "1\t2\n2\t1\n3\t2\n4\t3\n"

BAD_LEIBNIZ = """\
{"dim": 1, "kind": "leibniz",
 "bracket": [{"i": 1, "j": 1, "c": [{"k": 1, "v": "1"}]}]}
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witt_golden(capsys):
    code, out, err = run(capsys, ["witt", "--gens", "2", "--max", "4"])
    assert (code, out, err) == (0, WITT_GOLDEN, "")


def test_lyndon(capsys):
    code, out, _ = run(capsys, ["lyndon", "--gens", "2", "--len", "3"])
    assert code == 0
    assert out == "112\n122\n"


def test_leib_bracket_golden(capsys):
    code, out, _ = run(capsys, [
        "leib-bracket", "--gens", "3", "--expr", "1/2 * [g1,[g2,g3]] - [g3,g1]",
    ])
    assert code == 0
    assert out == "-31 + 1/2·123 - 1/2·132\n"


def test_ronco_eval_golden(capsys):
    code, out, _ = run(capsys, ["ronco-eval", "--gens", "2", "--expr", "[[g1,g1],g2]"])
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, ["ronco-eval", "--gens", "2", "--expr", "[[g1,g2],g1]"])
    assert (code, out) == (0, "[12|1]\n")
    code, out, _ = run(capsys, ["ronco-eval", "--gens", "2", "--expr", "2*g1 - 1/2*[g1,g2]"])
    assert (code, out) == (0, "2·g1 - 1/2·[1|2]\n")


@pytest.mark.parametrize("command, output", [("ronco-eval", "-2·g1\n"), ("leib-bracket", "-2·1\n")])
def test_term_with_a_leading_minus_must_be_attached(capsys, command, output):
    # argparse reads a separate "-2*g1" as an option, and "--expr=-2*g1" as its value
    with pytest.raises(SystemExit) as exc:
        main([command, "--gens", "2", "--expr", "-2*g1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"usage: roncoalg {command} [-h] --gens D --expr TERM\n"
                                       f"roncoalg {command}: error: argument --expr: expected one argument\n")
    assert run(capsys, [command, "--gens", "2", "--expr=-2*g1"]) == (0, output, "")


def test_ronco_dims(capsys):
    code, out, _ = run(capsys, ["ronco-dims", "--gens", "2", "--max", "4"])
    assert code == 0
    assert out == "1\t2\n2\t4\n3\t2\n4\t4\n"


def test_graded_kernel_json(capsys):
    code, out, _ = run(capsys, ["graded-kernel", "--gens", "2", "--deg", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 2
    assert obj["dimension"] == 3
    assert obj["basis"] == [
        {"deg1": ["0", "0"], "higher": [["1", 1, "1"]]},
        {"deg1": ["0", "0"], "higher": [["1", 2, "1"], ["2", 1, "1"]]},
        {"deg1": ["0", "0"], "higher": [["2", 2, "1"]]},
    ]


def test_ronco_truncate(tmp_path, capsys):
    expected = dumps_algebra(truncate_to_structure(2, 3))
    code, out, _ = run(capsys, ["ronco-truncate", "--gens", "2", "--max", "3"])
    assert (code, out) == (0, expected)
    target = tmp_path / "t23.json"
    code, out, _ = run(capsys, ["ronco-truncate", "--gens", "2", "--max", "3", "-o", str(target)])
    assert (code, out) == (0, "")
    assert target.read_text() == expected


def test_free_nil2_output(tmp_path, capsys):
    target = tmp_path / "nil2.json"
    code, out, _ = run(capsys, ["free-nil2", "--dim", "3", "-o", str(target)])
    assert (code, out) == (0, "")
    assert loads_algebra(target.read_text()) == free_nil2(3)


def test_verify_ok(tmp_path, capsys):
    path = tmp_path / "t23.json"
    path.write_text(dumps_algebra(truncate_to_structure(2, 3)))
    for variety, label in [("leibniz", "leibniz"), ("ronco", "ronco"),
                           ("symmetric", "symmetric-leibniz")]:
        code, out, _ = run(capsys, ["verify", "--variety", variety, str(path)])
        assert (code, out) == (0, f"OK: {label} verified, no violations\n"), variety
    mu_path = tmp_path / "t23-mu.json"
    mu_path.write_text(dumps_algebra(ronco_to_mu(truncate_to_structure(2, 3))))
    code, out, _ = run(capsys, ["verify", "--variety", "mu", str(mu_path)])
    assert (code, out) == (0, "OK: mu verified, no violations\n")


def test_verify_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_LEIBNIZ)
    code, out, _ = run(capsys, ["verify", "--variety", "leibniz", str(path)])
    assert code == 1
    assert out == "violation: leibniz at (1,1,1): e1:1\n1 violation(s)\n"
    code, out, _ = run(capsys, ["verify", "--variety", "lie", str(path)])
    assert code == 1
    assert "violation: alternating at (1): e1:1" in out


def test_verify_kind_mismatch(tmp_path, capsys):
    path = tmp_path / "t23.json"
    path.write_text(dumps_algebra(truncate_to_structure(2, 3)))
    code, out, err = run(capsys, ["verify", "--variety", "mu", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_convert_round_trip(tmp_path, capsys):
    original = dumps_algebra(truncate_to_structure(2, 3))
    src = tmp_path / "t23.json"
    src.write_text(original)
    mu = tmp_path / "mu.json"
    back = tmp_path / "back.json"
    assert run(capsys, ["convert", "--to", "mu", str(src), "-o", str(mu)])[0] == 0
    assert run(capsys, ["convert", "--to", "ronco", str(mu), "-o", str(back)])[0] == 0
    assert back.read_text() == original


def test_convert_rejects_non_ronco(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_LEIBNIZ)
    code, out, err = run(capsys, ["convert", "--to", "mu", str(path)])
    assert code == 1
    assert err.startswith("error: input does not satisfy")
    assert "violation: leibniz at (1,1,1): e1:1" in out
    assert "violation: polarized-square-bracket at (1,1,1): e1:2" in out
    assert "violation: square-bracket at (1,1): e1:1" in out
    assert "3 violation(s)" in out


BAD_MU = """\
{"dim": 2, "kind": "mu", "lie_bracket": [],
 "product": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "1"}]}, {"i": 2, "j": 1, "c": [{"k": 1, "v": "1/3"}]}]}
"""


@pytest.mark.parametrize("to, variety, text", [("mu", "ronco", BAD_LEIBNIZ), ("ronco", "mu", BAD_MU)])
def test_convert_refuses_with_the_report_that_verify_prints(tmp_path, capsys, to, variety, text):
    # the conversion checks the integer table it converts, so its refusal
    # must list what `verify` lists for the same file
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, ["convert", "--to", to, str(path)])
    assert (code, out) == (1, run(capsys, ["verify", "--variety", variety, str(path)])[1])
    assert out.endswith(" violation(s)\n") and not out.startswith("0 ")
    assert err.startswith("error: input does not satisfy")


def printed(printer, violations) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        printer(violations)
    return out.getvalue()


def oracle_report(violations) -> str:
    return printed(cli_oracle._print_violations, violations)


RESIDUALS = st.one_of(st.just(Fraction(0)), st.just(Fraction(-1)), HEAVY_COEFFICIENTS,
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
VIOLATIONS = st.builds(Violation, st.sampled_from(["leibniz", "alternating", "coupled-jacobi", "x y"]),
                       st.lists(st.integers(1, 10**6), min_size=1, max_size=3).map(tuple),
                       st.lists(RESIDUALS, max_size=6).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.lists(VIOLATIONS, max_size=5))
def test_violation_printer_matches_the_oracle(violations):
    assert printed(_print_violations, violations) == oracle_report(violations)


def test_violation_report_of_a_benchmark_input_matches_the_oracle(tmp_path, capsys):
    # truncate(3,4) in a seeded basis of the truncate-verify benchmark, which
    # is no Lie algebra
    a = seeded_truncation(3, 4, 1)
    path = tmp_path / "t34.json"
    path.write_text(dumps_algebra(a))
    report = verify_variety(a, "lie")
    assert len(report.violations) == 51
    assert run(capsys, ["verify", "--variety", "lie", str(path)]) == (1, oracle_report(report.violations), "")
    # the same printer, after the error line, when a conversion is refused
    path.write_text(BAD_LEIBNIZ)
    report = verify_variety(StructureAlgebra(1, {(0, 0): {0: Fraction(1)}}), "ronco")
    assert run(capsys, ["convert", "--to", "mu", str(path)]) == (
        1, oracle_report(report.violations), "error: input does not satisfy the square-bracket identities\n")


def test_homology_command(tmp_path, capsys):
    path = tmp_path / "nil2.json"
    assert run(capsys, ["free-nil2", "--dim", "3", "-o", str(path)])[0] == 0
    code, out, _ = run(capsys, ["homology", "--which", "hr0", str(path)])
    assert code == 0
    assert json.loads(out)["dimension"] == 7
    code, out, _ = run(capsys, ["homology", "--which", "hl1", str(path)])
    assert json.loads(out)["dimension"] == 3
    hl2_dim = json.loads(run(capsys, ["homology", "--which", "hl2", str(path)])[1])["dimension"]
    h1ad_dim = json.loads(run(capsys, ["homology", "--which", "h1ad", str(path)])[1])["dimension"]
    assert hl2_dim == h1ad_dim
    # homology of a non-Lie Leibniz algebra: hl1 fine, hr0 refuses
    t23 = tmp_path / "t23.json"
    t23.write_text(dumps_algebra(truncate_to_structure(2, 3)))
    assert run(capsys, ["homology", "--which", "hl1", str(t23)])[0] == 0
    code, out, err = run(capsys, ["homology", "--which", "hr0", str(t23)])
    assert code == 1
    assert err.startswith("error:")


def test_input_error_exit_codes(tmp_path, capsys):
    cases = [
        ["ronco-eval", "--gens", "2", "--expr", "[g1"],
        ["ronco-eval", "--gens", "2", "--expr", "g9"],
        ["leib-bracket", "--gens", "2", "--expr", "1/0*g1"],
        ["witt", "--gens", "2", "--max", "0"],
        ["ronco-dims", "--gens", "2", "--max", "0"],
        ["verify", "--variety", "leibniz", str(tmp_path / "missing.json")],
        ["graded-kernel", "--gens", "2", "--deg", "1"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv
    # malformed JSON
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2}')
    code, _, err = run(capsys, ["verify", "--variety", "leibniz", str(path)])
    assert code == 2 and err.startswith("error:")
    # homology needs a bracket algebra, not a mu one
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(dumps_algebra(ronco_to_mu(truncate_to_structure(2, 3))))
    code, _, err = run(capsys, ["homology", "--which", "hl1", str(mu_path)])
    assert code == 2 and err.startswith("error:")


def test_json_booleans_are_not_integers(tmp_path, capsys):
    # read as the integer 1, each of these would be a valid algebra
    good = {"dim": 2, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": [{"k": 2, "v": "1"}]}]}
    bad = [dict(good, dim=True)]
    for field in ("i", "j"):
        bad.append(dict(good, bracket=[dict(good["bracket"][0], **{field: True})]))
    bad.append(dict(good, bracket=[dict(good["bracket"][0], c=[{"k": True, "v": "1"}])]))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(good))
    assert run(capsys, ["verify", "--variety", "leibniz", str(path)])[0] == 0
    for obj in bad:
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, ["verify", "--variety", "leibniz", str(path)])
        assert (code, out) == (2, ""), obj
        assert err.startswith("error:"), obj


def test_empty_large_algebra_is_instant(tmp_path):
    # the checks visit only tuples reached from nonzero cells, so an empty
    # dim-100000 table costs nothing; a dense loop would never finish
    big = tmp_path / "big.json"
    big.write_text('{"dim": 100000, "kind": "leibniz", "bracket": []}')
    big_mu = tmp_path / "big-mu.json"
    big_mu.write_text(json.dumps({
        "dim": 100000, "kind": "mu", "product": [],
        "lie_bracket": [{"i": 1, "j": 2, "c": [{"k": 3, "v": "1"}]},
                        {"i": 2, "j": 1, "c": [{"k": 3, "v": "-1"}]}],
    }))
    cases = [
        (["verify", "--variety", "ronco", str(big)], "OK: ronco verified, no violations\n"),
        (["verify", "--variety", "lie", str(big)], "OK: lie verified, no violations\n"),
        (["convert", "--to", "mu", str(big)],
         '{\n  "dim": 100000,\n  "kind": "mu",\n  "lie_bracket": [],\n  "product": []\n}\n'),
        (["verify", "--variety", "mu", str(big_mu)], "OK: mu verified, no violations\n"),
    ]
    for argv, expected in cases:
        result = subprocess.run([sys.executable, "-m", "roncoalg", *argv],
                                capture_output=True, text=True, timeout=10)
        assert (result.returncode, result.stdout) == (0, expected), argv


def test_hr0_of_empty_large_algebra_is_refused_at_once(tmp_path):
    # hr0 builds relations only from nonzero cells, so the dense budget
    # refuses the 5050 representatives before any relation is spanned
    big = tmp_path / "big.json"
    big.write_text('{"dim": 100, "kind": "leibniz", "bracket": []}')
    result = subprocess.run([sys.executable, "-m", "roncoalg", "homology", "--which", "hr0", str(big)],
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: hr0: 5050 representatives of length 5050 (25502500 entries) "
               "exceed the limit of 2000000\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


DEEP_TERMS = {
    "brackets": "[" * 3000 + "g1,g2" + "],g2" * 2999 + "]",
    "sum": "+".join(["g1"] * 3000),
    "scalars": "2*" * 3000 + "g1",
}


@pytest.mark.parametrize("shape", sorted(DEEP_TERMS))
@pytest.mark.parametrize("command", ["ronco-eval", "leib-bracket"])
def test_deep_terms_exit_2(capsys, command, shape):
    code, out, err = run(capsys, [command, "--gens", "2", "--expr", DEEP_TERMS[shape]])
    assert (code, out) == (2, "")
    assert err.startswith("error: term nested deeper than 200 levels (at position ")
    assert err.count("\n") == 1


DEG9 = "[[[[[[[[g1,g2],g2],g2],g2],g2],g2],g2],g2]"


# Each request enumerates a basis far above the limit; unguarded, each ran
# past a 5 s timeout.
OVERSIZED = {
    "lyndon": ["lyndon", "--gens", "50", "--len", "12"],
    "ronco-truncate": ["ronco-truncate", "--gens", "6", "--max", "8"],
    "graded-kernel": ["graded-kernel", "--gens", "8", "--deg", "8"],
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_oversized_requests_exit_2(capsys, command):
    code, out, err = run(capsys, OVERSIZED[command])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"exceeds the limit of {MAX_BASIS_SIZE}" in err


# A count or length below 1 reaches the library, whose message names the
# values given; the size estimate runs only on values it accepts.
BELOW_ONE = [
    (["lyndon", "--gens", "2", "--len", "0"], "alphabet size and length must be >= 1, got d=2, n=0"),
    (["lyndon", "--gens", "0", "--len", "3"], "alphabet size and length must be >= 1, got d=0, n=3"),
    (["lyndon", "--gens", "-1", "--len", "-2"], "alphabet size and length must be >= 1, got d=-1, n=-2"),
    (["ronco-truncate", "--gens", "0", "--max", "2"], "generator count and cutoff must be >= 1, got d=0, N=2"),
    (["ronco-truncate", "--gens", "2", "--max", "0"], "generator count and cutoff must be >= 1, got d=2, N=0"),
    (["ronco-truncate", "--gens", "-2", "--max", "-1"],
     "generator count and cutoff must be >= 1, got d=-2, N=-1"),
    (["graded-kernel", "--gens", "2", "--deg", "0"], "the kernel lives in degrees >= 2, got n=0"),
    (["graded-kernel", "--gens", "0", "--deg", "3"], "generator count must be >= 1, got d=0"),
    (["graded-kernel", "--gens", "-1", "--deg", "3"], "generator count must be >= 1, got d=-1"),
]


@pytest.mark.parametrize("argv, message", BELOW_ONE, ids=[" ".join(argv) for argv, _ in BELOW_ONE])
def test_counts_below_one_get_the_library_message(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_size_limit_boundary(capsys):
    # 4080 Lyndon words of length 16 on 2 letters fit; a length past the
    # limit is refused before its count is estimated.
    code, out, _ = run(capsys, ["lyndon", "--gens", "2", "--len", "16"])
    assert code == 0 and len(out.splitlines()) == 4080 <= MAX_BASIS_SIZE
    code, out, err = run(capsys, ["lyndon", "--gens", "1", "--len", str(MAX_BASIS_SIZE + 1)])
    assert (code, out) == (2, "") and "--len" in err


def test_degree_cap_env_override(monkeypatch, capsys):
    monkeypatch.delenv("RONCO_MAX_DEGREE", raising=False)
    code, _, err = run(capsys, ["ronco-eval", "--gens", "2", "--expr", DEG9])
    assert code == 2 and "degree" in err
    monkeypatch.setenv("RONCO_MAX_DEGREE", "9")
    code, out, _ = run(capsys, ["ronco-eval", "--gens", "2", "--expr", DEG9])
    assert (code, out) == (0, "[12222222|2]\n")
    monkeypatch.setenv("RONCO_MAX_DEGREE", "3")
    code, _, err = run(capsys, ["leib-bracket", "--gens", "2", "--expr",
                                "[[g1,g2],[g1,g2]]"])
    assert code == 2 and "degree" in err
    monkeypatch.setenv("RONCO_MAX_DEGREE", "abc")
    code, _, err = run(capsys, ["ronco-eval", "--gens", "2", "--expr", "g1"])
    assert code == 2
    assert "RONCO_MAX_DEGREE" in err
    monkeypatch.setenv("RONCO_MAX_DEGREE", "0")
    code, _, err = run(capsys, ["ronco-eval", "--gens", "2", "--expr", "g1"])
    assert code == 2
    assert "RONCO_MAX_DEGREE" in err
    # ASCII digits only, as for the integer options: int() reads these as 9, 10, 9 and 9
    for raw in ("٩", " 1_0", "+9", "9 "):
        monkeypatch.setenv("RONCO_MAX_DEGREE", raw)
        code, out, err = run(capsys, ["ronco-eval", "--gens", "2", "--expr", DEG9])
        assert (code, out) == (2, "")
        assert err == f"error: RONCO_MAX_DEGREE must be an integer, got {raw!r}\n"
    monkeypatch.setenv("RONCO_MAX_DEGREE", "-3")
    code, _, err = run(capsys, ["ronco-eval", "--gens", "2", "--expr", "g1"])
    assert (code, err) == (2, "error: RONCO_MAX_DEGREE must be >= 1, got -3\n")


def test_output_is_deterministic(capsys):
    argv = ["graded-kernel", "--gens", "3", "--deg", "3"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    assert first[0] == 0


def test_homology_chain_dimension_guard(tmp_path, capsys):
    # unguarded, hl2 of an empty dim-1000 algebra ran past 15 s with no output
    big = tmp_path / "big.json"
    big.write_text('{"dim": 1000, "kind": "leibniz", "bracket": []}')
    code, out, err = run(capsys, ["homology", "--which", "hl2", str(big)])
    assert (code, out) == (2, "")
    assert err == f"error: the chain dimension of hl2 (1000000) exceeds the limit of {MAX_CHAIN_DIM}\n"


# --which: the dimension of its chain space for an algebra of dimension n
CHAIN_DIMS = {"hl1": lambda n: n, "hl2": lambda n: n * n, "hr0": lambda n: n * (n + 1) // 2,
              "h1ad": lambda n: n * n}


@pytest.mark.parametrize("which", sorted(CHAIN_DIMS))
def test_chain_dimension_limit_boundary(tmp_path, capsys, which):
    # The estimate is checked before the algebra is: at the largest admitted
    # dimension an algebra outside every variety exits 1, one past it 2.
    # For hl1 the chain dimension is n itself: the limit and one past it.
    chain_dim = CHAIN_DIMS[which]
    n = max(n for n in range(MAX_CHAIN_DIM + 1) if chain_dim(n) <= MAX_CHAIN_DIM)
    assert chain_dim(99) <= MAX_CHAIN_DIM < chain_dim(n + 1)
    assert which != "hl1" or (chain_dim(n), chain_dim(n + 1)) == (MAX_CHAIN_DIM, MAX_CHAIN_DIM + 1)
    path = tmp_path / "a.json"
    for dim, code in [(n, 1), (n + 1, 2)]:
        path.write_text(json.dumps({"dim": dim, "kind": "leibniz",
                                    "bracket": [{"i": 1, "j": 1, "c": [{"k": 1, "v": "1"}]}]}))
        assert run(capsys, ["homology", "--which", which, str(path)])[0] == code, (which, dim)


def test_homology_runs_the_functors_that_check_their_own_chain_space(tmp_path, capsys):
    assert _HOMOLOGY == {"hl1": hl1, "hl2": hl2, "hr0": hr0, "h1ad": h1_adjoint}
    path = tmp_path / "a.json"
    path.write_text('{"dim": 101, "kind": "leibniz", "bracket": []}')
    assert run(capsys, ["homology", "--which", "h1ad", str(path)]) == (
        2, "", f"error: the chain dimension of h1_adjoint (10201) exceeds the limit of {MAX_CHAIN_DIM}\n")


def test_homology_calls_the_functor_the_homology_module_holds(tmp_path, capsys, monkeypatch):
    # looked up at call time, so a wrapper put on `roncoalg.homology` (a
    # tracer, a mock) is the function that runs
    calls = []

    def replacement(a):
        calls.append(a.dim)
        return homology.HomologyReport(0, ())

    monkeypatch.setattr(homology, "hl2", replacement)
    path = tmp_path / "nil2.json"
    path.write_text(dumps_algebra(free_nil2(2)))
    assert run(capsys, ["homology", "--which", "hl2", str(path)]) == (
        0, '{\n  "dimension": 0,\n  "representatives": []\n}\n', "")
    assert calls == [3]


def test_homology_dense_entries_guard(tmp_path, capsys):
    # unguarded, hl1 of an empty dim-2000 algebra took 10 s, 639 MB and printed 44 MB
    empty = tmp_path / "empty.json"
    empty.write_text('{"dim": 2000, "kind": "leibniz", "bracket": []}')
    code, out, err = run(capsys, ["homology", "--which", "hl1", str(empty)])
    assert (code, out) == (2, "")
    assert err == ("error: hl1: 2000 representatives of length 2000 (4000000 entries) "
                   f"exceed the limit of {MAX_DENSE_ENTRIES}\n")


# Each of these ended in a traceback (exit 1) or built dense residuals
# without a budget: the dim-10⁶ file took 1.1 s and 99 MB under `verify`.
HOSTILE_FILES = {
    "entries-int": '{"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": 5}]}',
    "entries-null": '{"dim": 1, "kind": "leibniz", "bracket": [{"i": 1, "j": 1, "c": null}]}',
    "nested-arrays": "[" * 100_000 + "]" * 100_000,
    "nested-objects": '{"a": ' * 100_000 + "1" + "}" * 100_000,
    "wide-violations": json.dumps({"dim": 10**6, "kind": "leibniz", "bracket": [
        {"i": a, "j": a, "c": [{"k": a, "v": "1"}]} for a in range(1, 6)]}),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
@pytest.mark.parametrize("argv", [["verify", "--variety", "lie"], ["convert", "--to", "mu"]])
def test_hostile_file_exits_2(tmp_path, capsys, name, argv):
    path = tmp_path / "hostile.json"
    path.write_text(HOSTILE_FILES[name])
    start = time.perf_counter()
    code, out, err = run(capsys, argv + [str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_dense_residuals_guard(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(HOSTILE_FILES["wide-violations"])
    assert run(capsys, ["verify", "--variety", "lie", str(path)]) == (
        2, "", "error: verify lie: 10 residuals of length 1000000 (10000000 entries) "
               f"exceed the limit of {MAX_DENSE_ENTRIES}\n")


# command: (argv, error); unguarded, each ran for many seconds or printed a
# partial listing before failing
SIZE_GUARDS = {
    "witt": (["witt", "--gens", "2", "--max", "30000"], "--max (30000)"),
    "ronco-dims": (["ronco-dims", "--gens", "100000000000", "--max", "3000"], "--gens (100000000000)"),
    "free-nil2": (["free-nil2", "--dim", "1000"], "the dimension of free-nil2 (500500)"),
}


@pytest.mark.parametrize("command", sorted(SIZE_GUARDS))
def test_size_guard(capsys, command):
    argv, what = SIZE_GUARDS[command]
    assert run(capsys, argv) == (2, "", f"error: {what} exceeds the limit of {MAX_BASIS_SIZE}\n")


def test_free_nil2_size_limit_boundary(capsys):
    # dimension d(d+1)/2: 4950 at d = 99, 5050 at d = 100
    assert run(capsys, ["free-nil2", "--dim", "100"])[0] == 2
    code, out, _ = run(capsys, ["free-nil2", "--dim", "99"])
    assert code == 0 and json.loads(out)["dim"] == 4950


@pytest.mark.parametrize("command", ["witt", "ronco-dims"])
def test_dimension_listing_writes_nothing_on_failure(capsys, monkeypatch, command):
    def dim(d, n):
        if n == 3:
            raise RoncoError("no dimension in degree 3")
        return n

    monkeypatch.setattr("roncoalg.cli.witt_dim", dim)
    monkeypatch.setattr(ronco, "graded_dim", dim)
    assert run(capsys, [command, "--gens", "2", "--max", "4"]) == (2, "", "error: no dimension in degree 3\n")


PRINT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not PRINT_DIGITS, reason="this Python prints integers of any length")
@pytest.mark.parametrize("command", ["witt", "ronco-dims"])
def test_dimension_listing_past_the_digit_limit_exits_2(capsys, command):
    # on 5000 generators the dimension of degree 1164 is the first past 4300 digits
    error = ("error: --gens (5000) and --max (5000) give a dimension longer than "
             f"{PRINT_DIGITS} digits, the limit for printing an integer\n")
    assert run(capsys, [command, "--gens", "5000", "--max", "5000"]) == (2, "", error)
    if PRINT_DIGITS == 4300:
        assert run(capsys, [command, "--gens", "5000", "--max", "1164"])[:2] == (2, "")


PARSER_ARGVS = ([[name, "--help"] for name in _COMMANDS] + [[name] for name in _COMMANDS]
                + [["--help"], ["no-such-command"], []])


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_invoked_only_parser_matches_full_parser(capsys, argv):
    outputs = []
    for parser in (_build_parser(), _build_parser(argv)):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        outputs.append((exc.value.code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert (code, bool(out), bool(err)) in [(0, True, False), (2, False, True)]
    subparsers = _build_parser(argv)._subparsers._group_actions[0].choices
    assert list(subparsers) == (argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS))


def test_import_skips_dataclasses():
    # importing `dataclasses` (with `inspect`) and generating the classes
    # cost about 20 ms of every cold call, and building argparse's parser
    # about 2 ms, so a plain call loads argparse (with gettext) only to report
    # a usage error
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, roncoalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)));"
         "roncoalg.cli.main(['witt', '--gens', '2', '--max', '4']);"
         "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, f"[]\n{WITT_GOLDEN}[]\n", "")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, roncoalg.cli; sys.exit(roncoalg.cli.main(['witt', '--gens', 'x', '--max', '4']))"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "usage: roncoalg witt [-h] --gens D --max N\n"
               "roncoalg witt: error: argument --gens: invalid int value: 'x'\n")


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "roncoalg", "witt", "--gens", "2", "--max", "4"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == WITT_GOLDEN
