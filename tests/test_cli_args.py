"""The direct argv reader against argparse, its oracle.

`cli._direct_args` reads a plain argv straight from `_COMMANDS`; whenever it
returns a namespace, argparse must accept the same argv and return the same
values.  Every argv it leaves alone goes to argparse, so help, usage and
errors need no test here.  The last tests pin that the argv shapes of the
benchmark workloads, the README and CI take the direct path.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roncoalg.cli import _COMMANDS, _build_parser, _direct_args

# Values argparse and the reader might read differently: the empty string, a
# non-ASCII digit, a leading space, an underscore, a plus sign (the last four
# refused by the integer options); and, drawn more rarely, dash-leading ones.
INT_VALUES = ["2", "0", "", "٣", " 2", "1_0", "+3", "x", "2.0"]
STR_VALUES = ["t.json", "[g1,g2]", "2*g1 - [g1,g2]", "", " ", "٣", "a=b", "x y"]
DASH_VALUES = ["-2", "-2*g1", "--", "-", "-o", "--gens", "-h"]
NOISE = ["-h", "--help", "--", "-", "--gens", "--max", "-o", "--output", "--to", "-2", "", "extra"]


@st.composite
def argvs(draw):
    """Mostly plain argvs of one command, each piece sometimes bent out of shape."""
    def rarely():
        return draw(st.integers(0, 9)) == 9  # shrinks towards the plain case

    name = draw(st.sampled_from(list(_COMMANDS)))
    pieces = []
    for flags, options in _COMMANDS[name][2]:
        count = 1 if not rarely() else draw(st.sampled_from([0, 2]))  # given, absent, repeated
        for _ in range(count):
            if rarely():
                value = draw(st.sampled_from(DASH_VALUES))
            elif "choices" in options:
                value = draw(st.sampled_from([*options["choices"], "bogus", "Lie", ""]))
            else:
                value = draw(st.sampled_from(INT_VALUES if "type" in options else STR_VALUES))
            if not flags[0].startswith("-"):
                pieces.append([value])
                continue
            flag = draw(st.sampled_from(flags))
            if rarely():  # abbreviated, or with a stray dash
                flag = draw(st.sampled_from(
                    [f[:k] for f in flags if f.startswith("--") for k in range(3, len(f))]
                    + ["-" + flags[-1]]))
            pieces.append([f"{flag}={value}"] if rarely() else [flag, value])
    while rarely():
        pieces.append([draw(st.sampled_from(NOISE))])
    order = draw(st.permutations(pieces))
    return [name] + [token for piece in order for token in piece]


def _argparse_args(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse refused {argv!r} (exit {exc.code}): {err.getvalue()}")


@settings(max_examples=1500, deadline=None)
@given(argvs())
def test_direct_args_equal_argparse(argv):
    args = _direct_args(argv)
    if args is not None:
        assert vars(args) == vars(_argparse_args(argv))


LEFT_TO_ARGPARSE = [
    ["verify", "--var", "ronco", "t.json"],  # an abbreviation
    ["ronco-eval", "--gens=2", "--expr", "g1"],
    ["ronco-eval", "--gens", "2", "--expr", "-2*g1"],  # argparse: expected one argument
    ["ronco-eval", "--gens", "2", "--expr=-2*g1"],  # argparse: accepted
    ["ronco-eval", "--gens", "2", "--gens", "3", "--expr", "g1"],
    ["ronco-eval", "--gens", "2", "--expr", "g1", "-h"],
    ["ronco-eval", "-h"],
    ["ronco-eval", "--gens", "2"],  # a required option missing
    ["ronco-eval", "--gens", "x", "--expr", "g1"],  # not an int
    ["ronco-eval", "--gens", "2", "--expr"],  # no value
    ["witt", "--gens", "-2", "--max", "4"],  # argparse reads -2 as a number
    ["verify", "--variety", "bogus", "t.json"],
    ["verify", "--variety", "lie"],  # no file
    ["verify", "--variety", "lie", "a.json", "b.json"],
    ["verify", "--variety", "lie", "--", "t.json"],
    ["convert", "--to", "mu", "t.json", "-o", "a", "--output", "b"],
    ["witt", "--gens", "2", "--max", "4", "--len", "3"],  # another command's flag
    ["no-such-command"],
    ["--help"],
    [],
]


@pytest.mark.parametrize("value", ["٣", "1_0", " 2", "+3", " 1_0"])
@pytest.mark.parametrize("flag", ["--gens", "--max"])
def test_integer_options_take_ascii_digits_only(flag, value, capsys):
    argv = ["witt", "--gens", "2", "--max", "4"]
    argv[argv.index(flag) + 1] = value
    assert _direct_args(argv) is None
    with pytest.raises(SystemExit) as exc:
        _build_parser(argv).parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_every_integer_option_shares_the_ascii_type():
    types = {options["type"] for _, _, arguments in _COMMANDS.values()
             for _, options in arguments if "type" in options}
    assert len(types) == 1
    (ascii_int,) = types
    assert ascii_int is not int and ascii_int.__name__ == "int"
    assert [ascii_int(v) for v in ("0", "12", "-3", "007")] == [0, 12, -3, 7]


@pytest.mark.parametrize("argv", LEFT_TO_ARGPARSE, ids=" ".join)
def test_direct_args_leave_the_rest_to_argparse(argv):
    assert _direct_args(argv) is None


# The argv shapes that carry the traffic, written out: every command form
# the benchmark workloads send, then the README and CI examples.
DIRECT = [
    ["ronco-truncate", "--gens", "3", "--max", "4"],
    ["verify", "--variety", "ronco", "/work/trunc-3-4.json"],
    ["verify", "--variety", "lie", "/work/trunc-3-4.json"],
    ["convert", "--to", "mu", "/work/trunc-3-4.json"],
    ["convert", "--to", "ronco", "/work/trunc-3-4.mu.json"],
    ["free-nil2", "--dim", "5"],
    ["homology", "--which", "h1ad", "/work/nil2-4.json"],
    ["ronco-eval", "--gens", "2", "--expr", "[[-1*g1,2*g2],-3/2*g1]"],
    ["leib-bracket", "--gens", "3", "--expr", "[[1/2*g1,2/3*g2],-2*g3]"],
    ["graded-kernel", "--gens", "2", "--deg", "8"],
    ["witt", "--gens", "2", "--max", "4"],
    ["ronco-eval", "--gens", "2", "--expr", "[[g1,g1],g2]"],
    ["ronco-eval", "--gens", "2", "--expr", "2*g1 - 1/2*[g1,g2]"],
    ["leib-bracket", "--gens", "3", "--expr", "1/2 * [g1,[g2,g3]] - [g3,g1]"],
    ["free-nil2", "--dim", "3", "-o", "nil2.json"],
    ["homology", "--which", "hr0", "nil2.json"],
    ["ronco-truncate", "--gens", "2", "--max", "3", "-o", "t23.json"],
    ["verify", "--variety", "ronco", "t23.json"],
    ["convert", "--to", "mu", "t23.json", "-o", "t23-mu.json"],
    ["convert", "--to", "ronco", "t23-mu.json"],
    ["ronco-eval", "--gens", "2", "--expr", "..."],
    ["ronco-eval", "--gens", "2", "--expr", "[[g1,g2],g1]"],
    ["homology", "--which", "hl2", "nil2.json"],
    ["ronco-truncate", "--gens", "2", "--max", "4", "-o", "t.json"],
    ["convert", "--to", "ronco", "t.mu.json", "-o", "t.back.json"],
    ["verify", "--variety", "lie", "entries-int.json"],
    ["ronco-eval", "--gens", "2", "--expr", "[g1,g٢]"],
]


@pytest.mark.parametrize("argv", DIRECT, ids=" ".join)
def test_plain_calls_take_the_direct_path(argv):
    args = _direct_args(argv)
    assert args is not None
    assert vars(args) == vars(_argparse_args(argv))
