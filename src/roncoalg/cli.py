"""Command-line front end.

One subcommand per library operation; all output is deterministic.  Exit
codes: 0 on success, 1 when a verification/precondition check fails (the
violations are printed), 2 on input errors (bad flags, bad JSON, syntax
errors, degree overflows, oversized requests).  The degree cap for
bracket computations defaults to 8 and can be overridden with the
RONCO_MAX_DEGREE variable.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import homology as homology_mod
from . import jsonio, leibniz, ronco
from .errors import NotInVarietyError, RoncoError
from .freelie import DEFAULT_MAX_DEGREE, format_word, lyndon_words, witt_dim, word_sort_key
from .lincomb import format_lincomb
from .linalg import _ZERO
from .structure import (
    MuAlgebra, StructureAlgebra, free_nil2, mu_to_ronco, ronco_to_mu, verify_mu, verify_variety,
)
from .terms import parse_term


# Largest basis one command may enumerate: the words `lyndon` lists, the
# dimension of a `ronco-truncate` or `free-nil2` algebra, the d·W(d, n−1)
# columns of the `graded-kernel` map.  Each is estimated from dimension
# formulas before any work starts, and a larger one exits 2.  The generator
# count and the degree are checked against the same limit first, because
# they bound the cost of the estimate; past the limit, either one alone
# gives a larger basis unless there is a single generator.  `witt` and
# `ronco-dims` list one dimension per degree and check only the generator
# count and the degree, and then each dimension against Python's limit on the
# digits of a printed integer.  Near the limit a truncation takes about 3 s
# (dimension 4150: 5 generators up to degree 6; Python 3.11, 2 vCPUs).
MAX_BASIS_SIZE = 5000

def _check_size(what: str, size: int):
    if size > MAX_BASIS_SIZE:
        raise RoncoError(f"{what} ({size}) exceeds the limit of {MAX_BASIS_SIZE}")


def _max_degree() -> int:
    raw = os.environ.get("RONCO_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        value = _ascii_int(raw)  # like the integer options: "٩" and " 1_0" are refused
    except ValueError:
        raise RoncoError(f"RONCO_MAX_DEGREE must be an integer, got {raw!r}") from None
    if value < 1:
        raise RoncoError(f"RONCO_MAX_DEGREE must be >= 1, got {value}")
    return value


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_algebra(path: str, kind: str, needed_by: str) -> StructureAlgebra | MuAlgebra:
    """The algebra in a JSON file, which `needed_by` needs to be of `kind` ("leibniz" or "mu")."""
    x = jsonio.loads_algebra(Path(path).read_text())
    if not isinstance(x, MuAlgebra if kind == "mu" else StructureAlgebra):
        raise RoncoError(f'{needed_by} needs a kind "{kind}" algebra')
    return x


def _print_violations(violations):
    """One line per violation, then the count, in one write.  Every residual
    entry is a normalized Fraction, whose str is `format_rational`'s text;
    the zero that `linalg._dense` fills with is skipped by identity."""
    lines = [f"violation: {v.axiom} at ({','.join(map(str, v.indices))}): "
             + " ".join([f"e{k}:{c}" for k, c in enumerate(v.residual, 1) if c is not _ZERO and c]) + "\n"
             for v in violations]
    lines.append(f"{len(violations)} violation(s)\n")
    sys.stdout.write("".join(lines))


def _cmd_lyndon(args) -> int:
    _check_size("--gens", args.gens)
    _check_size("--len", args.length)
    if args.gens >= 1 and args.length >= 1:  # smaller ones are refused by lyndon_words
        _check_size("the number of Lyndon words", witt_dim(args.gens, args.length))
    for word in lyndon_words(args.gens, args.length):
        print(format_word(word, args.gens))
    return 0


def _print_dims(args, dim) -> int:
    """One "n<TAB>dim(gens, n)" line per degree n up to --max, written at once."""
    if args.max < 1:
        raise RoncoError(f"--max must be >= 1, got {args.max}")
    _check_size("--gens", args.gens)
    _check_size("--max", args.max)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit on printed digits
    lines = []
    for n in range(1, args.max + 1):
        d = dim(args.gens, n)
        if digits and d >= 10**digits:
            raise RoncoError(f"--gens ({args.gens}) and --max ({args.max}) give a dimension longer than "
                             f"{digits} digits, the limit for printing an integer")
        lines.append(f"{n}\t{d}\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_witt(args) -> int:
    return _print_dims(args, witt_dim)


def _cmd_leib_bracket(args) -> int:
    x = leibniz.eval_term(parse_term(args.expr), args.gens, _max_degree())
    print(format_lincomb(x, lambda w: format_word(w, args.gens), word_sort_key))
    return 0


def _cmd_ronco_eval(args) -> int:
    x = ronco.eval_term(parse_term(args.expr), args.gens, _max_degree())
    print(format_lincomb(x, lambda k: ronco.format_key(k, args.gens), ronco.key_sort_key))
    return 0


def _cmd_ronco_dims(args) -> int:
    return _print_dims(args, ronco.graded_dim)


def _cmd_graded_kernel(args) -> int:
    max_degree = _max_degree()
    if args.deg <= max_degree:  # a larger degree is refused by the degree cap
        _check_size("--gens", args.gens)
        _check_size("--deg", args.deg)
        if args.gens >= 1 and args.deg >= 2:  # smaller ones are refused by ronco._graded_kernel
            _check_size("the domain of the bracket-to-Lie map", ronco.graded_dim(args.gens, args.deg))
    keys, kernel = ronco._graded_kernel(args.gens, args.deg, max_degree)
    sys.stdout.write(jsonio.dumps_graded_kernel(args.deg, keys, kernel, args.gens))
    return 0


def _cmd_ronco_truncate(args) -> int:
    max_degree = _max_degree()
    if args.max <= max_degree:  # a larger cutoff is refused by the degree cap
        _check_size("--gens", args.gens)
        _check_size("--max", args.max)
        if args.gens >= 1 and args.max >= 1:  # smaller ones are refused by the truncation
            _check_size("the dimension of the truncation",
                        sum(ronco.graded_dim(args.gens, n) for n in range(1, args.max + 1)))
    algebra = ronco.truncate_to_structure(args.gens, args.max, max_degree)
    _emit(jsonio.dumps_algebra(algebra), args.output)
    return 0


def _cmd_free_nil2(args) -> int:
    if args.dim >= 1:  # a smaller one is refused by free_nil2
        _check_size("the dimension of free-nil2", args.dim * (args.dim + 1) // 2)
    _emit(jsonio.dumps_algebra(free_nil2(args.dim)), args.output)
    return 0


def _cmd_verify(args) -> int:
    label = "symmetric-leibniz" if args.variety == "symmetric" else args.variety
    kind = "mu" if label in ("mu", "mu-symmetric") else "leibniz"
    x = _load_algebra(args.file, kind, f"--variety {args.variety}")
    report = verify_mu(x, label == "mu-symmetric") if kind == "mu" else verify_variety(x, label)
    if report.ok:
        print(f"OK: {label} verified, no violations")
        return 0
    _print_violations(report.violations)
    return 1


def _cmd_convert(args) -> int:
    if args.to == "mu":
        result = ronco_to_mu(_load_algebra(args.file, "leibniz", "convert --to mu"))
    else:
        result = mu_to_ronco(_load_algebra(args.file, "mu", "convert --to ronco"))
    _emit(jsonio.dumps_algebra(result), args.output)
    return 0


# --which: the functor it runs; each one refuses too large a chain space itself
_HOMOLOGY = {"hl1": homology_mod.hl1, "hl2": homology_mod.hl2, "hr0": homology_mod.hr0,
             "h1ad": homology_mod.h1_adjoint}


def _cmd_homology(args) -> int:
    # looked up by name at call time, so that a patched `homology` attribute is the one called
    functor = getattr(homology_mod, _HOMOLOGY[args.which].__name__)
    report = functor(_load_algebra(args.file, "leibniz", "homology"))
    sys.stdout.write(jsonio.dumps_canonical(jsonio.report_to_obj(report)))
    return 0


def _opt(*flags, **options) -> tuple:
    return flags, options


def _ascii_int(text: str) -> int:
    """An integer option: an optional "-" and ASCII digits only.  `int` also
    reads "٣", "1_0", " 2" and "+3", which the term grammar and the JSON
    reader refuse."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_ascii_int.__name__ = "int"  # argparse names the type in its error: "invalid int value: ..."

_GENS = _opt("--gens", type=_ascii_int, required=True, metavar="D")
_MAX = _opt("--max", type=_ascii_int, required=True, metavar="N")
_EXPR = _opt("--expr", required=True, metavar="TERM",
             help="a bracket term; one that starts with '-' must be attached: --expr=-2*g1")
_FILE = _opt("file", metavar="FILE")
_OUTPUT = _opt("-o", "--output", metavar="FILE")

# name: (help, handler, arguments), in the order the top-level help lists them
_COMMANDS = {
    "lyndon": ("list Lyndon words of a given length", _cmd_lyndon,
               (_GENS, _opt("--len", dest="length", type=_ascii_int, required=True, metavar="N"))),
    "witt": ("free Lie graded dimensions up to a degree", _cmd_witt, (_GENS, _MAX)),
    "leib-bracket": ("evaluate a bracket term in the free Leibniz algebra", _cmd_leib_bracket,
                     (_GENS, _EXPR)),
    "ronco-eval": ("evaluate a bracket term in the free square-identity algebra", _cmd_ronco_eval,
                   (_GENS, _EXPR)),
    "ronco-dims": ("graded dimensions of the free square-identity algebra", _cmd_ronco_dims,
                   (_GENS, _MAX)),
    "graded-kernel": ("kernel of the degree-n bracket-to-Lie map", _cmd_graded_kernel,
                      (_GENS, _opt("--deg", type=_ascii_int, required=True, metavar="N"))),
    "ronco-truncate": ("truncated free algebra as JSON structure constants", _cmd_ronco_truncate,
                       (_GENS, _MAX, _OUTPUT)),
    "free-nil2": ("free 2-step nilpotent Lie algebra as JSON", _cmd_free_nil2,
                  (_opt("--dim", type=_ascii_int, required=True, metavar="D"), _OUTPUT)),
    "verify": ("check variety identities of a JSON algebra", _cmd_verify,
               (_opt("--variety", required=True,
                     choices=["leibniz", "lie", "ronco", "symmetric", "mu", "mu-symmetric"]),
                _FILE)),
    "convert": ("convert between bracket and bracket/product presentations", _cmd_convert,
                (_opt("--to", required=True, choices=["mu", "ronco"]), _FILE, _OUTPUT)),
    "homology": ("homology of a JSON algebra", _cmd_homology,
                 (_opt("--which", required=True, choices=list(_HOMOLOGY)), _FILE)),
}


def _direct_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a plain `argv`, or None.

    Plain means: `argv[0]` names a command; every other token is either one
    of that command's flags, written out in full and followed by its value
    as a separate token, or a positional; no option is given twice; no value
    or positional starts with "-"; the positionals are exactly those the
    command declares; every required option is present; each value passes
    its `type` and `choices`.  Absent options read None, as with argparse.
    Anything else (help, abbreviations, "--flag=value", dash-leading values,
    repeated options, every usage error) returns None and is left to
    argparse, the only source of help, usage and error text.  It applies the
    `_opt` keys `type`, `required`, `choices` and `dest`; tests/test_cli_args.py
    holds it to argparse on every command.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    by_flag, declared, positional = {}, [], []  # declared: (dest, options) in order
    for flags, options in arguments:
        if flags[0].startswith("-"):
            # argparse's rule: the first long flag, else the first flag, less its dashes
            dest = options.get("dest") or next(
                (f for f in flags if f.startswith("--")), flags[0]).lstrip("-").replace("-", "_")
            by_flag.update(dict.fromkeys(flags, dest))
        else:
            dest = flags[0]
            positional.append(dest)
        declared.append((dest, options))
    raw, tokens, rest = {}, iter(argv[1:]), []
    for token in tokens:
        if not token.startswith("-"):
            rest.append(token)
            continue
        dest = by_flag.get(token)
        value = next(tokens, "-")  # a missing value counts as a dash-leading one
        if dest is None or dest in raw or value.startswith("-"):
            return None
        raw[dest] = value
    if len(rest) != len(positional):
        return None
    raw.update(zip(positional, rest))
    values = {"command": argv[0]}
    for dest, options in declared:
        if dest not in raw:
            if options.get("required"):
                return None
            values[dest] = None
            continue
        try:
            value = options.get("type", str)(raw[dest])
        except (TypeError, ValueError):
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values, func=handler)


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of all subcommands, or only of the one `argv[0]` names.

    A subcommand's usage, help and errors do not depend on its siblings, and
    anything else (top-level help, an unknown or missing command) gets the
    full parser, so the output is the same either way; building ten unused
    subparsers is a fixed cost of every call.
    """
    import argparse  # only for help, errors and the argvs `_direct_args` leaves to it

    parser = argparse.ArgumentParser(
        prog="roncoalg",
        description="Exact calculator for free Leibniz/Ronco algebras and their homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _direct_args(argv)
    if args is None:
        args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except NotInVarietyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_violations(exc.report.violations)
        return 1
    except (ValueError, OSError) as exc:  # RoncoError, bad JSON, bad numbers, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
