"""Bracket-term syntax: AST, recursive-descent parser, printer, evaluator.

Grammar (whitespace ignored everywhere):

    term     := atom | term "+" atom | term "-" atom
    atom     := factor | rational "*" atom
    factor   := gen | "[" term "," term "]" | "(" term ")"
    gen      := "g" digits
    rational := integer | integer "/" positive-integer

"*" binds tighter than "+"/"-"; brackets take two full terms, so there is
no precedence ambiguity inside "[ , ]".  Scalars appear only as prefixes
("1/2*[g1,g2]"), never as standalone summands.  Digits are ASCII 0-9, and
whitespace is what `str.isspace` accepts.

The parser scans a term once, with one compiled regular expression that
splits it into tokens, each with the blanks before it; the grammar then
reads the token list.  A syntax error reports the 1-based position of the
character it is at, counted back from the tokens only when it is raised.

The evaluator works over ℤ with one denominator: a subterm is carried as
integer coefficients over one positive denominator, and the value is
divided out once, at the end.  The free-algebra brackets have integer
structure constants, so no `Fraction` arithmetic happens in between.

`ronco.eval_term` and `leibniz.eval_term` (`_evaluate_free`) evaluate a
bracket inside another bracket only as its image, all the outer bracket
reads of it: in 𝒱 the Lie image, φ[a,b] = [φa, φb], and in the free
Leibniz algebra the tensor image, T[a,b] = T(a)·T(b) − T(b)·T(a).  The
degree cap refuses a bracket only when both values are nonzero, which an
image cannot tell ([g1,g1] ≠ 0 in 𝒱, but φ[g1,g1] = 0).  So this route is
taken only when the term's static degree (a generator counts 1, a bracket
adds its sides, a scalar, sum or difference takes its largest part) is
within the cap: it bounds every degree the cap could refuse.  Any other
term is evaluated node by node, with the cap checked per bracket.

The printer and the evaluator recurse on the tree, and "+"/"-" chains nest
to the left, so a term may be at most MAX_TERM_DEPTH levels deep: each
bracket, parenthesis, scalar prefix and chain link counts one level.
Deeper input is a TermSyntaxError, not a RecursionError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Union

from .errors import TermSyntaxError, UnknownGeneratorError
from .freelie import _generator_index
from .lincomb import LinComb, Record, _add_scaled

MAX_TERM_DEPTH = 200


class Generator(Record):
    __slots__ = ("index",)


class Bracket(Record):
    __slots__ = ("left", "right")


class Scale(Record):
    __slots__ = ("coeff", "term")  # coeff: Fraction


class Sum(Record):
    __slots__ = ("terms",)  # a tuple of terms


class Diff(Record):
    __slots__ = ("left", "right")


Term = Union[Generator, Bracket, Scale, Sum, Diff]

# (blanks, token): a generator with its digits (none is an error the parser
# reports), an unsigned integer, or any other single character.  `\s` is
# `str.isspace`; digits are spelled out because `\d` also takes "٣".
_TOKEN = re.compile(r"(\s*)(g[0-9]*|[0-9]+|\S)")


class _Parser:
    """Recursive descent over the token list; each production returns
    (term, height of its tree).

    `atom` also reads the grammar's `factor` and `gen`, so a leaf without
    a scalar costs one call.
    """

    def __init__(self, text: str):
        body = text.rstrip()  # trailing blanks would make the regex rescan to the end
        self.tokens = _TOKEN.findall(body)
        self.tokens.append((text[len(body):], ""))  # the end of the input
        self.i = 0  # the next token
        self.level = 0  # open brackets, parentheses and scalar prefixes

    def error(self, message: str, offset: int = 0):
        """Raise at the start of the next token, moved by `offset` characters."""
        before = sum(len(blanks) + len(token) for blanks, token in self.tokens[:self.i])
        raise TermSyntaxError(message, before + len(self.tokens[self.i][0]) + offset + 1)

    def bounded(self, height: int) -> int:
        """Reject a subtree once the open nesting plus its height passes the cap;
        the error is at the end of the last token read."""
        if self.level + height > MAX_TERM_DEPTH:
            self.error(f"term nested deeper than {MAX_TERM_DEPTH} levels", -len(self.tokens[self.i][0]))
        return height

    def descend(self):
        # Whatever follows has height >= 1.  Callers undo this with
        # `self.level -= 1`; a helper taking the nested parse as an argument
        # would add a stack frame per level.
        self.level += 1
        self.bounded(1)

    def expect(self, token: str):
        if self.tokens[self.i][1] != token:
            self.error(f"expected {token!r}")
        self.i += 1

    def parse(self) -> Term:
        t, _ = self.term()
        if self.tokens[self.i][1]:
            self.error("unexpected trailing input")
        return t

    def term(self) -> tuple[Term, int]:
        left, height = self.atom()
        tokens = self.tokens
        while True:
            op = tokens[self.i][1]
            if op != "+" and op != "-":
                return left, height
            self.i += 1
            right, right_height = self.atom()
            left = Sum._of((left, right)) if op == "+" else Diff._of(left, right)
            height = self.bounded(max(height, right_height) + 1)

    def atom(self) -> tuple[Term, int]:
        tokens = self.tokens
        i = self.i
        token = tokens[i][1]
        first = token[:1]
        if first == "g":
            if len(token) == 1:
                self.error("expected generator index", 1)
            index = int(token[1:])
            if index < 1:
                self.error("generator index must be >= 1")
            self.i = i + 1
            return Generator._of(index), 1
        if token == "[":
            self.i = i + 1
            self.descend()
            left, left_height = self.term()
            self.expect(",")
            right, right_height = self.term()
            self.expect("]")
            self.level -= 1
            return Bracket._of(left, right), self.bounded(max(left_height, right_height) + 1)
        # only the integer token starts with an ASCII digit; a minus is a sign
        # only at the start of an atom, with a digit right after it
        if "0" <= first <= "9" or (
                token == "-" and tokens[i + 1][0] == "" and "0" <= tokens[i + 1][1][:1] <= "9"):
            coeff = self.rational()
            if tokens[self.i][1] != "*":
                self.error("expected '*' after scalar")
            self.i += 1
            self.descend()
            term, height = self.atom()
            self.level -= 1
            return Scale._of(coeff, term), self.bounded(height + 1)
        if token == "(":
            self.i = i + 1
            self.descend()
            inner = self.term()
            self.expect(")")
            self.level -= 1
            return inner
        self.error("expected generator, '[' or '('")

    def rational(self) -> Fraction:
        tokens = self.tokens
        sign = 1
        if tokens[self.i][1] == "-":
            sign = -1
            self.i += 1
        num = sign * int(tokens[self.i][1])
        self.i += 1
        if tokens[self.i][1] != "/":
            return Fraction(num)
        self.i += 1
        token = tokens[self.i][1]
        if not "0" <= token[:1] <= "9":
            self.error("expected denominator")
        den = int(token)
        if not den:
            self.error("zero denominator")
        self.i += 1
        return Fraction(num, den)


def parse_term(text: str) -> Term:
    return _Parser(text).parse()


def format_term(term: Term) -> str:
    """Canonical text form; reparsing yields an identical tree."""
    if isinstance(term, Generator):
        return f"g{term.index}"
    if isinstance(term, Bracket):
        return f"[{format_term(term.left)},{format_term(term.right)}]"
    if isinstance(term, Scale):
        return f"{term.coeff}*{_operand(term.term)}"
    if isinstance(term, Sum):
        first, *rest = term.terms
        return " + ".join([format_term(first)] + [_operand(t) for t in rest])
    if isinstance(term, Diff):
        return f"{format_term(term.left)} - {_operand(term.right)}"
    raise TypeError(f"not a term: {term!r}")


def _operand(term: Term) -> str:
    # Sum/Diff under a binary operator or a scalar need explicit parens.
    if isinstance(term, (Sum, Diff)):
        return f"({format_term(term)})"
    return format_term(term)


def evaluate(term: Term, generator: Callable, bracket: Callable) -> LinComb:
    """Homomorphic evaluation into a free algebra with `LinComb` values.

    Works over ℤ with one denominator: each subterm is carried as a dict of
    integer coefficients over one positive denominator D.  A generator's
    value is cleared of denominators; p/q·t scales the integers by p and D
    by q; a bracket calls `bracket` on the two integer parts, and D becomes
    Dx·Dy; a sum or difference brings both parts to the lcm of their
    denominators.  Each coefficient is divided by D once, at the end, so the
    value holds nonzero `Fraction`s.  `bracket` therefore receives elements
    with integer coefficients and must be bilinear, as the brackets of
    `freelie`, `leibniz` and `ronco` are.  Subterms are evaluated left to
    right, so the first error raised is the one the tree meets first.
    """
    leaf = _cleared(generator)

    def on_values(x: dict, y: dict) -> dict:
        return bracket(LinComb._of(x), LinComb._of(y)).coeffs

    return _by_images(term, leaf, leaf, on_values, on_values)


def _by_images(term: Term, leaf: Callable, letter: Callable, value_bracket: Callable,
               image_bracket: Callable, left_image: bool = False) -> LinComb:
    """The value of `term`, with each operand of a bracket taken only as its
    image.  A generator's value is `leaf(i)` and its image `letter(i)`; a
    bracket's image is `image_bracket` of its operands' images, and its
    value `value_bracket` of the left image (if `left_image`) or value and
    the right image.  All are integer dicts over a denominator, and the
    rest is taken as `_evaluate` takes it, in its order.  With values for
    images, this is node-by-node evaluation."""

    def image(left: Term, right: Term) -> tuple[dict, int]:
        x, dx = _evaluate(left, letter, image)
        y, dy = _evaluate(right, letter, image)
        return image_bracket(x, y), dx * dy

    def value(left: Term, right: Term) -> tuple[dict, int]:
        x, dx = _evaluate(left, letter, image) if left_image else _evaluate(left, leaf, value)
        y, dy = _evaluate(right, letter, image)
        return value_bracket(x, y), dx * dy

    data, den = _evaluate(term, leaf, value)
    return LinComb._of({key: Fraction(n, den) for key, n in data.items()})


def _cleared(generator: Callable) -> Callable:
    """The generator's value as (integer coefficients, denominator)."""

    def leaf(i: int) -> tuple[dict, int]:
        coeffs = generator(i).coeffs
        den = 1
        for c in coeffs.values():
            den = lcm(den, c.denominator)
        return {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den

    return leaf


def _evaluate(term: Term, leaf: Callable, node: Callable) -> tuple[dict, int]:
    """(integer coefficients, denominator) of a subterm: a generator is
    `leaf(index)` and a bracket `node(left, right)`, each such a pair, and
    scalars, sums and differences are taken here.  A dict is new or a
    callback's own, and is never mutated here."""
    kind = type(term)
    if kind is Generator:
        return leaf(term.index)
    if kind is Bracket:
        return node(term.left, term.right)
    if kind is Scale:
        x, den = _evaluate(term.term, leaf, node)
        p = term.coeff.numerator
        if not p:
            return {}, 1
        return {key: p * n for key, n in x.items()}, den * term.coeff.denominator
    if kind is Sum:
        parts = [_evaluate(t, leaf, node) for t in term.terms]
        out, den = parts[0]
        for y, dy in parts[1:]:
            out, den = _combine(out, den, 1, y, dy)
        return out, den
    if kind is Diff:
        x, dx = _evaluate(term.left, leaf, node)
        y, dy = _evaluate(term.right, leaf, node)
        return _combine(x, dx, -1, y, dy)
    raise TypeError(f"not a term: {term!r}")


def _combine(x: dict, dx: int, sign: int, y: dict, dy: int) -> tuple[dict, int]:
    """x/dx + sign·y/dy over the lcm of the denominators, in a new dict."""
    den = lcm(dx, dy)
    out = dict(x) if den == dx else {key: n * (den // dx) for key, n in x.items()}
    _add_scaled(out, sign * (den // dy), y)
    return out, den


def _in_range(num_gens: int, generator: Callable) -> Callable:
    """`generator` on g1..g{num_gens}; any other index is refused."""

    def checked(i: int):
        if i > num_gens:
            raise UnknownGeneratorError(f"generator g{i} out of range (have {num_gens})")
        return generator(i)

    return checked


def _evaluate_on(term: Term, num_gens: int, generator: Callable, bracket: Callable):
    """`evaluate` with the generators g1..g{num_gens}; any other index is refused."""
    return evaluate(term, _in_range(num_gens, generator), bracket)


def _degree(term: Term) -> int:
    """The static degree (module docstring).  What is no term counts 0:
    `_evaluate` refuses it where it meets it, on either route."""
    kind = type(term)
    if kind is Generator:
        return 1
    if kind is Bracket:
        return _degree(term.left) + _degree(term.right)
    if kind is Scale:
        return _degree(term.term)
    if kind is Sum:
        return max(map(_degree, term.terms))
    if kind is Diff:
        return max(_degree(term.left), _degree(term.right))
    return 0


def _evaluate_free(term: Term, num_gens: int, max_degree: int, generator: Callable, bracket: Callable,
                   value_bracket: Callable, image_bracket: Callable, left_image: bool = False) -> LinComb:
    """`_evaluate_on` through `_by_images` when the static degree is within
    the cap (module docstring), else node by node with `bracket`.  An image
    of g_i is the letter i; both brackets take and give integer dicts."""
    if _degree(term) > max_degree:
        return _evaluate_on(term, num_gens, generator, bracket)
    return _by_images(term, _in_range(num_gens, _cleared(generator)),
                      _in_range(num_gens, lambda i: ({(_generator_index(i),): 1}, 1)),
                      value_bracket, image_bracket, left_image)
