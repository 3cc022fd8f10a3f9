"""The term path's previous code, kept as test oracles.

`_Parser` is the recursive-descent parser that read one character at a
time (`peek`, `skip_ws`); `parse_term` runs it.  `evaluate` is the
`Fraction` evaluator that carried every subterm as a `LinComb`, and
`_evaluate_on` its generator-range check; `ronco_eval_term` and
`leib_eval_term` evaluate through them with the package brackets.
`format_lincomb` is the printer that compared `Fraction`s (`abs`, `== 1`,
`< 0`) to place signs and implicit ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from roncoalg.errors import TermSyntaxError, UnknownGeneratorError
from roncoalg.freelie import DEFAULT_MAX_DEGREE
from roncoalg.leibniz import leib_bracket, leib_generator
from roncoalg.lincomb import LinComb
from roncoalg.ronco import ronco_bracket, ronco_generator
from roncoalg.terms import MAX_TERM_DEPTH, Bracket, Diff, Generator, Scale, Sum, Term


class _Parser:
    """Recursive descent; each production returns (term, height of its tree)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.level = 0  # open brackets, parentheses and scalar prefixes

    def error(self, message: str, pos: int | None = None):
        raise TermSyntaxError(message, (self.pos if pos is None else pos) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def bounded(self, height: int) -> int:
        """Reject a subtree once the open nesting plus its height passes the cap."""
        if self.level + height > MAX_TERM_DEPTH:
            self.error(f"term nested deeper than {MAX_TERM_DEPTH} levels")
        return height

    def descend(self):
        # Whatever follows has height >= 1.  Callers undo this with
        # `self.level -= 1`; a helper taking the nested parse as an argument
        # would add a stack frame per level.
        self.level += 1
        self.bounded(1)

    def parse(self) -> Term:
        self.skip_ws()
        t, _ = self.term()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return t

    def term(self) -> tuple[Term, int]:
        left, height = self.atom()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return left, height
            self.pos += 1
            right, right_height = self.atom()
            left = Sum((left, right)) if op == "+" else Diff(left, right)
            height = self.bounded(max(height, right_height) + 1)

    def atom(self) -> tuple[Term, int]:
        self.skip_ws()
        ch = self.peek()
        if "0" <= ch <= "9" or (ch == "-" and "0" <= self.text[self.pos + 1:self.pos + 2] <= "9"):
            coeff = self.rational()
            self.skip_ws()
            if self.peek() != "*":
                self.error("expected '*' after scalar")
            self.pos += 1
            self.descend()
            term, height = self.atom()
            self.level -= 1
            return Scale(coeff, term), self.bounded(height + 1)
        return self.factor()

    def factor(self) -> tuple[Term, int]:
        self.skip_ws()
        ch = self.peek()
        if ch == "g":
            return self.generator(), 1
        if ch == "[":
            self.pos += 1
            self.descend()
            left, left_height = self.term()
            self.expect(",")
            right, right_height = self.term()
            self.expect("]")
            self.level -= 1
            return Bracket(left, right), self.bounded(max(left_height, right_height) + 1)
        if ch == "(":
            self.pos += 1
            self.descend()
            inner = self.term()
            self.expect(")")
            self.level -= 1
            return inner
        self.error("expected generator, '[' or '('")

    def generator(self) -> Generator:
        start = self.pos
        self.pos += 1  # past 'g'
        digits = self.digits("generator index")
        index = int(digits)
        if index < 1:
            self.error("generator index must be >= 1", start)
        return Generator(index)

    def digits(self, what: str) -> str:
        start = self.pos
        # ASCII only: str.isdigit also takes "²" and "٢"; peek's "" at the end is below "0"
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        return self.text[start:self.pos]

    def rational(self) -> Fraction:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        num = int(self.text[start:self.pos] + self.digits("integer"))
        self.skip_ws()
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        self.skip_ws()
        den_start = self.pos
        den = int(self.digits("denominator"))
        if den == 0:
            self.error("zero denominator", den_start)
        return Fraction(num, den)


def parse_term(text: str) -> Term:
    return _Parser(text).parse()


def evaluate(term: Term, generator: Callable, bracket: Callable):
    """Homomorphic evaluation into any algebra with LinComb-style values."""
    if isinstance(term, Generator):
        return generator(term.index)
    if isinstance(term, Bracket):
        return bracket(evaluate(term.left, generator, bracket), evaluate(term.right, generator, bracket))
    if isinstance(term, Scale):
        return evaluate(term.term, generator, bracket).scale(term.coeff)
    if isinstance(term, Sum):
        values = [evaluate(t, generator, bracket) for t in term.terms]
        out = values[0]
        for v in values[1:]:
            out = out + v
        return out
    if isinstance(term, Diff):
        return evaluate(term.left, generator, bracket) - evaluate(term.right, generator, bracket)
    raise TypeError(f"not a term: {term!r}")


def _evaluate_on(term: Term, num_gens: int, generator: Callable, bracket: Callable):
    """`evaluate` with the generators g1..g{num_gens}; any other index is refused."""

    def checked(i: int):
        if i > num_gens:
            raise UnknownGeneratorError(f"generator g{i} out of range (have {num_gens})")
        return generator(i)

    return evaluate(term, checked, bracket)


def ronco_eval_term(term: Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    return _evaluate_on(term, num_gens, ronco_generator, lambda a, b: ronco_bracket(a, b, max_degree))


def leib_eval_term(term: Term, num_gens: int, max_degree: int = DEFAULT_MAX_DEGREE) -> LinComb:
    return _evaluate_on(term, num_gens, leib_generator, lambda a, b: leib_bracket(a, b, max_degree))


def format_lincomb(lc: LinComb, key_str, sort_key) -> str:
    """Human-readable expansion, e.g. ``12 - 2·121 + 211``.

    Terms are ordered by `sort_key`; a coefficient of magnitude 1 is left
    implicit, otherwise it is printed as a canonical rational followed by a
    middle dot.
    """
    if lc.is_zero():
        return "0"
    pieces: list[str] = []
    for key, c in lc.sorted_items(key=sort_key):
        mag = abs(c)
        body = key_str(key) if mag == 1 else f"{mag}·{key_str(key)}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
    return "".join(pieces)
