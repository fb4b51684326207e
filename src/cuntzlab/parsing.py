"""Text grammar for algebra elements.

    element := term (('+'|'-') term)*
    term    := coeff | [coeff '*'] factor+
    factor  := 's[' digits ']' | 't[' digits ']'     (t[J] means s_J^*)
    coeff   := rational [complex] | '(' ['+'|'-'] rational [complex] ')'
    complex := ('+'|'-') rational 'i'
    rational := integer ['/' positive-integer]

Digits are single letters 1..N concatenated, so the grammar holds only
N <= 9: with N >= 10, s_11 and s_1 s_1 would print alike.  Both
``parse_element`` and ``format_element`` raise ``ParseError`` for N > 9.
Whitespace is insignificant.  ``format_element`` prints the canonical form
and round-trips through ``parse_element``; it prints a complex coefficient
in parentheses with its own signs, as ``(-1/2+1/3i) * s[1]``.  A complex
coefficient without parentheses after a '-' is rejected: ``-1/2+1/3i``
could be read as -1/2 + i/3 or as -(1/2 + i/3).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .algebra import AlgebraElement
from .errors import ParseError
from .scalars import GaussianRational, _ratio_text

MAX_TEXT_GENS = 9

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<factor>[st]\[[0-9]+\])
      | (?P<number>\d+(?:/\d+)?)
      | (?P<imag>i)
      | (?P<op>[+\-*])
      | (?P<paren>[()])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        for kind in ("factor", "number", "imag", "op", "paren"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, n_gens: int):
        self.text = text
        self.n_gens = n_gens
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> AlgebraElement:
        if not self.tokens:
            raise ParseError("empty element", 0)
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":  # optional leading sign
            self.next()
            sign = 1 if tok[1] == "+" else -1
        result = self._term(sign=sign)
        while (tok := self.peek()) is not None:
            if tok[0] != "op" or tok[1] not in "+-":
                raise ParseError(f"expected '+' or '-', got {tok[1]!r}", tok[2])
            self.next()
            result = result + self._term(sign=1 if tok[1] == "+" else -1)
        return result

    def _rational(self) -> Fraction:
        kind, val, pos = self.next()
        if kind != "number":
            raise ParseError(f"expected a number, got {val!r}", pos)
        if "/" in val:
            num, den = val.split("/")
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(int(num), int(den))
        return Fraction(int(val))

    def _imaginary(self, re_part: Fraction):
        """re_part plus a following ('+'|'-') rational 'i', or None, with
        nothing consumed, when no such part follows."""
        save = self.i
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.next()
            nxt = self.peek()
            if nxt is not None and nxt[0] == "number":
                im = self._rational()
                after = self.peek()
                if after is not None and after[0] == "imag":
                    self.next()
                    return GaussianRational(re_part, im if tok[1] == "+" else -im)
            self.i = save
        return None

    def _coeff(self, after_minus: bool) -> GaussianRational:
        """A rational, optionally followed by its imaginary part, either
        bare or in parentheses with an optional leading sign; a bare
        complex coefficient after a '-' is ambiguous and rejected."""
        _, val, pos = self.peek()
        paren = val == "("
        negate = False
        if paren:
            self.next()
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.next()
                negate = tok[1] == "-"
        re_part = self._rational()
        if negate:
            re_part = -re_part
        z = self._imaginary(re_part)
        if paren:
            _, val, at = self.next()
            if val != ")":
                raise ParseError(f"expected ')', got {val!r}", at)
        elif z is not None and after_minus:
            raise ParseError("a complex coefficient after '-' needs "
                             "parentheses, as in (-1/2+1/3i)", pos)
        return GaussianRational(re_part) if z is None else z

    def _word(self, token: str, pos: int) -> Tuple[int, ...]:
        digits = token[2:-1]
        word = tuple(int(d) for d in digits)
        for off, letter in enumerate(word):
            if not 1 <= letter <= self.n_gens:
                raise ParseError(f"letter {letter} outside 1..{self.n_gens}", pos + 2 + off)
        return word

    def _term(self, sign: int) -> AlgebraElement:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        coeff = GaussianRational.of(sign)
        if tok[0] == "number" or tok[1] == "(":
            coeff = coeff * self._coeff(after_minus=sign < 0)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "*":
                self.next()
                nxt = self.peek()
                if nxt is None or nxt[0] != "factor":
                    where = nxt[2] if nxt else len(self.text)
                    raise ParseError("expected a factor after '*'", where)
            elif nxt is None or nxt[0] != "factor":
                # bare scalar term
                return AlgebraElement.one(self.n_gens).scaled(coeff)
        elif tok[0] != "factor":
            raise ParseError(f"expected a coefficient or factor, got {tok[1]!r}", tok[2])
        result = AlgebraElement.one(self.n_gens).scaled(coeff)
        saw_factor = False
        while (tok := self.peek()) is not None and tok[0] == "factor":
            self.next()
            word = self._word(tok[1], tok[2])
            if tok[1][0] == "s":
                factor = AlgebraElement.monomial(self.n_gens, word, ())
            else:
                factor = AlgebraElement.monomial(self.n_gens, (), word)
            result = result * factor
            saw_factor = True
        if not saw_factor:
            raise ParseError("term has no factor", tok[2] if tok else len(self.text))
        return result


def _check_text_alphabet(n_gens: int) -> None:
    if n_gens > MAX_TEXT_GENS:
        raise ParseError(f"the element text grammar has single-digit letters, "
                         f"so N <= {MAX_TEXT_GENS}; got N = {n_gens}", 0)


def parse_element(text: str, n_gens: int) -> AlgebraElement:
    """Parse the element grammar; errors carry a character position."""
    _check_text_alphabet(n_gens)
    return _Parser(text, n_gens).parse()


_DIGIT = "0123456789".__getitem__


def _format_monomial(left, right) -> str:
    if not right:
        return f"s[{''.join(map(_DIGIT, left))}]" if left else "1"
    if not left:
        return f"t[{''.join(map(_DIGIT, right))}]"
    return f"s[{''.join(map(_DIGIT, left))}] t[{''.join(map(_DIGIT, right))}]"


def format_element(a: AlgebraElement) -> str:
    """Deterministic canonical text; round-trips through parse_element.
    Each coefficient is printed from its normal-form triple (a, b, d),
    which for a real value (b = 0) has gcd(a, d) = 1, so |a| or |a|/d is
    the text of its Fraction."""
    _check_text_alphabet(a.n_gens)
    canon = a.canonical()
    if canon.is_zero():
        return "0"
    pieces = []
    # the order of `sorted_terms`, from plain tuples: distinct keys never
    # reach the coefficient
    for _, _, right, left, coeff in sorted(
            [(len(left) - len(right), len(right), right, left, c)
             for (left, right), c in canon.terms.items()]):
        factors = _format_monomial(left, right)
        num, im, den = coeff._a, coeff._b, coeff._d
        if not im:
            neg = num < 0
            mag = -num if neg else num
            if mag == den and factors != "1":
                body = factors
            else:
                text = _ratio_text(mag, den)
                body = text if factors == "1" else f"{text} * {factors}"
        else:
            # both signs inside the parentheses, none outside
            neg = False
            body = f"({coeff})" if factors == "1" else f"({coeff}) * {factors}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)
