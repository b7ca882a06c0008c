"""Polynomial operations that no check runs: exact division by one
polynomial, and the text grammar of `render_poly`.  The tests use both;
`fppoly` loads this module on first use of `exact_divide`, `parse_poly` or
`ParseError`, so no check compiles it.
"""

from __future__ import annotations

from typing import Optional

from .fppoly import GRLEX, Monomial, Polynomial, VariableSpace, leading_term, mono_mul


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    return tuple(y - x for x, y in zip(a, b))


def exact_divide(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """Return q with f = q*g if g divides f exactly, else None.

    Single-divisor leading-term elimination in graded-lex order: over a field
    this decides divisibility (hence principal-ideal membership) completely.
    """
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    f._check_compatible(g)
    p = f.char
    lt_g, lc_g = leading_term(g)
    lc_g_inv = pow(lc_g, p - 2, p)
    rem = dict(f._terms)
    quot: dict = {}
    g_items = list(g._terms.items())
    while rem:
        lt_r = max(rem, key=GRLEX)
        if not mono_divides(lt_g, lt_r):
            return None
        qm = mono_div(lt_r, lt_g)
        qc = (rem[lt_r] * lc_g_inv) % p
        quot[qm] = qc
        for m, c in g_items:
            mm = mono_mul(qm, m)
            s = (rem.get(mm, 0) - qc * c) % p
            if s:
                rem[mm] = s
            elif mm in rem:
                del rem[mm]
    return Polynomial._make(f.space, p, quot)


def parse_poly(text: str, space: VariableSpace, char: int) -> Polynomial:
    """Parse the textual polynomial grammar.

    poly ::= term {"+" term} | "0"
    term ::= [coeff "*"] factor {"*" factor}
    factor ::= varname ["^" exponent]

    Coefficients are decimal integers and are reduced mod p; whitespace is
    insignificant.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected a number", start)
        return int(text[start:pos])

    def read_name() -> str:
        nonlocal pos
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def read_term() -> tuple:
        nonlocal pos
        skip_ws()
        coeff = 1
        exps = [0] * space.count
        if pos < n and text[pos].isdigit():
            coeff = read_int()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
            else:
                return tuple(exps), coeff  # bare constant
        while True:  # a factor is required here, after a "*" too
            skip_ws()
            if pos >= n or not text[pos].isalpha():
                raise ParseError("expected a variable name", pos)
            name_pos = pos
            name = read_name()
            if name not in space:
                raise ParseError(f"unknown variable {name!r}", name_pos)
            e = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                e = read_int()
            exps[space.index(name)] += e
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            return tuple(exps), coeff

    terms = []
    skip_ws()
    if pos >= n:
        raise ParseError("empty input", pos)
    while True:
        terms.append(read_term())
        skip_ws()
        if pos < n and text[pos] == "+":
            pos += 1
            continue
        break
    skip_ws()
    if pos != n:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return Polynomial(space, char, terms)
