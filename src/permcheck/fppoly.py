"""Exact sparse multivariate polynomial arithmetic over a prime field F_p.

A polynomial is stored as a dict mapping exponent tuples (one nonnegative
int per variable) to coefficients in {1, ..., p-1}.  Zero coefficients are
never stored; the zero polynomial has an empty term dict.  All values are
immutable after construction, so they can be shared freely between threads.
Every characteristic is an odd prime below 2^31 (`check_prime`), which the
int64 kernels of `truncated` rely on.

This module is the polynomial core that every check loads.  It also owns
the packed-term layer of `truncated`, `colon` and `monomials`: one w-bit
field per exponent, the first variable the most significant one
(`_shifts`), converted by `pack_terms` / `unpack_terms`, multiplied and
summed by `mul_sum`, and guarded against exponents >= p by
`_guard_and_bias`.  The rest loads on first use, so a job compiles only the
code it runs: truncated arithmetic in F_p[x] / m^[p]
(`TruncatedAccumulator`, `truncated_mul`, `truncated_pow`) from `truncated`,
and `exact_divide` and the text grammar `parse_poly` from `fpextra`.  Both
stay reachable as `fppoly.<name>` through the module `__getattr__`.
"""

from __future__ import annotations

import functools
from operator import lshift
from typing import Iterable, Iterator, Mapping

from . import _lazy_attributes

Monomial = tuple  # exponent tuple, one entry per variable


class StructureError(ValueError):
    """Operands live in different variable spaces / characteristics."""


@functools.lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Trial division of an odd n >= 3, cached: every Polynomial checks its p."""
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    """Refuse p unless it is an odd prime in [3, 2^31), the characteristics
    the int64 kernels support."""
    if not (3 <= p < 2**31 and p % 2 == 1 and _is_prime(p)):
        raise ValueError(f"p must be an odd prime in [3, 2^31), got {p}")


def PrimeModulus(p: int) -> int:
    """`check_prime` under its older name, returning p.  Kept only because
    perfbench/tests/test_tracer.py still calls fedder_ci_check(gens,
    PrimeModulus(p)); delete it with that call."""
    check_prime(p)
    return p


class VariableSpace:
    """An ordered set of named indeterminates.

    Index assignment is the position in `names`, so it is deterministic for
    a given construction order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VariableSpace is immutable")

    @property
    def count(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSpace) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSpace({len(self.names)} vars: {', '.join(self.names[:6])}{'...' if len(self.names) > 6 else ''})"


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def GRLEX(mono: Monomial) -> tuple:
    """Sort key of the graded-lex order, variable index 0 most significant."""
    return sum(mono), mono


def LEX(mono: Monomial) -> Monomial:
    """Sort key of the lex order, variable index 0 most significant."""
    return mono


class Polynomial:
    """Immutable sparse polynomial over F_p in a fixed variable space."""

    __slots__ = ("space", "char", "_terms")

    def __init__(self, space: VariableSpace, char: int, terms: Mapping[Monomial, int] | Iterable = ()):
        check_prime(char)
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != space.count:
                raise StructureError(
                    f"monomial has {len(mono)} exponents, space has {space.count} variables"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = (clean.get(mono, 0) + coeff) % char
            if c:
                clean[mono] = c
            elif mono in clean:
                del clean[mono]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _make(cls, space: VariableSpace, char: int, terms: dict) -> "Polynomial":
        # internal fast path: terms must already be canonical (reduced, no zeros)
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls, space: VariableSpace, char: int) -> "Polynomial":
        return cls(space, char)

    @classmethod
    def constant(cls, space: VariableSpace, char: int, value: int) -> "Polynomial":
        return cls(space, char, {(0,) * space.count: value})

    @classmethod
    def one(cls, space: VariableSpace, char: int) -> "Polynomial":
        return cls.constant(space, char, 1)

    @classmethod
    def variable(cls, space: VariableSpace, char: int, index: int) -> "Polynomial":
        exps = [0] * space.count
        exps[index] = 1
        return cls(space, char, {tuple(exps): 1})

    @classmethod
    def monomial(cls, space: VariableSpace, char: int, exps, coeff: int = 1) -> "Polynomial":
        return cls(space, char, {tuple(exps): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self._terms.items(), key=lambda kv: GRLEX(kv[0]), reverse=True)

    def coeff(self, mono: Monomial) -> int:
        return self._terms.get(tuple(mono), 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def _check_compatible(self, other: "Polynomial"):
        if self.space != other.space or self.char != other.char:
            raise StructureError("polynomials live in different spaces or characteristics")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.space == other.space
            and self.char == other.char
            and self._terms == other._terms
        )

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        p = self.char
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = (out.get(mono, 0) + c) % p
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return Polynomial._make(self.space, p, out)

    def __neg__(self) -> "Polynomial":
        p = self.char
        return Polynomial._make(self.space, p, {m: p - c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            c = other % self.char
            if c == 0:
                return Polynomial.zero(self.space, self.char)
            return Polynomial._make(
                self.space, self.char, {m: (v * c) % self.char for m, v in self._terms.items()}
            )
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.space, self.char)
        p = self.char
        out: dict = {}
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        for m2, c2 in b.items():
            for m1, c1 in a.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial._make(self.space, p, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.space, self.char)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({render_poly(self)}, p={self.char})"


def leading_term(a: Polynomial, order=GRLEX) -> tuple:
    """The maximal (monomial, coefficient) pair of a nonzero polynomial under
    the sort key `order`."""
    if a.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    mono = max(a._terms, key=order)
    return mono, a._terms[mono]


# ---------------------------------------------------------------------------
# truncation and the packed-key layout
# ---------------------------------------------------------------------------


def truncate(a: Polynomial) -> Polynomial:
    """a mod m^[p], where p is the characteristic of a."""
    p = a.char
    kept = {m: c for m, c in a.items() if all(e < p for e in m)}
    if len(kept) == len(a._terms):
        return a
    return Polynomial._make(a.space, p, kept)


def _shifts(v: int, w: int) -> list:
    """Bit offset of each of the v exponent fields.  The first variable takes
    the most significant one, so key order is lex order."""
    return [w * i for i in range(v - 1, -1, -1)]


def _guard_and_bias(p: int, v: int, w: int) -> tuple:
    """The top bit of every field, and 2^(w-1) - p in every field.  Adding the
    bias to a key whose exponents stay below 2^(w-1) (a sum of two keys of
    exponents below p, say) sets a field's top bit exactly when that
    exponent reaches p, so one add and one AND find the monomials that
    m^[p] annihilates."""
    unit = sum(1 << (w * i) for i in range(v))
    return unit << (w - 1), unit * ((1 << (w - 1)) - p)


def _unpack_key(key: int, shifts: list, mask: int) -> Monomial:
    return tuple([(key >> s) & mask for s in shifts])


def pack_terms(a: Polynomial, w: int) -> dict:
    """{packed key: coefficient} of the terms of a, w bits per exponent field."""
    shifts = _shifts(a.space.count, w)
    return {sum(map(lshift, mono, shifts)): c for mono, c in a._terms.items()}


def unpack_terms(terms: dict, space: VariableSpace, p: int, w: int) -> Polynomial:
    """The Polynomial of a packed term dict whose coefficients are reduced and nonzero."""
    shifts, mask = _shifts(space.count, w), (1 << w) - 1
    return Polynomial._make(space, p, {_unpack_key(k, shifts, mask): c for k, c in terms.items()})


def mul_sum(pairs: Iterable, p: int) -> dict:
    """Sum of a * b over the pairs (a, b) of packed term dicts of one width,
    not truncated.  Sums stay unreduced Python ints and are reduced mod p
    once at the end, zero sums dropped."""
    total: dict = {}
    get = total.get
    for a, b in pairs:
        for kb, cb in b.items():
            for ka, ca in a.items():
                k = ka + kb
                total[k] = get(k, 0) + ca * cb
    return {k: c % p for k, c in total.items() if c % p}


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def render_poly(a: Polynomial) -> str:
    """Canonical text form: graded-lex descending terms joined by ' + '."""
    if a.is_zero:
        return "0"
    parts = []
    names = a.space.names
    for mono, c in a.sorted_terms():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e >= 2:
                factors.append(f"{names[i]}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


# Names of other modules, each loaded with its module on first use:
# perfbench/tracer.py binds the truncated products and exact_divide as
# permcheck.fppoly.*, and the tests import all of them from here.
__getattr__ = _lazy_attributes(__name__, {
    **dict.fromkeys(("TruncatedAccumulator", "truncated_mul", "truncated_pow"), "truncated"),
    **dict.fromkeys(("exact_divide", "parse_poly", "ParseError"), "fpextra"),
})
