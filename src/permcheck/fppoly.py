"""Exact sparse multivariate polynomial arithmetic over a prime field F_p.

A polynomial is stored as a dict mapping exponent tuples (one nonnegative
int per variable) to coefficients in {1, ..., p-1}.  Zero coefficients are
never stored; the zero polynomial has an empty term dict.  All values are
immutable after construction, so they can be shared freely between threads.

The module also implements arithmetic in the truncated quotient
F_p[x_1..x_v] / (x_1^p, ..., x_v^p) = F_p[x] / m^[p]: any monomial with some
exponent >= p is annihilated.  p and the variables are read from the
operands, and operands from different spaces or characteristics are refused
with StructureError.  Every characteristic is an odd prime below 2^31
(`check_prime`), which the int64 kernels rely on.  Truncated products run
on packed exponent vectors: each exponent gets a w-bit field with
p < 2^(w-1), so the top bit of a field is a guard that flags a product
reaching p (Monagan & Pearce, CASC 2007).  A chain of products runs on a
dict of Python-int keys until ARRAY_PAIRS term pairs in all, and on one
numpy kernel after that, with int64 keys while v fields fit 63 bits and
Python ints (numpy object arrays) beyond.  Powers are repeated products with
the base.  A chain of more than MAX_CHAIN_PAIRS term pairs is refused with
ValueError before its last product runs.

numpy is imported inside the kernel functions, so it loads on the first
chain that reaches ARRAY_PAIRS pairs and never for smaller truncated
products or code that only uses the sparse dict form.  The kernels are
element-wise and never call BLAS.  This module leaves OPENBLAS_NUM_THREADS
alone, so an embedding program keeps its own setting; the command line sets
it to 1 unless it is already set.
"""

from __future__ import annotations

import functools
from operator import lshift
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

Monomial = tuple  # exponent tuple, one entry per variable


class StructureError(ValueError):
    """Operands live in different variable spaces / characteristics."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    return tuple(y - x for x, y in zip(a, b))


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


# ---------------------------------------------------------------------------
# truncated quotient arithmetic
# ---------------------------------------------------------------------------


def truncate(a: Polynomial) -> Polynomial:
    """a mod m^[p], where p is the characteristic of a."""
    p = a.char
    kept = {m: c for m, c in a.items() if all(e < p for e in m)}
    if len(kept) == len(a._terms):
        return a
    return Polynomial._make(a.space, p, kept)


def _key_width(p: int) -> int:
    """Bits per exponent field of a packed key.

    w = bitlen(p) + 1 gives p < 2^(w-1): a field holds the sum of two
    exponents below p without carrying, and its top bit serves as the guard.
    """
    return p.bit_length() + 1


def _shifts(v: int, w: int) -> list:
    """Bit offset of each of the v exponent fields.  The first variable takes
    the most significant one, so key order is lex order."""
    return [w * i for i in range(v - 1, -1, -1)]


def _guard_and_bias(p: int, v: int, w: int) -> tuple:
    """The top bit of every field, and 2^(w-1) - p in every field.  Adding the
    bias to a sum of two keys sets a field's top bit exactly when that
    exponent sum reaches p, so one add and one AND find the products that
    truncation annihilates."""
    unit = sum(1 << (w * i) for i in range(v))
    return unit << (w - 1), unit * ((1 << (w - 1)) - p)


def _pack(a: Polynomial, w: int) -> dict:
    """{packed key: coefficient} of the terms of a that survive truncation."""
    p, shifts = a.char, _shifts(a.space.count, w)
    return {
        sum(map(lshift, mono, shifts)): c
        for mono, c in a._terms.items()
        if max(mono, default=0) < p
    }


def _unpack_key(key: int, shifts: list, mask: int) -> Monomial:
    return tuple([(key >> s) & mask for s in shifts])


def _mul_dict(a: dict, b: dict, p: int, v: int, w: int) -> dict:
    """Truncated product of two packed term dicts, on Python ints.

    Sums are kept biased and unreduced until the end; Python ints make keys
    of any width and sums of any size exact.
    """
    if len(a) < len(b):
        a, b = b, a
    guard, bias = _guard_and_bias(p, v, w)
    a_items = list(a.items())
    out: dict = {}
    get = out.get
    for kb, cb in b.items():
        kb += bias
        for ka, ca in a_items:
            k = ka + kb
            if not k & guard:
                out[k] = get(k, 0) + ca * cb
    return {k - bias: c for k, c in ((k, c % p) for k, c in out.items()) if c}


def _arrays(terms: dict, v: int, w: int):
    """A packed term dict as sorted key and coefficient arrays.  Keys are
    int64 while v fields fit 63 bits and Python ints (dtype=object) beyond;
    the kernel is the same for both."""
    import numpy as np

    keys = sorted(terms)
    return (
        np.array(keys, dtype=np.int64 if v * w <= 63 else object),
        np.fromiter(map(terms.__getitem__, keys), dtype=np.int64, count=len(keys)),
    )


def _unpack(keys: np.ndarray, coeffs: np.ndarray, space: VariableSpace, p: int, w: int) -> Polynomial:
    import numpy as np

    shifts = np.array(_shifts(space.count, w), dtype=keys.dtype)
    fields = (keys[:, None] >> shifts) & ((1 << w) - 1)
    terms = dict(zip(map(tuple, fields.tolist()), coeffs.tolist()))
    return Polynomial._make(space, p, terms)


def _merge(key_parts: list, coeff_parts: list, p: int):
    """Sum the coefficients of equal keys mod p, dropping zero sums."""
    import numpy as np

    keys = np.concatenate(key_parts)
    coeffs = np.concatenate(coeff_parts)
    if not keys.size:
        return keys, coeffs
    # the parts are sorted runs, on which the stable sort (timsort) is near linear
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(coeffs[order], starts) % p
    nonzero = sums != 0
    return keys[starts[nonzero]], sums[nonzero]


def _mul_packed(a_keys, a_coeffs, b_keys, b_coeffs, p: int, v: int, w: int):
    """Truncated product of two packed polynomials in v variables over F_p, as
    sorted keys and coefficients.

    The longer operand is shifted by each term of the shorter one, biased as
    in `_guard_and_bias`.  Each coefficient product is reduced mod p at once,
    so sums over at most len(b) + 1 runs fit int64.  Pending slices are
    merged into the result as soon as they outgrow it and the input
    together, so they never hold more than one slice beyond that.
    """
    if len(a_keys) < len(b_keys):
        a_keys, a_coeffs, b_keys, b_coeffs = b_keys, b_coeffs, a_keys, a_coeffs
    guard, bias = _guard_and_bias(p, v, w)
    keys, coeffs = a_keys[:0], a_coeffs[:0]
    pending_keys, pending_coeffs, pending = [], [], 0
    for term, c in zip((b_keys + bias).tolist(), b_coeffs.tolist()):
        shifted = a_keys + term
        kept = (shifted & guard) == 0
        pending_keys.append(shifted[kept] - bias)
        pending_coeffs.append(a_coeffs[kept] * c % p)
        pending += len(pending_keys[-1])
        if pending > len(a_keys) + len(keys):
            keys, coeffs = _merge([keys, *pending_keys], [coeffs, *pending_coeffs], p)
            pending_keys, pending_coeffs, pending = [], [], 0
    return _merge([keys, *pending_keys], [coeffs, *pending_coeffs], p)


# A value is multiplied on Python ints while the term pairs of the products
# that made it, this one included, stay below ARRAY_PAIRS.  The first product
# that reaches the bound sorts the value into arrays, and every later product
# runs on the numpy kernel.  Counting the whole chain caps the Python-int
# work of a value near ARRAY_PAIRS pairs, about 30-50 ms, below numpy's
# import (65-75 ms with one OpenBLAS thread); past it the kernel is 3-6x
# faster.  Per power f^{p-1} of the Hankel permanent, pairs summed over the
# chain, all-dict / all-numpy with numpy's import excluded, median of 3-5
# runs on a 2-core Xeon VM with Python 3.11 and numpy 2.4:
#   (n, p) = (4, 7):  1,075 terms,  41k pairs:   5.4 /   2.3 ms
#   (n, p) = (5, 5):  2,696 terms, 198k pairs:  24   /   7.3 ms
#   (n, p) = (5, 7): 29,636 terms, 3.3M pairs: 590   / 107   ms
# A value that goes on to numpy anyway pays for that head start: f^12 at
# (n, p) = (4, 13) took 102 ms against 61 ms on arrays alone.
ARRAY_PAIRS = 1 << 18
# Most term pairs a chain may multiply, about 75 s at the 2.8 * 10^7 pairs/s
# of a 2-core VM: thm35 at (6, 7) chains 4.1 * 10^8 pairs (15 s) and fpure of
# generic:3x4 at p = 13 1.18 * 10^9 (41 s); generic:4x5, t = 4 at p = 5 is
# refused at omega^2, 208,051^2 = 4.3 * 10^10 pairs.
MAX_CHAIN_PAIRS = 1 << 31


class TruncatedAccumulator:
    """A truncated-quotient value held in packed form.

    Each monomial is one packed key (see `_key_width`).  A value starts as a
    dict {key: coefficient} and is multiplied on Python ints while the term
    pairs of its products so far stay below ARRAY_PAIRS; then it becomes
    sorted key and coefficient arrays and stays on the numpy kernel.  Chains
    of products against small polynomials (Frobenius powers of a permanent,
    say) can hold millions of terms; the accumulator never materializes the
    sparse dict form of them.  Its space and characteristic are those of the
    polynomial it starts from.
    """

    __slots__ = ("space", "char", "_width", "_pairs", "_terms", "_keys", "_coeffs")

    def __init__(self, poly: Polynomial):
        self.space, self.char = poly.space, poly.char
        self._width = _key_width(poly.char)
        self._pairs = 0  # term pairs multiplied so far on its way to this value
        self._terms = _pack(poly, self._width)
        self._keys = self._coeffs = None

    @classmethod
    def power(cls, poly: Polynomial, k: int) -> "TruncatedAccumulator":
        """poly^k by repeated multiplication with the (typically small) base.

        In a saturated quotient the intermediates hold vastly more terms than
        the base, so this is cheaper than squaring them against each other.
        """
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return cls(Polynomial.one(poly.space, poly.char))
        acc = cls(poly)
        for _ in range(k - 1):
            acc = acc.mul_poly(poly)
        return acc

    def mul_poly(self, poly: Polynomial) -> "TruncatedAccumulator":
        """Truncated product with a (typically small) sparse polynomial;
        ValueError, before multiplying, if the chain passes MAX_CHAIN_PAIRS."""
        poly._check_compatible(self)  # reads only .space and .char
        p, v, w = self.char, self.space.count, self._width
        factor = _pack(poly, w)
        out = object.__new__(TruncatedAccumulator)
        out.space, out.char, out._width = self.space, p, w
        out._pairs = self._pairs + self.nnz() * len(factor)
        if out._pairs > MAX_CHAIN_PAIRS:
            raise ValueError(f"a truncated product chain would multiply {out._pairs} "
                             f"term pairs, more than {MAX_CHAIN_PAIRS}")
        out._terms = out._keys = out._coeffs = None
        if self._terms is not None and out._pairs < ARRAY_PAIRS:
            out._terms = _mul_dict(self._terms, factor, p, v, w)
        else:
            value = (self._keys, self._coeffs) if self._terms is None else _arrays(self._terms, v, w)
            out._keys, out._coeffs = _mul_packed(*value, *_arrays(factor, v, w), p, v, w)
        return out

    @property
    def is_zero(self) -> bool:
        return self.nnz() == 0

    def nnz(self) -> int:
        return len(self._terms if self._terms is not None else self._keys)

    def coeff(self, mono) -> int:
        mono = tuple(mono)
        if any(e >= self.char for e in mono):
            return 0
        key = sum(int(e) << s for e, s in zip(mono, _shifts(self.space.count, self._width)))
        if self._terms is not None:
            return self._terms.get(key, 0)
        import numpy as np

        i = int(np.searchsorted(self._keys, key))
        if i < len(self._keys) and self._keys[i] == key:
            return int(self._coeffs[i])
        return 0

    def equals_monomial(self, mono, coefficient: int) -> bool:
        """True iff the value is exactly coefficient * mono, with coefficient nonzero mod p."""
        return self.nnz() == 1 and self.coeff(mono) == coefficient % self.char

    def leading_term(self) -> tuple:
        """The GRLEX leading (monomial, coefficient) pair of a nonzero value.

        Key order is lex order, so the leading term is the largest key of top
        total degree.  On arrays, degrees are summed one field at a time and
        only that key is unpacked, so a survivor of millions of terms is
        never materialized.
        """
        if self.is_zero:
            raise ValueError("the zero value has no leading term")
        shifts, mask = _shifts(self.space.count, self._width), (1 << self._width) - 1
        if self._terms is not None:
            key = max(self._terms, key=lambda k: (sum(_unpack_key(k, shifts, mask)), k))
            return _unpack_key(key, shifts, mask), self._terms[key]
        import numpy as np

        degree = np.zeros(len(self._keys), dtype=np.int64)
        for s in shifts:
            degree += ((self._keys >> s) & mask).astype(np.int64)
        # keys ascend, so the last one of top degree is the largest
        i = int(np.flatnonzero(degree == degree.max())[-1])
        return _unpack_key(int(self._keys[i]), shifts, mask), int(self._coeffs[i])

    def to_polynomial(self) -> Polynomial:
        if self._terms is None:
            return _unpack(self._keys, self._coeffs, self.space, self.char, self._width)
        shifts, mask = _shifts(self.space.count, self._width), (1 << self._width) - 1
        terms = {_unpack_key(k, shifts, mask): c for k, c in self._terms.items()}
        return Polynomial._make(self.space, self.char, terms)


def truncated_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product in the truncated quotient; equals truncate(a * b).  It runs
    through TruncatedAccumulator, so ARRAY_PAIRS picks its kernel too."""
    return TruncatedAccumulator(a).mul_poly(b).to_polynomial()


def truncated_pow(a: Polynomial, k: int) -> Polynomial:
    """a^k mod m^[p], p the characteristic of a, by TruncatedAccumulator.power.

    Truncation is a ring quotient, so truncating after every product is sound.
    No check calls this; it stays public on purpose: the tests use it, and
    perfbench/tracer.py binds it by name, so deleting it would break the
    benchmark's CI step.
    """
    return TruncatedAccumulator.power(a, k).to_polynomial()


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
