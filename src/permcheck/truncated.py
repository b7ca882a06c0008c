"""Arithmetic in the truncated quotient F_p[x_1..x_v] / (x_1^p, ..., x_v^p).

In F_p[x] / m^[p] any monomial with some exponent >= p is annihilated.  p
and the variables are read from the operands, and operands from different
spaces or characteristics are refused with StructureError.  Truncated
products run on the packed terms of `fppoly.pack_terms`, with a w-bit field
per exponent and p < 2^(w-1), so the top bit of a field is a guard that
flags a product reaching p (Monagan & Pearce, CASC 2007).  `_mul_dict` is
the guarded counterpart of `fppoly.mul_sum`, kept apart so that the
untruncated sums pay no guard test.  A chain of products runs on a dict of
Python-int keys until ARRAY_PAIRS term pairs in all, and on one numpy
kernel after that, with int64 keys while v fields fit 63 bits and Python
ints (numpy object arrays) beyond.  Powers are repeated products with the
base.  A chain of more than MAX_CHAIN_PAIRS term pairs is refused with
ValueError before its last product runs, and a power whose products must
pass it, from its exponent and its base's terms, before its first
(`check_chain`, which a caller can also run before it builds its first
value).  A product on the array kernel that runs out of memory raises
ValueError too, in place of numpy's MemoryError.

numpy is imported inside the kernel functions, so it loads on the first
chain that reaches ARRAY_PAIRS pairs and never for smaller truncated
products.  The kernels are element-wise and never call BLAS.  This module
leaves OPENBLAS_NUM_THREADS alone, so an embedding program keeps its own
setting; the command line sets it to 1 unless it is already set.

`fppoly` loads this module on first use of one of its names, so jobs that
never truncate a product do not compile it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fppoly import (Polynomial, VariableSpace, _guard_and_bias, _shifts, pack_terms, truncate,
                     unpack_terms)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _key_width(p: int) -> int:
    """Bits per exponent field of a packed key.

    w = bitlen(p) + 1 gives p < 2^(w-1): a field holds the sum of two
    exponents below p without carrying, and its top bit serves as the guard.
    """
    return p.bit_length() + 1


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
# Most term pairs a chain may multiply: about 75 s on int64 keys at the
# 2.8 * 10^7 pairs/s of a 2-core VM, more on object keys.  thm35 at (6, 7)
# chains 4.1 * 10^8 pairs (15 s), fpure of generic:3x4 at p = 13 1.18 * 10^9
# (41 s); generic:4x5, t = 4 at p = 5 is refused at omega^2 (4.3 * 10^10).
MAX_CHAIN_PAIRS = 1 << 31


def check_chain(pairs: int, poly: Polynomial, k: int) -> None:
    """ValueError when a chain that has multiplied `pairs` term pairs must
    pass MAX_CHAIN_PAIRS in k more products with poly: each product of a
    nonzero value multiplies at least as many term pairs as poly has terms
    mod m^[p].  `mul_power` runs it, and so can a caller that sizes a chain
    before it builds its first value."""
    least = pairs + k * len(truncate(poly))
    if least > MAX_CHAIN_PAIRS:
        raise ValueError(f"a truncated product chain would multiply at least {least} "
                         f"term pairs, more than {MAX_CHAIN_PAIRS}")


class TruncatedAccumulator:
    """A truncated-quotient value held in packed form.

    Each monomial is one packed key (see `_key_width`).  A value starts as a
    dict {key: coefficient} and is multiplied on Python ints while the term
    pairs of its products so far stay below ARRAY_PAIRS; then it becomes
    sorted key and coefficient arrays and stays on the numpy kernel.  Chains
    of products against small polynomials (Frobenius powers of a permanent,
    say) can hold millions of terms; `coeff` and `nnz` read them in packed
    form, and only `to_polynomial` builds the sparse dict form, from which
    `fppoly.leading_term` reads a leading term.  Its space and
    characteristic are those of the polynomial it starts from.
    """

    __slots__ = ("space", "char", "_width", "_pairs", "_terms", "_keys", "_coeffs")

    def __init__(self, poly: Polynomial):
        self.space, self.char = poly.space, poly.char
        self._width = _key_width(poly.char)
        self._pairs = 0  # term pairs multiplied so far on its way to this value
        self._terms = pack_terms(truncate(poly), self._width)
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
        return cls(poly).mul_power(poly, k - 1)

    def mul_power(self, poly: Polynomial, k: int) -> "TruncatedAccumulator":
        """This value times poly^k, one product with poly at a time, returned
        as soon as it is zero; ValueError, before the first product, where
        `check_chain` refuses the chain."""
        poly._check_compatible(self)
        check_chain(self._pairs, poly, k)
        acc = self
        for _ in range(k):
            if acc.is_zero:
                break
            acc = acc.mul_poly(poly)
        return acc

    def mul_poly(self, poly: Polynomial) -> "TruncatedAccumulator":
        """Truncated product with a (typically small) sparse polynomial;
        ValueError, before multiplying, if the chain passes MAX_CHAIN_PAIRS,
        and in place of the MemoryError of an array product too large for
        the memory there is."""
        poly._check_compatible(self)  # reads only .space and .char
        p, v, w = self.char, self.space.count, self._width
        factor = pack_terms(truncate(poly), w)
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
            try:
                out._keys, out._coeffs = _mul_packed(*value, *_arrays(factor, v, w), p, v, w)
            except MemoryError as exc:  # numpy's _ArrayMemoryError included
                raise ValueError(f"a truncated product of {self.nnz()} by {len(factor)} terms "
                                 "ran out of memory") from exc
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

    def to_polynomial(self) -> Polynomial:
        if self._terms is None:
            return _unpack(self._keys, self._coeffs, self.space, self.char, self._width)
        return unpack_terms(self._terms, self.space, self.char, self._width)


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

