"""Membership in the colon ideals (omega_P^{p-1}) + P^[p] of the minimal
primes P of P_2, on packed exponent keys.

A minimal prime P is generated by variables V and, unless it is a prime of
variables only, a binomial x^u + x^w on an inner 2x2 block.  f lies in
(P^[p] : P) = (omega_P^{p-1}) + P^[p] (Fedder) exactly when it has a
certificate: one multiplier per generator of that ideal that sums back to
f.  `colon_membership` builds the certificate, or finds that there is none,
in time linear in the terms of f, and `ColonMembershipCertificate.replay`
multiplies it back out through `fppoly.mul_sum`.

Both run on f packed once (`pack`, through `fppoly.pack_terms`), with a
field width that bounds every exponent the certificate can reach, so
products are key sums and "some variable of V has exponent >= p" is one
guard-bit test (`fppoly._guard_and_bias`).  This module loads only the
polynomial core.
"""

from __future__ import annotations

from operator import lshift
from typing import NamedTuple, Optional

from .fppoly import (Polynomial, StructureError, VariableSpace, _guard_and_bias, _shifts, mul_sum,
                     pack_terms)


class MinimalPrime(NamedTuple):
    """A minimal prime of P_2, stored as its generators.

    `variable_gens` are the indices of the variable generators: every
    variable outside the block, or the variables of the rows or columns that
    the label names.  `binomial` is the exponent pair (u, w) of the
    permanent x^u + x^w of an inner 2x2 block, u its diagonal product and w
    its antidiagonal one (a square for a symmetric pair), or None for a prime
    generated by variables only.  u and w have disjoint supports, outside
    `variable_gens`.
    """

    label: str
    space: VariableSpace
    variable_gens: tuple
    binomial: Optional[tuple] = None


class PackedPolynomial(NamedTuple):
    """A polynomial over F_p as {packed key: coefficient}, `width` bits per
    exponent field, the first variable in the most significant field."""

    space: VariableSpace
    char: int
    width: int
    terms: dict


def pack(f: Polynomial) -> PackedPolynomial:
    """f on keys wide enough for every vector that `colon_membership` and
    `replay` form from it.

    With E the largest exponent of f and B = max(E + 2, 2p), every
    multiplier, ideal element and product of a certificate has exponents in
    [0, B], and every chain label of `_divide_by_binomial` has coordinates in
    [-2B, 3B].  2^w > 8B keeps the keys of distinct vectors in that range
    distinct, and 2^(w-1) > B leaves the top bit of each field of f clear
    for the guard test.
    """
    p = f.char
    top = max((max(mono, default=0) for mono, _ in f.items()), default=0)
    w = (8 * max(top + 2, 2 * p)).bit_length()
    return PackedPolynomial(f.space, p, w, pack_terms(f, w))


class ColonMembershipCertificate(NamedTuple):
    """A decomposition of f as a combination of colon-ideal generators.

    Each entry is a (multiplier, ideal_element) pair of packed term dicts,
    in the space, characteristic and width of the packed f, whose
    ideal_element is a generator of the colon ideal: x_i^p for a variable
    generator x_i, b^p, or omega_P^{p-1}.  `colon_membership` writes one
    entry per generator it uses, so at most |V| + 2.  Replaying them
    (summing multiplier * ideal_element) reconstructs f exactly, which
    checks the certificate independently of how it was built.
    """

    space: VariableSpace
    char: int
    width: int
    entries: tuple

    def replay(self) -> PackedPolynomial:
        """The sum of multiplier * ideal_element, by `fppoly.mul_sum`."""
        return PackedPolynomial(self.space, self.char, self.width, mul_sum(self.entries, self.char))


def _closed_form_pm1(u: int, w: int, p: int) -> dict:
    """The packed term dict of b^{p-1} for b = x^u + x^w over F_p (u, w
    packed keys), without products.

    C(p-1, j) = (-1)^j mod p gives b^{p-1} = sum_{j=0}^{p-1} (-1)^j
    x^{ju + (p-1-j)w}, whose p monomials are distinct because u != w.
    """
    return {j * u + (p - 1 - j) * w: 1 if j % 2 == 0 else p - 1 for j in range(p)}


def _divide_by_binomial(terms: dict, u: int, w: int, field: int, step: int, mask: int,
                        p: int) -> Optional[dict]:
    """The quotient of sum(terms) by x^u + x^w as a packed term dict, or None.

    u and w are packed keys of disjoint supports, as on every block; w - u
    has the exponent `step` > 0 in the field at bit offset `field`.  With
    d = w - u the monomials fall into chains m0 + t*d, t the field's
    exponent divided by `step`.  On a chain the quotient's coefficient q_t
    of x^{m0 + t*d - u} obeys c_t = q_t + q_{t-1}, so one pass up from the
    chain's lowest t finds q, and the binomial divides iff every chain ends
    with q = 0.  With disjoint supports the lowest power of each variable in
    q survives in q * (x^u + x^w), so q has no negative exponent when the
    product is a polynomial.  The cost is linear in the terms plus the
    quotient.  A chain's label m0 can have negative fields; see `pack` for
    why its key is still unique.
    """
    d = w - u
    chains: dict = {}
    for key, coeff in terms.items():
        t = ((key >> field) & mask) // step
        chains.setdefault(key - t * d, {})[t] = coeff
    quotient = {}
    for base, chain in chains.items():
        q, top = 0, max(chain)
        for t in range(min(chain), top):
            q = (chain.get(t, 0) - q) % p
            if q:
                quotient[base + t * d - u] = q
        if (chain[top] - q) % p:
            return None
    return quotient


def colon_membership(f, prime: MinimalPrime) -> Optional[ColonMembershipCertificate]:
    """Decide whether f lies in (omega_P^{p-1}) + P^[p] for a minimal prime P.

    f is a Polynomial or, to check one f against many primes, its `pack`;
    p is its characteristic.  P is generated by variables V and, unless it
    is a prime of variables only, a binomial b = x^u + x^w in the other
    variables.  Modulo the p-th powers of V the ring splits as a tensor
    product of the variables in V and the rest, so membership is decided
    exactly:

      1. terms with an exponent >= p on a variable of V lie in P^[p]; they
         are grouped into one multiplier of x_i^p per variable x_i of V,
         x_i the first such variable of the term;
      2. the other terms are split by their outer monomial mu in V: the
         cofactor of the admissible mu = prod_V x^{p-1} must be divisible by
         b^{p-1}, and every other cofactor by b^p.  As b^p lies in the other
         variables, that is one division of the sum of all other terms.

    The certificate has one entry per generator used, at most |V| + 2.  In
    characteristic p, b^p = x^{pu} + x^{pw} and b^{p-1} = sum_j (-1)^j
    x^{ju + (p-1-j)w} are written down in closed form, dividing by b^{p-1}
    is multiplying by b and dividing by b^p, and a binomial divides in one
    pass along chains of monomials, so the cost is linear in the terms of f
    and of the quotients.

    A prime of variables is the case without b: the admissible cofactor is
    its own quotient, and any other term means f is not a member.
    """
    if isinstance(f, Polynomial):
        f = pack(f)
    if f.space != prime.space:
        raise StructureError("f does not live in the prime's variable space")
    space, p, w = f.space, f.char, f.width
    shifts = _shifts(space.count, w)
    mask = (1 << w) - 1
    outer = sum(mask << shifts[i] for i in prime.variable_gens)  # the fields of V
    guard, bias = _guard_and_bias(p, space.count, w)
    guard &= outer
    admissible = sum((p - 1) << shifts[i] for i in prime.variable_gens)
    frobenius: dict = {}  # bit offset of x_i -> multiplier of x_i^p
    cofactor: dict = {}  # the cofactor of prod_V x^{p-1}
    other: dict = {}  # every other term, a multiple of b^p for a member
    for key, coeff in f.terms.items():
        hit = (key + bias) & guard
        if hit:
            # the most significant field of V whose exponent reaches p
            s = hit.bit_length() - w
            frobenius.setdefault(s, {})[key - (p << s)] = coeff
        elif key & outer == admissible:
            cofactor[key - admissible] = coeff
        else:
            other[key] = coeff

    entries = [(multiplier, {p << s: 1}) for s, multiplier in frobenius.items()]
    if prime.binomial is None:
        if other:
            return None
        if cofactor:
            entries.append((cofactor, {admissible: 1}))
        return ColonMembershipCertificate(space, p, w, tuple(entries))

    ku, kw = (sum(map(lshift, exps, shifts)) for exps in prime.binomial)
    w_exps = prime.binomial[1]
    i = next(i for i, e in enumerate(w_exps) if e)  # a variable of w, none of u
    divide = lambda terms: _divide_by_binomial(terms, p * ku, p * kw, shifts[i],
                                               p * w_exps[i], mask, p)
    if other:
        quotient = divide(other)
        if quotient is None:
            return None
        entries.append((quotient, {p * ku: 1, p * kw: 1}))  # b^p = x^{pu} + x^{pw}
    if cofactor:
        # q * b^{p-1} = cofactor  iff  q * b^p = cofactor * b
        quotient = divide(mul_sum(((cofactor, {ku: 1, kw: 1}),), p))
        if quotient is None:
            return None
        omega_power = {admissible + k: c for k, c in _closed_form_pm1(ku, kw, p).items()}
        entries.append((quotient, omega_power))
    return ColonMembershipCertificate(space, p, w, tuple(entries))
