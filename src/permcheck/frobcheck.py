"""Frobenius-power criteria over F_p.

For an ideal I generated by a regular sequence with product omega, the colon
ideal (I^[p] : I) equals (omega^{p-1}) + I^[p], so

  * F-purity (Fedder):        omega^{p-1} not in m^[p]
  * F-regularity certificate: c * omega^{p-1} not in m^[p] for a test element c

which reduces every check here to truncated polynomial arithmetic at the
Frobenius power q = p.  The module also decides membership in
(omega_P^{p-1}) + P^[p] structurally for the classified minimal primes P (a
binomial on an inner 2x2 block plus outside variables, or pure variable
ideals), and computes the "Fedder coefficient" of a full-support ideal --
the coefficient of prod x_i^{p-1} in omega^{p-1} -- by three independent
routes: symbolic truncated powering, brute-force point counting, and a
fibered enumeration special to the generic 3x4 / t=3 complete intersection.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .fppoly import (
    Polynomial,
    PrimeModulus,
    StructureError,
    TruncatedAccumulator,
    TruncationContext,
    exact_divide,
    truncated_mul,
)
from .shapes import COMPLETE_INTERSECTION, GENERIC, IdealPresentation

if TYPE_CHECKING:  # pragma: no cover
    from .witnesses import MinimalPrime


@dataclass(frozen=True)
class FedderVerdict:
    """Outcome of one truncated colon-ideal non-vanishing check."""

    passed: bool
    surviving_term: Optional[tuple]  # (monomial, coefficient) or None


def _omega_power(gens: IdealPresentation, modulus: PrimeModulus) -> TruncatedAccumulator:
    """omega^{p-1} mod m^[p], where omega is the product of the generators."""
    ctx = TruncationContext(modulus, gens.space)
    omega = Polynomial.one(ctx.space, modulus.p)
    for g in gens.generators:
        omega = truncated_mul(omega, g, ctx)
    return TruncatedAccumulator.power(omega, modulus.p - 1, ctx)


def _survivor_verdict(survivor: TruncatedAccumulator) -> FedderVerdict:
    """Pass with the GRLEX leading term of a nonzero survivor, else fail."""
    if survivor.is_zero:
        return FedderVerdict(False, None)
    return FedderVerdict(True, survivor.leading_term())


def _require_ci(gens: IdealPresentation, what: str):
    if gens.structure != COMPLETE_INTERSECTION:
        raise ValueError(
            f"{what} requires a complete-intersection presentation "
            f"(structure tag is {gens.structure!r})"
        )


def fedder_ci_check(gens: IdealPresentation, modulus: PrimeModulus) -> FedderVerdict:
    """Decide F-purity of a complete intersection: omega^{p-1} != 0 mod m^[p]."""
    _require_ci(gens, "the Fedder check")
    return _survivor_verdict(_omega_power(gens, modulus))


def glassbrenner_witness_check(
    c: Polynomial, gens: IdealPresentation, modulus: PrimeModulus
) -> FedderVerdict:
    """Check c * omega^{p-1} != 0 mod m^[p] for one witness c.

    A pass certifies the F-regularity condition for c at q = p; a failure is
    only inconclusive, since the criterion asks for some Frobenius power q.
    """
    _require_ci(gens, "the Glassbrenner witness check")
    return _survivor_verdict(_omega_power(gens, modulus).mul_poly(c))


# ---------------------------------------------------------------------------
# structural colon-ideal membership for classified minimal primes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColonMembershipCertificate:
    """A decomposition of f as a combination of colon-ideal generators.

    Each entry is a (multiplier, ideal_element) pair whose ideal_element lies
    in the colon ideal; replaying them (summing multiplier * ideal_element)
    reconstructs f exactly.
    """

    entries: tuple

    def replay(self, space, char) -> Polynomial:
        total = Polynomial.zero(space, char)
        for multiplier, ideal_element in self.entries:
            total = total + multiplier * ideal_element
        return total


def _split_term(mono, inner_set):
    inner = tuple(e if i in inner_set else 0 for i, e in enumerate(mono))
    outer = tuple(0 if i in inner_set else e for i, e in enumerate(mono))
    return inner, outer


def colon_membership(
    f: Polynomial, prime: "MinimalPrime", p: Optional[int] = None
) -> Optional[ColonMembershipCertificate]:
    """Decide whether f lies in (omega_P^{p-1}) + P^[p] for a structured prime P.

    The generators of P are a binomial b on an inner variable block plus all
    outside variables (or pure variables).  Modulo the p-th powers of the
    outside variables, the ring splits as a tensor product of the inner and
    outer variables, so membership is decided exactly:

      1. terms with an outside-variable exponent >= p lie in P^[p];
      2. pure-variable primes: every remaining term must be divisible by
         prod_{x in P} x^{p-1};
      3. binomial primes: group remaining terms by their outer monomial mu;
         the cofactor of the unique admissible mu = prod x^{p-1} must be
         divisible by b^{p-1}, every other cofactor by b^p.
    """
    if p is None:
        p = f.char
    if p != f.char:
        raise StructureError(f"f has characteristic {f.char}, expected {p}")
    if f.space != prime.space:
        raise StructureError("f does not live in the prime's variable space")
    space = f.space
    var_gens = set(prime.variable_gens)
    entries = []

    def record_drop(mono, coeff):
        i = next(i for i in var_gens if mono[i] >= p)
        xi_p = [0] * space.count
        xi_p[i] = p
        rest = list(mono)
        rest[i] -= p
        entries.append(
            (Polynomial.monomial(space, p, rest, coeff), Polynomial.monomial(space, p, xi_p))
        )

    remaining = []
    for mono, coeff in f.items():
        if any(mono[i] >= p for i in var_gens):
            record_drop(mono, coeff)
        else:
            remaining.append((mono, coeff))

    if prime.kind in ("row_variables", "column_variables"):
        # monomial colon: all variable generators must appear to exponent p-1
        base_exps = [p - 1 if i in var_gens else 0 for i in range(space.count)]
        quot_terms = []
        for mono, coeff in remaining:
            if any(mono[i] < p - 1 for i in var_gens):
                return None
            quot_terms.append((tuple(e - b for e, b in zip(mono, base_exps)), coeff))
        if quot_terms:
            entries.append(
                (Polynomial(space, p, quot_terms), Polynomial.monomial(space, p, base_exps))
            )
        return ColonMembershipCertificate(tuple(entries))

    # binomial-plus-variables primes
    inner_set = set(prime.inner_vars)
    if not inner_set or prime.binomial(p) is None:
        raise ValueError(
            f"prime kind {prime.kind!r} has no structural decomposition; "
            "use degree-bounded linear membership (linmember) instead"
        )
    b = prime.binomial(p)
    admissible = tuple(p - 1 if i in var_gens else 0 for i in range(space.count))
    groups: dict = {}
    for mono, coeff in remaining:
        inner, outer = _split_term(mono, inner_set)
        groups.setdefault(outer, []).append((inner, coeff))

    b_pm1 = b ** (p - 1)
    b_p = b**p
    outside_pm1 = Polynomial.monomial(space, p, admissible)
    omega_power = b_pm1 * outside_pm1
    for outer in sorted(groups):
        cofactor = Polynomial(space, p, groups[outer])
        if outer == admissible:
            quotient = exact_divide(cofactor, b_pm1)
            if quotient is None:
                return None
            entries.append((quotient, omega_power))
        else:
            quotient = exact_divide(cofactor, b_p)
            if quotient is None:
                return None
            entries.append((Polynomial.monomial(space, p, outer) * quotient, b_p))
    return ColonMembershipCertificate(tuple(entries))


# ---------------------------------------------------------------------------
# the Fedder coefficient of a full-support complete intersection
# ---------------------------------------------------------------------------


def fedder_coefficient_fullsupport(
    gens: IdealPresentation,
    modulus: PrimeModulus,
    method: str = "truncated",
    threads: int = 1,
) -> int:
    """Coefficient of prod x_i^{p-1} in omega^{p-1} mod p, for deg(omega) = v.

    With deg(omega) equal to the variable count v, the full-support monomial
    is the only one that can survive truncation, and the coefficient c obeys

        c = (-1)^v * sum_{a in F_p^v} omega(a)^{p-1}
          = (-1)^v * #{a : omega(a) != 0}   (mod p),

    since nonzero values of omega contribute 1 by Fermat.  Methods:
    "truncated" computes omega^{p-1} symbolically, "pointcount" enumerates
    F_p^v, and "fiber" (generic 3x4, t = 3 only) counts admissible fourth
    columns per block of the first three columns by inclusion-exclusion on
    the ranks of three linear forms, enumerating only the column blocks of
    three representative first columns (row scaling and row permutations fix
    the count of every other one).
    """
    _require_ci(gens, "the Fedder coefficient")
    p = modulus.p
    v = gens.space.count
    total_deg = sum(g.total_degree() for g in gens.generators)
    if total_deg != v:
        raise ValueError(
            f"deg(omega) = {total_deg} must equal the variable count {v} "
            "for the full-support coefficient"
        )
    sign = 1 if v % 2 == 0 else -1
    if method == "truncated":
        return _omega_power(gens, modulus).coeff((p - 1,) * v)
    if method == "pointcount":
        count = count_nonvanishing(gens, p, threads=threads)
        return (sign * count) % p
    if method == "fiber":
        shape = gens.shape
        if (
            shape is None
            or shape.kind != GENERIC
            or (shape.nrows, shape.ncols) != (3, 4)
            or gens.t != 3
        ):
            raise ValueError("the fiber method only applies to the generic 3x4 ideal with t = 3")
        count = fiber_count_3x4(p, threads=threads)
        return (sign * count) % p
    raise ValueError(f"unknown method {method!r}")


# -- brute-force point counting ---------------------------------------------


def _eval_terms_on_digits(terms, digits, p):
    acc = None
    for mono, coeff in terms:
        t = None
        for i, e in enumerate(mono):
            if not e:
                continue
            factor = digits[i]
            for _ in range(e - 1):
                factor = factor * digits[i] % p
            t = factor if t is None else t * factor % p
        t = np.full_like(digits[0], coeff) if t is None else t * coeff % p
        acc = t if acc is None else (acc + t) % p
    return acc


def _count_range_nonvanishing(gen_terms, v, p, start, stop):
    idx = np.arange(start, stop, dtype=np.int64)
    digits = []
    rest = idx
    for _ in range(v):
        digits.append(rest % p)
        rest = rest // p
    mask = None
    for terms in gen_terms:
        vals = _eval_terms_on_digits(terms, digits, p)
        nz = vals != 0
        mask = nz if mask is None else (mask & nz)
    return int(np.count_nonzero(mask))


def count_nonvanishing(
    gens: IdealPresentation, p: int, threads: int = 1, chunk: int = 1 << 20
) -> int:
    """#{a in F_p^v : no generator vanishes at a}, by chunked enumeration."""
    v = gens.space.count
    total = p**v
    gen_terms = [list(g.items()) for g in gens.generators]
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    if threads <= 1 or len(ranges) == 1:
        return sum(_count_range_nonvanishing(gen_terms, v, p, a, b) for a, b in ranges)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(_count_range_nonvanishing, gen_terms, v, p, a, b) for a, b in ranges]
        return sum(f.result() for f in futs)


# -- fibered enumeration for the generic 3x4, t = 3 ideal --------------------
#
# A point of F_p^{3x4} satisfies "all four 3x3 permanents nonzero" iff the
# block B of its first three columns has perm(B) != 0 and the fourth column u
# avoids the kernels of three linear forms L_{ij}(u) = sum_k C[ij][k] u_k,
# where C[ij][k] is the 2x2 permanent of B on columns {i, j} with row k
# removed (permanent expansion along the fourth column).  The number of such
# u is sum over the 8 subsets S of forms of (-1)^{|S|} p^{3 - rank(C_S)}.
# Blocks are indexed in column-major lexicographic order, index digits
# (B00, B10, B20, B01, ..., B22) from most to least significant; a "column
# block" is the p^6 blocks sharing the first column (B00, B10, B20).
#
# Scaling a row by a unit multiplies every 3x3 permanent by that unit, and
# permuting the rows leaves them unchanged.  A column block's count therefore
# depends only on how many zeros its first column has, and only the three
# representatives (1,1,1), (1,1,0) and (1,0,0) are counted.  An all-zero
# first column gives perm(B) = 0 and contributes nothing.


class _FiberKernel:
    """Vectorized per-column-block counting.

    One "column block" is the set of p^6 indices sharing the first three
    digits (the first column of B).  The parts depending only on the last two
    columns -- the digit arrays and the forms for column pair (1, 2) -- are
    precomputed once and shared (read-only) by all threads.
    """

    def __init__(self, p: int):
        self.p = p
        dtype = np.int32 if 3 * (p - 1) ** 2 < 2**31 else np.int64
        self.dtype = dtype
        j = np.arange(p**6, dtype=np.int64)
        d = [(j // p ** (5 - k) % p).astype(dtype) for k in range(6)]
        # digit order: B01, B11, B21, B02, B12, B22
        self.d01, self.d11, self.d21, self.d02, self.d12, self.d22 = d
        # forms for column pair (1, 2): row k removed
        self.c12 = [
            (self.d11 * self.d22 + self.d12 * self.d21) % p,
            (self.d01 * self.d22 + self.d02 * self.d21) % p,
            (self.d01 * self.d12 + self.d02 * self.d11) % p,
        ]

    def count_colblock(self, hi: int) -> int:
        p = self.p
        a, b, c = hi // (p * p) % p, hi // p % p, hi % p  # B00, B10, B20
        c12 = self.c12
        perm = (a * c12[0] + b * c12[1] + c * c12[2]) % p
        alive = perm != 0
        if not alive.any():
            return 0
        d01 = self.d01[alive]
        d11 = self.d11[alive]
        d21 = self.d21[alive]
        d02 = self.d02[alive]
        d12 = self.d12[alive]
        d22 = self.d22[alive]
        f12 = [c12[0][alive], c12[1][alive], c12[2][alive]]
        f01 = [
            (b * d21 + d11 * c) % p,
            (a * d21 + d01 * c) % p,
            (a * d11 + d01 * b) % p,
        ]
        f02 = [
            (b * d22 + d12 * c) % p,
            (a * d22 + d02 * c) % p,
            (a * d12 + d02 * b) % p,
        ]
        forms = [f01, f02, f12]

        def row_nonzero(f):
            return (f[0] + f[1] + f[2]) > 0

        def pair_minors(fa, fb):
            return [
                (fa[0] * fb[1] - fa[1] * fb[0]) % p,
                (fa[0] * fb[2] - fa[2] * fb[0]) % p,
                (fa[1] * fb[2] - fa[2] * fb[1]) % p,
            ]

        nz = [row_nonzero(f) for f in forms]
        pairs = [(0, 1), (0, 2), (1, 2)]
        minors = {pr: pair_minors(forms[pr[0]], forms[pr[1]]) for pr in pairs}
        m12 = minors[(1, 2)]
        det3 = (f01[0] * m12[2] - f01[1] * m12[1] + f01[2] * m12[0]) % p

        p3, p2 = p**3, p * p
        count = np.full(perm.shape, p3, dtype=np.int64)[alive]
        for t in range(3):
            count -= np.where(nz[t], p2, p3)
        any_minor = None
        for pr in pairs:
            mnz = (minors[pr][0] != 0) | (minors[pr][1] != 0) | (minors[pr][2] != 0)
            either = nz[pr[0]] | nz[pr[1]]
            count += np.where(mnz, p, np.where(either, p2, p3))
            any_minor = mnz if any_minor is None else (any_minor | mnz)
        any_entry = nz[0] | nz[1] | nz[2]
        count -= np.where(det3 != 0, 1, np.where(any_minor, p, np.where(any_entry, p2, p3)))
        return int(count.sum())


def _colblock_zeros(hi: int, p: int) -> int:
    """Number of zeros in the first column (B00, B10, B20) of column block hi."""
    return sum(hi // p**k % p == 0 for k in range(3))


def fiber_count_3x4(p: int, threads: int = 1) -> int:
    """#{A in F_p^{3x4} : all four 3x3 permanents nonzero}, exactly.

    Counts the three representative column blocks (first column with 0, 1 or
    2 zeros), on up to `threads` threads, and adds up all p^3 column blocks by
    class, so the result is independent of the thread count.
    """
    reps = (p * p + p + 1, p * p + p, p * p)  # first columns (1,1,1), (1,1,0), (1,0,0)
    kernel = _FiberKernel(p)
    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(reps)))) as ex:
        table = list(ex.map(kernel.count_colblock, reps))
    table.append(0)  # all-zero first column
    return sum(table[_colblock_zeros(hi, p)] for hi in range(p**3))
