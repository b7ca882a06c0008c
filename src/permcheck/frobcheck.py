"""Frobenius-power criteria over F_p.

For an ideal I generated by a regular sequence with product omega, the colon
ideal (I^[p] : I) equals (omega^{p-1}) + I^[p], so

  * F-purity (Fedder):        omega^{p-1} not in m^[p]
  * F-regularity certificate: c * omega^{p-1} not in m^[p] for a test element c

which reduces every check here to truncated polynomial arithmetic at the
Frobenius power q = p, with p the characteristic of the generators.  The module also decides membership in
(omega_P^{p-1}) + P^[p] structurally for the classified minimal primes P (a
binomial on an inner 2x2 block plus outside variables, or pure variable
ideals), and computes the "Fedder coefficient" of a full-support ideal --
the coefficient of prod x_i^{p-1} in omega^{p-1} -- by three independent
routes: symbolic truncated powering, brute-force point counting (chunked,
optionally on a thread pool), and a serial fibered enumeration special to the
generic 3x4 / t=3 complete intersection, which visits only three first
columns and projective classes of the other two, in passes of bounded size.

The point-count and fiber engines import numpy inside their functions, so it
loads on their first call; colon membership never loads it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .fppoly import (
    Polynomial,
    StructureError,
    TruncatedAccumulator,
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


def _omega_power(gens: IdealPresentation) -> TruncatedAccumulator:
    """omega^{p-1} mod m^[p], where omega is the product of the generators."""
    omega = Polynomial.one(gens.space, gens.char)
    for g in gens.generators:
        omega = truncated_mul(omega, g)
    return TruncatedAccumulator.power(omega, gens.char - 1)


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


def fedder_ci_check(gens: IdealPresentation, p: Optional[int] = None) -> FedderVerdict:
    """Decide F-purity of a complete intersection: omega^{p-1} != 0 mod m^[p].

    p is gens.char.  The optional second argument is the older two-argument
    call, still made by perfbench/tests/test_tracer.py; it must equal it.
    """
    if p is not None and p != gens.char:
        raise StructureError(f"p = {p} is not the generators' characteristic {gens.char}")
    _require_ci(gens, "the Fedder check")
    return _survivor_verdict(_omega_power(gens))


def glassbrenner_witness_check(c: Polynomial, gens: IdealPresentation) -> FedderVerdict:
    """Check c * omega^{p-1} != 0 mod m^[p] for one witness c.

    A pass certifies the F-regularity condition for c at q = p; a failure is
    only inconclusive, since the criterion asks for some Frobenius power q.
    """
    _require_ci(gens, "the Glassbrenner witness check")
    return _survivor_verdict(_omega_power(gens).mul_poly(c))


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
    f: Polynomial, prime: "MinimalPrime"
) -> Optional[ColonMembershipCertificate]:
    """Decide whether f lies in (omega_P^{p-1}) + P^[p] for a structured prime P.

    p is the characteristic of f.  The generators of P are a binomial b on an
    inner variable block plus all outside variables (or pure variables).
    Modulo the p-th powers of the outside variables, the ring splits as a
    tensor product of the inner and outer variables, so membership is decided
    exactly:

      1. terms with an outside-variable exponent >= p lie in P^[p];
      2. pure-variable primes: every remaining term must be divisible by
         prod_{x in P} x^{p-1};
      3. binomial primes: group remaining terms by their outer monomial mu;
         the cofactor of the unique admissible mu = prod x^{p-1} must be
         divisible by b^{p-1}, every other cofactor by b^p.
    """
    p = f.char
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
    gens: IdealPresentation, method: str = "truncated", threads: int = 1
) -> int:
    """Coefficient of prod x_i^{p-1} in omega^{p-1} mod p, for deg(omega) = v.

    With deg(omega) equal to the variable count v, the full-support monomial
    is the only one that can survive truncation, and the coefficient c obeys

        c = (-1)^v * sum_{a in F_p^v} omega(a)^{p-1}
          = (-1)^v * #{a : omega(a) != 0}   (mod p),

    since nonzero values of omega contribute 1 by Fermat.  Methods:
    "truncated" computes omega^{p-1} symbolically, "pointcount" enumerates
    F_p^v on `threads` threads, and "fiber" (generic 3x4, t = 3 only, serial)
    counts admissible fourth columns per block of the first three columns by
    inclusion-exclusion on the ranks of three linear forms, enumerating only
    three representative first columns (row scaling and row permutations fix
    the count of every other one) and projective classes of columns 2 and 3
    (column scaling fixes it too).
    """
    _require_ci(gens, "the Fedder coefficient")
    p = gens.char
    v = gens.space.count
    total_deg = sum(g.total_degree() for g in gens.generators)
    if total_deg != v:
        raise ValueError(
            f"deg(omega) = {total_deg} must equal the variable count {v} "
            "for the full-support coefficient"
        )
    sign = 1 if v % 2 == 0 else -1
    if method == "truncated":
        return _omega_power(gens).coeff((p - 1,) * v)
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
        count = fiber_count_3x4(p)
        return (sign * count) % p
    raise ValueError(f"unknown method {method!r}")


# -- brute-force point counting ---------------------------------------------


def _eval_terms_on_digits(terms, digits, p):
    import numpy as np

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
    import numpy as np

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


POINTCOUNT_CHUNK = 1 << 20  # points per array chunk, and per task on a thread


def count_nonvanishing(gens: IdealPresentation, p: int, threads: int = 1) -> int:
    """#{a in F_p^v : no generator vanishes at a}, by chunked enumeration."""
    v = gens.space.count
    total = p**v
    gen_terms = [list(g.items()) for g in gens.generators]
    chunk = POINTCOUNT_CHUNK
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
#
# Scaling a row by a unit multiplies every 3x3 permanent by that unit, and
# permuting the rows leaves them unchanged, so B's count depends on its first
# column only through how many zeros it has.  Only the representatives
# (1,1,1), (1,1,0) and (1,0,0) are counted, standing for (p-1)^3, 3(p-1)^2
# and 3(p-1) first columns; an all-zero first column gives perm(B) = 0.
#
# Scaling column 2 or 3 of B by a unit scales perm(B) and the forms that
# involve that column, which changes neither perm(B) != 0 nor any rank; a zero
# column gives perm(B) = 0.  So columns 2 and 3 each run over the p^2 + p + 1
# normalized points of the projective plane (first nonzero coordinate 1), and
# each pair of points stands for (p-1)^2 blocks.

FIBER_PASS = 1 << 20  # column pairs per array pass; bounds the engine's memory


def _projective_class_count(p: int, column) -> int:
    """Admissible fourth columns summed over projective classes of columns 2, 3.

    `column` is the first column (B00, B10, B20) of B; columns 2 and 3 run
    over normalized points of P^2(F_p), so the count over all of F_p^3 x F_p^3
    is (p-1)^2 times the returned sum.
    """
    import numpy as np

    a, b, c = column
    dtype = np.int32 if 3 * (p - 1) ** 2 < 2**31 else np.int64
    points = np.array(
        [(1, x, y) for x in range(p) for y in range(p)]
        + [(0, 1, y) for y in range(p)]
        + [(0, 0, 1)],
        dtype=dtype,
    ).T
    n = points.shape[1]
    p3, p2 = p**3, p * p

    def pair_minors(fa, fb):
        return [
            (fa[0] * fb[1] - fa[1] * fb[0]) % p,
            (fa[0] * fb[2] - fa[2] * fb[0]) % p,
            (fa[1] * fb[2] - fa[2] * fb[1]) % p,
        ]

    total = 0
    for start in range(0, n * n, FIBER_PASS):
        idx = np.arange(start, min(start + FIBER_PASS, n * n))
        d01, d11, d21 = points[:, idx // n]
        d02, d12, d22 = points[:, idx % n]
        # forms for column pair (1, 2): row k removed
        f12 = [
            (d11 * d22 + d12 * d21) % p,
            (d01 * d22 + d02 * d21) % p,
            (d01 * d12 + d02 * d11) % p,
        ]
        alive = (a * f12[0] + b * f12[1] + c * f12[2]) % p != 0
        d01, d11, d21, d02, d12, d22 = (d[alive] for d in (d01, d11, d21, d02, d12, d22))
        f12 = [f[alive] for f in f12]
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
        nz = [(f[0] + f[1] + f[2]) > 0 for f in forms]
        pairs = [(0, 1), (0, 2), (1, 2)]
        minors = {pr: pair_minors(forms[pr[0]], forms[pr[1]]) for pr in pairs}
        m12 = minors[(1, 2)]
        det3 = (f01[0] * m12[2] - f01[1] * m12[1] + f01[2] * m12[0]) % p

        count = np.full(d01.shape, p3, dtype=np.int64)
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
        total += int(count.sum())
    return total


def fiber_count_3x4(p: int) -> int:
    """#{A in F_p^{3x4} : all four 3x3 permanents nonzero}, exactly.

    Sums the three representative first columns (with 0, 1 or 2 zeros) over
    projective classes of columns 2 and 3, in passes of FIBER_PASS pairs, and
    weights each by the number of blocks it stands for.
    """
    classes = (
        ((1, 1, 1), (p - 1) ** 3),
        ((1, 1, 0), 3 * (p - 1) ** 2),
        ((1, 0, 0), 3 * (p - 1)),
    )
    return (p - 1) ** 2 * sum(w * _projective_class_count(p, col) for col, w in classes)
