"""Frobenius-power criteria over F_p.

For an ideal I generated by a regular sequence with product omega, the colon
ideal (I^[p] : I) equals (omega^{p-1}) + I^[p], so F-purity (Fedder) is
omega^{p-1} not in m^[p], which reduces it to truncated polynomial
arithmetic at the Frobenius power q = p, with p the characteristic of the
generators; a squarefree leading monomial of omega decides it without any
power.  The module also decides membership in (omega_P^{p-1}) + P^[p]
for the minimal primes P of P_2 (variables, plus a binomial x^u + x^w on an
inner 2x2 block unless P is generated by variables only), and computes the
"Fedder coefficient" of a full-support ideal -- the coefficient of
prod x_i^{p-1} in omega^{p-1} -- by three independent routes: symbolic
truncated powering, brute-force point counting (a hi-table times lo-table
product per block of hi points, refused when the tables would pass
MAX_POINTCOUNT_ENTRIES or the points MAX_POINTCOUNT_POINTS), and a fibered
enumeration special to the generic 3x4 / t=3 complete intersection, which
visits only three first columns and projective classes of the other two, in
passes of bounded size, and is refused when those classes would pass
MAX_FIBER_PAIRS column pairs.  Every route runs on the calling thread.

The point-count and fiber engines import numpy inside their functions, so it
loads on their first call; the truncated routes load it only for a chain of
products that reaches fppoly.ARRAY_PAIRS term pairs, and colon membership
never.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple, Optional

from .fppoly import (
    Polynomial,
    StructureError,
    TruncatedAccumulator,
    VariableSpace,
    leading_term,
    mono_mul,
    truncated_mul,
)
from .shapes import GENERIC, IdealPresentation


def _omega_power(gens: IdealPresentation) -> TruncatedAccumulator:
    """omega^{p-1} mod m^[p], where omega is the product of the generators."""
    omega = Polynomial.one(gens.space, gens.char)
    for g in gens.generators:
        omega = truncated_mul(omega, g)
    return TruncatedAccumulator.power(omega, gens.char - 1)


def _require_ci(gens: IdealPresentation, what: str):
    if not gens.complete_intersection:
        raise ValueError(f"{what} requires a complete-intersection presentation")


def fedder_ci_check(gens: IdealPresentation, p: Optional[int] = None) -> Optional[tuple]:
    """Decide F-purity of a complete intersection: omega^{p-1} != 0 mod m^[p].

    Returns the GRLEX leading term (monomial, coefficient) of omega^{p-1} mod
    m^[p], or None when it vanishes (not F-pure).  p is gens.char.  The
    optional second argument is the older two-argument call, still made by
    perfbench/tests/test_tracer.py; it must equal it.

    When the leading monomial LT(omega) = prod LT(g) is squarefree, that is
    the answer and no power is taken.  GRLEX is a monomial order, so
    LT(omega^{p-1}) = LT(omega)^{p-1}, with coefficient lc(omega)^{p-1} = 1
    by Fermat.  Its exponents are at most p - 1, so it lies outside m^[p],
    and truncation only removes monomials, so it stays the GRLEX maximum of
    omega^{p-1} mod m^[p].  The generic, symmetric and Hankel n x n
    hypersurfaces take this route at every p, so they are F-pure for every
    p: LT(omega) is the diagonal product x_11 x_22 ... x_nn, y_11 ... y_nn
    or z_1 z_3 ... z_{2n-1}.  Otherwise omega^{p-1} is computed.
    """
    if p is not None and p != gens.char:
        raise StructureError(f"p = {p} is not the generators' characteristic {gens.char}")
    _require_ci(gens, "the Fedder check")
    p = gens.char
    lead = (0,) * gens.space.count
    for g in gens.generators:
        lead = mono_mul(lead, leading_term(g)[0])
    if max(lead, default=0) <= 1:
        return tuple((p - 1) * e for e in lead), 1
    power = _omega_power(gens)
    return None if power.is_zero else power.leading_term()


# ---------------------------------------------------------------------------
# colon-ideal membership for the minimal primes of P_2
# ---------------------------------------------------------------------------


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


class ColonMembershipCertificate(NamedTuple):
    """A decomposition of f as a combination of colon-ideal generators.

    Each entry is a (multiplier, ideal_element) pair of polynomials whose
    ideal_element is a generator of the colon ideal: x_i^p for a variable
    generator x_i, b^p, or omega_P^{p-1}.  `colon_membership` writes one
    entry per generator it uses, so at most |V| + 2.  Replaying them (summing
    multiplier * ideal_element) reconstructs f exactly, which checks the
    certificate independently of how it was built.
    """

    entries: tuple

    def replay(self, space, char) -> Polynomial:
        """The sum of multiplier * ideal_element, accumulated in one dict."""
        total: dict = {}
        for multiplier, ideal_element in self.entries:
            for poly in (multiplier, ideal_element):
                if poly.space != space or poly.char != char:
                    raise StructureError("a certificate entry lives in another space")
            for m2, c2 in ideal_element.items():
                for m1, c1 in multiplier.items():
                    m = tuple(map(add, m1, m2))
                    total[m] = total.get(m, 0) + c1 * c2
        return Polynomial._make(
            space, char, {m: c % char for m, c in total.items() if c % char}
        )


def _split_term(mono, outer_set):
    """(rest, outer): mono with the exponents in outer_set zeroed, and mono
    with every other exponent zeroed."""
    rest = tuple(0 if i in outer_set else e for i, e in enumerate(mono))
    outer = tuple(e if i in outer_set else 0 for i, e in enumerate(mono))
    return rest, outer


def _closed_form_pm1(u, w, p: int) -> dict:
    """The term dict of b^{p-1} for b = x^u + x^w over F_p, without products.

    C(p-1, j) = (-1)^j mod p gives b^{p-1} = sum_{j=0}^{p-1} (-1)^j
    x^{ju + (p-1-j)w}, whose p monomials are distinct because u != w.
    """
    return {
        tuple(j * x + (p - 1 - j) * y for x, y in zip(u, w)): 1 if j % 2 == 0 else p - 1
        for j in range(p)
    }


def _times_binomial(terms: dict, u, w, p: int) -> dict:
    """The term dict of sum(terms) * (x^u + x^w)."""
    out: dict = {}
    for mono, coeff in terms.items():
        for shift in (u, w):
            m = tuple(map(add, mono, shift))
            out[m] = (out.get(m, 0) + coeff) % p
    return {m: c for m, c in out.items() if c}


def _divide_by_binomial(terms: dict, u, w, p: int) -> Optional[dict]:
    """The quotient of sum(terms) by x^u + x^w as a term dict, or None.

    u and w must have disjoint supports, as on every block.  With d = w - u
    the monomials fall into chains m0 + t*d.  On a chain the quotient's
    coefficient q_t of x^{m0 + t*d - u} obeys c_t = q_t + q_{t-1}, so one
    pass up from the chain's lowest t finds q, and the binomial divides iff
    every chain ends with q = 0.  With disjoint supports the lowest power of
    each variable in q survives in q * (x^u + x^w), so q has no negative
    exponent when the product is a polynomial.  The cost is linear in the
    terms plus the quotient.
    """
    d = tuple(y - x for x, y in zip(u, w))
    k = next(i for i, e in enumerate(d) if e > 0)  # a variable of w
    chains: dict = {}
    for mono, coeff in terms.items():
        t = mono[k] // d[k]
        base = tuple(e - t * s for e, s in zip(mono, d))
        chains.setdefault(base, {})[t] = coeff
    quotient = {}
    for base, chain in chains.items():
        q, top = 0, max(chain)
        for t in range(min(chain), top):
            q = (chain.get(t, 0) - q) % p
            if q:
                quotient[tuple(e + t * s - x for e, s, x in zip(base, d, u))] = q
        if (chain[top] - q) % p:
            return None
    return quotient


def colon_membership(f: Polynomial, prime: MinimalPrime) -> Optional[ColonMembershipCertificate]:
    """Decide whether f lies in (omega_P^{p-1}) + P^[p] for a minimal prime P.

    p is the characteristic of f.  P is generated by variables V and, unless
    it is a prime of variables only, a binomial b = x^u + x^w in the other
    variables.  Modulo the p-th powers of V the ring splits as a tensor
    product of the variables in V and the rest, so membership is decided
    exactly:

      1. terms with an exponent >= p on a variable of V lie in P^[p]; they
         are grouped into one multiplier of x_i^p per variable x_i of V;
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
    p = f.char
    if f.space != prime.space:
        raise StructureError("f does not live in the prime's variable space")
    space = f.space
    var_set = set(prime.variable_gens)
    admissible = tuple(p - 1 if i in var_set else 0 for i in range(space.count))
    frobenius: dict = {}  # i -> multiplier of x_i^p
    cofactor: dict = {}  # the cofactor of prod_V x^{p-1}
    other: dict = {}  # every other term, a multiple of b^p for a member
    for mono, coeff in f.items():
        i = next((i for i in prime.variable_gens if mono[i] >= p), None)
        if i is not None:
            frobenius.setdefault(i, {})[mono[:i] + (mono[i] - p,) + mono[i + 1:]] = coeff
            continue
        rest, outer = _split_term(mono, var_set)
        if outer == admissible:
            cofactor[rest] = coeff
        else:
            other[mono] = coeff

    poly = lambda terms: Polynomial._make(space, p, terms)  # terms are reduced already
    entries = [
        (poly(multiplier), poly({tuple(p if j == i else 0 for j in range(space.count)): 1}))
        for i, multiplier in frobenius.items()
    ]
    if prime.binomial is None:
        if other:
            return None
        if cofactor:
            entries.append((poly(cofactor), poly({admissible: 1})))
        return ColonMembershipCertificate(tuple(entries))

    u, w = prime.binomial
    u_p, w_p = tuple(p * x for x in u), tuple(p * y for y in w)  # b^p = x^{pu} + x^{pw}
    if other:
        quotient = _divide_by_binomial(other, u_p, w_p, p)
        if quotient is None:
            return None
        entries.append((poly(quotient), poly({u_p: 1, w_p: 1})))
    if cofactor:
        # q * b^{p-1} = cofactor  iff  q * b^p = cofactor * b
        quotient = _divide_by_binomial(_times_binomial(cofactor, u, w, p), u_p, w_p, p)
        if quotient is None:
            return None
        omega_power = {mono_mul(m, admissible): c for m, c in _closed_form_pm1(u, w, p).items()}
        entries.append((poly(quotient), poly(omega_power)))
    return ColonMembershipCertificate(tuple(entries))


# ---------------------------------------------------------------------------
# the Fedder coefficient of a full-support complete intersection
# ---------------------------------------------------------------------------


def fedder_coefficient_fullsupport(gens: IdealPresentation, method: str = "truncated") -> int:
    """Coefficient of prod x_i^{p-1} in omega^{p-1} mod p, for deg(omega) = v.

    With deg(omega) equal to the variable count v, the full-support monomial
    is the only one that can survive truncation, and the coefficient c obeys

        c = (-1)^v * sum_{a in F_p^v} omega(a)^{p-1}
          = (-1)^v * #{a : omega(a) != 0}   (mod p),

    since nonzero values of omega contribute 1 by Fermat.  Methods:
    "truncated" computes omega^{p-1} symbolically, "pointcount" enumerates
    F_p^v, and "fiber" (generic 3x4, t = 3 only) counts admissible fourth
    columns per block of the first three columns by inclusion-exclusion on
    the ranks of three linear forms, enumerating only three representative
    first columns (row scaling and row permutations fix the count of every
    other one) and projective classes of columns 2 and 3 (column scaling
    fixes it too).
    """
    check_fullsupport(gens, method)
    p = gens.char
    v = gens.space.count
    if method == "truncated":
        return _omega_power(gens).coeff((p - 1,) * v)
    if method == "pointcount":
        count = count_nonvanishing(gens, p)
    else:
        count = fiber_count_3x4(p)
    return (-1) ** v * count % p


def check_fullsupport(gens: IdealPresentation, method: str) -> None:
    """Raise ValueError wherever fedder_coefficient_fullsupport(gens, method)
    would refuse, without counting anything: not a complete intersection,
    deg(omega) != v, an unknown method, a fiber count off the generic 3x4
    ideal, and the size bounds of the point-count and fiber engines.  A scan
    over several primes runs it for every prime before the first count."""
    _require_ci(gens, "the Fedder coefficient")
    v = gens.space.count
    total_deg = sum(g.total_degree() for g in gens.generators)
    if total_deg != v:
        raise ValueError(
            f"deg(omega) = {total_deg} must equal the variable count {v} "
            "for the full-support coefficient"
        )
    if method == "pointcount":
        _check_pointcount_size(gens, gens.char)
    elif method == "fiber":
        shape = gens.shape
        if (
            shape is None
            or shape.kind != GENERIC
            or (shape.nrows, shape.ncols) != (3, 4)
            or gens.t != 3
        ):
            raise ValueError("the fiber method only applies to the generic 3x4 ideal with t = 3")
        _check_fiber_size(gens.char)
    elif method != "truncated":
        raise ValueError(f"unknown method {method!r}")


# -- brute-force point counting ---------------------------------------------
#
# The v variables split into a hi half (the first v - v // 2) and a lo half
# (the last v // 2, empty when v = 1), so F_p^v is a grid of hi points (rows)
# by lo points (columns) and every term is coeff * hi-monomial * lo-monomial.
# With H[t] = coeff_t * hi-monomial_t mod p on the rows and L[t] =
# lo-monomial_t mod p on the columns, a generator's values on a block of rows
# are sum_t H[t] (x) L[t] mod p: T outer products of entries below p, summed
# exactly in an unsigned dtype that holds T * (p-1)^2.  Every one of the p^v
# points is still visited and no symmetry is used, which is what makes the
# count an independent oracle.  Element-wise numpy only: a BLAS product would
# run on OpenBLAS's pool, which the CLI sizes to one thread.
#
# A sum x below 2^b is divisible by the odd prime p iff x * p^{-1} mod 2^b is
# at most (2^b - 1) // p, since multiplying by p^{-1} permutes Z/2^b and sends
# the multiples k*p to the k (Granlund & Montgomery, PLDI 1994, section 9).
# One wrapping multiply and one compare replace `% p`, numpy's slowest step.

POINTCOUNT_CHUNK = 1 << 17  # points per block of hi rows (at least one row), the unit of work
# Largest hi plus lo table, in entries summed over the generators; the tables
# take 4 or 8 bytes an entry, so this keeps them under 64 or 128 MB.
MAX_POINTCOUNT_ENTRIES = 1 << 24
# Most points a count visits: about 25 s at the 8.5 * 10^7 points/s that
# generic 3x4 at p = 5 (5^12 points) counts on one thread of a 2-core VM.
# At p = 7 (7^12 points) that count is refused.
MAX_POINTCOUNT_POINTS = 1 << 31


def _pointcount_dtype(terms: int, p: int):
    """uint32 or uint64, whichever holds terms * (p-1)^2; ValueError if neither does."""
    import numpy as np

    bound = terms * (p - 1) ** 2
    if bound < 2**32:
        return np.uint32
    if bound < 2**64:
        return np.uint64
    raise ValueError(
        f"point count at p = {p} would overflow: {terms} terms times (p-1)^2 "
        "do not fit in 64 bits"
    )


def _monomial_values(monos, p, count):
    """Values mod p of each monomial in `monos` at points 0..count-1 of F_p^k.

    Point i has base-p digit j of i as its j-th coordinate.  Returns an int64
    array of shape (len(monos), count).
    """
    import numpy as np

    rest = np.arange(count, dtype=np.int64)
    values = np.ones((len(monos), count), dtype=np.int64)
    for j in range(len(monos[0])):
        digit = rest % p
        rest = rest // p
        for t, mono in enumerate(monos):
            for _ in range(mono[j]):
                values[t] = values[t] * digit % p
    return values


def _count_hi_block(tables, p, start, stop):
    """Points with no generator vanishing among hi rows start..stop-1."""
    import numpy as np

    dtype = tables[0][0].dtype.type
    bits = 8 * np.dtype(dtype).itemsize
    inverse, limit = dtype(pow(p, -1, 2**bits)), dtype((2**bits - 1) // p)
    acc = np.empty((stop - start, tables[0][1].shape[1]), dtype=dtype)
    product = np.empty_like(acc)
    nonzero = np.empty(acc.shape, dtype=bool)
    alive = None
    for hi, lo in tables:
        np.multiply(hi[0, start:stop, None], lo[0], out=acc)
        for t in range(1, len(lo)):
            np.multiply(hi[t, start:stop, None], lo[t], out=product)
            acc += product
        acc *= inverse
        if alive is None:
            alive = acc > limit
        else:
            np.greater(acc, limit, out=nonzero)
            alive &= nonzero
    return int(np.count_nonzero(alive))


def _check_pointcount_size(gens: IdealPresentation, p: int):
    """The table dtype of a point count at p (see `_pointcount_dtype`).
    Refuses a count past MAX_POINTCOUNT_ENTRIES table entries or
    MAX_POINTCOUNT_POINTS points."""
    dtype = _pointcount_dtype(max(len(g) for g in gens.generators), p)
    v = gens.space.count
    entries = sum(len(g) for g in gens.generators) * (p ** (v - v // 2) + p ** (v // 2))
    if entries > MAX_POINTCOUNT_ENTRIES:
        raise ValueError(
            f"point count at p = {p} needs {entries} table entries, "
            f"more than {MAX_POINTCOUNT_ENTRIES}"
        )
    if p**v > MAX_POINTCOUNT_POINTS:
        raise ValueError(
            f"point count at p = {p} visits {p**v} points, more than {MAX_POINTCOUNT_POINTS}"
        )
    return dtype


def count_nonvanishing(gens: IdealPresentation, p: int) -> int:
    """#{a in F_p^v : no generator vanishes at a}, by enumerating all p^v points.

    F_p^v is split into hi rows times lo columns (see above).  Each generator's
    values on a block of about POINTCOUNT_CHUNK points are a sum of outer
    products of its hi and lo monomial tables, exact in uint32 or uint64 as
    T * (p-1)^2 allows for the largest term count T; a count that would
    overflow 64 bits raises ValueError before anything is allocated.  The
    tables take p^{v - v//2} + p^{v//2} entries per term; more than
    MAX_POINTCOUNT_ENTRIES in all, or more than MAX_POINTCOUNT_POINTS points,
    raises ValueError before they are built.  The blocks run one after
    another, so memory does not grow with the block count.
    """
    import numpy as np

    dtype = _check_pointcount_size(gens, p)
    v = gens.space.count
    k_hi = v - v // 2
    n_hi, n_lo = p**k_hi, p ** (v // 2)
    tables = []
    for g in gens.generators:
        monos, coeffs = zip(*g.items())
        coeffs = np.array(coeffs, dtype=np.int64)[:, None]
        hi = _monomial_values([mono[:k_hi] for mono in monos], p, n_hi) * coeffs % p
        lo = _monomial_values([mono[k_hi:] for mono in monos], p, n_lo)
        tables.append((hi.astype(dtype), lo.astype(dtype)))
    rows = max(1, POINTCOUNT_CHUNK // n_lo)
    return sum(_count_hi_block(tables, p, s, min(s + rows, n_hi)) for s in range(0, n_hi, rows))


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
# Most column pairs (p^2 + p + 1)^2 a fiber count visits per first column:
# about 23 s at the 0.23 us per pair and first column measured on one thread
# of a 2-core VM (p = 53 took 5.7 s, p = 73 20 s).  p = 73 is accepted and
# p = 79 refused.
MAX_FIBER_PAIRS = 1 << 25


def _projective_class_count(p: int, column) -> int:
    """Admissible fourth columns summed over projective classes of columns 2, 3.

    `column` is the first column (B00, B10, B20) of B; columns 2 and 3 run
    over normalized points of P^2(F_p), so the count over all of F_p^3 x F_p^3
    is (p-1)^2 times the returned sum.
    """
    import numpy as np

    a, b, c = column
    # MAX_FIBER_PAIRS keeps p below 79, so 3 (p-1)^2 fits int32
    points = np.array(
        [(1, x, y) for x in range(p) for y in range(p)]
        + [(0, 1, y) for y in range(p)]
        + [(0, 0, 1)],
        dtype=np.int32,
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


def _check_fiber_size(p: int) -> None:
    """Refuse a fiber count past MAX_FIBER_PAIRS column pairs per first column."""
    pairs = (p * p + p + 1) ** 2
    if pairs > MAX_FIBER_PAIRS:
        raise ValueError(
            f"fiber count at p = {p} visits {pairs} column pairs per first column, "
            f"more than {MAX_FIBER_PAIRS}"
        )


def fiber_count_3x4(p: int) -> int:
    """#{A in F_p^{3x4} : all four 3x3 permanents nonzero}, exactly.

    Sums the three representative first columns (with 0, 1 or 2 zeros) over
    projective classes of columns 2 and 3, in passes of FIBER_PASS pairs, and
    weights each by the number of blocks it stands for.  More than
    MAX_FIBER_PAIRS pairs raises ValueError before the first pass.
    """
    _check_fiber_size(p)
    classes = (
        ((1, 1, 1), (p - 1) ** 3),
        ((1, 1, 0), 3 * (p - 1) ** 2),
        ((1, 0, 0), 3 * (p - 1)),
    )
    return (p - 1) ** 2 * sum(w * _projective_class_count(p, col) for col, w in classes)
