"""Frobenius-power criteria over F_p.

For an ideal I generated by a regular sequence with product omega, the colon
ideal (I^[p] : I) equals (omega^{p-1}) + I^[p], so F-purity (Fedder) is
omega^{p-1} not in m^[p], which reduces it to truncated polynomial
arithmetic at the Frobenius power q = p, with p the characteristic of the
generators; a squarefree leading monomial of omega decides it without any
power.  The module also computes the "Fedder coefficient" of a full-support
ideal -- the coefficient of prod x_i^{p-1} in omega^{p-1} -- by brute-force
point counting (every point of F_p^v, a block of lo points packed into the
lanes of a Python int per hi row, refused when its tables and masks would
pass MAX_POINTCOUNT_ENTRIES lanes or its points MAX_POINTCOUNT_POINTS).
When deg(omega) = v, omega^{p-1} mod m^[p] is that coefficient times
prod x_i^{p-1}, so the survivor of the Fedder check carries the same
coefficient, found without counting a point.  For the generic 3x4 / t=3
complete intersection a fibered enumeration counts the same points from
three first columns, one point of each orbit of their stabilizer on the
projective classes of column 2 and every class of column 3, and is refused
when those classes would pass MAX_FIBER_PAIRS column pairs.  Every route
runs on the calling thread.

The CLI check `fpure` runs the truncated route or the point count;
`check_fpure` refuses an `fpure` job off the complete-intersection
whitelist before any generator is built.  The scan `conjecture45` runs the
fiber count only and builds no generator.

Membership in the colon ideals (omega_P^{p-1}) + P^[p] of the minimal primes
of P_2 lives in `colon`; `colon_membership` stays reachable here.  It and
the truncated arithmetic of `truncated` load on first use, so the count
routes compile neither.

Only the truncated routes import numpy, inside the kernel of `truncated`,
and only for a chain of products that reaches truncated.ARRAY_PAIRS term
pairs.  The point count and the fiber engine run on Python ints and never
load it.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Optional

from . import _lazy_attributes
from .fppoly import Polynomial, StructureError, leading_term, mono_mul, render_poly
from .report import LemmaReport, make_report
from .shapes import (IdealPresentation, MatrixShape, _is_known_complete_intersection,
                     permanental_generators)

# Names of other modules, each loaded with its module on first use.
# perfbench/tracer.py binds colon_membership here; only
# perfbench/tests/test_tracer.py reads truncated_mul.
__getattr__ = _lazy_attributes(__name__, {
    "truncated_mul": "truncated",
    "colon_membership": "colon",
})


def _omega_power(gens: IdealPresentation):
    """omega^{p-1} mod m^[p], as a TruncatedAccumulator, where omega is the
    product of the generators."""
    from .truncated import TruncatedAccumulator, truncated_mul

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
    return None if power.is_zero else leading_term(power.to_polynomial())


# ---------------------------------------------------------------------------
# the Fedder coefficient of a full-support complete intersection
# ---------------------------------------------------------------------------


def fedder_coefficient_fullsupport(gens: IdealPresentation) -> int:
    """Coefficient of prod x_i^{p-1} in omega^{p-1} mod p, for deg(omega) = v.

    With deg(omega) equal to the variable count v, the full-support monomial
    is the only one that can survive truncation, and the coefficient c obeys

        c = (-1)^v * sum_{a in F_p^v} omega(a)^{p-1}
          = (-1)^v * #{a : omega(a) != 0}   (mod p),

    since nonzero values of omega contribute 1 by Fermat.  The points are
    counted by `count_nonvanishing`, without loading numpy.
    """
    check_fullsupport(gens)
    p = gens.char
    return (-1) ** gens.space.count * count_nonvanishing(gens, p) % p


def check_fullsupport(gens: IdealPresentation) -> None:
    """Raise ValueError wherever fedder_coefficient_fullsupport(gens) would
    refuse, without counting anything: not a complete intersection,
    deg(omega) != v, and the size bounds of the point count."""
    _require_ci(gens, "the Fedder coefficient")
    v = gens.space.count
    total_deg = sum(g.total_degree() for g in gens.generators)
    if total_deg != v:
        raise ValueError(
            f"deg(omega) = {total_deg} must equal the variable count {v} "
            "for the full-support coefficient"
        )
    _check_pointcount_size(gens, gens.char)


# -- the verification jobs ----------------------------------------------------


def verify_fpure(gens: IdealPresentation, method: str = "truncated") -> LemmaReport:
    """CLI check `fpure`: the Fedder criterion for a whitelisted complete
    intersection P_t, given as the presentation `check_fpure` admits.

    The default route is `fedder_ci_check`: a squarefree leading monomial of
    omega certifies F-purity at every p without a power (the generic,
    symmetric and Hankel hypersurfaces), and otherwise omega^{p-1} is
    computed by truncated powering.  "pointcount" goes through
    `fedder_coefficient_fullsupport`, counted on Python ints without numpy.
    It needs the product omega of the generators to have degree equal to
    the variable count: then omega^{p-1} mod m^[p] is a multiple of
    prod x_i^{p-1}, so F-purity is that coefficient being nonzero, and the
    survivor of the default route is that coefficient times prod x_i^{p-1}.
    """
    t0 = time.perf_counter()
    shape, p = gens.shape, gens.char
    params = {"shape": shape.spec_string(), "m": shape.nrows, "n": shape.ncols,
              "t": gens.t, "p": p, "e": 1, "method": method}
    if method == "truncated":
        survivor = fedder_ci_check(gens)
    else:
        coeff = fedder_coefficient_fullsupport(gens)
        survivor = ((p - 1,) * shape.space.count, coeff) if coeff else None
    passed = survivor is not None
    evidence = {
        "generators": len(gens.generators),
        "duplicates": len(gens.duplicates),
        "passed": passed,
        "survivor": None
        if survivor is None
        else render_poly(Polynomial.monomial(shape.space, p, *survivor)),
    }
    return make_report("fpure", params, passed, evidence, t0)


def check_fpure(shape: MatrixShape, t: int, p: int, method: str) -> IdealPresentation:
    """The presentation of P_t over F_p that verify_fpure checks, or
    ValueError where it would refuse, without counting; the CLI runs it for
    every prime of a list before the first check.  A shape and t off the
    complete-intersection whitelist, or a t out of range, are refused before
    any generator is built.  A truncated power's size is only known once
    omega is built, so the primes before one refused for it still run."""
    if not _is_known_complete_intersection(shape, t):
        raise ValueError("the Fedder check requires a complete-intersection presentation")
    gens = permanental_generators(shape, t, char=p)
    if method != "truncated":
        check_fullsupport(gens)
    return gens


def scan_three_by_four_fpurity(p_list) -> LemmaReport:
    """CLI check `conjecture45`: Fedder coefficient of the generic 3x4 / t=3
    complete intersection across primes, compared with the p = 1 mod 6 rule.

    The four maximal permanents form a whitelisted complete intersection
    with deg(omega) = 12 = v, so the coefficient is (-1)^v times the
    fiber count mod p (see `fedder_coefficient_fullsupport`); no generator
    is built."""
    t0 = time.perf_counter()
    p_list = list(p_list)
    params = {"shape": "generic:3x4", "m": 3, "n": 4, "t": 3, "method": "fiber",
              "p": ",".join(str(p) for p in p_list), "e": 1}
    for p in p_list:  # refuse an oversized prime before the first count
        _check_fiber_size(p)
    v = MatrixShape.generic(3, 4).variable_count
    per_p = []
    all_ok = True
    for p in p_list:
        coeff = (-1) ** v * fiber_count_3x4(p) % p
        fpure = coeff != 0
        predicted = p % 6 == 1
        ok = fpure == predicted
        all_ok = all_ok and ok
        per_p.append(
            {"p": p, "coefficient": coeff, "fpure": fpure, "predicted_fpure": predicted, "ok": ok}
        )
    return make_report("conjecture45", params, all_ok, {"per_p": per_p}, t0)


# -- brute-force point counting ---------------------------------------------
#
# The v variables split into a hi half (the first v - v // 2) and a lo half
# (the last v // 2, empty when v = 1), so F_p^v is a grid of hi points (rows)
# by lo points, and every term is coeff * hi-monomial * lo-monomial.  Point i
# of F_p^k has base-p digit j of i as its j-th coordinate.
#
# The lo points run in blocks of p^b, the most that POINTCOUNT_CHUNK holds:
# the first b lo coordinates vary inside a block, the others are fixed per
# block.  A block packs one lane of w = p.bit_length() + 1 bits per point
# into a Python int.  For each lo monomial restricted to the first b lo
# coordinates and each unit c, the lanes c * m(x) mod p are packed once.  On
# a hi row of a block every term is one of these tables times a unit: its
# coefficient times its hi monomial on the row times the rest of its lo
# monomial on the block.  A generator's values are the sum of its terms'
# tables, reduced after each add by a SWAR conditional subtraction: two
# reduced lanes sum below 2p < 2^w, and adding 2^(w-1) - p to every lane sets
# a lane's top bit iff it is at least p.  Adding 2^(w-1) - 1 sets the top bit
# of each nonzero lane; the generators' masks are ANDed and their bits
# counted.  Python ints do not overflow, so the count is exact at every p.
#
# A generator's values on a row depend only on its hi monomials' values
# there, so within a block its mask is computed once per distinct tuple of
# them, and rows whose tuples coincide for every generator share one count.
# Every one of the p^v points is still evaluated from the terms and no
# symmetry of the ideal is used, which is what makes the count an independent
# oracle.

POINTCOUNT_CHUNK = 1 << 12  # most lanes in a block of lo points (a block has at least one)
# Most packed lanes a count holds: the tables (p - 1 unit multiples of every
# block monomial and of its prefixes, built once) plus one block's masks (at
# most p^h per generator with h hi variables).  A lane takes w bits, so this
# is 16 MB of lanes at p = 5 or 7 and at most 128 MB, at p near 2^31.
MAX_POINTCOUNT_ENTRIES = 1 << 25
# Most points a count visits: about 9 s at the 5 * 10^8 points/s that
# generic 3x4 at p = 5 (5^12 points, 0.5 s) counts on one thread of a 2-core
# VM, and 6 s at the 7 * 10^8 of generic 2x3 at p = 37 (3.5 s).  Generic 2x3
# at p = 41 is refused.
MAX_POINTCOUNT_POINTS = 1 << 32


def _block_exponent(p: int, k_lo: int) -> int:
    """b: a block holds the p^b points of the first b of the k_lo lo
    coordinates, the most that POINTCOUNT_CHUNK admits."""
    b = 0
    while b < k_lo and p ** (b + 1) <= POINTCOUNT_CHUNK:
        b += 1
    return b


def _check_pointcount_size(gens: IdealPresentation, p: int) -> int:
    """The block exponent b of a point count at p (see `_block_exponent`).
    Refuses a count past MAX_POINTCOUNT_ENTRIES packed lanes or
    MAX_POINTCOUNT_POINTS points, before any table is built."""
    v = gens.space.count
    k_hi = v - v // 2
    b = _block_exponent(p, v // 2)
    lows = {m[k_hi:k_hi + b] for g in gens.generators for m, _ in g.items()}
    prefixes = {m[:j] for m in lows for j in range(b + 1)}
    masks = sum(
        p ** sum(any(m[j] for m, _ in g.items()) for j in range(k_hi)) for g in gens.generators
    )
    entries = (p - 1) * sum(p ** len(q) for q in prefixes) + masks * p**b
    if entries > MAX_POINTCOUNT_ENTRIES:
        raise ValueError(
            f"point count at p = {p} needs {entries} packed lanes of tables and masks, "
            f"more than {MAX_POINTCOUNT_ENTRIES}"
        )
    if p**v > MAX_POINTCOUNT_POINTS:
        raise ValueError(
            f"point count at p = {p} visits {p**v} points, more than {MAX_POINTCOUNT_POINTS}"
        )
    return b


def _value_list(mono, p: int) -> list:
    """Values mod p of the monomial at the points 0 .. p^k - 1 of F_p^k,
    k = len(mono), one Kronecker step per coordinate."""
    values = [1]
    for e in mono:
        if e:
            powers = [pow(x, e, p) for x in range(p)]
            values = [y * z % p for y in powers for z in values]
        else:
            values = values * p
    return values


def _packed_tables(monos, p: int, w: int) -> dict:
    """For each monomial m of `monos` and each of its prefixes, the list over
    c = 0 .. p-1 of the int packing c * m(x) mod p into lane x, w bits a
    lane, one Kronecker step per coordinate."""
    tables = {(): list(range(p))}

    def build(m):
        if m not in tables:
            inner = build(m[:-1])
            shift = w * p ** (len(m) - 1)
            powers = [pow(x, m[-1], p) for x in range(p)]
            tables[m] = [
                sum(inner[c * y % p] << (x * shift) for x, y in enumerate(powers))
                for c in range(p)
            ]
        return tables[m]

    for m in monos:
        build(m)
    return tables


def count_nonvanishing(gens: IdealPresentation, p: int) -> int:
    """#{a in F_p^v : no generator vanishes at a}, by evaluating all p^v points.

    F_p^v is split into hi rows times blocks of lo points, each block packed
    one point a lane into Python ints (see above), so the count is exact at
    every p.  More than MAX_POINTCOUNT_ENTRIES packed lanes of tables and one
    block's masks, or more than MAX_POINTCOUNT_POINTS points, raises
    ValueError before any table is built.  The blocks run one after another
    and keep only their own masks, so memory does not grow with the block
    count.  Runs on Python ints only.
    """
    b = _check_pointcount_size(gens, p)
    v = gens.space.count
    k_hi = v - v // 2
    k_out = k_hi + b  # the lo coordinates from here on are fixed per block
    w = p.bit_length() + 1
    ones = ((1 << w * p**b) - 1) // ((1 << w) - 1)  # 1 in every lane
    lift, nonzero, top = ones * ((1 << w - 1) - p), ones * ((1 << w - 1) - 1), ones << w - 1

    hi_values: dict = {}
    generators, row_ids = [], []
    for g in gens.generators:
        terms = [(m[:k_hi], m[k_hi:k_out], m[k_out:], c) for m, c in g.items()]
        for hi, _, _, _ in terms:
            if hi not in hi_values:
                hi_values[hi] = _value_list(hi, p)
        ids: dict = {}
        row_ids.append([ids.setdefault(k, len(ids)) for k in zip(*(hi_values[t[0]] for t in terms))])
        generators.append((list(ids), terms))
    del hi_values
    rows = Counter(zip(*row_ids))
    del row_ids
    tables = _packed_tables({t[1] for _, terms in generators for t in terms}, p, w)
    out_values = {t[2]: _value_list(t[2], p) for _, terms in generators for t in terms}

    total = 0
    for block in range(p ** (v - k_out)):
        masks = []
        for keys, terms in generators:
            scaled = [(tables[lo], c * out_values[out][block] % p) for _, lo, out, c in terms]
            gen_masks = []
            for key in keys:
                acc = 0
                for h, (table, s) in zip(key, scaled):
                    c = h * s % p
                    if not c:
                        continue
                    if acc:
                        acc += table[c]
                        acc -= (((acc + lift) & top) >> w - 1) * p
                    else:
                        acc = table[c]
                gen_masks.append((acc + nonzero) & top)
            masks.append(gen_masks)
        for ids, count in rows.items():
            mask = -1
            for gen_masks, i in zip(masks, ids):
                mask &= gen_masks[i]
            total += count * mask.bit_count()
    return total


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
#
# The row moves that fix the first column -- swapping two rows with equal
# entries, scaling a row whose entry is 0 -- act on columns 2 and 3 together
# and keep every count, so column 2 runs over one representative of each
# orbit of that stabilizer on the projective plane, weighted by the orbit's
# size, and column 3 over every point.
#
# With columns 1 and 2 fixed, perm(B) = l . d2 for the column-(0,1) form l,
# so the p^2 points d2 off the line l . d2 = 0 are alive (none when l = 0).
# An alive pair has all three forms nonzero, since perm(B) is also g . d1 and
# h . column for the column-(0,2) form g and the column-(1,2) form h.  Where
# det(l, g, h) != 0 the forms are independent and (p-1)^3 fourth columns are
# admissible.  g and h are linear in d2, so that determinant is a quadratic
# form Q(d2); only the points of the conic Q = 0 are counted by ranks.

# Most column pairs (p^2 + p + 1)^2 a fiber count visits per first column,
# before the orbits are taken.  The orbit engine counts p = 73 in 1.0 s,
# p = 79 in 1.6 s, p = 101 in 3.1 s and p = 107 in 3.7 s on one thread of a
# 2-core VM.  p = 107 is accepted and p = 109 refused.
MAX_FIBER_PAIRS = 1 << 27


def _pair_forms(u, w) -> tuple:
    """The 2x2 permanents of the columns u, w (in F_p^3) with row k removed,
    k = 0, 1, 2, as exact integers."""
    return (u[1] * w[2] + u[2] * w[1], u[0] * w[2] + u[2] * w[0], u[0] * w[1] + u[1] * w[0])


def _normalized_points(p: int) -> list:
    """The p^2 + p + 1 points of P^2(F_p) with first nonzero coordinate 1."""
    return (
        [(1, x, y) for x in range(p) for y in range(p)]
        + [(0, 1, y) for y in range(p)]
        + [(0, 0, 1)]
    )


def _stabilizer_orbits(p: int, column) -> list:
    """The orbits of the normalized points of P^2(F_p) under the row moves
    that fix `column`: the transpositions (i j) with column[i] == column[j]
    and the scalings of each row i with column[i] == 0 by a generator of
    F_p^*.  Each orbit is a list of points, its representative first."""
    inverse = [0] + [pow(x, p - 2, p) for x in range(1, p)]
    generator = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    moves = []  # (source row of each coordinate, factor of each coordinate)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if column[i] == column[j]:
            rows = [0, 1, 2]
            rows[i], rows[j] = j, i
            moves.append((rows, (1, 1, 1)))
    for i in range(3):
        if column[i] == 0:
            factors = [1, 1, 1]
            factors[i] = generator
            moves.append(([0, 1, 2], factors))
    seen = set()
    orbits = []
    for point in _normalized_points(p):
        if point in seen:
            continue
        seen.add(point)
        orbit = [point]
        for q in orbit:  # grows while it is walked
            for rows, factors in moves:
                image = [f * q[r] % p for r, f in zip(rows, factors)]
                unit = inverse[next(x for x in image if x)]
                image = tuple(x * unit % p for x in image)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append(orbit)
    return orbits


def _independent(u, w, p: int) -> bool:
    """Whether the rows u, w are linearly independent over F_p."""
    return bool(
        (u[0] * w[1] - u[1] * w[0]) % p
        or (u[0] * w[2] - u[2] * w[0]) % p
        or (u[1] * w[2] - u[2] * w[1]) % p
    )


def _rank_deficient_count(p: int, l, g, h) -> int:
    """Admissible fourth columns for three nonzero forms with det = 0: by
    inclusion-exclusion, p^3 - 3p^2 + (p or p^2 per pair, as it is
    independent or not) - (p at rank 2, p^2 at rank 1)."""
    pairs = _independent(l, g, p) + _independent(l, h, p) + _independent(g, h, p)
    return p**3 - 3 * p * p + pairs * p + (3 - pairs) * p * p - (p if pairs else p * p)


def _projective_class_count(p: int, column) -> int:
    """Admissible fourth columns summed over projective classes of columns 2, 3.

    `column` is the first column (B00, B10, B20) of B; columns 2 and 3 run
    over normalized points of P^2(F_p), so the count over all of F_p^3 x F_p^3
    is (p-1)^2 times the returned sum.  Column 2 runs over the orbits of the
    stabilizer of `column`, column 3 over every point, a row (u, v, *) of the
    plane at a time.
    """
    full = (p - 1) ** 3
    heads = [(1, x) for x in range(p)] + [(0, 1)]
    squares = [(y, y * y) for y in range(p)]
    total = 0
    for orbit in _stabilizer_orbits(p, column):
        d1 = orbit[0]
        l = tuple(x % p for x in _pair_forms(column, d1))
        if not any(l):
            continue  # perm(B) = l . d2 = 0 for every d2

        def q(d2):  # det(l, g, h), exactly
            g, h = _pair_forms(column, d2), _pair_forms(d1, d2)
            return (
                l[0] * (g[1] * h[2] - g[2] * h[1])
                - l[1] * (g[0] * h[2] - g[2] * h[0])
                + l[2] * (g[0] * h[1] - g[1] * h[0])
            )

        # Q(d2) = sum_{i <= j} c_ij d2_i d2_j, read off by polarization
        c00, c11, c22 = q((1, 0, 0)), q((0, 1, 0)), q((0, 0, 1))
        c01, c02, c12 = q((1, 1, 0)) - c00 - c11, q((1, 0, 1)) - c00 - c22, q((0, 1, 1)) - c11 - c22
        c22 %= p
        conic = [] if c22 else [(0, 0, 1)]
        for u, v in heads:  # Q(u, v, y) = head + slope * y + c22 * y^2
            head = (c00 * u * u + c01 * u * v + c11 * v * v) % p
            slope = (c02 * u + c12 * v) % p
            conic += [(u, v, y) for y, yy in squares if not (head + slope * y + c22 * yy) % p]
        count = p * p * full  # every alive d2 off the conic
        for d2 in conic:
            if (l[0] * d2[0] + l[1] * d2[1] + l[2] * d2[2]) % p:
                g, h = _pair_forms(column, d2), _pair_forms(d1, d2)
                count += _rank_deficient_count(p, l, g, h) - full
        total += len(orbit) * count
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
    projective classes of columns 2 and 3, and weights each by the number of
    blocks it stands for.  More than MAX_FIBER_PAIRS pairs raises ValueError
    before the first count.
    """
    _check_fiber_size(p)
    classes = (
        ((1, 1, 1), (p - 1) ** 3),
        ((1, 1, 0), 3 * (p - 1) ** 2),
        ((1, 0, 0), 3 * (p - 1)),
    )
    return (p - 1) ** 2 * sum(w * _projective_class_count(p, col) for col, w in classes)
