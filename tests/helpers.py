"""Shared independent oracles and random generators for the test suite."""

import itertools
from collections import namedtuple
from typing import Optional, Sequence

from operator import add

from permcheck.colon import MinimalPrime
from permcheck.fppoly import (Polynomial, StructureError, VariableSpace, exact_divide, mono_mul,
                              truncate, unpack_terms)
from permcheck.frobcheck import _omega_power, _require_ci
from permcheck import linmember
from permcheck.linmember import SizeGuardError


def brute_permanent(shape, rows, cols, char):
    """Permutation-sum symbolic permanent, one monomial per permutation built
    from its exponents; the oracle for the DP version."""
    rows, cols = tuple(rows), tuple(cols)
    terms = []
    for perm in itertools.permutations(range(len(cols))):
        exps = [0] * shape.space.count
        for i, j in enumerate(perm):
            exps[shape.entry_index(rows[i], cols[j])] += 1
        terms.append((exps, 1))
    return Polynomial(shape.space, char, terms)


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pairwise product on exponent tuples, summed in a dict; the oracle for
    Polynomial.__mul__ and fppoly.mul_sum, which run on packed keys."""
    p = a.char
    out: dict = {}
    for m2, c2 in b.items():
        for m1, c1 in a.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return Polynomial(a.space, p, out)


def _truncated_mul_dict(a: Polynomial, b: Polynomial) -> Polynomial:
    """The reference product truncated mod m^[p]; the oracle for the packed kernel."""
    return truncate(reference_mul(a, b))


def random_poly(rng, space, p, max_terms=5, max_exp=3, allow_zero=True):
    n_terms = rng.randrange(0 if allow_zero else 1, max_terms + 1)
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randrange(max_exp + 1) for _ in range(space.count))
        terms[mono] = rng.randrange(1, p)
    return Polynomial(space, p, terms)


def random_point(rng, space, p):
    return tuple(rng.randrange(p) for _ in range(space.count))


def evaluate(a: Polynomial, point) -> int:
    """Value of a at a point of F_p^v, term by term; the point-count oracle."""
    point = tuple(point)
    if len(point) != a.space.count:
        raise StructureError(f"point has {len(point)} entries, expected {a.space.count}")
    p = a.char
    point = tuple(x % p for x in point)
    total = 0
    for mono, c in a.items():
        t = c
        for x, e in zip(point, mono):
            if e:
                t = (t * pow(x, e, p)) % p
        total = (total + t) % p
    return total


def small_space(v, prefix="z"):
    return VariableSpace(tuple(f"{prefix}{i + 1}" for i in range(v)))


def rank_mod_p(rows, p):
    """Rank of a small matrix over F_p by Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _fiber_block_count_scalar(p, index):
    """Admissible fourth columns for one 3x3 block, by scalar rank arithmetic.

    The oracle for frobcheck's fiber engine: index is the block's position in
    column-major lexicographic order, digit B00 most significant.
    """
    digs = []
    rest = index
    for _ in range(9):
        digs.append(rest % p)
        rest //= p
    digs.reverse()  # digs[0] = B00 (most significant), column-major
    B = [[digs[3 * j + i] for j in range(3)] for i in range(3)]

    def perm2(rows, cols):
        (r1, r2), (c1, c2) = rows, cols
        return (B[r1][c1] * B[r2][c2] + B[r1][c2] * B[r2][c1]) % p

    col_pairs = [(0, 1), (0, 2), (1, 2)]
    C = [[perm2([r for r in range(3) if r != k], pair) for k in range(3)] for pair in col_pairs]
    perm = sum(B[k][0] * C[2][k] for k in range(3)) % p
    if perm == 0:
        return 0
    total = 0
    for subset in range(8):
        rows = [C[t] for t in range(3) if subset >> t & 1]
        r = rank_mod_p(rows, p) if rows else 0
        sign = -1 if bin(subset).count("1") % 2 else 1
        total += sign * p ** (3 - r)
    return total


def _fiber_range_scalar(p, start, stop):
    return sum(_fiber_block_count_scalar(p, i) for i in range(start, stop))


# The unreduced oracle for frobcheck's fiber engine: the p^6 blocks of one
# first column, every column 2 and 3 enumerated, no projective reduction.
# Column blocks are indexed as in _fiber_block_count_scalar, hi = the first
# column's three digits (B00 most significant).
class _FiberKernel:
    """Vectorized per-column-block counting.

    One "column block" is the set of p^6 indices sharing the first three
    digits (the first column of B).  The parts depending only on the last two
    columns -- the digit arrays and the forms for column pair (1, 2) -- are
    precomputed once and shared (read-only) by every count_colblock call.
    """

    def __init__(self, p: int):
        import numpy as np

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
        import numpy as np

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


# The numpy reference for frobcheck.count_nonvanishing: the same hi x lo
# split of the variables, but each generator's values on a block of hi rows
# are sum_t H[t] (x) L[t] for H[t] = coeff_t * hi-monomial_t mod p on the rows
# and L[t] = lo-monomial_t mod p on all lo points: T outer products of entries
# below p, summed exactly in an unsigned dtype that holds T * (p-1)^2.
#
# A sum x below 2^b is divisible by the odd prime p iff x * p^{-1} mod 2^b is
# at most (2^b - 1) // p, since multiplying by p^{-1} permutes Z/2^b and sends
# the multiples k*p to the k (Granlund & Montgomery, PLDI 1994, section 9).
# One wrapping multiply and one compare replace `% p`, numpy's slowest step.

NUMPY_POINTCOUNT_CHUNK = 1 << 17  # points per block of hi rows (at least one row)


def pointcount_dtype(terms: int, p: int):
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


def monomial_value_array(monos, p, count):
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


def count_hi_block(tables, p, start, stop):
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


def numpy_count_nonvanishing(gens, p: int) -> int:
    """#{a in F_p^v : no generator vanishes at a} on numpy, by blocks of
    about NUMPY_POINTCOUNT_CHUNK points (at least one hi row); the oracle for
    frobcheck.count_nonvanishing."""
    import numpy as np

    dtype = pointcount_dtype(max(len(g) for g in gens.generators), p)
    v = gens.space.count
    k_hi = v - v // 2
    n_hi, n_lo = p**k_hi, p ** (v // 2)
    tables = []
    for g in gens.generators:
        monos, coeffs = zip(*g.items())
        coeffs = np.array(coeffs, dtype=np.int64)[:, None]
        hi = monomial_value_array([mono[:k_hi] for mono in monos], p, n_hi) * coeffs % p
        lo = monomial_value_array([mono[k_hi:] for mono in monos], p, n_lo)
        tables.append((hi.astype(dtype), lo.astype(dtype)))
    rows = max(1, NUMPY_POINTCOUNT_CHUNK // n_lo)
    return sum(count_hi_block(tables, p, s, min(s + rows, n_hi)) for s in range(0, n_hi, rows))


def permanent_eval(values: Sequence[Sequence[int]], p: int) -> int:
    """Numeric permanent over F_p by Ryser inclusion-exclusion; the oracle for
    symbolic permanents evaluated at points.

    Column subsets are visited in Gray-code order so each step updates the
    row sums in O(s).
    """
    a = [list(row) for row in values]
    s = len(a)
    if any(len(row) != s for row in a):
        raise ValueError("matrix is not square")
    if s == 0:
        return 1
    row_sums = [0] * s
    total = 0
    prev_gray = 0
    sign = -1 if s % 2 else 1
    for counter in range(1, 1 << s):
        gray = counter ^ (counter >> 1)
        j = (prev_gray ^ gray).bit_length() - 1
        if gray & (1 << j):
            for i in range(s):
                row_sums[i] = (row_sums[i] + a[i][j]) % p
        else:
            for i in range(s):
                row_sums[i] = (row_sums[i] - a[i][j]) % p
        prev_gray = gray
        prod = 1
        for r in row_sums:
            prod = (prod * r) % p
            if prod == 0:
                break
        if prod:
            k = bin(gray).count("1")
            total = (total + (-1) ** k * prod) % p
    return (sign * total) % p


def permanent_eval_naive(values: Sequence[Sequence[int]], p: int) -> int:
    """Permutation-sum permanent; the independent oracle for small sizes."""
    a = [list(row) for row in values]
    s = len(a)
    total = 0
    for perm in itertools.permutations(range(s)):
        prod = 1
        for i, j in enumerate(perm):
            prod = (prod * a[i][j]) % p
        total = (total + prod) % p
    return total % p if s else 1


def permanent_eval_dp(values: Sequence[Sequence[int]], p: int) -> int:
    """Column-subset DP permanent on numbers (same recurrence as `permanent`)."""
    a = [list(row) for row in values]
    s = len(a)
    if s == 0:
        return 1
    dp = [0] * (1 << s)
    dp[0] = 1
    for mask in range(1, 1 << s):
        k = bin(mask).count("1") - 1
        acc = 0
        for j in range(s):
            if mask & (1 << j):
                acc += a[k][j] * dp[mask ^ (1 << j)]
        dp[mask] = acc % p
    return dp[(1 << s) - 1]


def prime_binomial(prime: MinimalPrime, char: int) -> Optional[Polynomial]:
    """The binomial x^u + x^w of a minimal prime, or None for a prime of variables."""
    if prime.binomial is None:
        return None
    u, w = prime.binomial
    return Polynomial(prime.space, char, [(u, 1), (w, 1)])


def prime_generators(prime: MinimalPrime, char: int) -> list:
    """The prime's generators: its binomial (if any), then its variables."""
    b = prime_binomial(prime, char)
    variables = [Polynomial.variable(prime.space, char, i) for i in prime.variable_gens]
    return variables if b is None else [b] + variables


def prime_omega(prime: MinimalPrime, char: int) -> Polynomial:
    """The product of the prime's generators, a regular sequence."""
    out = Polynomial.one(prime.space, char)
    for g in prime_generators(prime, char):
        out = out * g
    return out


def in_frobenius_power(h: Polynomial, prime: MinimalPrime, p: Optional[int] = None) -> bool:
    """Decide h in P^[p] structurally (same tensor split as colon_membership)."""
    if p is None:
        p = h.char
    var_gens = set(prime.variable_gens)
    remaining = [(m, c) for m, c in h.items() if not any(m[i] >= p for i in var_gens)]
    if prime.binomial is None:
        return not remaining
    b_p = prime_binomial(prime, p) ** p
    groups: dict = {}
    for mono, coeff in remaining:
        inner, outer = _split_term(mono, var_gens)
        groups.setdefault(outer, []).append((inner, coeff))
    for outer, terms in groups.items():
        cofactor = Polynomial(h.space, p, terms)
        if cofactor.is_zero:
            continue
        if exact_divide(cofactor, b_p) is None:
            return False
    return True


def prime_contains(prime: MinimalPrime, g: Polynomial) -> bool:
    """Decide g in P structurally: drop terms with an outside variable, the
    rest must be a polynomial multiple of the binomial (or zero)."""
    var_gens = set(prime.variable_gens)
    remaining = [(m, c) for m, c in g.items() if not any(m[i] >= 1 for i in var_gens)]
    if not remaining:
        return True
    if prime.binomial is None:
        return False
    rest = Polynomial(g.space, g.char, remaining)
    return exact_divide(rest, prime_binomial(prime, g.char)) is not None


# -- colon membership on exponent tuples: the oracle for the packed colon ------


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


def colon_membership_tuples(f: Polynomial, prime: MinimalPrime) -> Optional[tuple]:
    """The entries (multiplier, ideal_element) of the certificate of f in
    (omega_P^{p-1}) + P^[p], or None: `colon.colon_membership` on exponent
    tuples and Polynomials, as it was before it moved to packed keys."""
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
        return tuple(entries)

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
    return tuple(entries)


def certificate_polynomials(cert) -> tuple:
    """The entries of a packed ColonMembershipCertificate as Polynomial pairs."""
    def unpack(terms):
        return unpack_terms(terms, cert.space, cert.char, cert.width)

    return tuple((unpack(m), unpack(e)) for m, e in cert.entries)


def glassbrenner_witness_check(c: Polynomial, gens) -> Optional[tuple]:
    """Check c * omega^{p-1} != 0 mod m^[p] for one witness c of a complete
    intersection `gens`; the second engine for F-regularity certificates.

    Returns the GRLEX leading term of the survivor, or None.  A survivor
    certifies the F-regularity condition for c at q = p; None is only
    inconclusive, since the criterion asks for some Frobenius power q.
    """
    _require_ci(gens, "the Glassbrenner witness check")
    power = _omega_power(gens).mul_poly(c)
    return None if power.is_zero else power.leading_term()


# -- one-target degree-bounded membership: the oracle for members_bounded -----


def _is_homogeneous(poly) -> bool:
    degrees = {sum(m) for m, _ in poly.items()}
    return len(degrees) <= 1


def monomials_of_degree(v: int, d: int):
    """All exponent tuples of total degree exactly d, lexicographically."""
    if v == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(v - 1, d - first):
            yield (first,) + rest


def monomials_up_to(v: int, d: int):
    for deg in range(d + 1):
        yield from monomials_of_degree(v, deg)


_SingleSystem = namedtuple("_SingleSystem", "row_labels col_labels matrix rhs p")


def _build_system_single(target, generators, degree_bound):
    """Assemble the membership system; rows are restricted to monomials that
    occur in the target or in some column (absent rows are trivially zero)."""
    space = target.space
    p = target.char
    v = space.count
    d = degree_bound
    graded = _is_homogeneous(target) and all(
        _is_homogeneous(g) for g in generators
    )
    target_deg = target.total_degree()

    col_labels = []
    col_polys = []
    for gi, g in enumerate(generators):
        dg = g.total_degree()
        if dg > d:
            continue
        if graded:
            if target_deg < dg:
                continue
            multipliers = monomials_of_degree(v, target_deg - dg)
        else:
            multipliers = monomials_up_to(v, d - dg)
        for mult in multipliers:
            col_labels.append((gi, mult))
            col_polys.append({tuple(a + b for a, b in zip(mult, m)): c for m, c in g.items()})

    row_index: dict = {}
    row_labels: list = []

    def row_of(mono):
        ri = row_index.get(mono)
        if ri is None:
            ri = len(row_labels)
            row_index[mono] = ri
            row_labels.append(mono)
        return ri

    for mono, _ in target.sorted_terms():
        row_of(mono)
    cells = []
    for ci, poly in enumerate(col_polys):
        for mono, c in poly.items():
            cells.append((row_of(mono), ci, c))
    if len(row_labels) * max(len(col_labels), 1) > linmember.MAX_MATRIX_ENTRIES:
        raise SizeGuardError(len(row_labels), len(col_labels))
    matrix = [dict() for _ in row_labels]
    for ri, ci, c in cells:
        matrix[ri][ci] = c
    rhs = [0] * len(row_labels)
    for mono, c in target.items():
        rhs[row_index[mono]] = c
    return _SingleSystem(row_labels, col_labels, matrix, rhs, p)


def _gaussian_solve_single(system) -> Optional[list]:
    """Any solution of the sparse system, or None if inconsistent.

    Deterministic pivoting: the next pivot is the first nonzero entry in
    row-major order among unpivoted rows; elimination clears the pivot column
    from every other row, and free variables are set to 0.
    """
    p = system.p
    rows = [dict(r) for r in system.matrix]
    rhs = list(system.rhs)
    ncols = len(system.col_labels)
    col_members = [set() for _ in range(ncols)]
    for ri, row in enumerate(rows):
        for c in row:
            col_members[c].add(ri)
    pivot_rows = set()
    pivots = []
    while True:
        pr = next((ri for ri in range(len(rows)) if ri not in pivot_rows and rows[ri]), None)
        if pr is None:
            break
        pc = min(rows[pr])
        inv = pow(rows[pr][pc], p - 2, p)
        if inv != 1:
            rows[pr] = {c: (val * inv) % p for c, val in rows[pr].items()}
            rhs[pr] = (rhs[pr] * inv) % p
        pivot_rows.add(pr)
        pivots.append((pr, pc))
        for ri in list(col_members[pc]):
            if ri == pr:
                continue
            factor = (-rows[ri][pc]) % p
            target = rows[ri]
            for c, val in rows[pr].items():
                nv = (target.get(c, 0) + factor * val) % p
                if nv:
                    if c not in target:
                        col_members[c].add(ri)
                    target[c] = nv
                else:
                    if c in target:
                        del target[c]
                        col_members[c].discard(ri)
            rhs[ri] = (rhs[ri] + factor * rhs[pr]) % p
    for ri, row in enumerate(rows):
        if not row and rhs[ri]:
            return None
    solution = [0] * ncols
    for pr, pc in pivots:
        solution[pc] = rhs[pr]
    return solution


def member_bounded_single(target, generators, degree_bound) -> Optional[dict]:
    """Multipliers {generator index: h} with sum h_g * g = target, or None.

    A returned combination always re-multiplies exactly to the target (checked
    here, unconditionally).  None certifies non-membership only up to the
    degree bound.
    """
    system = _build_system_single(target, generators, degree_bound)
    solution = _gaussian_solve_single(system)
    if solution is None:
        return None
    space = target.space
    p = target.char
    multiplier_terms: dict = {}
    for (gi, mult), value in zip(system.col_labels, solution):
        if value:
            multiplier_terms.setdefault(gi, []).append((mult, value))
    combination = {
        gi: Polynomial(space, p, terms) for gi, terms in multiplier_terms.items()
    }
    total = Polynomial.zero(space, p)
    for gi, h in combination.items():
        total = total + h * generators[gi]
    if total != target:
        raise RuntimeError("solver returned a combination that does not re-multiply to the target")
    return combination


def entry_triples(shape) -> set:
    """The exponents of every product of three entries from three distinct
    columns and two distinct rows (n >= 3), and of the transpose
    configuration (m >= 3), by brute force over row and column words; the
    oracle for `monomials._entry_triples`."""
    m, n = shape.nrows, shape.ncols
    exponents = set()

    def add(rows, cols):
        exps = [0] * shape.space.count
        for r, c in zip(rows, cols):
            exps[shape.entry_index(r, c)] += 1
        exponents.add(tuple(exps))

    if n >= 3:
        for cols in itertools.combinations(range(n), 3):
            for rows in itertools.product(range(m), repeat=3):
                if len(set(rows)) == 2:
                    add(rows, cols)
    if m >= 3:
        for rows in itertools.combinations(range(m), 3):
            for cols in itertools.product(range(n), repeat=3):
                if len(set(cols)) == 2:
                    add(rows, cols)
    return exponents


def squared_entry_triples(shape) -> set:
    """The exponents of every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3} with
    distinct rows and distinct columns, by brute force over ordered row and
    column triples; the oracle for `monomials._squared_entry_triples`."""
    exponents = set()
    for rows in itertools.permutations(range(shape.nrows), 3):
        for cols in itertools.permutations(range(shape.ncols), 3):
            exps = [0] * shape.space.count
            exps[shape.entry_index(rows[0], cols[0])] += 2
            exps[shape.entry_index(rows[1], cols[1])] += 1
            exps[shape.entry_index(rows[2], cols[2])] += 1
            exponents.add(tuple(exps))
    return exponents
