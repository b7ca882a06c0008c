"""Shared independent oracles and random generators for the test suite."""

import itertools
from collections import namedtuple
from typing import Optional, Sequence

from permcheck.fppoly import Polynomial, StructureError, VariableSpace, exact_divide
from permcheck.frobcheck import _split_term
from permcheck import linmember
from permcheck.linmember import SizeGuardError


def brute_permanent(mat, rows, cols, char):
    """Permutation-sum symbolic permanent; the oracle for the DP version."""
    rows, cols = tuple(rows), tuple(cols)
    space = mat.space
    total = Polynomial.zero(space, char)
    for perm in itertools.permutations(range(len(cols))):
        term = Polynomial.one(space, char)
        for i, j in enumerate(perm):
            term = term * Polynomial.variable(space, char, mat.entry(rows[i], cols[j]))
        total = total + term
    return total


def _truncated_mul_dict(a: Polynomial, b: Polynomial) -> Polynomial:
    """Pairwise dict-loop truncated product; the oracle for the packed kernel."""
    p = bound = a.char
    out: dict = {}
    ta, tb = a._terms, b._terms
    if len(ta) < len(tb):
        ta, tb = tb, ta
    for m2, c2 in tb.items():
        for m1, c1 in ta.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if any(e >= bound for e in m):
                continue
            s = (out.get(m, 0) + c1 * c2) % p
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return Polynomial._make(a.space, p, out)


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


def in_frobenius_power(h: Polynomial, prime: "MinimalPrime", p: Optional[int] = None) -> bool:
    """Decide h in P^[p] structurally (same tensor split as colon_membership)."""
    if p is None:
        p = h.char
    var_gens = set(prime.variable_gens)
    remaining = [(m, c) for m, c in h.items() if not any(m[i] >= p for i in var_gens)]
    if prime.block is None:
        return not remaining
    b_p = prime.binomial(p) ** p
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


def prime_contains(prime: "MinimalPrime", g: Polynomial) -> bool:
    """Decide g in P structurally: drop terms with an outside variable, the
    rest must be a polynomial multiple of the binomial (or zero)."""
    var_gens = set(prime.variable_gens)
    remaining = [(m, c) for m, c in g.items() if not any(m[i] >= 1 for i in var_gens)]
    if not remaining:
        return True
    if prime.block is None:
        return False
    rest = Polynomial(g.space, g.char, remaining)
    return exact_divide(rest, prime.binomial(g.char)) is not None


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
