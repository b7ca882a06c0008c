"""The checks `monomials28` and `monomials29`: products of entries of a
generic m x n matrix X that lie in P_2, the ideal of its 2x2 permanents.

Every monomials29 target is in the S_m x S_n orbit of x11^2*x22*x33, and
every monomials28 target in that of x11*x12*x23 (n >= 3, m >= 2) or of
x11*x21*x32 (m >= 3, n >= 2).  `_IDENTITIES` writes each representative
over Z[1/2] as 2x2 permanents of its 2x3, 3x2 or 3x3 block times
monomials.  That proves its whole orbit: the block's P_2 lies in P_2(X),
row and column permutations carry 2x2 permanents of X to 2x2 permanents,
so they preserve P_2(X), and the only denominator is 2, a unit at every
odd prime p, where 1/2 is (p + 1)/2.  So at each prime each representative
with a target is re-multiplied once by `fppoly.mul_sum`, and the targets
are counted by closed forms; no target or m x n variable space is built.
This module loads neither `frobcheck`, `hankel` nor `linmember`.
"""

from __future__ import annotations

import math
import time

from .fppoly import _shifts, check_prime, mul_sum
from .report import LemmaReport, make_report

SQUARED, ROW_TRIPLE, COLUMN_TRIPLE = (
    ((0, 0, 2), (1, 1, 1), (2, 2, 1)), ((0, 0, 1), (0, 1, 1), (1, 2, 1)),
    ((0, 0, 1), (1, 0, 1), (2, 1, 1)))
# Each representative, cells (row, column, exponent) from 0, to its identity:
# terms (block rows, block columns, multiplier cells, twice the coefficient),
# and g[ab;cd] = x_ac*x_bd + x_ad*x_bc below, with indices from 1.
_IDENTITIES = {
    # x11^2*x22*x33 = x11*x33*g[12;12] - 1/2*x12*x21*g[13;13]
    #                 - 1/2*x11*x21*g[13;23] + 1/2*x13*x21*g[13;12]
    SQUARED: (((0, 1), (0, 1), ((0, 0), (2, 2)), 2), ((0, 2), (0, 2), ((0, 1), (1, 0)), -1),
              ((0, 2), (1, 2), ((0, 0), (1, 0)), -1), ((0, 2), (0, 1), ((0, 2), (1, 0)), 1)),
    # x11*x12*x23 = 1/2*x12*g[12;13] + 1/2*x11*g[12;23] - 1/2*x13*g[12;12]
    ROW_TRIPLE: (((0, 1), (0, 2), ((0, 1),), 1), ((0, 1), (1, 2), ((0, 0),), 1),
                 ((0, 1), (0, 1), ((0, 2),), -1)),
    # x11*x21*x32 = 1/2*x21*g[13;12] + 1/2*x11*g[23;12] - 1/2*x31*g[12;12]
    COLUMN_TRIPLE: (((0, 2), (0, 1), ((1, 0),), 1), ((1, 2), (0, 1), ((0, 0),), 1),
                    ((0, 1), (0, 1), ((2, 0),), -1)),
}


def _block_permanent(at, rows, cols) -> dict:
    """g[ab;cd] as packed terms, x_rc's exponent field at bit at[r][c]."""
    (a, b), (c, d) = rows, cols
    return {(1 << at[a][c]) + (1 << at[b][d]): 1, (1 << at[a][d]) + (1 << at[b][c]): 1}


def _entry_products_in_p2(check: str, m: int, n: int, p: int, reps, count: int) -> LemmaReport:
    """Shared body of `monomials28` / `monomials29`: the `count` targets of
    the generic m x n matrix lie in P_2 if each of `reps` has its identity
    re-multiply to it at p, on x11..x33 (else RuntimeError)."""
    check_prime(p)
    t0 = time.perf_counter()
    shifts = _shifts(9, 3)  # no exponent passes the degree, 3 or 4
    at = [shifts[3 * r:3 * r + 3] for r in range(3)]
    half = (p + 1) // 2  # 1/2 mod p
    for rep in reps:
        products = [({sum(1 << at[r][c] for r, c in cells): twice * half},
                     _block_permanent(at, rows, cols))
                    for rows, cols, cells, twice in _IDENTITIES[rep]]
        if mul_sum(products, p) != {sum(e << at[r][c] for r, c, e in rep): 1}:
            name = "*".join(f"x{r + 1}{c + 1}" + f"^{e}" * (e > 1) for r, c, e in rep)
            raise RuntimeError(f"the stored identity does not re-multiply to {name} at p = {p}")
    params = {"shape": f"generic:{m}x{n}", "m": m, "n": n, "p": p}
    evidence = {"targets": count, "members": count, "failures": []}
    return make_report(check, params, True, evidence, t0)


def _entry_triple_count(m: int, n: int) -> int:
    """monomials28's targets: C(n, 3) column triples times the 3m(m - 1)
    row words that use exactly two rows, and the transpose."""
    return math.comb(n, 3) * 3 * m * (m - 1) + math.comb(m, 3) * 3 * n * (n - 1)


def _squared_entry_triple_count(m: int, n: int) -> int:
    """monomials29's targets: ordered row and column triples, halved since
    swapping the two unsquared entries gives the same monomial."""
    return math.perm(m, 3) * math.perm(n, 3) // 2


def verify_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials28`: every product of three entries from three
    distinct columns and two distinct rows (n >= 3), or the transpose
    configuration (m >= 3), lies in P_2."""
    reps = [ROW_TRIPLE] * (n >= 3 and m >= 2) + [COLUMN_TRIPLE] * (m >= 3 and n >= 2)
    if not reps:
        raise ValueError("the entry triples need n >= 3 and m >= 2, or m >= 3 and n >= 2")
    return _entry_products_in_p2("monomials28", m, n, p, reps, _entry_triple_count(m, n))


def verify_squared_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials29`: every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3}
    with distinct rows and distinct columns lies in P_2."""
    if m < 3 or n < 3:
        raise ValueError("the squared-entry products need m, n >= 3")
    return _entry_products_in_p2("monomials29", m, n, p, [SQUARED],
                                 _squared_entry_triple_count(m, n))
