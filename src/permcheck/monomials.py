"""The checks `monomials28` and `monomials29`: products of entries of a
generic matrix that lie in P_2, the ideal of its 2x2 permanents.

Permuting rows and columns maps P_2 to itself.  Every monomials29 target is
in the S_m x S_n orbit of x11^2*x22*x33, and every monomials28 target is in
the orbit of x11*x12*x23 or of its transpose x11*x21*x32.
`_squared_entry_triples` and `_entry_triples` generate each target once, as
its representative and the row and column maps that carry the
representative onto it.  Each representative has a stored identity over
Z[1/2], `_IDENTITIES`, that writes it as a sum of 2x2 block permanents
times one-monomial multipliers; at a prime p, 1/2 is (p + 1)/2.  The
identity is moved to every target of the orbit: each variable x_rc to
x_{row_map[r] col_map[c]}, and each block permanent to the permanent of the
moved block, x_ac*x_bd + x_ad*x_bc for rows a, b and columns c, d.  Every
moved identity is re-multiplied against its own target by one
`fppoly.mul_sum` on packed terms.  No linear system is solved: the tests
prove the identities over Z and compare them with the certificates that
`linmember` solves.  This module loads neither `frobcheck`, `hankel` nor
`linmember`.
"""

from __future__ import annotations

import itertools
import math
import time

from .fppoly import _shifts, check_prime, mul_sum, render_poly, unpack_terms
from .report import LemmaReport, make_report
from .shapes import MatrixShape


# Most targets of a monomials28/29 job, refused from m and n before its
# first target.  On a 2-core Xeon VM at p = 3, monomials29 at 10x10
# (259,200 targets, admitted) took 3.1-5.2 s over four runs and monomials28
# at 12x12 (174,240) 1.8-2.3 s, each at 15 MB peak RSS, as no target set is
# held; monomials28 at 13x13 (267,696) and monomials29 at 11x11 (490,050)
# are refused.
MAX_TARGETS = 1 << 18

# Each representative, cells (row, column, exponent) from 0, with its
# identity over Z[1/2] as (block rows, block columns, multiplier cells,
# twice the coefficient): twice the representative is the sum of twice the
# coefficient times the product of the cells times the block permanent.
# Below, g[ab;cd] = x_ac*x_bd + x_ad*x_bc, with indices from 1.
_IDENTITIES = {
    # x11^2*x22*x33 = x11*x33*g[12;12] - 1/2*x12*x21*g[13;13]
    #                 - 1/2*x11*x21*g[13;23] + 1/2*x13*x21*g[13;12]
    ((0, 0, 2), (1, 1, 1), (2, 2, 1)): (
        ((0, 1), (0, 1), ((0, 0), (2, 2)), 2),
        ((0, 2), (0, 2), ((0, 1), (1, 0)), -1),
        ((0, 2), (1, 2), ((0, 0), (1, 0)), -1),
        ((0, 2), (0, 1), ((0, 2), (1, 0)), 1),
    ),
    # x11*x12*x23 = 1/2*x12*g[12;13] + 1/2*x11*g[12;23] - 1/2*x13*g[12;12]
    ((0, 0, 1), (0, 1, 1), (1, 2, 1)): (
        ((0, 1), (0, 2), ((0, 1),), 1),
        ((0, 1), (1, 2), ((0, 0),), 1),
        ((0, 1), (0, 1), ((0, 2),), -1),
    ),
    # x11*x21*x32 = 1/2*x21*g[13;12] + 1/2*x11*g[23;12] - 1/2*x31*g[12;12]
    ((0, 0, 1), (1, 0, 1), (2, 1, 1)): (
        ((0, 2), (0, 1), ((1, 0),), 1),
        ((1, 2), (0, 1), ((0, 0),), 1),
        ((0, 1), (0, 1), ((2, 0),), -1),
    ),
}


def _refuse_oversized(check: str, shape: MatrixShape, targets: int) -> None:
    """ValueError when `targets` targets of `shape` pass MAX_TARGETS,
    before the first target or `shape.space` is built."""
    if targets > MAX_TARGETS:
        raise ValueError(f"{check} of {shape.spec_string()} has {targets} targets, "
                         f"more than {MAX_TARGETS}")


def _block_permanent(at, rows, cols) -> dict:
    """x_ac*x_bd + x_ad*x_bc for rows (a, b) and columns (c, d), as packed
    terms, where at[r][c] is the bit offset of x_rc's exponent field."""
    (a, b), (c, d) = rows, cols
    return {(1 << at[a][c]) + (1 << at[b][d]): 1, (1 << at[a][d]) + (1 << at[b][c]): 1}


def _move(identity, at, half: int) -> list:
    """A representative's identity as (multiplier, block permanent) pairs of
    packed terms, moved onto the target where x_rc of the representative
    has bit offset at[r][c], each coefficient twice its value times `half`."""
    return [({sum(1 << at[r][c] for r, c in cells): twice * half}, _block_permanent(at, rows, cols))
            for rows, cols, cells, twice in identity]


def _entry_products_in_p2(
    check: str, shape: MatrixShape, p: int, targets, degree: int
) -> LemmaReport:
    """Shared body of `monomials28` / `monomials29`: every target of
    targets(m, n), each a (representative, row map, column map), lies in P_2
    of the generic m x n matrix, by its representative's identity moved
    onto it and re-multiplied.  ValueError unless p is an odd prime."""
    check_prime(p)
    t0 = time.perf_counter()
    m, n = shape.nrows, shape.ncols
    params = {"shape": shape.spec_string(), "m": m, "n": n, "p": p}
    # exponents stay at most `degree` in every product of an identity
    width = degree.bit_length()
    shifts = _shifts(m * n, width)
    half = (p + 1) // 2  # 1/2 mod p
    count = 0
    for rep, row_map, col_map in targets(m, n):
        count += 1
        at = [[shifts[r * n + c] for c in col_map] for r in row_map]
        target = sum(e << at[r][c] for r, c, e in rep)
        if mul_sum(_move(_IDENTITIES[rep], at, half), p) != {target: 1}:
            raise RuntimeError("a moved identity does not re-multiply to its target "
                               + render_poly(unpack_terms({target: 1}, shape.space, p, width)))
    evidence = {"targets": count, "members": count, "failures": []}
    return make_report(check, params, True, evidence, t0)


def _entry_triples(m: int, n: int):
    """Every product of three entries from three distinct columns and two
    distinct rows (n >= 3), and of the transpose configuration (m >= 3),
    once, as (representative, row map, column map).  x11*x12*x23 goes onto
    a column triple with its shared row, its single row and the single
    row's position in the triple; x11*x21*x32 onto a row triple likewise."""
    rep = ((0, 0, 1), (0, 1, 1), (1, 2, 1))
    for triple in itertools.combinations(range(n), 3):
        for k in range(3):
            cols = triple[:k] + triple[k + 1:] + triple[k:k + 1]
            for rows in itertools.permutations(range(m), 2):
                yield rep, rows, cols
    rep = ((0, 0, 1), (1, 0, 1), (2, 1, 1))
    for triple in itertools.combinations(range(m), 3):
        for k in range(3):
            rows = triple[:k] + triple[k + 1:] + triple[k:k + 1]
            for cols in itertools.permutations(range(n), 2):
                yield rep, rows, cols


def _entry_triple_count(m: int, n: int) -> int:
    """The number of `_entry_triples` of the generic m x n matrix: C(n, 3)
    column triples times the 3m(m - 1) row words that use exactly two
    rows, and the transpose."""
    return math.comb(n, 3) * 3 * m * (m - 1) + math.comb(m, 3) * 3 * n * (n - 1)


def _squared_entry_triples(m: int, n: int):
    """Every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3} with distinct rows and
    distinct columns, once, as x11^2*x22*x33 with its row and column maps:
    ordered row and column triples, the unsquared entries in row order."""
    rep = ((0, 0, 2), (1, 1, 1), (2, 2, 1))
    for rows in itertools.permutations(range(m), 3):
        if rows[1] < rows[2]:
            for cols in itertools.permutations(range(n), 3):
                yield rep, rows, cols


def _squared_entry_triple_count(m: int, n: int) -> int:
    """The number of `_squared_entry_triples` of the generic m x n matrix:
    ordered row and column triples, halved because swapping the two
    unsquared entries gives the same monomial."""
    return math.perm(m, 3) * math.perm(n, 3) // 2


def verify_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials28`: every product of three entries from three
    distinct columns and two distinct rows (n >= 3), or the transpose
    configuration (m >= 3), lies in P_2."""
    if not (n >= 3 and m >= 2 or m >= 3 and n >= 2):
        raise ValueError("the entry triples need n >= 3 and m >= 2, or m >= 3 and n >= 2")
    shape = MatrixShape.generic(m, n)
    _refuse_oversized("monomials28", shape, _entry_triple_count(m, n))
    return _entry_products_in_p2("monomials28", shape, p, _entry_triples, 3)


def verify_squared_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials29`: every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3}
    with distinct rows and distinct columns lies in P_2."""
    if m < 3 or n < 3:
        raise ValueError("the squared-entry products need m, n >= 3")
    shape = MatrixShape.generic(m, n)
    _refuse_oversized("monomials29", shape, _squared_entry_triple_count(m, n))
    return _entry_products_in_p2("monomials29", shape, p, _squared_entry_triples, 4)
