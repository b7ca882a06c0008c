"""The checks `monomials28` and `monomials29`: products of entries of a
generic matrix that lie in P_2, the ideal of its 2x2 permanents.

Permuting rows and columns maps P_2 to itself and keeps degrees, so it maps
the degree-bounded span that `linmember` decides to itself as well.  Every
monomials29 target is in the S_m x S_n orbit of x11^2*x22*x33, and every
monomials28 target is in the orbit of x11*x12*x23 or of its transpose
x11*x21*x32.  `_squared_entry_triples` and `_entry_triples` generate each
target once, as its representative and the row and column maps that carry
the representative onto it.  A generator term that divides a monomial uses
rows and columns of that monomial, and so does the generator's other term,
so a representative's system, and with it its certificate, stays in the
rows and columns the representative uses.  So each representative's system
is solved once per prime on its own 2x3, 3x2 or 3x3 generic shape, and the
certificate is moved to every target of the orbit: each variable x_rc to
x_{row_map[r] col_map[c]}, and each generator to the permanent of the moved
block, x_ac*x_bd + x_ad*x_bc for rows a, b and columns c, d.  Every moved
certificate is re-multiplied against its own target by one `fppoly.mul_sum`
on packed terms.  This module loads neither `frobcheck` nor `hankel`.
"""

from __future__ import annotations

import itertools
import math
import time

from .fppoly import Polynomial, _shifts, mul_sum, render_poly, unpack_terms
from .linmember import members_bounded
from .report import LemmaReport, make_report
from .shapes import MatrixShape, permanental_generators


# Most exponent entries, targets x variables, of a monomials28/29 job,
# refused from m and n before its first target.  On a 2-core Xeon VM at
# p = 3: monomials29 at 9x9 (127,008 targets, 10,287,648 entries, admitted)
# took 3.3 s and monomials28 at 10x10 (6,480,000) 1.0 s, each at 15 MB
# peak RSS, as no target set is held; monomials28 at 12x12 (25,090,560) is
# refused, as is monomials29 at 10x10 (25,920,000).
MAX_TARGET_ENTRIES = 1 << 24


def _refuse_oversized(check: str, shape: MatrixShape, targets: int) -> None:
    """ValueError when `targets` targets of `shape` pass MAX_TARGET_ENTRIES,
    before the first target or `shape.space` is built."""
    variables = shape.variable_count
    if targets * variables > MAX_TARGET_ENTRIES:
        raise ValueError(f"{check} of {shape.spec_string()} has {targets} targets in {variables} "
                         f"variables, more than {MAX_TARGET_ENTRIES} exponent entries")


def _block_permanent(at, rows, cols) -> dict:
    """x_ac*x_bd + x_ad*x_bc for rows (a, b) and columns (c, d), as packed
    terms, where at[r][c] is the bit offset of x_rc's exponent field."""
    (a, b), (c, d) = rows, cols
    return {(1 << at[a][c]) + (1 << at[b][d]): 1, (1 << at[a][d]) + (1 << at[b][c]): 1}


def _certificate(rep, p: int, degree: int):
    """The certificate of a representative, cells (row, column, exponent),
    solved on the generic shape of the rows and columns it uses:
    [(block rows, block columns, [(cells, coefficient)])] over the 2x2
    blocks whose permanents it multiplies, or None if the representative is
    not in P_2 at the degree."""
    nrows, ncols = (1 + max(cell[k] for cell in rep) for k in (0, 1))
    shape = MatrixShape.generic(nrows, ncols)
    exps = [0] * shape.variable_count
    for r, c, e in rep:
        exps[r * ncols + c] = e
    gens = permanental_generators(shape, 2, char=p).generators  # blocks in this order
    blocks = [(rows, cols) for rows in itertools.combinations(range(nrows), 2)
              for cols in itertools.combinations(range(ncols), 2)]
    [comb] = members_bounded([Polynomial.monomial(shape.space, p, exps)], gens, degree)
    return None if comb is None else [
        (*blocks[gi],
         [([(i // ncols, i % ncols, e) for i, e in enumerate(mono) if e], c) for mono, c in h.items()])
        for gi, h in comb.items()
    ]


def _move(certificate, at) -> list:
    """A representative's certificate as (multiplier, block permanent) pairs
    of packed terms, moved onto the target where x_rc of the representative
    has bit offset at[r][c]."""
    return [({sum(e << at[r][c] for r, c, e in cells): coeff for cells, coeff in terms},
             _block_permanent(at, rows, cols))
            for rows, cols, terms in certificate]


def _entry_products_in_p2(
    check: str, shape: MatrixShape, p: int, targets, degree: int
) -> LemmaReport:
    """Shared body of `monomials28` / `monomials29`: every target of
    targets(m, n), each a (representative, row map, column map), lies in P_2
    of the generic m x n matrix, decided by linear algebra at the degree on
    one system per representative."""
    t0 = time.perf_counter()
    m, n = shape.nrows, shape.ncols
    params = {"shape": shape.spec_string(), "m": m, "n": n, "p": p}
    # exponents stay at most `degree` in every product of a certificate
    width = degree.bit_length()
    shifts = _shifts(m * n, width)

    def render(key):
        return render_poly(unpack_terms({key: 1}, shape.space, p, width))

    certificates: dict = {}  # representative -> its certificate, or None
    count, failures = 0, []
    for rep, row_map, col_map in targets(m, n):
        count += 1
        if rep not in certificates:
            certificates[rep] = _certificate(rep, p, degree)
        at = [[shifts[r * n + c] for c in col_map] for r in row_map]
        target = sum(e << at[r][c] for r, c, e in rep)
        if certificates[rep] is None:
            failures.append(target)
        elif mul_sum(_move(certificates[rep], at), p) != {target: 1}:
            raise RuntimeError(
                "a moved certificate does not re-multiply to its target " + render(target)
            )
    # packed keys order as their exponent tuples do
    failures = [render(key) for key in sorted(failures)]
    evidence = {"targets": count, "members": count - len(failures), "failures": failures}
    return make_report(check, params, not failures, evidence, t0)


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
    configuration (m >= 3), lies in P_2, decided at d = 3."""
    if not (n >= 3 and m >= 2 or m >= 3 and n >= 2):
        raise ValueError("the entry triples need n >= 3 and m >= 2, or m >= 3 and n >= 2")
    shape = MatrixShape.generic(m, n)
    _refuse_oversized("monomials28", shape, _entry_triple_count(m, n))
    return _entry_products_in_p2("monomials28", shape, p, _entry_triples, 3)


def verify_squared_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials29`: every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3}
    with distinct rows and distinct columns lies in P_2, at d = 4."""
    if m < 3 or n < 3:
        raise ValueError("the squared-entry products need m, n >= 3")
    shape = MatrixShape.generic(m, n)
    _refuse_oversized("monomials29", shape, _squared_entry_triple_count(m, n))
    return _entry_products_in_p2("monomials29", shape, p, _squared_entry_triples, 4)
