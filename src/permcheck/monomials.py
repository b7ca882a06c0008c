"""The checks `monomials28` and `monomials29`: products of entries of a
generic matrix that lie in P_2, the ideal of its 2x2 permanents.

Permuting rows and columns maps P_2 to itself and keeps degrees, so it maps
the degree-bounded span that `linmember` decides to itself as well.  Each
target is put in canonical form under S_m x S_n, one system is solved per
orbit, on its canonical representative, and that certificate is moved to
every target of the orbit: each variable x_ij to x_{sigma(i) tau(j)}, and
each generator to the generator of the permuted block.  A generator term
that divides a monomial uses rows and columns of that monomial, and so does
the generator's other term, so a representative's system, and with it its
certificate, stays in the rows and columns the representative uses; the
maps of those rows and columns move it.  Every moved certificate is
re-multiplied against its own target by one `fppoly.mul_sum` on packed
terms.  The targets and their canonical forms do not depend on p, so a job
builds them once for all its primes.  This module loads neither
`frobcheck` nor `hankel`.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

from .fppoly import Polynomial, _shifts, mul_sum, pack_terms, render_poly
from .linmember import members_bounded
from .report import LemmaReport, make_report
from .shapes import MatrixShape, permanental_generators


# Most exponent entries, targets x variables, of a monomials28/29 target
# set, refused from m and n before it is built.  On a 2-core Xeon VM at
# p = 3: monomials29 at 9x9 (127,008 targets, 10,287,648 entries, admitted)
# took 6.6 s at 144 MB peak RSS and monomials28 at 10x10 (6,480,000) 3.0 s
# at 93 MB; monomials28 at 12x12 (25,090,560) took 10.5 s at 287 MB and is
# refused, as is monomials29 at 10x10 (25,920,000).
MAX_TARGET_ENTRIES = 1 << 24


def _refuse_oversized(check: str, shape: MatrixShape, targets: int) -> None:
    """ValueError when `targets` targets of `shape` pass MAX_TARGET_ENTRIES,
    before the target set or `shape.space` is built."""
    variables = shape.variable_count
    if targets * variables > MAX_TARGET_ENTRIES:
        raise ValueError(f"{check} of {shape.spec_string()} has {targets} targets in {variables} "
                         f"variables, more than {MAX_TARGET_ENTRIES} exponent entries")


def _cells(shape: MatrixShape, exps) -> tuple:
    """(rows, cols, pattern): the rows and columns a monomial uses, ascending,
    and its exponents as sorted (row position, column position, exponent)
    triples, positions counted in those rows and columns."""
    n = shape.ncols
    cells = [(i // n, i % n, e) for i, e in enumerate(exps) if e]
    rows = sorted({r for r, _, _ in cells})
    cols = sorted({c for _, c, _ in cells})
    return rows, cols, tuple(sorted((rows.index(r), cols.index(c), e) for r, c, e in cells))


def _canonical(pattern, nrows: int, ncols: int) -> tuple:
    """(representative, row order, column order): the least relabelling of
    `pattern` over every ordering of its rows and columns, and the first
    ordering that gives it; row position a goes to row order[a].  Targets in
    one orbit share the representative, and targets in different orbits do
    not."""
    return min(
        (tuple(sorted((rows[a], cols[b], e) for a, b, e in pattern)), rows, cols)
        for rows in itertools.permutations(range(nrows))
        for cols in itertools.permutations(range(ncols))
    )


def _block(shape: MatrixShape, g: Polynomial) -> tuple:
    """(rows, cols): the 2x2 block whose permanent the generator g is."""
    n = shape.ncols
    used = {i for mono, _ in g.items() for i, e in enumerate(mono) if e}
    return tuple(sorted({i // n for i in used})), tuple(sorted({i % n for i in used}))


def _move(certificate, row_map, col_map, blocks: dict, shifts: list, ncols: int) -> list:
    """A certificate [(block, [(cells, coefficient)])] of a representative
    moved by rows r -> row_map[r] and columns c -> col_map[c], as
    [(generator index, packed term dict of the multiplier)]."""
    moved = []
    for (rows, cols), terms in certificate:
        block = (tuple(sorted(row_map[r] for r in rows)), tuple(sorted(col_map[c] for c in cols)))
        moved.append((blocks[block], {
            sum(e << shifts[row_map[r] * ncols + col_map[c]] for r, c, e in cells): coeff
            for cells, coeff in terms
        }))
    return moved


@functools.lru_cache(maxsize=1)
def _orbits(shape: MatrixShape, exponents) -> tuple:
    """(targets, representatives): each target of exponents(shape) as
    (exponents, rows, cols, representative, row order, column order), in
    sorted order, and the distinct representatives.  None of it depends on
    p, so a job over several primes builds it once; the cache holds the
    last shape only."""
    canonical: dict = {}  # pattern -> (representative, row order, column order)
    targets = []
    for exps in sorted(exponents(shape)):
        rows, cols, pattern = _cells(shape, exps)
        if pattern not in canonical:
            canonical[pattern] = _canonical(pattern, len(rows), len(cols))
        targets.append((exps, rows, cols, *canonical[pattern]))
    return tuple(targets), tuple(dict.fromkeys(t[3] for t in targets))


def _entry_products_in_p2(
    check: str, shape: MatrixShape, p: int, exponents, degree: int
) -> LemmaReport:
    """Shared body of `monomials28` / `monomials29`: every target monomial,
    from exponents(shape), lies in P_2 of the generic matrix, decided by
    linear algebra at the degree, one system per orbit of targets under row
    and column permutations."""
    t0 = time.perf_counter()
    params = {"shape": shape.spec_string(), "m": shape.nrows, "n": shape.ncols, "p": p}
    gens = permanental_generators(shape, 2, char=p).generators
    n = shape.ncols
    blocks = {_block(shape, g): gi for gi, g in enumerate(gens)}
    # exponents stay at most `degree` in every product of a certificate
    width = degree.bit_length()
    shifts = _shifts(shape.space.count, width)
    gen_terms = [pack_terms(g, width) for g in gens]

    targets, representatives = _orbits(shape, exponents)
    rep_polys = []
    for rep in representatives:
        exps = [0] * shape.space.count
        for r, c, e in rep:
            exps[r * n + c] = e
        rep_polys.append(Polynomial.monomial(shape.space, p, exps))
    certificates = {}  # representative -> [(block, [(cells, coefficient)])], or None
    for rep, comb in zip(representatives, members_bounded(rep_polys, gens, degree)):
        certificates[rep] = None if comb is None else [
            (_block(shape, gens[gi]),
             [([(i // n, i % n, e) for i, e in enumerate(mono) if e], c) for mono, c in h.items()])
            for gi, h in comb.items()
        ]

    failures = []
    for exps, rows, cols, rep, row_order, col_order in targets:
        target = Polynomial.monomial(shape.space, p, exps)
        certificate = certificates[rep]
        if certificate is None:
            failures.append(render_poly(target))
            continue
        row_map, col_map = [0] * len(rows), [0] * len(cols)
        for a, r in enumerate(row_order):
            row_map[r] = rows[a]
        for b, c in enumerate(col_order):
            col_map[c] = cols[b]
        moved = _move(certificate, row_map, col_map, blocks, shifts, n)
        if mul_sum(((h, gen_terms[gi]) for gi, h in moved), p) != pack_terms(target, width):
            raise RuntimeError(
                "a moved certificate does not re-multiply to its target " + render_poly(target)
            )
    evidence = {"targets": len(targets), "members": len(targets) - len(failures),
                "failures": failures}
    return make_report(check, params, not failures, evidence, t0)


def _entry_triples(shape: MatrixShape) -> set:
    """The exponents of every product of three entries from three distinct
    columns and two distinct rows (n >= 3), and of the transpose
    configuration (m >= 3)."""
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


def _entry_triple_count(m: int, n: int) -> int:
    """len(_entry_triples) of the generic m x n matrix: C(n, 3) column
    triples times the 3m(m - 1) row words that use exactly two rows, and the
    transpose."""
    return math.comb(n, 3) * 3 * m * (m - 1) + math.comb(m, 3) * 3 * n * (n - 1)


def _squared_entry_triples(shape: MatrixShape) -> set:
    """The exponents of every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3} with
    distinct rows and distinct columns."""
    exponents = set()
    for rows in itertools.permutations(range(shape.nrows), 3):
        for cols in itertools.permutations(range(shape.ncols), 3):
            exps = [0] * shape.space.count
            exps[shape.entry_index(rows[0], cols[0])] += 2
            exps[shape.entry_index(rows[1], cols[1])] += 1
            exps[shape.entry_index(rows[2], cols[2])] += 1
            exponents.add(tuple(exps))
    return exponents


def _squared_entry_triple_count(m: int, n: int) -> int:
    """len(_squared_entry_triples) of the generic m x n matrix: ordered row
    and column triples, halved because swapping the two unsquared entries
    gives the same monomial."""
    return math.perm(m, 3) * math.perm(n, 3) // 2


def verify_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials28`: every product of three entries from three
    distinct columns and two distinct rows (n >= 3), or the transpose
    configuration (m >= 3), lies in P_2, decided at d = 3."""
    if m < 3 and n < 3:
        raise ValueError("the entry triples need m >= 3 or n >= 3")
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
