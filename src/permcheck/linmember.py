"""Degree-bounded ideal membership over F_p by exact linear algebra.

Whether a target polynomial lies in the span of {generator * monomial} up to
a degree bound is a linear system over F_p: rows are monomials, columns are
(generator, multiplier monomial) pairs.  No Groebner bases; absence is
certified only up to the bound used.

That system is block-diagonal over the connected components of its row-column
graph, and the target is in the span exactly when it is in the span of the
components its own monomials touch.  So each target gets its own system, grown
outward from its monomials: a row m brings in every column (g, m/u) for a term
u of g dividing m, and a column brings in its monomials as rows.  For
homogeneous inputs this never leaves the target's degree.  Every combination
returned is re-multiplied and compared with its target.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .fppoly import Polynomial

MAX_MATRIX_ENTRIES = 10**7


class SizeGuardError(ValueError):
    """One target's membership system outgrew MAX_MATRIX_ENTRIES."""

    def __init__(self, rows: int, cols: int):
        super().__init__(
            f"the membership system of one target reached {rows} rows x {cols} columns "
            f"({rows * cols} entries), over the guard of {MAX_MATRIX_ENTRIES}"
        )
        self.rows = rows
        self.cols = cols


class LinearSystem(NamedTuple):
    """Sparse row-major system A x = rhs over F_p.

    Row labels are monomials; column labels are (generator index, multiplier
    monomial) pairs.  matrix[i] maps column index -> nonzero coefficient, and
    rhs[i] is the coefficient of row i's monomial in the target.
    """

    row_labels: list
    col_labels: list
    matrix: list
    rhs: list
    p: int


def term_table(generators: Sequence[Polynomial]) -> dict:
    """Every generator term, keyed by the first variable it contains (None for
    a constant term), as (generator index, the term's (variable, exponent)
    pairs, deg g - deg term, the generator's terms)."""
    table: dict = {}
    for gi, g in enumerate(generators):
        g_terms = list(g.items())
        dg = g.total_degree()
        for u, _ in g_terms:
            pairs = tuple((i, e) for i, e in enumerate(u) if e)
            key = pairs[0][0] if pairs else None
            table.setdefault(key, []).append((gi, pairs, dg - sum(u), g_terms))
    return table


def build_system(target: Polynomial, table: dict, degree: int) -> LinearSystem:
    """The membership system of one target, closed outward from its monomials.

    Rows start as the target's monomials.  Each row m adds every column
    (g, m/u) with u a term of g dividing m and deg(m/u) + deg g <= degree,
    and each new column adds its monomials as rows, until nothing new
    appears.  `table` is `term_table(generators)`.  SizeGuardError is raised
    as soon as the rows times the columns pass MAX_MATRIX_ENTRIES.
    """
    row_index: dict = {}
    row_labels: list = []
    matrix: list = []
    rhs: list = []

    def row_of(mono):
        ri = row_index.get(mono)
        if ri is None:
            ri = row_index[mono] = len(row_labels)
            row_labels.append(mono)
            matrix.append({})
            rhs.append(0)
        return ri

    for mono, c in target.sorted_terms():
        rhs[row_of(mono)] = c
    col_index: dict = {}
    col_labels: list = []
    ri = 0
    while ri < len(row_labels):
        m = row_labels[ri]
        ri += 1
        room = degree - sum(m)
        for key in (None, *(i for i, e in enumerate(m) if e)):
            for gi, pairs, excess, g_terms in table.get(key, ()):
                if excess > room or any(m[i] < e for i, e in pairs):
                    continue
                mult = list(m)
                for i, e in pairs:
                    mult[i] -= e
                label = (gi, tuple(mult))
                if label in col_index:
                    continue
                ci = col_index[label] = len(col_labels)
                col_labels.append(label)
                for w, c in g_terms:
                    matrix[row_of(tuple(a + b for a, b in zip(mult, w)))][ci] = c
                if len(row_labels) * len(col_labels) > MAX_MATRIX_ENTRIES:
                    raise SizeGuardError(len(row_labels), len(col_labels))
    return LinearSystem(row_labels, col_labels, matrix, rhs, target.char)


def gaussian_solve(system: LinearSystem) -> Optional[list]:
    """A solution (a list of column values), or None if the system is
    inconsistent.

    Gauss-Jordan elimination in one forward pass over the rows: each row that
    is still nonzero when reached pivots on its smallest column, which is then
    cleared from every other row; free variables are set to 0.  A row reached
    empty stays empty, so the pass picks the same pivots as restarting the
    search from row 0 each time.
    """
    p = system.p
    rows = [dict(r) for r in system.matrix]
    rhs = list(system.rhs)
    ncols = len(system.col_labels)
    col_members = [set() for _ in range(ncols)]
    for ri, row in enumerate(rows):
        for c in row:
            col_members[c].add(ri)
    pivots = []
    for pr, pivot_row in enumerate(rows):
        if not pivot_row:
            continue
        pc = min(pivot_row)
        inv = pow(pivot_row[pc], p - 2, p)
        if inv != 1:
            pivot_row = rows[pr] = {c: (val * inv) % p for c, val in pivot_row.items()}
            rhs[pr] = (rhs[pr] * inv) % p
        pivots.append((pr, pc))
        for ri in list(col_members[pc]):
            if ri == pr:
                continue
            factor = (-rows[ri][pc]) % p
            target = rows[ri]
            for c, val in pivot_row.items():
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
    if any(rhs[ri] for ri, row in enumerate(rows) if not row):
        return None
    solution = [0] * ncols
    for pr, pc in pivots:
        solution[pc] = rhs[pr]
    return solution


def members_bounded(
    targets: Sequence[Polynomial],
    generators: Sequence[Polynomial],
    degree_bound: int,
) -> list:
    """For each target, multipliers {generator index: h} with
    sum h_g * g = target, or None.

    Each target is decided by its own system; the generators' term table is
    built once for the batch.  A returned combination always re-multiplies
    exactly to its target (checked here, unconditionally).  None certifies
    non-membership only up to the degree bound.
    """
    targets = list(targets)
    generators = tuple(generators)
    if any(t.total_degree() > degree_bound for t in targets):
        raise ValueError("target degree exceeds the degree bound")
    if any(g.is_zero for g in generators):
        raise ValueError("generators must be nonzero")
    table = term_table(generators)
    results: list = []
    for target in targets:
        system = build_system(target, table, degree_bound)
        solution = gaussian_solve(system)
        results.append(
            None if solution is None
            else _combination(target, generators, system.col_labels, solution)
        )
    return results


def _combination(target: Polynomial, generators, col_labels, solution) -> dict:
    """The multipliers a solution column encodes, re-multiplied against the target."""
    space, p = target.space, target.char
    multiplier_terms: dict = {}
    for (gi, mult), value in zip(col_labels, solution):
        if value:
            multiplier_terms.setdefault(gi, []).append((mult, value))
    combination = {gi: Polynomial(space, p, terms) for gi, terms in multiplier_terms.items()}
    total = Polynomial.zero(space, p)
    for gi, h in combination.items():
        total = total + h * generators[gi]
    if total != target:
        raise RuntimeError("solver returned a combination that does not re-multiply to the target")
    return combination


def member_bounded(
    target: Polynomial, generators: Sequence[Polynomial], degree_bound: int
) -> Optional[dict]:
    """Multipliers {generator index: h} with sum h_g * g = target, or None:
    the one-target case of `members_bounded`."""
    return members_bounded([target], generators, degree_bound)[0]
