"""Degree-bounded ideal membership over F_p by exact linear algebra.

Whether a target polynomial lies in the span of {generator * monomial} up to
a degree bound is a linear system over F_p: rows are monomials, columns are
(generator, multiplier monomial) pairs.  No Groebner bases; absence is
certified only up to the bound used.  When a target and all generators are
homogeneous the system is restricted to the graded piece of the target's
degree, which is equivalent and much smaller.

The columns depend only on the generators and the degree, never on the
target, so `members_bounded` builds one system per target degree (one up to
the bound for the non-graded targets) and runs one elimination that carries
every target as its own right-hand side.  Every combination it returns is
re-multiplied and compared with its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .fppoly import GRLEX, Polynomial

MAX_MATRIX_ENTRIES = 10**7


class SizeGuardError(ValueError):
    """The membership system exceeds the configured size guard."""

    def __init__(self, rows: int, cols: int, max_entries: int):
        super().__init__(
            f"membership system of {rows} rows x {cols} columns "
            f"({rows * cols} entries) exceeds the guard of {max_entries}; "
            "raise max_entries to proceed"
        )
        self.rows = rows
        self.cols = cols


@dataclass
class LinearSystem:
    """Sparse row-major system A X = rhs over F_p with one column of X per target.

    Row labels are monomials; column labels are (generator index, multiplier
    monomial) pairs.  matrix[i] maps column index -> nonzero coefficient, and
    rhs[i] maps target index -> nonzero coefficient of row i's monomial in
    that target.  Targets are numbered 0 .. targets - 1.
    """

    row_labels: list
    col_labels: list
    matrix: list
    rhs: list
    p: int
    targets: int


def _is_homogeneous(poly: Polynomial) -> bool:
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


def build_system(
    targets: Sequence[Polynomial],
    generators: Sequence[Polynomial],
    degree: int,
    graded: bool,
    max_entries: int = MAX_MATRIX_ENTRIES,
) -> LinearSystem:
    """Assemble one membership system for all targets.

    The columns are the generators times every multiplier monomial that
    brings them to total degree exactly `degree` (graded) or at most `degree`.
    Rows are restricted to monomials that occur in a target or in some column
    (absent rows are trivially zero); target monomials come first.
    """
    p = targets[0].char
    v = targets[0].space.count
    enumerate_multipliers = monomials_of_degree if graded else monomials_up_to

    multipliers_by_degree: dict = {}
    col_labels = []
    col_polys = []
    for gi, g in enumerate(generators):
        dg = g.total_degree()
        if dg > degree:
            continue
        mult_degree = degree - dg
        if mult_degree not in multipliers_by_degree:
            multipliers_by_degree[mult_degree] = list(enumerate_multipliers(v, mult_degree))
        for mult in multipliers_by_degree[mult_degree]:
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

    rhs_cells = []
    for ti, target in enumerate(targets):
        for mono, c in sorted(target.items(), key=lambda kv: GRLEX.key(kv[0]), reverse=True):
            rhs_cells.append((row_of(mono), ti, c))
    cells = []
    for ci, poly in enumerate(col_polys):
        for mono, c in poly.items():
            cells.append((row_of(mono), ci, c))
    if len(row_labels) * max(len(col_labels), 1) > max_entries:
        raise SizeGuardError(len(row_labels), len(col_labels), max_entries)
    matrix = [dict() for _ in row_labels]
    for ri, ci, c in cells:
        matrix[ri][ci] = c
    rhs = [dict() for _ in row_labels]
    for ri, ti, c in rhs_cells:
        rhs[ri][ti] = c
    return LinearSystem(row_labels, col_labels, matrix, rhs, p, len(targets))


def _axpy(target: dict, factor: int, source: dict, p: int) -> None:
    """target += factor * source over F_p, dropping zeros."""
    for key, val in source.items():
        nv = (target.get(key, 0) + factor * val) % p
        if nv:
            target[key] = nv
        elif key in target:
            del target[key]


def gaussian_solve(system: LinearSystem) -> list:
    """One solution per target (a list of column values), or None where that
    target's system is inconsistent.

    Gauss-Jordan elimination in one forward pass over the rows: each row that
    is still nonzero when reached pivots on its smallest column, which is then
    cleared from every other row; free variables are set to 0.  A row reached
    empty stays empty, so the pass picks the same pivots as restarting the
    search from row 0 each time.
    """
    p = system.p
    rows = [dict(r) for r in system.matrix]
    rhs = [dict(r) for r in system.rhs]
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
            rhs[pr] = {t: (val * inv) % p for t, val in rhs[pr].items()}
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
            _axpy(rhs[ri], factor, rhs[pr], p)
    inconsistent = set()
    for ri, row in enumerate(rows):
        if not row:
            inconsistent.update(rhs[ri])
    solutions: list = []
    for ti in range(system.targets):
        if ti in inconsistent:
            solutions.append(None)
            continue
        solution = [0] * ncols
        for pr, pc in pivots:
            solution[pc] = rhs[pr].get(ti, 0)
        solutions.append(solution)
    return solutions


def members_bounded(
    targets: Sequence[Polynomial],
    generators: Sequence[Polynomial],
    degree_bound: int,
    max_entries: int = MAX_MATRIX_ENTRIES,
) -> list:
    """For each target, multipliers {generator index: h} with
    sum h_g * g = target, or None.

    Homogeneous targets over homogeneous generators share one system per
    target degree; all other targets share one system up to the bound.  A
    returned combination always re-multiplies exactly to its target (checked
    here, unconditionally).  None certifies non-membership only up to the
    degree bound.  SizeGuardError is raised if any shared system exceeds
    max_entries.
    """
    targets = list(targets)
    generators = tuple(generators)
    if any(t.total_degree() > degree_bound for t in targets):
        raise ValueError("target degree exceeds the degree bound")
    if any(g.is_zero for g in generators):
        raise ValueError("generators must be nonzero")
    graded_gens = all(_is_homogeneous(g) for g in generators)
    groups: dict = {}
    for ti, target in enumerate(targets):
        key = target.total_degree() if graded_gens and _is_homogeneous(target) else None
        groups.setdefault(key, []).append(ti)

    results: list = [None] * len(targets)
    for key, indices in groups.items():
        group = [targets[ti] for ti in indices]
        graded = key is not None
        system = build_system(
            group, generators, key if graded else degree_bound, graded, max_entries=max_entries
        )
        for ti, solution in zip(indices, gaussian_solve(system)):
            if solution is not None:
                results[ti] = _combination(targets[ti], generators, system.col_labels, solution)
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
    target: Polynomial,
    generators: Sequence[Polynomial],
    degree_bound: int,
    max_entries: int = MAX_MATRIX_ENTRIES,
) -> Optional[dict]:
    """Multipliers {generator index: h} with sum h_g * g = target, or None:
    the one-target case of `members_bounded`."""
    return members_bounded([target], generators, degree_bound, max_entries)[0]
