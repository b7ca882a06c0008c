"""Symbolic matrices of indeterminates and their permanental ideals.

Three shapes are supported: generic m x n (all entries distinct), symmetric
n x n (entry(i,j) = entry(j,i)), and Hankel n x n (constant antidiagonals,
entries z_1 ... z_{2n-1}).  Symbolic permanents are computed by a
column-subset dynamic program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .fppoly import Polynomial, StructureError, VariableSpace

# Symbolic permanents cost O(2^s * s) ring operations; cap the size.
MAX_SYMBOLIC_PERMANENT = 8

GENERIC = "generic"
SYMMETRIC = "symmetric"
HANKEL = "hankel"


@dataclass(frozen=True)
class MatrixShape:
    kind: str
    nrows: int
    ncols: int

    def __post_init__(self):
        if self.kind not in (GENERIC, SYMMETRIC, HANKEL):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.nrows < 1 or self.ncols < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.kind in (SYMMETRIC, HANKEL) and self.nrows != self.ncols:
            raise ValueError(f"{self.kind} matrices must be square")

    @classmethod
    def generic(cls, m: int, n: int) -> "MatrixShape":
        return cls(GENERIC, m, n)

    @classmethod
    def symmetric(cls, n: int) -> "MatrixShape":
        return cls(SYMMETRIC, n, n)

    @classmethod
    def hankel(cls, n: int) -> "MatrixShape":
        return cls(HANKEL, n, n)

    def var_names(self) -> tuple:
        if self.kind == GENERIC:
            return tuple(
                f"x{i + 1}_{j + 1}" for i in range(self.nrows) for j in range(self.ncols)
            )
        if self.kind == SYMMETRIC:
            return tuple(
                f"y{i + 1}_{j + 1}"
                for i in range(self.nrows)
                for j in range(i, self.ncols)
            )
        return tuple(f"z{k + 1}" for k in range(2 * self.nrows - 1))

    def entry_index(self, i: int, j: int) -> int:
        """Variable index of entry (i, j), 0-based."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        if self.kind == GENERIC:
            return i * self.ncols + j
        if self.kind == SYMMETRIC:
            if i > j:
                i, j = j, i
            n = self.nrows
            return i * n - i * (i - 1) // 2 + (j - i)
        return i + j

    def spec_string(self) -> str:
        if self.kind == GENERIC:
            return f"generic:{self.nrows}x{self.ncols}"
        return f"{self.kind}:{self.nrows}"


def parse_shape(text: str) -> MatrixShape:
    """Parse a CLI shape spec: "generic:MxN" | "symmetric:N" | "hankel:N"."""
    try:
        kind, _, dims = text.partition(":")
        if kind == GENERIC:
            m, _, n = dims.partition("x")
            return MatrixShape.generic(int(m), int(n))
        if kind in (SYMMETRIC, HANKEL):
            return MatrixShape(kind, int(dims), int(dims))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"invalid shape spec {text!r}") from exc
    raise ValueError(f"invalid shape spec {text!r}")


class SymbolicMatrix:
    """A matrix whose entries are indices into a VariableSpace."""

    __slots__ = ("shape", "space", "entries")

    def __init__(self, shape: MatrixShape, space: VariableSpace, entries: tuple):
        self.shape = shape
        self.space = space
        self.entries = entries  # tuple of row tuples of variable indices

    @property
    def nrows(self) -> int:
        return self.shape.nrows

    @property
    def ncols(self) -> int:
        return self.shape.ncols

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def entry_name(self, i: int, j: int) -> str:
        return self.space.names[self.entries[i][j]]

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(self.entry_name(i, j) for j in range(self.ncols))
            for i in range(self.nrows)
        )
        return f"SymbolicMatrix({self.shape.spec_string()}: {rows})"


def build_matrix(shape: MatrixShape) -> SymbolicMatrix:
    space = VariableSpace(shape.var_names())
    entries = tuple(
        tuple(shape.entry_index(i, j) for j in range(shape.ncols))
        for i in range(shape.nrows)
    )
    return SymbolicMatrix(shape, space, entries)


def permanent(
    mat: SymbolicMatrix,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    char: int,
) -> Polynomial:
    """Symbolic permanent of a square submatrix selection.

    Column-subset dynamic programming: after processing k rows, dp[S] for
    |S| = k holds the permanent of the first k selected rows against the
    column subset S.
    """
    rows = tuple(rows) if rows is not None else tuple(range(mat.nrows))
    cols = tuple(cols) if cols is not None else tuple(range(mat.ncols))
    s = len(rows)
    if s != len(cols):
        raise ValueError(f"selection is not square: {s} rows, {len(cols)} columns")
    if s > MAX_SYMBOLIC_PERMANENT:
        raise ValueError(f"symbolic permanent size {s} exceeds limit {MAX_SYMBOLIC_PERMANENT}")
    space = mat.space
    one = Polynomial.one(space, char)
    if s == 0:
        return one
    dp = [None] * (1 << s)
    dp[0] = one
    for mask in range(1, 1 << s):
        k = bin(mask).count("1") - 1  # row index for this layer
        acc = Polynomial.zero(space, char)
        for j in range(s):
            if mask & (1 << j):
                var = Polynomial.variable(space, char, mat.entry(rows[k], cols[j]))
                acc = acc + var * dp[mask ^ (1 << j)]
        dp[mask] = acc
    return dp[(1 << s) - 1]


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of an ideal, and whether they form a complete intersection.

    `complete_intersection` admits the Fedder checks that need one; it is
    asserted by the constructor, never inferred.  `duplicates` lists submatrix
    selections whose permanent coincided with an earlier generator and was
    therefore not repeated.
    """

    generators: tuple
    complete_intersection: bool = False
    shape: Optional[MatrixShape] = None
    t: Optional[int] = None
    duplicates: tuple = ()

    def __post_init__(self):
        if any(g.is_zero for g in self.generators):
            raise ValueError("ideal generators must be nonzero")

    @property
    def space(self) -> VariableSpace:
        return self.generators[0].space

    @property
    def char(self) -> int:
        return self.generators[0].char


def _is_known_complete_intersection(shape: MatrixShape, t: int) -> bool:
    # Whitelist: a square permanental hypersurface (one generator), and the
    # generic t x (t+1) cases with 2 <= t <= 4, which are complete
    # intersections by the published classification.
    if t == shape.nrows == shape.ncols:
        return True
    if shape.kind == GENERIC and 2 <= t <= 4:
        dims = {shape.nrows, shape.ncols}
        if dims == {t, t + 1}:
            return True
    return False


def permanental_generators(mat: SymbolicMatrix, t: int, char: int) -> IdealPresentation:
    """Permanents of all t x t submatrices, as deduplicated polynomials.

    For symmetric and Hankel matrices distinct row/column selections can give
    equal polynomials; only the first occurrence is kept as a generator and
    later ones are recorded in `duplicates`.
    """
    shape = mat.shape
    if not (1 <= t <= min(shape.nrows, shape.ncols)):
        raise ValueError(f"t = {t} out of range for {shape.spec_string()}")
    gens = []
    seen = {}
    duplicates = []
    for rows in itertools.combinations(range(shape.nrows), t):
        for cols in itertools.combinations(range(shape.ncols), t):
            poly = permanent(mat, rows, cols, char=char)
            key = tuple(sorted(poly.items()))
            if key in seen:
                duplicates.append(((rows, cols), seen[key]))
            else:
                seen[key] = (rows, cols)
                gens.append(poly)
    return IdealPresentation(
        generators=tuple(gens),
        complete_intersection=_is_known_complete_intersection(shape, t),
        shape=shape,
        t=t,
        duplicates=tuple(duplicates),
    )


def hankel_image(poly: Polynomial, shape: MatrixShape) -> Polynomial:
    """Image of a polynomial in the entries of an n x n matrix of `shape`
    under entry (i, j) -> z_{i+j-1} (1-based), in the Hankel space.

    Each variable goes to a variable, so the image renames exponent vectors;
    Polynomial sums, mod p, the coefficients of vectors that collide.
    """
    if shape.nrows != shape.ncols:
        raise ValueError(f"no Hankel specialization from {shape.spec_string()}")
    if poly.space.names != shape.var_names():
        raise StructureError(f"polynomial is not in the variables of {shape.spec_string()}")
    n = shape.nrows
    target = MatrixShape.hankel(n)
    image = [0] * poly.space.count
    for i in range(n):
        for j in range(n):
            image[shape.entry_index(i, j)] = target.entry_index(i, j)
    terms = []
    for mono, c in poly.items():
        exps = [0] * (2 * n - 1)
        for k, e in enumerate(mono):
            exps[image[k]] += e
        terms.append((exps, c))
    return Polynomial(VariableSpace(target.var_names()), poly.char, terms)
