"""Matrices of indeterminates and their permanental ideals.

A matrix is its MatrixShape: the kind and size fix every entry.  Three
shapes are supported: generic m x n (all entries distinct), symmetric n x n
(entry(i,j) = entry(j,i)), and Hankel n x n (constant antidiagonals, entries
z_1 ... z_{2n-1}).  Symbolic permanents are computed by a column-subset
dynamic program on packed terms (`fppoly.mul_sum`).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence

from .fppoly import (Polynomial, StructureError, VariableSpace, _shifts, check_prime, mul_sum,
                     unpack_terms)

# Symbolic permanents cost O(2^s * s) ring operations; cap the size.
MAX_SYMBOLIC_PERMANENT = 8
# Most exponent entries, selections x t! terms x variables, that
# `permanental_generators` may build: the exact count for a generic shape,
# a bound for the others, whose permanents can have fewer terms.  On a
# 2-core Xeon VM, `permcheck generators` took 5.6 s at 263 MB peak RSS for
# generic:20x20 at t = 2 (28,880,000 entries, admitted) and 0.9 s at 49 MB
# for generic:8x8 at t = 8 (2,580,480); generic:21x21 at t = 2 (38,896,200)
# and generic:12x12 at t = 4 (846,806,400) are refused.
MAX_GENERATOR_ENTRIES = 1 << 25

GENERIC = "generic"
SYMMETRIC = "symmetric"
HANKEL = "hankel"


class _Dims(NamedTuple):
    kind: str
    nrows: int
    ncols: int


class MatrixShape(_Dims):
    """A matrix of indeterminates: entry (i, j) is variable `entry_index(i, j)`
    of `space`.  Immutable; equal and hashed by (kind, nrows, ncols).  It has
    no __slots__, so `space` can be cached in its __dict__."""

    def __new__(cls, kind: str, nrows: int, ncols: int):
        if kind not in (GENERIC, SYMMETRIC, HANKEL):
            raise ValueError(f"unknown shape kind {kind!r}")
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix dimensions must be positive")
        if kind in (SYMMETRIC, HANKEL) and nrows != ncols:
            raise ValueError(f"{kind} matrices must be square")
        return super().__new__(cls, kind, nrows, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixShape is immutable")

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

    @property
    def variable_count(self) -> int:
        """len(var_names()), from the kind and size alone: size guards read it
        before `space` is built."""
        n = self.ncols
        if self.kind == GENERIC:
            return self.nrows * n
        if self.kind == SYMMETRIC:
            return n * (n + 1) // 2
        return 2 * n - 1

    @functools.cached_property
    def space(self) -> VariableSpace:
        """The VariableSpace of `var_names()`, built on first use: a shape
        too large to hold its names can still be refused by size."""
        return VariableSpace(self.var_names())

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


def build_matrix(shape: MatrixShape) -> MatrixShape:
    """The shape itself, which is the matrix.  Kept only because
    perfbench/tests/test_tracer.py still calls
    permanental_generators(build_matrix(shape), t, char=p); delete it with
    that call."""
    return shape


def _refuse_permanent_size(s: int) -> None:
    if s > MAX_SYMBOLIC_PERMANENT:
        raise ValueError(f"symbolic permanent size {s} exceeds limit {MAX_SYMBOLIC_PERMANENT}")


def permanent(
    shape: MatrixShape,
    rows: Optional[Sequence[int]] = None,
    cols: Optional[Sequence[int]] = None,
    *,
    char: int,
) -> Polynomial:
    """Symbolic permanent of a square submatrix selection.

    Column-subset dynamic programming: after processing k rows, dp[S] for
    |S| = k holds the permanent of the first k selected rows against the
    column subset S, as packed terms of w = s.bit_length() bits per exponent
    (none exceeds s), summed over the columns of S by one `mul_sum`.
    """
    rows = tuple(rows) if rows is not None else tuple(range(shape.nrows))
    cols = tuple(cols) if cols is not None else tuple(range(shape.ncols))
    s = len(rows)
    if s != len(cols):
        raise ValueError(f"selection is not square: {s} rows, {len(cols)} columns")
    _refuse_permanent_size(s)
    check_prime(char)
    w = s.bit_length()
    shifts = _shifts(shape.space.count, w)
    entries = [[{1 << shifts[shape.entry_index(r, c)]: 1} for c in cols] for r in rows]
    dp = [{0: 1}] * (1 << s)  # dp[0] = 1; every other entry is overwritten
    for mask in range(1, 1 << s):
        row = entries[bin(mask).count("1") - 1]  # the row of this layer
        dp[mask] = mul_sum(((dp[mask ^ (1 << j)], row[j]) for j in range(s) if mask >> j & 1), char)
    return unpack_terms(dp[-1], shape.space, char, w)


class _Presentation(NamedTuple):
    generators: tuple
    complete_intersection: bool = False
    shape: Optional[MatrixShape] = None
    t: Optional[int] = None
    duplicates: tuple = ()


class IdealPresentation(_Presentation):
    """Generators of an ideal, and whether they form a complete intersection.

    `complete_intersection` admits the Fedder checks that need one; it is
    asserted by the constructor, never inferred.  `duplicates` lists submatrix
    selections whose permanent coincided with an earlier generator and was
    therefore not repeated.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(g.is_zero for g in self.generators):
            raise ValueError("ideal generators must be nonzero")
        return self

    @property
    def space(self) -> VariableSpace:
        return self.generators[0].space

    @property
    def char(self) -> int:
        return self.generators[0].char


def _is_known_complete_intersection(shape: MatrixShape, t: int) -> bool:
    """Whether P_t of `shape` is on the whitelist: a square permanental
    hypersurface (one generator), or generic t x (t+1) with 2 <= t <= 4, a
    complete intersection by the published classification.  Decided from
    the sizes alone; ValueError when t is out of range for the shape."""
    if not (1 <= t <= min(shape.nrows, shape.ncols)):
        raise ValueError(f"t = {t} out of range for {shape.spec_string()}")
    return t == shape.nrows == shape.ncols or (
        shape.kind == GENERIC and 2 <= t <= 4 and {shape.nrows, shape.ncols} == {t, t + 1}
    )


def permanental_generators(shape: MatrixShape, t: int, char: int) -> IdealPresentation:
    """Permanents of all t x t submatrices, as deduplicated polynomials.

    For symmetric and Hankel matrices distinct row/column selections can give
    equal polynomials; only the first occurrence is kept as a generator and
    later ones are recorded in `duplicates`.  ValueError, before any
    permanent or `shape.space` is built, when t passes
    MAX_SYMBOLIC_PERMANENT or they could pass MAX_GENERATOR_ENTRIES.
    """
    complete_intersection = _is_known_complete_intersection(shape, t)  # refuses t out of range
    _refuse_permanent_size(t)  # before t! is computed
    m, n = shape.nrows, shape.ncols
    selections = math.comb(m, t) * math.comb(n, t)
    terms = math.factorial(t)
    variables = shape.variable_count
    if selections * terms * variables > MAX_GENERATOR_ENTRIES:
        raise ValueError(
            f"P_{t} of {shape.spec_string()} has {selections} permanents of up to {terms} terms "
            f"in {variables} variables, more than {MAX_GENERATOR_ENTRIES} exponent entries"
        )
    gens = []
    seen = {}
    duplicates = []
    for rows in itertools.combinations(range(shape.nrows), t):
        for cols in itertools.combinations(range(shape.ncols), t):
            poly = permanent(shape, rows, cols, char=char)
            key = tuple(sorted(poly.items()))
            if key in seen:
                duplicates.append(((rows, cols), seen[key]))
            else:
                seen[key] = (rows, cols)
                gens.append(poly)
    return IdealPresentation(
        generators=tuple(gens),
        complete_intersection=complete_intersection,
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
    if poly.space != shape.space:
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
    return Polynomial(target.space, poly.char, terms)
