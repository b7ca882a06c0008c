"""Symbolic matrices, permanents, and permanental generators."""

import itertools
import math
import random

import pytest

from permcheck import shapes
from permcheck.fppoly import Polynomial, StructureError, VariableSpace, parse_poly
from permcheck.shapes import (
    MatrixShape,
    SymbolicMatrix,
    build_matrix,
    hankel_image,
    parse_shape,
    permanent,
    permanental_generators,
)
from helpers import (
    brute_permanent,
    evaluate,
    permanent_eval,
    permanent_eval_dp,
    permanent_eval_naive,
    random_point,
)

ALL_SMALL_SHAPES = [
    MatrixShape.generic(2, 2),
    MatrixShape.generic(2, 3),
    MatrixShape.generic(3, 3),
    MatrixShape.generic(3, 4),
    MatrixShape.symmetric(3),
    MatrixShape.symmetric(4),
    MatrixShape.hankel(3),
    MatrixShape.hankel(4),
]


class TestBuildMatrix:
    def test_hankel_2(self):
        mat = build_matrix(MatrixShape.hankel(2))
        names = [[mat.entry_name(i, j) for j in range(2)] for i in range(2)]
        assert names == [["z1", "z2"], ["z2", "z3"]]

    def test_symmetric_2(self):
        mat = build_matrix(MatrixShape.symmetric(2))
        names = [[mat.entry_name(i, j) for j in range(2)] for i in range(2)]
        assert names == [["y1_1", "y1_2"], ["y1_2", "y2_2"]]

    def test_generic_2x3_all_distinct(self):
        mat = build_matrix(MatrixShape.generic(2, 3))
        entries = {mat.entry(i, j) for i in range(2) for j in range(3)}
        assert len(entries) == 6
        assert mat.space.count == 6

    def test_hankel_antidiagonal_constraint(self):
        mat = build_matrix(MatrixShape.hankel(4))
        for i, j in itertools.product(range(4), repeat=2):
            for k in range(j - i + 1):
                assert mat.entry(i, j) == mat.entry(i + k, j - k)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            MatrixShape.generic(0, 2)

    def test_non_square_symmetric_rejected(self):
        with pytest.raises(ValueError):
            MatrixShape("symmetric", 2, 3)


class TestParseShape:
    @pytest.mark.parametrize(
        "text,kind,m,n",
        [
            ("generic:3x4", "generic", 3, 4),
            ("symmetric:5", "symmetric", 5, 5),
            ("hankel:2", "hankel", 2, 2),
        ],
    )
    def test_valid(self, text, kind, m, n):
        shape = parse_shape(text)
        assert (shape.kind, shape.nrows, shape.ncols) == (kind, m, n)
        assert shape.spec_string() == text

    @pytest.mark.parametrize("text", ["generic:3", "hankel:2x3", "square:2", "generic:axb", ""])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_shape(text)


class TestSymbolicPermanent:
    def test_hankel_2(self):
        mat = build_matrix(MatrixShape.hankel(2))
        assert permanent(mat, char=3) == parse_poly("z2^2 + z1*z3", mat.space, 3)

    def test_one_by_one(self):
        mat = build_matrix(MatrixShape.hankel(1))
        assert permanent(mat, char=3) == Polynomial.variable(mat.space, 3, 0)

    def test_empty_selection_is_one(self):
        mat = build_matrix(MatrixShape.hankel(2))
        assert permanent(mat, rows=(), cols=(), char=3) == Polynomial.one(mat.space, 3)

    def test_oversized_selection_refused_before_the_dp(self, monkeypatch):
        mat = build_matrix(MatrixShape.generic(9, 9))
        # the DP's first step is Polynomial.one: reaching it fails with AttributeError
        monkeypatch.setattr(shapes, "Polynomial", None)
        with pytest.raises(ValueError, match="size 9 exceeds limit 8"):
            permanent(mat, char=3)

    def test_repeated_variable_gives_factorial(self):
        space = VariableSpace(("x",))
        shape = MatrixShape.generic(4, 4)
        entries = tuple(tuple(0 for _ in range(4)) for _ in range(4))
        mat = SymbolicMatrix(shape, space, entries)
        assert permanent(mat, char=7) == Polynomial.monomial(space, 7, (4,), math.factorial(4) % 7)

    def test_matches_brute_force_all_shapes(self):
        for shape in ALL_SMALL_SHAPES:
            mat = build_matrix(shape)
            for s in range(1, min(shape.nrows, shape.ncols, 4) + 1):
                rows = tuple(range(s))
                cols = tuple(range(shape.ncols - s, shape.ncols))
                assert permanent(mat, rows, cols, char=5) == brute_permanent(
                    mat, rows, cols, 5
                )

    def test_row_and_column_permutation_invariance(self):
        rng = random.Random(3)
        for shape in ALL_SMALL_SHAPES:
            mat = build_matrix(shape)
            s = min(shape.nrows, shape.ncols, 4)
            rows = tuple(rng.sample(range(shape.nrows), s))
            cols = tuple(rng.sample(range(shape.ncols), s))
            base = permanent(mat, rows, cols, char=5)
            for _ in range(3):
                pr = tuple(rng.sample(rows, s))
                pc = tuple(rng.sample(cols, s))
                assert permanent(mat, pr, pc, char=5) == base

    def test_transpose_invariance(self):
        # permanent of the transposed selection equals the original
        rng = random.Random(4)
        mat = build_matrix(MatrixShape.generic(4, 4))
        transposed = SymbolicMatrix(
            mat.shape,
            mat.space,
            tuple(tuple(mat.entry(j, i) for j in range(4)) for i in range(4)),
        )
        for s in (2, 3, 4):
            rows = tuple(rng.sample(range(4), s))
            cols = tuple(rng.sample(range(4), s))
            assert permanent(mat, rows, cols, char=5) == permanent(
                transposed, cols, rows, char=5
            )

    def test_size_limit(self):
        mat = build_matrix(MatrixShape.generic(9, 9))
        with pytest.raises(ValueError):
            permanent(mat, char=3)

    def test_non_square_selection(self):
        mat = build_matrix(MatrixShape.generic(2, 3))
        with pytest.raises(ValueError):
            permanent(mat, rows=(0,), cols=(0, 1), char=3)


class TestNumericPermanent:
    def test_all_ones_2x2(self):
        assert permanent_eval([[1, 1], [1, 1]], 3) == 2

    def test_identity_3x3(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert permanent_eval(eye, 5) == 1

    def test_matches_naive_random(self):
        rng = random.Random(9)
        for _ in range(200):
            s = rng.randrange(0, 5)
            p = rng.choice([3, 5, 7])
            mat = [[rng.randrange(p) for _ in range(s)] for _ in range(s)]
            expected = permanent_eval_naive(mat, p)
            assert permanent_eval(mat, p) == expected
            assert permanent_eval_dp(mat, p) == expected

    def test_matches_symbolic_evaluation(self):
        rng = random.Random(10)
        for shape in ALL_SMALL_SHAPES:
            mat = build_matrix(shape)
            s = min(shape.nrows, shape.ncols, 4)
            rows, cols = tuple(range(s)), tuple(range(s))
            poly = permanent(mat, rows, cols, char=7)
            for _ in range(10):
                point = random_point(rng, mat.space, 7)
                numeric = [[point[mat.entry(i, j)] for j in cols] for i in rows]
                assert permanent_eval(numeric, 7) == evaluate(poly, point)

    def test_row_scaling_multilinearity(self):
        rng = random.Random(12)
        for _ in range(50):
            s = rng.randrange(1, 5)
            p = 7
            mat = [[rng.randrange(p) for _ in range(s)] for _ in range(s)]
            c = rng.randrange(p)
            row = rng.randrange(s)
            scaled = [list(r) for r in mat]
            scaled[row] = [(c * x) % p for x in scaled[row]]
            assert permanent_eval(scaled, p) == (c * permanent_eval(mat, p)) % p


class TestPermanentalGenerators:
    def test_generic_2x2_single(self):
        mat = build_matrix(MatrixShape.generic(2, 2))
        gens = permanental_generators(mat, 2, char=3)
        assert len(gens.generators) == 1
        assert gens.generators[0] == parse_poly("x1_1*x2_2 + x1_2*x2_1", mat.space, 3)
        assert gens.complete_intersection  # square hypersurface

    def test_generic_counts_t2(self):
        for m, n in [(2, 3), (3, 3), (3, 4), (4, 4)]:
            mat = build_matrix(MatrixShape.generic(m, n))
            gens = permanental_generators(mat, 2, char=3)
            assert len(gens.generators) == math.comb(m, 2) * math.comb(n, 2)

    def test_generic_3x4_t3_complete_intersection(self):
        mat = build_matrix(MatrixShape.generic(3, 4))
        gens = permanental_generators(mat, 3, char=3)
        assert len(gens.generators) == 4
        assert gens.complete_intersection

    def test_generic_2x3_t2_complete_intersection(self):
        mat = build_matrix(MatrixShape.generic(2, 3))
        gens = permanental_generators(mat, 2, char=3)
        assert len(gens.generators) == 3
        assert gens.complete_intersection

    def test_generic_3x3_t2_unstructured(self):
        mat = build_matrix(MatrixShape.generic(3, 3))
        assert not permanental_generators(mat, 2, char=3).complete_intersection

    def test_hankel_square_is_hypersurface(self):
        for n in (1, 2, 3, 4):
            mat = build_matrix(MatrixShape.hankel(n))
            gens = permanental_generators(mat, n, char=3)
            assert len(gens.generators) == 1
            assert gens.complete_intersection

    def test_symmetric_duplicates_reported(self):
        mat = build_matrix(MatrixShape.symmetric(3))
        gens = permanental_generators(mat, 2, char=3)
        assert len(gens.generators) == 6
        assert len(gens.duplicates) == 3
        # every duplicate names an earlier selection with an equal polynomial
        for (rows, cols), (first_rows, first_cols) in gens.duplicates:
            dup = permanent(mat, rows, cols, char=3)
            first = permanent(mat, first_rows, first_cols, char=3)
            assert dup == first

    def test_hankel_duplicates(self):
        mat = build_matrix(MatrixShape.hankel(3))
        gens = permanental_generators(mat, 2, char=3)
        assert len(gens.generators) + len(gens.duplicates) == 9

    def test_t_out_of_range(self):
        mat = build_matrix(MatrixShape.generic(2, 3))
        with pytest.raises(ValueError):
            permanental_generators(mat, 3, char=3)


class TestHankelSpecialization:
    HANKEL2 = build_matrix(MatrixShape.hankel(2)).space

    def test_generic_to_hankel(self):
        shape = MatrixShape.generic(2, 2)
        perm = parse_poly("x1_1*x2_2 + x1_2*x2_1", build_matrix(shape).space, 3)
        assert hankel_image(perm, shape) == parse_poly("z1*z3 + z2^2", self.HANKEL2, 3)

    def test_symmetric_to_hankel(self):
        shape = MatrixShape.symmetric(3)
        f = parse_poly("y1_3*y2_2 + 2*y2_2^2 + y3_3", build_matrix(shape).space, 5)
        z5 = build_matrix(MatrixShape.hankel(3)).space
        assert hankel_image(f, shape) == parse_poly("3*z3^2 + z5", z5, 5)

    def test_colliding_terms_cancel_mod_p(self):
        # x1_2 and x2_1 both become z2, and 1 + 2 = 0 at p = 3
        shape = MatrixShape.generic(2, 2)
        f = parse_poly("x1_2^2 + 2*x1_2*x2_1", build_matrix(shape).space, 3)
        assert hankel_image(f, shape) == Polynomial.zero(self.HANKEL2, 3)

    def test_perm_match_n2(self):
        hankel = permanent(build_matrix(MatrixShape.hankel(2)), char=3)
        for shape in (MatrixShape.generic(2, 2), MatrixShape.symmetric(2)):
            assert hankel_image(permanent(build_matrix(shape), char=3), shape) == hankel

    def test_identification_counts(self):
        # variables merged away: source count minus Hankel count, as thm36 reports
        for n, generic, symmetric in [(1, 0, 0), (2, 1, 0), (3, 4, 1), (5, 16, 6)]:
            hankel = len(MatrixShape.hankel(n).var_names())
            assert len(MatrixShape.generic(n, n).var_names()) - hankel == generic
            assert len(MatrixShape.symmetric(n).var_names()) - hankel == symmetric

    def test_generator_sets_map_onto_hankel(self):
        for n in (2, 3):
            shape = MatrixShape.generic(n, n)
            generic = build_matrix(shape)
            hankel = build_matrix(MatrixShape.hankel(n))
            for t in range(1, n + 1):
                g_gens = permanental_generators(generic, t, char=3)
                h_gens = permanental_generators(hankel, t, char=3)
                mapped = {
                    tuple(sorted(hankel_image(g, shape).items())) for g in g_gens.generators
                }
                target = {tuple(sorted(h.items())) for h in h_gens.generators}
                assert mapped == target

    def test_non_square_shape_refused(self):
        shape = MatrixShape.generic(2, 3)
        with pytest.raises(ValueError):
            hankel_image(Polynomial.one(build_matrix(shape).space, 3), shape)

    def test_polynomial_outside_the_shape_refused(self):
        with pytest.raises(StructureError):
            hankel_image(Polynomial.one(self.HANKEL2, 3), MatrixShape.generic(2, 2))
