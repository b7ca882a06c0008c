"""Matrix shapes, symbolic permanents, and permanental generators."""

import itertools
import math
import random

import pytest

from permcheck import shapes
from permcheck.fppoly import Polynomial, StructureError, parse_poly
from permcheck.shapes import (
    IdealPresentation,
    MatrixShape,
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


def entry_names(shape):
    return [
        [shape.space.names[shape.entry_index(i, j)] for j in range(shape.ncols)]
        for i in range(shape.nrows)
    ]


class TestMatrixShape:
    def test_hankel_2(self):
        assert entry_names(MatrixShape.hankel(2)) == [["z1", "z2"], ["z2", "z3"]]

    def test_symmetric_2(self):
        assert entry_names(MatrixShape.symmetric(2)) == [["y1_1", "y1_2"], ["y1_2", "y2_2"]]

    def test_generic_2x3_all_distinct(self):
        shape = MatrixShape.generic(2, 3)
        entries = {shape.entry_index(i, j) for i in range(2) for j in range(3)}
        assert len(entries) == 6
        assert shape.space.count == 6

    def test_hankel_antidiagonal_constraint(self):
        shape = MatrixShape.hankel(4)
        for i, j in itertools.product(range(4), repeat=2):
            for k in range(j - i + 1):
                assert shape.entry_index(i, j) == shape.entry_index(i + k, j - k)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            MatrixShape.generic(0, 2)

    def test_non_square_symmetric_rejected(self):
        with pytest.raises(ValueError):
            MatrixShape("symmetric", 2, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shape kind 'square'"):
            MatrixShape("square", 2, 2)

    def test_entry_out_of_range(self):
        with pytest.raises(IndexError, match=r"entry \(2, 0\) out of range"):
            MatrixShape.generic(2, 3).entry_index(2, 0)

    def test_space_is_built_once_and_only_on_use(self):
        # 10^10 names could not be held: a shape this large must stay cheap
        huge = MatrixShape.generic(100000, 100000)
        assert "space" not in vars(huge)
        shape = MatrixShape.hankel(3)
        assert shape.space is shape.space
        assert shape.space.names == shape.var_names() == ("z1", "z2", "z3", "z4", "z5")

    @pytest.mark.parametrize("size", range(1, 7))
    def test_variable_count_matches_the_names(self, size):
        shapes_of_size = [MatrixShape.symmetric(size), MatrixShape.hankel(size)]
        shapes_of_size += [MatrixShape.generic(size, n) for n in range(1, 7)]
        for shape in shapes_of_size:
            assert shape.variable_count == len(shape.var_names()), shape

    def test_variable_count_builds_no_space(self):
        huge = MatrixShape.generic(100000, 100000)
        assert huge.variable_count == 10**10
        assert "space" not in vars(huge)


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
        shape = MatrixShape.hankel(2)
        assert permanent(shape, char=3) == parse_poly("z2^2 + z1*z3", shape.space, 3)

    def test_one_by_one(self):
        shape = MatrixShape.hankel(1)
        assert permanent(shape, char=3) == Polynomial.variable(shape.space, 3, 0)

    def test_empty_selection_is_one(self):
        shape = MatrixShape.hankel(2)
        assert permanent(shape, rows=(), cols=(), char=3) == Polynomial.one(shape.space, 3)

    def test_oversized_selection_refused_before_the_dp(self, monkeypatch):
        shape = MatrixShape.generic(9, 9)
        # every step of the DP is a mul_sum: reaching one fails with TypeError
        monkeypatch.setattr(shapes, "mul_sum", None)
        with pytest.raises(ValueError, match="size 9 exceeds limit 8"):
            permanent(shape, char=3)

    @pytest.mark.parametrize("char", [2, 9])
    def test_characteristic_must_be_an_odd_prime(self, char):
        # the DP builds no Polynomial before its result, so it checks p itself
        shape = MatrixShape.hankel(2)
        for s in (0, 2):
            with pytest.raises(ValueError, match="odd prime"):
                permanent(shape, rows=range(s), cols=range(s), char=char)

    def test_all_ones_point_gives_factorial(self):
        # each of the n! permutations adds 1 at the all-ones point, also where
        # repeated variables (symmetric, Hankel) collect terms in the DP
        for n in range(1, 6):
            for shape in (MatrixShape.generic(n, n), MatrixShape.symmetric(n), MatrixShape.hankel(n)):
                poly = permanent(shape, char=10007)
                assert evaluate(poly, (1,) * shape.space.count) == math.factorial(n), shape

    def test_matches_brute_force_all_shapes(self):
        for shape in ALL_SMALL_SHAPES:
            for s in range(1, min(shape.nrows, shape.ncols, 4) + 1):
                rows = tuple(range(s))
                cols = tuple(range(shape.ncols - s, shape.ncols))
                assert permanent(shape, rows, cols, char=5) == brute_permanent(
                    shape, rows, cols, 5
                )

    def test_row_and_column_permutation_invariance(self):
        rng = random.Random(3)
        for shape in ALL_SMALL_SHAPES:
            s = min(shape.nrows, shape.ncols, 4)
            rows = tuple(rng.sample(range(shape.nrows), s))
            cols = tuple(rng.sample(range(shape.ncols), s))
            base = permanent(shape, rows, cols, char=5)
            for _ in range(3):
                pr = tuple(rng.sample(rows, s))
                pc = tuple(rng.sample(cols, s))
                assert permanent(shape, pr, pc, char=5) == base

    def test_transpose_invariance(self):
        # perm(A) = perm(A^T): the generic DP against the permutation sum of
        # the transposed selection; a symmetric or Hankel matrix is its own
        # transpose, so swapping rows and columns keeps its permanents
        rng = random.Random(4)
        generic = MatrixShape.generic(4, 4)
        space = generic.space
        for s in (2, 3, 4):
            rows = tuple(rng.sample(range(4), s))
            cols = tuple(rng.sample(range(4), s))
            transposed = Polynomial.zero(space, 5)
            for perm in itertools.permutations(range(s)):
                term = Polynomial.one(space, 5)
                for a in range(s):  # row a of A^T is column cols[a] of A
                    term = term * Polynomial.variable(
                        space, 5, generic.entry_index(rows[perm[a]], cols[a])
                    )
                transposed = transposed + term
            assert permanent(generic, rows, cols, char=5) == transposed
        for shape in (MatrixShape.symmetric(4), MatrixShape.hankel(4)):
            for s in (2, 3, 4):
                rows = tuple(rng.sample(range(4), s))
                cols = tuple(rng.sample(range(4), s))
                assert permanent(shape, rows, cols, char=5) == permanent(shape, cols, rows, char=5)

    def test_size_limit(self):
        shape = MatrixShape.generic(9, 9)
        with pytest.raises(ValueError):
            permanent(shape, char=3)

    def test_non_square_selection(self):
        shape = MatrixShape.generic(2, 3)
        with pytest.raises(ValueError):
            permanent(shape, rows=(0,), cols=(0, 1), char=3)


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
            s = min(shape.nrows, shape.ncols, 4)
            rows, cols = tuple(range(s)), tuple(range(s))
            poly = permanent(shape, rows, cols, char=7)
            for _ in range(10):
                point = random_point(rng, shape.space, 7)
                numeric = [[point[shape.entry_index(i, j)] for j in cols] for i in rows]
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
        shape = MatrixShape.generic(2, 2)
        gens = permanental_generators(shape, 2, char=3)
        assert len(gens.generators) == 1
        assert gens.generators[0] == parse_poly("x1_1*x2_2 + x1_2*x2_1", shape.space, 3)
        assert gens.complete_intersection  # square hypersurface

    def test_generic_counts_t2(self):
        for m, n in [(2, 3), (3, 3), (3, 4), (4, 4)]:
            shape = MatrixShape.generic(m, n)
            gens = permanental_generators(shape, 2, char=3)
            assert len(gens.generators) == math.comb(m, 2) * math.comb(n, 2)

    def test_generic_3x4_t3_complete_intersection(self):
        shape = MatrixShape.generic(3, 4)
        gens = permanental_generators(shape, 3, char=3)
        assert len(gens.generators) == 4
        assert gens.complete_intersection

    def test_generic_2x3_t2_complete_intersection(self):
        shape = MatrixShape.generic(2, 3)
        gens = permanental_generators(shape, 2, char=3)
        assert len(gens.generators) == 3
        assert gens.complete_intersection

    def test_generic_3x3_t2_unstructured(self):
        shape = MatrixShape.generic(3, 3)
        assert not permanental_generators(shape, 2, char=3).complete_intersection

    def test_hankel_square_is_hypersurface(self):
        for n in (1, 2, 3, 4):
            shape = MatrixShape.hankel(n)
            gens = permanental_generators(shape, n, char=3)
            assert len(gens.generators) == 1
            assert gens.complete_intersection

    def test_symmetric_duplicates_reported(self):
        shape = MatrixShape.symmetric(3)
        gens = permanental_generators(shape, 2, char=3)
        assert len(gens.generators) == 6
        assert len(gens.duplicates) == 3
        # every duplicate names an earlier selection with an equal polynomial
        for (rows, cols), (first_rows, first_cols) in gens.duplicates:
            dup = permanent(shape, rows, cols, char=3)
            first = permanent(shape, first_rows, first_cols, char=3)
            assert dup == first

    def test_hankel_duplicates(self):
        shape = MatrixShape.hankel(3)
        gens = permanental_generators(shape, 2, char=3)
        assert len(gens.generators) + len(gens.duplicates) == 9

    def test_t_out_of_range(self):
        shape = MatrixShape.generic(2, 3)
        with pytest.raises(ValueError):
            permanental_generators(shape, 3, char=3)

    def test_zero_generator_refused(self):
        one = Polynomial.one(MatrixShape.hankel(2).space, 3)
        with pytest.raises(ValueError, match="generators must be nonzero"):
            IdealPresentation((one, one - one))


class TestGeneratorSize:
    @pytest.mark.parametrize("shape, t", [
        (MatrixShape.generic(2, 3), 2), (MatrixShape.generic(3, 4), 3),
        (MatrixShape.symmetric(3), 2), (MatrixShape.hankel(4), 3),
    ])
    def test_guard_counts_selections_terms_and_variables(self, monkeypatch, shape, t):
        gens = permanental_generators(shape, t, char=5)
        m, n = shape.nrows, shape.ncols
        entries = math.comb(m, t) * math.comb(n, t) * math.factorial(t) * shape.space.count
        built = sum(len(g) for g in gens.generators) * shape.space.count
        # exact for a generic shape; symmetric and Hankel permanents collide
        assert built == entries if shape.kind == "generic" else built < entries
        monkeypatch.setattr(shapes, "MAX_GENERATOR_ENTRIES", entries)
        assert permanental_generators(shape, t, char=5) == gens
        monkeypatch.setattr(shapes, "MAX_GENERATOR_ENTRIES", entries - 1)
        with pytest.raises(ValueError, match="exponent entries"):
            permanental_generators(shape, t, char=5)

    def test_oversized_shape_is_refused_before_its_space(self, monkeypatch):
        # 10^10 variables: the guard reads m, n and t, never the names
        def never(*args, **kwargs):
            raise AssertionError("a permanent was built before the shape was refused")

        monkeypatch.setattr(shapes, "permanent", never)
        shape = MatrixShape.generic(100000, 100000)
        with pytest.raises(ValueError, match="exponent entries"):
            permanental_generators(shape, 2, char=3)
        assert "space" not in vars(shape)


class TestHankelSpecialization:
    HANKEL2 = MatrixShape.hankel(2).space

    def test_generic_to_hankel(self):
        shape = MatrixShape.generic(2, 2)
        perm = parse_poly("x1_1*x2_2 + x1_2*x2_1", shape.space, 3)
        assert hankel_image(perm, shape) == parse_poly("z1*z3 + z2^2", self.HANKEL2, 3)

    def test_symmetric_to_hankel(self):
        shape = MatrixShape.symmetric(3)
        f = parse_poly("y1_3*y2_2 + 2*y2_2^2 + y3_3", shape.space, 5)
        z5 = MatrixShape.hankel(3).space
        assert hankel_image(f, shape) == parse_poly("3*z3^2 + z5", z5, 5)

    def test_colliding_terms_cancel_mod_p(self):
        # x1_2 and x2_1 both become z2, and 1 + 2 = 0 at p = 3
        shape = MatrixShape.generic(2, 2)
        f = parse_poly("x1_2^2 + 2*x1_2*x2_1", shape.space, 3)
        assert hankel_image(f, shape) == Polynomial.zero(self.HANKEL2, 3)

    def test_perm_match_n2(self):
        hankel = permanent(MatrixShape.hankel(2), char=3)
        for shape in (MatrixShape.generic(2, 2), MatrixShape.symmetric(2)):
            assert hankel_image(permanent(shape, char=3), shape) == hankel

    def test_identification_counts(self):
        # variables merged away: source count minus Hankel count, as thm36 reports
        for n, generic, symmetric in [(1, 0, 0), (2, 1, 0), (3, 4, 1), (5, 16, 6)]:
            hankel = len(MatrixShape.hankel(n).var_names())
            assert len(MatrixShape.generic(n, n).var_names()) - hankel == generic
            assert len(MatrixShape.symmetric(n).var_names()) - hankel == symmetric

    def test_generator_sets_map_onto_hankel(self):
        for n in (2, 3):
            shape = MatrixShape.generic(n, n)
            hankel = MatrixShape.hankel(n)
            for t in range(1, n + 1):
                g_gens = permanental_generators(shape, t, char=3)
                h_gens = permanental_generators(hankel, t, char=3)
                mapped = {
                    tuple(sorted(hankel_image(g, shape).items())) for g in g_gens.generators
                }
                target = {tuple(sorted(h.items())) for h in h_gens.generators}
                assert mapped == target

    def test_non_square_shape_refused(self):
        shape = MatrixShape.generic(2, 3)
        with pytest.raises(ValueError):
            hankel_image(Polynomial.one(shape.space, 3), shape)

    def test_polynomial_outside_the_shape_refused(self):
        with pytest.raises(StructureError):
            hankel_image(Polynomial.one(self.HANKEL2, 3), MatrixShape.generic(2, 2))
