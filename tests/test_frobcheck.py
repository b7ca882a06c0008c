"""Fedder/Glassbrenner checks, prime containment, and the coefficient engines."""

import itertools
import random

import numpy as np
import pytest

from permcheck import frobcheck
from permcheck.fppoly import (
    Polynomial,
    PrimeModulus,
    StructureError,
    VariableSpace,
    parse_poly,
    truncate,
)
from permcheck.frobcheck import (
    _projective_class_count,
    _stabilizer_orbits,
    check_fpure,
    count_nonvanishing,
    fedder_ci_check,
    fedder_coefficient_fullsupport,
    fiber_count_3x4,
)
from permcheck.shapes import (
    IdealPresentation,
    MatrixShape,
    parse_shape,
    permanental_generators,
)
from permcheck.witnesses import (
    minimal_primes_generic,
    minimal_primes_symmetric,
)
from helpers import (
    _FiberKernel,
    _fiber_range_scalar,
    count_hi_block,
    evaluate,
    glassbrenner_witness_check,
    numpy_count_nonvanishing,
    pointcount_dtype,
    prime_contains,
    random_poly,
    rank_mod_p,
)


def ci(generators, shape=None, t=None):
    return IdealPresentation(
        generators=tuple(generators), complete_intersection=True, shape=shape, t=t
    )


class TestFedderCICheck:
    def test_monomial_ci_passes(self):
        xy = VariableSpace(("x1", "y1"))
        gens = ci([parse_poly("x1*y1", xy, 3)])
        assert fedder_ci_check(gens) == ((2, 2), 1)

    def test_square_fails(self):
        x = VariableSpace(("x1",))
        gens = ci([parse_poly("x1^2", x, 3)])
        assert fedder_ci_check(gens) is None

    def test_hankel_2_passes(self):
        shape = MatrixShape.hankel(2)
        gens = permanental_generators(shape, 2, char=3)
        # survivor = 2 z1 z2^2 z3 + z1^2 z3^2; its graded-lex lead is z1^2 z3^2
        assert fedder_ci_check(gens) == ((2, 0, 2), 1)

    def test_requires_ci_tag(self):
        shape = MatrixShape.generic(3, 3)
        gens = permanental_generators(shape, 2, char=3)
        with pytest.raises(ValueError):
            fedder_ci_check(gens)

    def test_older_two_argument_call(self):
        gens = permanental_generators(MatrixShape.hankel(2), 2, char=3)
        assert fedder_ci_check(gens, PrimeModulus(3)) == fedder_ci_check(gens)
        with pytest.raises(StructureError):
            fedder_ci_check(gens, PrimeModulus(5))

    # every whitelisted complete intersection whose omega^{p-1} takes under a
    # second at p = 3, 5, 7, and whether LT(omega) is squarefree
    WHITELISTED = [
        *((f"generic:{n}x{n}", n, p, True)
          for n in (2, 3, 4) for p in (3, 5, 7) if (n, p) != (4, 7)),
        *((f"symmetric:{n}", n, p, True)
          for n in (2, 3, 4, 5) for p in (3, 5, 7) if (n, p) != (5, 7)),
        ("symmetric:6", 6, 3, True),
        *((f"hankel:{n}", n, p, True)
          for n in (2, 3, 4, 5) for p in (3, 5, 7) if (n, p) != (5, 7)),
        ("hankel:6", 6, 3, True),
        ("hankel:6", 6, 5, True),
        *((spec, 2, p, False) for spec in ("generic:2x3", "generic:3x2") for p in (3, 5, 7)),
        *(("generic:3x4", 3, p, False) for p in (3, 5, 7)),
        ("generic:4x5", 4, 3, False),
    ]

    @pytest.mark.parametrize("spec, t, p, squarefree", WHITELISTED)
    def test_leading_term_certificate_matches_the_power(self, monkeypatch, spec, t, p, squarefree):
        gens = permanental_generators(parse_shape(spec), t, char=p)
        power = frobcheck._omega_power(gens)
        expected = None if power.is_zero else power.leading_term()
        powers = []
        monkeypatch.setattr(frobcheck, "_omega_power", lambda g: powers.append(g) or power)
        assert fedder_ci_check(gens) == expected
        # a squarefree LT(omega) answers without the power, at every p
        assert powers == ([] if squarefree else [gens])

    def test_unused_variable_does_not_change_verdict(self):
        rng = random.Random(42)
        for _ in range(30):
            p = rng.choice([3, 5])
            small = VariableSpace(("x1", "y1"))
            big = VariableSpace(("x1", "y1", "w1"))
            f_small = random_poly(rng, small, p, max_terms=3, max_exp=2, allow_zero=False)
            f_big = Polynomial(big, p, {m + (0,): c for m, c in f_small.items()})
            v1 = fedder_ci_check(ci([f_small]))
            v2 = fedder_ci_check(ci([f_big]))
            assert (v1 is None) == (v2 is None)


class TestGlassbrennerWitness:
    def setup_method(self):
        self.shape = MatrixShape.hankel(2)
        self.gens = permanental_generators(self.shape, 2, char=3)
        self.space = self.shape.space

    def test_lemma_style_witness(self):
        # z1 z3 * f_2^2 = 2 (z1 z2 z3)^2 modulo cubes, by hand
        c = parse_poly("z1*z3", self.space, 3)
        assert glassbrenner_witness_check(c, self.gens) == ((2, 2, 2), 2)

    def test_subpermanent_witness(self):
        # z1 * f_2^2 = 2 z1^2 z2^2 z3 modulo cubes, by hand
        c = Polynomial.variable(self.space, 3, 0)
        assert glassbrenner_witness_check(c, self.gens) == ((2, 2, 1), 2)

    def test_trivial_witness_reduces_to_fedder(self):
        one = Polynomial.one(self.space, 3)
        fedder = fedder_ci_check(self.gens)
        assert fedder is not None
        assert glassbrenner_witness_check(one, self.gens) == fedder

    def test_survivor_is_the_grlex_leading_term(self):
        # (a + b^2) (x1 y1)^2 keeps both terms; lex would report a x1^2 y1^2
        space = VariableSpace(("a", "b", "x1", "y1"))
        gens = ci([parse_poly("x1*y1", space, 3)])
        c = parse_poly("a + b^2", space, 3)
        assert glassbrenner_witness_check(c, gens) == ((0, 2, 2, 2), 1)

    def test_generator_variable_fails(self):
        xy = VariableSpace(("x1", "y1"))
        gens = ci([parse_poly("x1*y1", xy, 3)])
        c = Polynomial.variable(xy, 3, 0)
        assert glassbrenner_witness_check(c, gens) is None

    def test_trivial_witness_equals_fedder_on_random_ci(self):
        rng = random.Random(88)
        space = VariableSpace(("x1", "y1", "z1"))
        for p in (3, 5):
            one = Polynomial.one(space, p)
            for _ in range(50):
                gens = ci(
                    [
                        random_poly(rng, space, p, max_terms=3, max_exp=2, allow_zero=False)
                        for _ in range(rng.randrange(1, 3))
                    ]
                )
                assert glassbrenner_witness_check(one, gens) == fedder_ci_check(gens)


class TestPrimeContainment:
    def test_p2_generators_lie_in_every_minimal_prime(self):
        for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            shape = MatrixShape.generic(m, n)
            p2 = permanental_generators(shape, 2, char=3)
            for prime in minimal_primes_generic(m, n):
                for g in p2.generators:
                    assert prime_contains(prime, g)
        for n in (2, 3, 4):
            shape = MatrixShape.symmetric(n)
            p2 = permanental_generators(shape, 2, char=3)
            for prime in minimal_primes_symmetric(n):
                for g in p2.generators:
                    assert prime_contains(prime, g)

    def test_non_member_detected(self):
        prime = minimal_primes_generic(2, 3)[0]
        g = Polynomial.variable(prime.space, 3, prime.binomial[0].index(1))
        assert not prime_contains(prime, g)


class TestFedderCoefficient:
    def test_hankel_1(self):
        shape = MatrixShape.hankel(1)
        gens = permanental_generators(shape, 1, char=3)
        assert fedder_coefficient_fullsupport(gens, "truncated") == 1
        assert fedder_coefficient_fullsupport(gens, "pointcount") == 1

    def test_unknown_method_refused(self):
        gens = permanental_generators(MatrixShape.hankel(1), 1, char=3)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            fedder_coefficient_fullsupport(gens, "bogus")

    def test_methods_agree_on_random_ci(self):
        # the point count is the oracle for both truncated routes: the
        # coefficient, and fedder_ci_check's verdict (a squarefree leading
        # term when it has one, else the computed power)
        rng = random.Random(55)
        verdicts = set()
        for p in (3, 5):
            for v in (1, 2, 3):
                space = VariableSpace(tuple(f"z{i+1}" for i in range(v)))
                for _ in range(25):
                    # random generators whose degrees sum to v
                    degrees = []
                    left = v
                    while left:
                        d = rng.randrange(1, left + 1)
                        degrees.append(d)
                        left -= d
                    gens = []
                    for d in degrees:
                        terms = {}
                        while not terms:
                            for _ in range(rng.randrange(1, 4)):
                                mono = [0] * v
                                for _ in range(d):
                                    mono[rng.randrange(v)] += 1
                                terms[tuple(mono)] = rng.randrange(1, p)
                        gens.append(Polynomial(space, p, terms))
                    if any(g.is_zero for g in gens):
                        continue
                    if sum(g.total_degree() for g in gens) != v:
                        continue
                    pres = ci(gens)
                    c1 = fedder_coefficient_fullsupport(pres, "truncated")
                    c2 = fedder_coefficient_fullsupport(pres, "pointcount")
                    assert c1 == c2
                    assert count_nonvanishing(pres, p) == numpy_count_nonvanishing(pres, p)
                    assert (fedder_ci_check(pres) is None) == (c2 == 0)
                    verdicts.add(c2 == 0)
        assert verdicts == {False, True}

    def test_generic_3x4_p3_all_methods_agree(self):
        # v = 12 is even, so the coefficient is the fiber count mod p
        shape = MatrixShape.generic(3, 4)
        gens = permanental_generators(shape, 3, char=3)
        for method in ("truncated", "pointcount"):
            assert fedder_coefficient_fullsupport(gens, method) == fiber_count_3x4(3) % 3

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_generic_3x4_is_a_ci_of_degree_v(self, p):
        # the scan's coefficient (-1)^v * fiber_count_3x4(p) mod p rests on these facts
        shape = MatrixShape.generic(3, 4)
        gens = check_fpure(shape, 3, p, "truncated")
        assert gens.complete_intersection
        assert len(gens.generators) == 4
        assert sum(g.total_degree() for g in gens.generators) == 12 == shape.variable_count

    def test_degree_precondition(self):
        xy = VariableSpace(("x1", "y1"))
        gens = ci([parse_poly("x1", xy, 3)])
        with pytest.raises(ValueError):
            fedder_coefficient_fullsupport(gens)

    def test_fiber_is_no_method(self):
        # the fiber count answers the scan only, through fiber_count_3x4
        gens = permanental_generators(MatrixShape.generic(3, 4), 3, char=3)
        with pytest.raises(ValueError, match="unknown method 'fiber'"):
            fedder_coefficient_fullsupport(gens, "fiber")


@pytest.fixture(scope="module")
def unreduced_blocks():
    """count_colblock(hi) for every one of the p^3 column blocks, p in {3, 5, 7}."""
    blocks = {}
    for p in (3, 5, 7):
        kernel = _FiberKernel(p)
        blocks[p] = [kernel.count_colblock(hi) for hi in range(p**3)]
    return blocks


class TestFiberEngine:
    def test_rank_mod_p(self):
        assert rank_mod_p([], 3) == 0
        assert rank_mod_p([[0, 0, 0]], 3) == 0
        assert rank_mod_p([[1, 2, 0]], 3) == 1
        assert rank_mod_p([[1, 2, 0], [2, 4, 0]], 3) == 1
        assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5) == 3
        assert rank_mod_p([[1, 1, 1], [2, 2, 2], [0, 1, 0]], 3) == 2

    def test_kernel_matches_scalar_p3_full(self):
        total_scalar = _fiber_range_scalar(3, 0, 3**9)
        assert fiber_count_3x4(3) == total_scalar

    def test_kernel_matches_scalar_p5_blocks(self):
        kernel = _FiberKernel(5)
        rng = random.Random(99)
        for hi in rng.sample(range(5**3), 4):
            start = hi * 5**6
            assert kernel.count_colblock(hi) == _fiber_range_scalar(5, start, start + 5**6)

    def test_count_matches_pointcount(self):
        for p in (3,):
            shape = MatrixShape.generic(3, 4)
            gens = permanental_generators(shape, 3, char=p)
            assert fiber_count_3x4(p) == count_nonvanishing(gens, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_block_equals_its_class_value(self, unreduced_blocks, p):
        blocks = unreduced_blocks[p]
        # representatives of 0, 1, 2 and 3 zeros in the first column
        value = [blocks[p * p + p + 1], blocks[p * p + p], blocks[p * p], 0]
        for hi in range(p**3):
            zeros = sum(d == 0 for d in (hi // (p * p), hi // p % p, hi % p))
            assert blocks[hi] == value[zeros], (p, hi)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_unreduced_sum_matches(self, unreduced_blocks, p):
        blocks = unreduced_blocks[p]
        c0, c1, c2 = blocks[p * p + p + 1], blocks[p * p + p], blocks[p * p]
        total = sum(blocks)
        assert total == (p - 1) ** 3 * c0 + 3 * (p - 1) ** 2 * c1 + 3 * (p - 1) * c2
        assert fiber_count_3x4(p) == total

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_projective_classes_match_unreduced_blocks(self, unreduced_blocks, p):
        # each pair of projective classes of columns 2 and 3 stands for its
        # (p-1)^2 unit scalings in the oracle's p^6 blocks
        for column, hi in [((1, 1, 1), p * p + p + 1), ((1, 1, 0), p * p + p), ((1, 0, 0), p * p)]:
            assert unreduced_blocks[p][hi] == (p - 1) ** 2 * _projective_class_count(p, column)

    def test_pair_bound_refuses_before_the_first_pass(self, monkeypatch):
        pairs = 31**2  # p = 5: 31 projective points for each of columns 2 and 3
        monkeypatch.setattr(frobcheck, "MAX_FIBER_PAIRS", pairs)
        assert fiber_count_3x4(5) > 0
        monkeypatch.setattr(frobcheck, "MAX_FIBER_PAIRS", pairs - 1)
        monkeypatch.setattr(frobcheck, "_projective_class_count", None)
        with pytest.raises(ValueError, match="visits 961 column pairs"):
            fiber_count_3x4(5)

    def test_pair_bound_admits_the_pinned_primes(self):
        # tier-1 runs p <= 37, the closed-form scan needs p <= 53, and p = 79
        # (1.6 s) up to p = 107 (3.7 s) run; p = 109 is the first prime refused,
        # and p = 1009 would run for days
        for p in (53, 79, 107):
            frobcheck._check_fiber_size(p)
        with pytest.raises(ValueError, match="visits 143784081 column pairs"):
            frobcheck._check_fiber_size(109)
        with pytest.raises(ValueError, match="more than"):
            fiber_count_3x4(1009)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("column", [(1, 1, 1), (1, 1, 0), (1, 0, 0)], ids=["111", "110", "100"])
    def test_orbits_partition_the_plane(self, column, p):
        plane = {(1, x, y) for x in range(p) for y in range(p)}
        plane |= {(0, 1, y) for y in range(p)} | {(0, 0, 1)}
        orbits = _stabilizer_orbits(p, column)
        members = [set(orbit) for orbit in orbits]
        assert all(len(m) == len(orbit) for m, orbit in zip(members, orbits))
        assert len(set().union(*members)) == sum(map(len, members))  # disjoint
        assert set().union(*members) == plane
        assert sum(map(len, orbits)) == p * p + p + 1
        # the moves that fix the column: swapping two rows with equal entries,
        # scaling a row with entry 0 by any unit
        swaps = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if column[i] == column[j]]
        zeros = [i for i in range(3) if column[i] == 0]

        def images(q):
            for i, j in swaps:
                image = list(q)
                image[i], image[j] = q[j], q[i]
                yield image
            for i in zeros:
                for unit in range(2, p):
                    image = list(q)
                    image[i] = q[i] * unit % p
                    yield image

        def normalized(q):
            lead = next(x for x in q if x % p)
            return tuple(x * pow(lead, -1, p) % p for x in q)

        for orbit in members:
            for q in orbit:
                assert all(normalized(image) in orbit for image in images(q)), (q, orbit)

    def test_regression_pin_closed_form_5_to_37(self):
        # a regression pin of the engine, not a proof: ROADMAP item 8's fitted
        # N(p) = (p-1)^6 (p^6 + 2p^5 + 3p^4 + 10p^3 - 4p^2 + 14p + eps_p), with
        # eps_p = a_p^2 - 2p for p = 1 mod 3 (else 0) and a_p = p + 1 - #E(F_p)
        # for E: y^2 = x^3 + 1, counted here point by point
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            affine = sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - 1) % p == 0)
            a_p = p + 1 - (affine + 1)
            eps = a_p * a_p - 2 * p if p % 3 == 1 else 0
            poly = p**6 + 2 * p**5 + 3 * p**4 + 10 * p**3 - 4 * p**2 + 14 * p + eps
            assert fiber_count_3x4(p) == (p - 1) ** 6 * poly, p


def pointcount_entries(gens, p, b):
    """The packed lanes a point count holds with blocks of p^b lo points:
    p - 1 unit multiples of every block monomial and every prefix of one,
    plus a mask per value tuple of each generator's hi monomials, at most
    p^h of them for its h hi variables."""
    v = gens.space.count
    k_hi = v - v // 2
    monos = [m for g in gens.generators for m, _ in g.items()]
    prefixes = {m[k_hi:k_hi + j] for m in monos for j in range(b + 1)}
    hi_vars = [{j for m, _ in g.items() for j in range(k_hi) if m[j]} for g in gens.generators]
    return (p - 1) * sum(p ** len(q) for q in prefixes) + sum(p ** len(h) for h in hi_vars) * p**b


def no_tables(*args):
    raise AssertionError("a table was built")


class TestPointCount:
    def test_trivial_never_vanishing(self):
        space = VariableSpace(("x1", "y1"))
        gens = ci([Polynomial.constant(space, 3, 2)])
        assert count_nonvanishing(gens, 3) == 9

    def test_single_variable(self):
        space = VariableSpace(("x1", "y1"))
        gens = ci([Polynomial.variable(space, 3, 0)])
        assert count_nonvanishing(gens, 3) == 6  # x != 0: 2 choices x 3 for y

    def test_matches_direct_enumeration(self, monkeypatch):
        # v = 1 leaves the lo half empty, odd v makes the hi half the larger one
        rng = random.Random(60)
        cases = []
        for v in (1, 2, 3, 4, 5):
            space = VariableSpace(tuple(f"z{i+1}" for i in range(v)))
            for _ in range(8):
                p = rng.choice([3, 5] if v == 5 else [3, 5, 7])
                polys = [
                    random_poly(rng, space, p, max_terms=5, max_exp=3, allow_zero=False)
                    for _ in range(rng.randrange(1, 4))
                ]
                if rng.random() < 0.3:
                    polys.append(Polynomial.constant(space, p, rng.randrange(1, p)))
                direct = sum(
                    1
                    for point in itertools.product(range(p), repeat=v)
                    if all(evaluate(g, point) != 0 for g in polys)
                )
                assert count_nonvanishing(ci(polys), p) == direct
                assert numpy_count_nonvanishing(ci(polys), p) == direct
                cases.append((ci(polys), p, direct))
        assert any(max(len(g) for g in gens.generators) == 5 for gens, _, _ in cases)
        # one lane per block of lo points
        monkeypatch.setattr(frobcheck, "POINTCOUNT_CHUNK", 1)
        for gens, p, direct in cases:
            assert count_nonvanishing(gens, p) == direct
        # blocks of p lanes, so several blocks per row from v = 4 on
        monkeypatch.setattr(frobcheck, "POINTCOUNT_CHUNK", 7)
        for gens, p, direct in cases:
            assert count_nonvanishing(gens, p) == direct

    @pytest.mark.parametrize("m, n, t, p", [
        (2, 3, 2, 3), (2, 3, 2, 5), (2, 3, 2, 7), (2, 3, 2, 11), (2, 3, 2, 13),
        (3, 4, 3, 3), (3, 4, 3, 5),
    ])
    def test_matches_numpy_reference(self, m, n, t, p):
        # 3x4 at p = 5 runs five blocks of 5^5 lo points; the others one block
        gens = permanental_generators(MatrixShape.generic(m, n), t, char=p)
        count = count_nonvanishing(gens, p)
        assert count == numpy_count_nonvanishing(gens, p)
        if p**gens.space.count <= 7**6:
            direct = sum(
                1
                for point in itertools.product(range(p), repeat=gens.space.count)
                if all(evaluate(g, point) for g in gens.generators)
            )
            assert count == direct

    def test_wide_accumulator_matches_direct_enumeration(self):
        # 18-bit lanes; the numpy reference sums 2 * (p-1)^2 past 2^32 in uint64
        p = 65537
        space = VariableSpace(("z1",))
        polys = [parse_poly("z1^2 + 1", space, p), parse_poly("z1^3 + 5*z1 + 7", space, p)]
        direct = sum(1 for x in range(p) if all(evaluate(g, (x,)) != 0 for g in polys))
        assert count_nonvanishing(ci(polys), p) == direct
        assert pointcount_dtype(2, p) is np.uint64
        assert numpy_count_nonvanishing(ci(polys), p) == direct

    def test_oversized_prime_is_refused_before_any_table(self, monkeypatch):
        # one variable at p = 2^31 - 1: p - 1 unit tables of one lane each
        p = 2**31 - 1
        space = VariableSpace(("z1",))
        monkeypatch.setattr(frobcheck, "_packed_tables", no_tables)
        monkeypatch.setattr(frobcheck, "_value_list", no_tables)
        g = parse_poly("z1^4 + z1^3 + z1^2 + z1 + 1", space, p)
        with pytest.raises(ValueError, match=f"needs {(p - 1) + p} packed lanes"):
            count_nonvanishing(ci([g]), p)

    @pytest.mark.parametrize("m, n, t, p, chunk, b", [
        (2, 3, 2, 5, 1 << 12, 3), (3, 3, 3, 3, 1 << 12, 4), (2, 3, 2, 5, 25, 2),
    ])
    def test_table_guard_counts_the_built_entries(self, monkeypatch, m, n, t, p, chunk, b):
        # v = 6 splits evenly, v = 9 has the larger hi half; the lo half is
        # one block, or 5 blocks of 25 lanes that hold masks for one block only
        gens = permanental_generators(MatrixShape.generic(m, n), t, char=p)
        monkeypatch.setattr(frobcheck, "POINTCOUNT_CHUNK", chunk)
        assert frobcheck._block_exponent(p, gens.space.count // 2) == b
        entries = pointcount_entries(gens, p, b)
        expected = count_nonvanishing(gens, p)
        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_ENTRIES", entries)
        assert count_nonvanishing(gens, p) == expected

        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_ENTRIES", entries - 1)
        monkeypatch.setattr(frobcheck, "_packed_tables", no_tables)
        monkeypatch.setattr(frobcheck, "_value_list", no_tables)
        with pytest.raises(ValueError, match=f"needs {entries} packed lanes"):
            count_nonvanishing(gens, p)

    @pytest.mark.parametrize("m, n, t, p", [(2, 3, 2, 5), (3, 3, 3, 3)])
    def test_point_guard_counts_the_visited_points(self, monkeypatch, m, n, t, p):
        gens = permanental_generators(MatrixShape.generic(m, n), t, char=p)
        points = p**gens.space.count
        expected = count_nonvanishing(gens, p)
        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_POINTS", points)
        assert count_nonvanishing(gens, p) == expected

        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_POINTS", points - 1)
        monkeypatch.setattr(frobcheck, "_packed_tables", no_tables)
        monkeypatch.setattr(frobcheck, "_value_list", no_tables)
        with pytest.raises(ValueError, match=f"visits {points} points"):
            count_nonvanishing(gens, p)


class TestNumpyPointCountReference:
    """The dtype arithmetic of the numpy reference in tests/helpers.py."""

    @pytest.mark.parametrize("p, terms", [(32749, 4), (2**31 - 1, 4)])
    def test_block_sums_near_the_dtype_bound(self, p, terms):
        # terms * (p-1)^2 is just below 2^32, then just below 2^64
        dtype = pointcount_dtype(terms, p)
        assert dtype is (np.uint32 if p < 2**16 else np.uint64)
        rng = random.Random(p)
        # constant rows, each a unit multiple of the all-(p-1) row 0, then random rows
        hi = [[p - 1] * terms] + [[p - lam] * terms for lam in rng.sample(range(2, p), 3)]
        hi += [[rng.choice([p - 1, rng.randrange(p)]) for _ in range(terms)] for _ in range(3)]
        cols = 40
        lo = [[rng.choice([p - 1, rng.randrange(p)]) for _ in range(cols)] for _ in range(terms)]
        for t in range(terms):
            lo[t][0] = p - 1  # the largest sum, terms * (p-1)^2
        for c in range(1, cols, 2):
            # columns summing to 0 mod p vanish on every constant row
            lo[-1][c] = -sum(lo[t][c] for t in range(terms - 1)) % p
        sums = [sum(h[t] * lo[t][c] for t in range(terms)) for h in hi for c in range(cols)]
        assert max(sums) == terms * (p - 1) ** 2
        expected = sum(1 for total in sums if total % p)
        assert expected <= len(sums) - 4 * (cols // 2)
        tables = [(np.array(hi, dtype=dtype).T, np.array(lo, dtype=dtype))]
        assert count_hi_block(tables, p, 0, len(hi)) == expected

    def test_dtype_bound_is_exact(self):
        assert pointcount_dtype(2**32 - 1, 2) is np.uint32
        assert pointcount_dtype(2**32, 2) is np.uint64
        assert pointcount_dtype(2**64 - 1, 2) is np.uint64
        with pytest.raises(ValueError, match="overflow"):
            pointcount_dtype(2**64, 2)
