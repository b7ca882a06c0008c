"""Fedder/Glassbrenner checks, colon membership, and the coefficient engines."""

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
    _count_hi_block,
    _pointcount_dtype,
    _projective_class_count,
    colon_membership,
    count_nonvanishing,
    fedder_ci_check,
    fedder_coefficient_fullsupport,
    fiber_count_3x4,
    glassbrenner_witness_check,
)
from permcheck.shapes import (
    IdealPresentation,
    MatrixShape,
    build_matrix,
    permanental_generators,
)
from permcheck.witnesses import (
    minimal_primes_generic,
    minimal_primes_symmetric,
    witness_generic,
    witness_symmetric,
)
from helpers import (
    _FiberKernel,
    _fiber_range_scalar,
    evaluate,
    in_frobenius_power,
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
        mat = build_matrix(MatrixShape.hankel(2))
        gens = permanental_generators(mat, 2, char=3)
        # survivor = 2 z1 z2^2 z3 + z1^2 z3^2; its graded-lex lead is z1^2 z3^2
        assert fedder_ci_check(gens) == ((2, 0, 2), 1)

    def test_requires_ci_tag(self):
        mat = build_matrix(MatrixShape.generic(3, 3))
        gens = permanental_generators(mat, 2, char=3)
        with pytest.raises(ValueError):
            fedder_ci_check(gens)

    def test_older_two_argument_call(self):
        gens = permanental_generators(build_matrix(MatrixShape.hankel(2)), 2, char=3)
        assert fedder_ci_check(gens, PrimeModulus(3)) == fedder_ci_check(gens)
        with pytest.raises(StructureError):
            fedder_ci_check(gens, PrimeModulus(5))

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
        self.mat = build_matrix(MatrixShape.hankel(2))
        self.gens = permanental_generators(self.mat, 2, char=3)
        self.space = self.mat.space

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


class TestColonMembership:
    def test_generic_23_all_primes(self):
        f = witness_generic(2, 3, 3)
        for prime in minimal_primes_generic(2, 3):
            cert = colon_membership(f, prime)
            assert cert is not None, prime.label
            assert cert.replay(f.space, 3) == f

    def test_symmetric_3_all_primes(self):
        f = witness_symmetric(3, 3)
        for prime in minimal_primes_symmetric(3):
            cert = colon_membership(f, prime)
            assert cert is not None
            assert cert.replay(f.space, 3) == f

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 1009])
    def test_closed_form_powers_match_repeated_products(self, p):
        # a generic block a*d + b*c and a symmetric one y11*y22 + y12^2
        for prime in (minimal_primes_generic(2, 3)[0], minimal_primes_symmetric(3)[0]):
            b = prime.binomial(p)
            u, w = frobcheck._block_exponents(prime.block, prime.space.count)
            b_pm1, b_p = frobcheck._closed_form_powers(u, w, prime.space, p)
            assert b_pm1 == b ** (p - 1)
            assert b_p == b ** p

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("witness, minimal_primes, size", [
        (witness_generic, minimal_primes_generic, (2, 3)),
        (witness_generic, minimal_primes_generic, (3, 3)),
        (witness_generic, minimal_primes_generic, (4, 4)),
        (witness_symmetric, minimal_primes_symmetric, (3,)),
        (witness_symmetric, minimal_primes_symmetric, (5,)),
    ], ids=["generic:2x3", "generic:3x3", "generic:4x4", "symmetric:3", "symmetric:5"])
    def test_witness_certificates_have_one_entry_per_generator(
        self, witness, minimal_primes, size, p
    ):
        # one multiplier per variable generator, one of b^p and one of omega^{p-1}
        f = witness(*size, p)
        for prime in minimal_primes(*size):
            cert = colon_membership(f, prime)
            assert cert is not None, prime.label
            assert len(cert.entries) <= len(prime.variable_gens) + 2, prime.label
            assert cert.replay(f.space, p) == f

    def test_replay_refuses_an_entry_from_another_characteristic(self):
        prime = minimal_primes_generic(2, 2)[0]
        one = Polynomial.one(prime.space, 5)
        cert = frobcheck.ColonMembershipCertificate(((one, one),))
        with pytest.raises(StructureError):
            cert.replay(prime.space, 3)

    def test_constant_one_is_not_member(self):
        for prime in minimal_primes_generic(2, 3):
            one = Polynomial.one(prime.space, 3)
            assert colon_membership(one, prime) is None

    def test_omega_power_is_member(self):
        for prime in minimal_primes_generic(3, 3)[:5]:
            omega = prime.omega(3)
            assert colon_membership(omega**2, prime) is not None

    def test_random_multiples_are_members(self):
        rng = random.Random(77)
        primes = minimal_primes_generic(2, 3) + minimal_primes_symmetric(3)
        for prime in primes:
            p = 3
            gens = prime.generators(p)
            omega_pm1 = prime.omega(p) ** (p - 1)
            for _ in range(5):
                f = omega_pm1 * random_poly(rng, prime.space, p, max_terms=2, max_exp=1)
                g = rng.choice(gens)
                f = f + g**p * random_poly(rng, prime.space, p, max_terms=2, max_exp=1)
                cert = colon_membership(f, prime)
                assert cert is not None
                assert cert.replay(prime.space, p) == f

    def test_near_miss_rejected(self):
        # omega^{p-2} multiples are not in the colon ideal
        prime = minimal_primes_generic(2, 2)[0]
        omega = prime.omega(3)
        assert colon_membership(omega, prime) is None

    def test_pure_variable_prime_agrees_with_monomial_ideal(self):
        rng = random.Random(78)
        primes = [pr for pr in minimal_primes_generic(3, 3) if pr.block is None]
        for prime in primes:
            p = 3
            V = set(prime.variable_gens)
            for _ in range(40):
                f = random_poly(rng, prime.space, p, max_terms=4, max_exp=4)
                member = colon_membership(f, prime) is not None
                # direct monomial-ideal membership, term by term
                direct = all(
                    any(mono[i] >= p for i in V) or all(mono[i] >= p - 1 for i in V)
                    for mono, _ in f.items()
                )
                assert member == direct

    def test_random_agreement_with_linear_membership(self):
        # (omega^{p-1}) + P^[p] has homogeneous generators, so degree-bounded
        # linear membership at deg(f) is a complete independent oracle
        from permcheck.linmember import member_bounded

        rng = random.Random(314)
        p = 3
        primes = minimal_primes_generic(2, 2) + [
            pr for pr in minimal_primes_generic(2, 3) if pr.label.startswith("rows(")
        ]
        for prime in primes:
            omega_power = prime.omega(p) ** (p - 1)
            gens = tuple([omega_power] + [g**p for g in prime.generators(p)])
            for _ in range(30):
                f = random_poly(rng, prime.space, p, max_terms=3, max_exp=1)
                if rng.random() < 0.4:
                    mono = [0] * prime.space.count
                    mono[rng.randrange(prime.space.count)] = 1
                    f = f + omega_power * Polynomial(
                        prime.space, p, {tuple(mono): rng.randrange(1, p)}
                    )
                if f.is_zero:
                    continue
                structural = colon_membership(f, prime) is not None
                linear = member_bounded(f, gens, f.total_degree()) is not None
                assert structural == linear

    def test_membership_implies_frobenius_compatibility(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            f = witness_generic(m, n, 3)
            for prime in minimal_primes_generic(m, n):
                for g in prime.generators(3):
                    assert in_frobenius_power(f * g, prime, 3)
        for n in (2, 3):
            f = witness_symmetric(n, 3)
            for prime in minimal_primes_symmetric(n):
                for g in prime.generators(3):
                    assert in_frobenius_power(f * g, prime, 3)


class TestPrimeContainment:
    def test_p2_generators_lie_in_every_minimal_prime(self):
        for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
            mat = build_matrix(MatrixShape.generic(m, n))
            p2 = permanental_generators(mat, 2, char=3)
            for prime in minimal_primes_generic(m, n):
                for g in p2.generators:
                    assert prime_contains(prime, g)
        for n in (2, 3, 4):
            mat = build_matrix(MatrixShape.symmetric(n))
            p2 = permanental_generators(mat, 2, char=3)
            for prime in minimal_primes_symmetric(n):
                for g in p2.generators:
                    assert prime_contains(prime, g)

    def test_non_member_detected(self):
        prime = minimal_primes_generic(2, 3)[0]
        g = Polynomial.variable(prime.space, 3, prime.inner_vars[0])
        assert not prime_contains(prime, g)


class TestFedderCoefficient:
    def test_hankel_1(self):
        mat = build_matrix(MatrixShape.hankel(1))
        gens = permanental_generators(mat, 1, char=3)
        assert fedder_coefficient_fullsupport(gens, "truncated") == 1
        assert fedder_coefficient_fullsupport(gens, "pointcount") == 1

    def test_methods_agree_on_random_ci(self):
        rng = random.Random(55)
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

    def test_generic_3x4_p3_all_methods_agree(self):
        mat = build_matrix(MatrixShape.generic(3, 4))
        gens = permanental_generators(mat, 3, char=3)
        values = {
            method: fedder_coefficient_fullsupport(gens, method)
            for method in ("truncated", "pointcount", "fiber")
        }
        assert len(set(values.values())) == 1

    def test_degree_precondition(self):
        xy = VariableSpace(("x1", "y1"))
        gens = ci([parse_poly("x1", xy, 3)])
        with pytest.raises(ValueError):
            fedder_coefficient_fullsupport(gens)

    def test_fiber_refused_off_shape(self):
        mat = build_matrix(MatrixShape.generic(2, 3))
        gens = permanental_generators(mat, 2, char=3)
        with pytest.raises(ValueError):
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
            mat = build_matrix(MatrixShape.generic(3, 4))
            gens = permanental_generators(mat, 3, char=p)
            assert fiber_count_3x4(p) == count_nonvanishing(gens, p, threads=2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_block_equals_its_class_value(self, unreduced_blocks, p):
        blocks = unreduced_blocks[p]
        # representatives of 0, 1, 2 and 3 zeros in the first column
        value = [blocks[p * p + p + 1], blocks[p * p + p], blocks[p * p], 0]
        for hi in range(p**3):
            zeros = sum(d == 0 for d in (hi // (p * p), hi // p % p, hi % p))
            assert blocks[hi] == value[zeros], (p, hi)

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_unreduced_sum_matches(self, unreduced_blocks, p, passes, monkeypatch):
        blocks = unreduced_blocks[p]
        c0, c1, c2 = blocks[p * p + p + 1], blocks[p * p + p], blocks[p * p]
        total = sum(blocks)
        assert total == (p - 1) ** 3 * c0 + 3 * (p - 1) ** 2 * c1 + 3 * (p - 1) * c2
        # the (p^2+p+1)^2 column pairs in one pass, or split over two
        pairs = (p * p + p + 1) ** 2
        monkeypatch.setattr(frobcheck, "FIBER_PASS", -(-pairs // passes))
        assert fiber_count_3x4(p) == total

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_projective_classes_match_unreduced_blocks(self, unreduced_blocks, p):
        # each pair of projective classes of columns 2 and 3 stands for its
        # (p-1)^2 unit scalings in the oracle's p^6 blocks
        for column, hi in [((1, 1, 1), p * p + p + 1), ((1, 1, 0), p * p + p), ((1, 0, 0), p * p)]:
            assert unreduced_blocks[p][hi] == (p - 1) ** 2 * _projective_class_count(p, column)

    def test_passes_do_not_change_the_count(self, monkeypatch):
        # 7 pairs per pass splits p = 5's 31^2 pairs into 138 passes
        expected = fiber_count_3x4(5)
        monkeypatch.setattr(frobcheck, "FIBER_PASS", 7)
        assert fiber_count_3x4(5) == expected


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
                cases.append((ci(polys), p, direct))
        assert any(max(len(g) for g in gens.generators) == 5 for gens, _, _ in cases)
        # one point per block, less than one hi row whenever v > 1
        monkeypatch.setattr(frobcheck, "POINTCOUNT_CHUNK", 1)
        for gens, p, direct in cases:
            assert count_nonvanishing(gens, p, threads=1) == direct
            assert count_nonvanishing(gens, p, threads=2) == direct
        # blocks of several rows with a shorter last one, on two threads
        monkeypatch.setattr(frobcheck, "POINTCOUNT_CHUNK", 7)
        for gens, p, direct in cases:
            assert count_nonvanishing(gens, p, threads=2) == direct

    @pytest.mark.parametrize("p, terms", [(32749, 4), (2**31 - 1, 4)])
    def test_block_sums_near_the_dtype_bound(self, p, terms):
        # terms * (p-1)^2 is just below 2^32, then just below 2^64
        dtype = _pointcount_dtype(terms, p)
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
        assert _count_hi_block(tables, p, 0, len(hi)) == expected

    def test_wide_accumulator_matches_direct_enumeration(self):
        # 2 * (p-1)^2 passes 2^32, so the count runs in uint64
        p = 65537
        space = VariableSpace(("z1",))
        polys = [parse_poly("z1^2 + 1", space, p), parse_poly("z1^3 + 5*z1 + 7", space, p)]
        assert _pointcount_dtype(2, p) is np.uint64
        direct = sum(1 for x in range(p) if all(evaluate(g, (x,)) != 0 for g in polys))
        assert count_nonvanishing(ci(polys), p, threads=2) == direct

    def test_dtype_bound_is_exact(self):
        assert _pointcount_dtype(2**32 - 1, 2) is np.uint32
        assert _pointcount_dtype(2**32, 2) is np.uint64
        assert _pointcount_dtype(2**64 - 1, 2) is np.uint64
        with pytest.raises(ValueError, match="overflow"):
            _pointcount_dtype(2**64, 2)

    def test_overflowing_count_is_refused_before_enumeration(self, monkeypatch):
        # 4 terms of at most (p-1)^2 each still fit 64 bits at p = 2^31 - 1; 5 do not
        p = 2**31 - 1
        space = VariableSpace(("z1",))
        assert _pointcount_dtype(4, p) is np.uint64

        def no_tables(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(frobcheck, "_monomial_values", no_tables)
        g = parse_poly("z1^4 + z1^3 + z1^2 + z1 + 1", space, p)
        with pytest.raises(ValueError, match="overflow"):
            count_nonvanishing(ci([g]), p)

    @pytest.mark.parametrize("m, n, t, p", [(2, 3, 2, 5), (3, 3, 3, 3)])
    def test_table_guard_counts_the_built_entries(self, monkeypatch, m, n, t, p):
        # v = 6 splits evenly, v = 9 has the larger hi half
        gens = permanental_generators(build_matrix(MatrixShape.generic(m, n)), t, char=p)
        v = gens.space.count
        entries = sum(len(g) for g in gens.generators) * (p ** (v - v // 2) + p ** (v // 2))
        expected = count_nonvanishing(gens, p)
        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_ENTRIES", entries)
        assert count_nonvanishing(gens, p) == expected

        def no_tables(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_ENTRIES", entries - 1)
        monkeypatch.setattr(frobcheck, "_monomial_values", no_tables)
        with pytest.raises(ValueError, match="table entries"):
            count_nonvanishing(gens, p)

    @pytest.mark.parametrize("m, n, t, p", [(2, 3, 2, 5), (3, 3, 3, 3)])
    def test_point_guard_counts_the_visited_points(self, monkeypatch, m, n, t, p):
        gens = permanental_generators(build_matrix(MatrixShape.generic(m, n)), t, char=p)
        points = p**gens.space.count
        expected = count_nonvanishing(gens, p)
        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_POINTS", points)
        assert count_nonvanishing(gens, p) == expected

        def no_tables(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(frobcheck, "MAX_POINTCOUNT_POINTS", points - 1)
        monkeypatch.setattr(frobcheck, "_monomial_values", no_tables)
        with pytest.raises(ValueError, match=f"visits {points} points"):
            count_nonvanishing(gens, p)
