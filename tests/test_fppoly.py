"""Core polynomial arithmetic: worked examples and randomized laws."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permcheck import truncated
from permcheck.fpextra import ParseError, parse_poly
from permcheck.fppoly import (
    GRLEX,
    LEX,
    Polynomial,
    PrimeModulus,
    StructureError,
    TruncatedAccumulator,
    VariableSpace,
    check_prime,
    exact_divide,
    leading_term,
    mul_sum,
    pack_terms,
    render_poly,
    truncate,
    truncated_mul,
    truncated_pow,
    unpack_terms,
)
from helpers import (_truncated_mul_dict, evaluate, random_point, random_poly, reference_mul,
                     small_space)

Z3 = small_space(3)


def zpoly(text, p=3, space=Z3):
    return parse_poly(text, space, p)


class TestAdd:
    def test_disjoint_supports(self):
        assert zpoly("z2^2") + zpoly("z1*z3") == zpoly("z2^2 + z1*z3")

    def test_additive_inverse_mod_3(self):
        assert (zpoly("2*z1") + zpoly("z1")).is_zero

    def test_additive_identity(self):
        f = zpoly("z2^2 + z1*z3")
        assert f + Polynomial.zero(Z3, 3) == f

    def test_space_mismatch(self):
        other = small_space(2)
        with pytest.raises(StructureError):
            zpoly("z1") + parse_poly("z1", other, 3)

    def test_char_mismatch(self):
        with pytest.raises(StructureError):
            zpoly("z1", 3) + zpoly("z1", 5)


class TestMul:
    def test_square_over_f5(self):
        # (z2^2 + z1 z3)^2 = z2^4 + 2 z1 z2^2 z3 + z1^2 z3^2, by hand
        f = zpoly("z2^2 + z1*z3", 5)
        assert f * f == zpoly("z2^4 + 2*z1*z2^2*z3 + z1^2*z3^2", 5)

    def test_multiplicative_identity(self):
        f = zpoly("z2^2 + 2*z1*z3")
        assert f * Polynomial.one(Z3, 3) == f

    def test_annihilation(self):
        f = zpoly("z2^2 + 2*z1*z3")
        assert (f * Polynomial.zero(Z3, 3)).is_zero
        assert (Polynomial.zero(Z3, 3) * f).is_zero

    @pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
    def test_matches_reference_product(self, p):
        rng = random.Random(29)
        for v in (1, 2, 4):
            space = small_space(v)
            for _ in range(200):
                a = random_poly(rng, space, p, max_exp=rng.choice((1, 3, 9)))
                b = random_poly(rng, space, p, max_exp=rng.choice((1, 3, 9)))
                assert a * b == reference_mul(a, b)

    def test_width_boundary(self):
        # top exponents 4 + 4 = 2^3: the product's z2^8 needs w = 4 bits, and
        # at w = 3 it carries into the z1 field
        space = small_space(2)
        a = parse_poly("z1*z2^4 + z2", space, 5)
        b = parse_poly("z1^2*z2^4 + 1", space, 5)
        expected = reference_mul(a, b)
        assert expected.coeff((3, 8)) == 1
        assert a * b == expected
        w = (4 + 4).bit_length()
        for width, ok in ((w, True), (w - 1, False)):
            product = mul_sum([(pack_terms(a, width), pack_terms(b, width))], 5)
            assert (unpack_terms(product, space, 5, width) == expected) is ok

    def test_constants(self):
        f = zpoly("z2^2 + 2*z1*z3", 5)
        two, three = (Polynomial.constant(Z3, 5, c) for c in (2, 3))
        assert two * three == Polynomial.one(Z3, 5)
        assert two * f == f * two == f * 2 == reference_mul(two, f)

    def test_empty_space(self):
        empty = VariableSpace(())
        two, three = (Polynomial.constant(empty, 5, c) for c in (2, 3))
        assert two * three == Polynomial.one(empty, 5)
        assert (two * Polynomial.zero(empty, 5)).is_zero
        assert two**3 == Polynomial.constant(empty, 5, 3)


class TestTruncated:
    def setup_method(self):
        self.xy = VariableSpace(("x1", "y1"))

    def test_product_below_bound(self):
        s = parse_poly("x1 + y1", self.xy, 3)
        assert truncated_mul(s, s) == parse_poly(
            "x1^2 + 2*x1*y1 + y1^2", self.xy, 3
        )

    def test_power_annihilated(self):
        x = Polynomial.variable(self.xy, 3, 0)
        assert truncated_mul(x * x, x).is_zero

    def test_freshman_dream_cube(self):
        # (x+y)^3 = x^3 + y^3 mod 3, and both cubes truncate away
        s = parse_poly("x1 + y1", self.xy, 3)
        sq = truncated_mul(s, s)
        assert truncated_mul(sq, s).is_zero

    def test_pow_small_cases(self):
        f2 = zpoly("z2^2 + z1*z3")
        assert truncated_pow(f2, 2) == zpoly("2*z1*z2^2*z3 + z1^2*z3^2")
        a = zpoly("z1^2 + 2*z3")
        assert truncated_pow(a, 0) == Polynomial.one(Z3, 3)
        assert truncated_pow(a, 1) == truncate(a)
        with pytest.raises(ValueError):
            truncated_pow(a, -1)


class TestLeadingTerm:
    def test_hankel_2_diagonal_order(self):
        f2 = zpoly("z2^2 + z1*z3")
        assert leading_term(f2, LEX) == ((1, 0, 1), 1)

    def test_single_monomial(self):
        f = zpoly("3*z1^2", 5)
        assert leading_term(f, GRLEX) == ((2, 0, 0), 3)

    def test_hankel_3_diagonal_order(self):
        z5 = small_space(5)
        # perm of the 3x3 Hankel matrix
        f3 = parse_poly(
            "z1*z3*z5 + z1*z4^2 + z2^2*z5 + 2*z2*z3*z4 + z3^3", z5, 3
        )
        assert leading_term(f3, LEX) == ((1, 0, 1, 0, 1), 1)

    def test_zero_polynomial_refused(self):
        with pytest.raises(ValueError):
            leading_term(Polynomial.zero(Z3, 3))


class TestExactDivide:
    def test_square_over_factor(self):
        wxyz = VariableSpace(("x1", "x2", "x3", "x4"))
        b = parse_poly("x1*x4 + x2*x3", wxyz, 3)
        assert exact_divide(b * b, b) == b

    def test_constant_obstruction(self):
        assert exact_divide(zpoly("z1*z3 + 1"), zpoly("z1")) is None

    def test_symmetric_binomial_power(self):
        y = VariableSpace(("y1_1", "y1_2", "y2_2"))
        b = parse_poly("y1_1*y2_2 + y1_2^2", y, 3)
        rng = random.Random(5)
        for _ in range(20):
            h = random_poly(rng, y, 3, max_terms=4, allow_zero=False)
            product = b * b * h
            assert exact_divide(product, b) == b * h

    def test_zero_divisor_refused(self):
        with pytest.raises(ValueError):
            exact_divide(zpoly("z1"), Polynomial.zero(Z3, 3))


class TestEvaluate:
    def test_hankel_2_at_ones(self):
        assert evaluate(zpoly("z2^2 + z1*z3"), (1, 1, 1)) == 2

    def test_origin_gives_constant_term(self):
        f = zpoly("z2^2 + 2*z1*z3 + 2")
        assert evaluate(f, (0, 0, 0)) == 2

    def test_wraparound(self):
        xy = VariableSpace(("x1", "y1"))
        assert evaluate(parse_poly("x1 + y1", xy, 3), (2, 1)) == 0

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            evaluate(zpoly("z1"), (1, 1))


class TestTextFormat:
    def test_grammar_example(self):
        assert zpoly("z2^2 + z1*z3") == Polynomial(Z3, 3, {(0, 2, 0): 1, (1, 0, 1): 1})

    def test_zero(self):
        assert zpoly("0").is_zero
        assert render_poly(Polynomial.zero(Z3, 3)) == "0"

    def test_round_trip_canonical(self):
        x = VariableSpace(("x1_1",))
        assert render_poly(parse_poly("2*x1_1^2", x, 3)) == "2*x1_1^2"

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_poly(rng, Z3, 5, max_terms=6, max_exp=4)
            assert parse_poly(render_poly(f), Z3, 5) == f

    def test_coefficient_reduction(self):
        assert zpoly("5*z1") == zpoly("2*z1")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            zpoly("z1 + ")
        assert err.value.position == 5

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            zpoly("w1 + z1")

    def test_whitespace_insignificant(self):
        assert zpoly("  z2 ^2+ z1 * z3 ") == zpoly("z2^2 + z1*z3")

    # term ::= [coeff "*"] factor {"*" factor}: every "*" needs a factor after it
    @pytest.mark.parametrize("text,position", [("z1*", 3), ("3*z1*", 5), ("z1 * + z2", 5)])
    def test_dangling_star_refused(self, text, position):
        with pytest.raises(ParseError, match="expected a variable name") as err:
            zpoly(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, message, position", [
        ("", "empty input", 0),
        ("  ", "empty input", 2),
        ("z1^", "expected a number", 3),
        ("z1^ + z2", "expected a number", 4),
        ("z1 z2", "unexpected character 'z'", 3),
        ("z1 - z2", "unexpected character '-'", 3),
    ])
    def test_malformed_input_refused(self, text, message, position):
        with pytest.raises(ParseError, match=message) as err:
            zpoly(text)
        assert err.value.position == position


class TestConstructionGuards:
    """Malformed spaces and terms are refused, and built values stay immutable."""

    def test_duplicate_variable_names(self):
        with pytest.raises(ValueError, match="unique"):
            VariableSpace(("z1", "z2", "z1"))

    def test_index_of_an_unknown_name(self):
        assert Z3.index("z2") == 1
        with pytest.raises(KeyError, match="unknown variable 'w1'"):
            Z3.index("w1")

    def test_space_is_immutable(self):
        with pytest.raises(AttributeError):
            Z3.names = ("a", "b", "c")

    def test_monomial_of_wrong_length(self):
        with pytest.raises(StructureError, match="2 exponents, space has 3"):
            Polynomial(Z3, 3, {(1, 0): 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(Z3, 3, {(1, -1, 0): 1})

    def test_polynomial_is_immutable(self):
        with pytest.raises(AttributeError):
            zpoly("z1").char = 5

    def test_negative_power(self):
        with pytest.raises(ValueError, match="negative power"):
            zpoly("z1") ** -1


class TestRandomizedLaws:
    """Ring axioms and operation identities on seeded random inputs."""

    PRIMES = (3, 5, 7)
    CASES = 500

    def test_ring_axioms(self):
        rng = random.Random(101)
        space = small_space(4)
        for p in self.PRIMES:
            for _ in range(self.CASES):
                a = random_poly(rng, space, p)
                b = random_poly(rng, space, p)
                c = random_poly(rng, space, p)
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert (a * b) * c == a * (b * c)
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c

    def test_truncation_is_a_quotient(self):
        rng = random.Random(102)
        space = small_space(3)
        for p in (3, 7, 5):
            for _ in range(300):
                a = random_poly(rng, space, p, max_exp=p)
                b = random_poly(rng, space, p, max_exp=p)
                assert truncate(a * b) == truncated_mul(truncate(a), truncate(b))

    def test_powering_strategies_agree(self):
        rng = random.Random(103)
        space = small_space(3)
        for _ in range(60):
            a = random_poly(rng, space, 5, max_exp=4)
            for k in range(9):
                assert truncated_pow(a, k) == truncate(a**k)

    def test_exact_divide_round_trip(self):
        rng = random.Random(104)
        space = small_space(3)
        for p in self.PRIMES:
            for _ in range(self.CASES):
                f = random_poly(rng, space, p)
                g = random_poly(rng, space, p, allow_zero=False)
                assert exact_divide(f * g, g) == f

    def test_leading_term_multiplicative(self):
        rng = random.Random(105)
        space = small_space(4)
        for order in (GRLEX, LEX):
            for _ in range(300):
                a = random_poly(rng, space, 7, allow_zero=False)
                b = random_poly(rng, space, 7, allow_zero=False)
                ma, ca = leading_term(a, order)
                mb, cb = leading_term(b, order)
                mono = tuple(x + y for x, y in zip(ma, mb))
                assert leading_term(a * b, order) == (mono, ca * cb % 7)

    def test_point_count_coefficient_identity(self):
        # For deg g <= v(p-1), sum_{a in F_p^v} g(a) = (-1)^v [prod x_i^{p-1}] g.
        rng = random.Random(106)
        for p in (3, 5):
            for v in (1, 2, 3):
                space = small_space(v)
                full = (p - 1,) * v
                for _ in range(40):
                    terms = {}
                    for _ in range(rng.randrange(1, 6)):
                        mono = tuple(rng.randrange(p) for _ in range(v))
                        terms[mono] = rng.randrange(1, p)
                    if rng.random() < 0.5:
                        terms[full] = rng.randrange(1, p)
                    g = Polynomial(space, p, terms)
                    total = 0
                    for point in itertools.product(range(p), repeat=v):
                        total = (total + evaluate(g, point)) % p
                    expected = (-1) ** v * g.coeff(full) % p
                    assert total == expected


# ARRAY_PAIRS = 0 sends every product to the numpy kernel, and a bound past
# any pair count keeps every product on the Python-int dict
KERNELS = {"arrays": 0, "dict": 1 << 62}


@pytest.fixture(scope="class", params=list(KERNELS))
def kernel(request):
    """Run a whole test class on one truncated-product kernel."""
    saved = truncated.ARRAY_PAIRS
    truncated.ARRAY_PAIRS = KERNELS[request.param]
    yield request.param
    truncated.ARRAY_PAIRS = saved


def on_arrays(acc) -> bool:
    return acc._terms is None


@pytest.mark.usefixtures("kernel")
class TestTruncatedAccumulator:
    def test_matches_sparse_pipeline(self, kernel):
        rng = random.Random(107)
        space = small_space(3)
        for _ in range(100):
            a = random_poly(rng, space, 5, max_exp=4, allow_zero=False)
            b = random_poly(rng, space, 5, max_exp=4)
            acc = TruncatedAccumulator(a).mul_poly(b).mul_poly(a)
            assert on_arrays(acc) == (kernel == "arrays")
            direct = truncate(a * b * a)
            assert acc.to_polynomial() == direct
            assert acc.is_zero == direct.is_zero
            assert acc.nnz() == len(direct)
            for mono, c in direct.items():
                assert acc.coeff(mono) == c

    def test_coeff_of_an_absent_monomial(self, kernel):
        # z1 * (z1 + z2^2) over F_5: keys below, between and above the two
        # stored ones, and an exponent past the truncation, on either kernel
        acc = TruncatedAccumulator(zpoly("z1", 5)).mul_poly(zpoly("z1 + z2^2", 5))
        assert on_arrays(acc) == (kernel == "arrays")
        assert acc.coeff((2, 0, 0)) == acc.coeff((1, 2, 0)) == 1
        for mono in ((0, 0, 0), (1, 3, 0), (2, 1, 0), (4, 4, 4), (5, 0, 0)):
            assert acc.coeff(mono) == 0

    def test_one_term_value(self):
        # lemma34 reads a one-term value through nnz and coeff
        space = small_space(2)
        acc = TruncatedAccumulator(parse_poly("2*z1*z2", space, 3))
        assert acc.nnz() == 1
        assert acc.coeff((1, 1)) == 2 == -1 % 3
        assert acc.coeff((1, 0)) == 0
        assert acc.coeff((3, 1)) == 0


# (p, v): the first seven have v * (bitlen(p) + 1) <= 63 and int64 keys,
# the last three need wider keys, held as Python ints
PACKED_CONFIGS = [
    (3, 3), (11, 4), (5, 4), (7, 15), (13, 12), (3, 21), (2**31 - 1, 1),
    (7, 16), (13, 13), (3, 22),
]


@st.composite
def packed_operands(draw):
    p, v = draw(st.sampled_from(PACKED_CONFIGS))
    space = small_space(v)
    # exponents up to p exercise truncation of the inputs as well
    mono = st.tuples(*[st.integers(0, min(p, 5))] * v)
    terms = st.dictionaries(mono, st.integers(0, p - 1), max_size=8)
    return Polynomial(space, p, draw(terms)), Polynomial(space, p, draw(terms))


@pytest.mark.usefixtures("kernel")
class TestPackedKernel:
    """Both packed-exponent kernels against the dict-loop oracle and untruncated products."""

    def test_large_prime_reduces_each_product(self):
        # (p-1)^2 is close to 2^62: summing three unreduced products of one
        # monomial overflows int64, and every z1^k with k >= 4 has six
        p = 2**31 - 1
        space = small_space(1)
        a = Polynomial(space, p, {(i,): p - 1 - i for i in range(10)})
        b = Polynomial(space, p, {(j,): p - 1 - 3 * j for j in range(6)})
        assert truncated_mul(a, b) == truncate(a * b)
        assert TruncatedAccumulator(a).mul_poly(b).to_polynomial() == truncate(a * b)

    def test_empty_operand(self):
        space = small_space(3)
        a = parse_poly("z1 + 2*z2*z3^4", space, 5)
        zero = Polynomial.zero(space, 5)
        assert truncated_mul(a, zero).is_zero
        assert truncated_mul(zero, a).is_zero
        assert TruncatedAccumulator(zero).mul_poly(a).is_zero
        assert TruncatedAccumulator(a).mul_poly(zero).nnz() == 0

    def test_every_pair_truncated(self):
        space = small_space(2)
        a = parse_poly("z1^2 + 2*z1^2*z2", space, 3)
        b = parse_poly("z1 + z1*z2^2", space, 3)
        assert not (a * b).is_zero
        assert truncated_mul(a, b).is_zero
        assert TruncatedAccumulator(a).mul_poly(b).is_zero

    def test_coefficients_cancel_mod_p(self):
        # z1^2*z2^2 arises twice with coefficients 1 and 2; the rest is truncated
        space = small_space(2)
        a = parse_poly("z1 + z2", space, 3)
        b = parse_poly("z1^2*z2 + 2*z1*z2^2", space, 3)
        assert truncated_mul(a, b).is_zero
        acc = TruncatedAccumulator(a).mul_poly(b)
        assert acc.is_zero and acc.nnz() == 0
        # and a partial cancellation keeps only the survivors
        c = parse_poly("z1 + 2*z2", space, 3)
        assert truncated_mul(a, c) == parse_poly("z1^2 + 2*z2^2", space, 3)

    @settings(max_examples=300, deadline=None)
    @given(packed_operands())
    def test_packed_matches_dict(self, operands):
        a, b = operands
        expected = _truncated_mul_dict(truncate(a), truncate(b))
        assert truncated_mul(a, b) == expected
        assert TruncatedAccumulator(a).mul_poly(b).to_polynomial() == expected

    # non-homogeneous values whose GRLEX and LEX leading terms differ, on
    # int64 keys (v = 3) and on Python-int keys (v = 16 at p = 7)
    @settings(max_examples=300, deadline=None)
    @given(packed_operands())
    @example(tuple(parse_poly(t, small_space(3), 3) for t in ("z1 + z2^2", "1 + z3")))
    @example(tuple(parse_poly(t, small_space(16), 7) for t in ("z1 + z16^2", "z2 + 1")))
    def test_leading_term_matches_reference(self, operands):
        a, b = operands
        for acc, expected in ((TruncatedAccumulator(a), truncate(a)),
                              (TruncatedAccumulator(a).mul_poly(b), _truncated_mul_dict(a, b))):
            if expected.is_zero:
                assert acc.is_zero
                with pytest.raises(ValueError):
                    leading_term(acc.to_polynomial())
            else:
                assert leading_term(acc.to_polynomial()) == leading_term(expected, GRLEX)


class TestPackedTerms:
    """pack_terms / unpack_terms / mul_sum against the reference product, on
    keys that fit 63 bits (3 * 5) and on keys that do not (8 * 9)."""

    @pytest.mark.parametrize("p, v, w", [(5, 3, 5), (2**31 - 1, 8, 9)])
    def test_mul_sum_matches_polynomial_products(self, p, v, w):
        rng = random.Random(27)
        space = small_space(v)
        full = Polynomial.monomial(space, p, [(1 << w) - 1] * v)  # every bit of every field
        assert unpack_terms(pack_terms(full, w), space, p, w) == full
        for _ in range(30):
            pairs = [(random_poly(rng, space, p), random_poly(rng, space, p))
                     for _ in range(rng.randrange(4))]
            expected = Polynomial.zero(space, p)
            for a, b in pairs:
                expected = expected + reference_mul(a, b)
                assert unpack_terms(pack_terms(a, w), space, p, w) == a
            packed = [(pack_terms(a, w), pack_terms(b, w)) for a, b in pairs]
            assert mul_sum(packed, p) == pack_terms(expected, w)

    @pytest.mark.parametrize("p, v, w", [(5, 3, 5), (7, 8, 9)])
    def test_cancelled_sums_are_dropped(self, p, v, w):
        space = small_space(v)
        z1, z2 = (Polynomial.variable(space, p, i) for i in range(2))
        a, b = pack_terms(z1 + z2, w), pack_terms(z1 - z2, w)
        # (z1 + z2)(z1 - z2): the two z1*z2 products cancel within one pair
        assert mul_sum([(a, b)], p) == pack_terms(z1 * z1 - z2 * z2, w)
        # a*b - a*b: every sum cancels across the pairs
        minus_b = pack_terms(z2 - z1, w)
        assert mul_sum([(a, b), (a, minus_b)], p) == {}


class TestKernelChoice:
    """A chain of products runs on the dict until its pairs reach ARRAY_PAIRS
    in all, and on the numpy kernel from that product on."""

    @pytest.mark.parametrize("p, v, packed", [(3, 21, True), (7, 16, False)])
    def test_key_width_boundary(self, monkeypatch, p, v, packed):
        monkeypatch.setattr(truncated, "ARRAY_PAIRS", 0)
        # w = bitlen(p) + 1: 21 * 3 = 63 bits fits int64, 16 * 4 = 64 bits does not
        dtype = np.int64 if packed else object
        rng = random.Random(108)
        space = small_space(v)
        for _ in range(20):
            a = random_poly(rng, space, p, max_terms=6, max_exp=p - 1)
            b = random_poly(rng, space, p, max_terms=6, max_exp=p - 1)
            expected = truncate(a * b)
            assert truncated_mul(a, b) == expected
            acc = TruncatedAccumulator(a).mul_poly(b)
            assert acc._keys.dtype == dtype
            assert acc.to_polynomial() == expected
            assert acc.nnz() == len(expected)
            for mono, c in expected.items():
                assert acc.coeff(mono) == c

    def test_power_crosses_to_arrays_mid_chain(self, monkeypatch):
        # (1 + z1 + z2 + z3)^k over F_7: the products have 4 x 4, 10 x 4,
        # 20 x 4, ... pairs, 16, 56, 136, ... in all.  The bound counts them
        # in all, so at 50 the second product (40 pairs) is on arrays already
        space = small_space(3)
        base = parse_poly("1 + z1 + z2 + z3", space, 7)
        calls = []

        def counted(name):
            real = getattr(truncated, name)

            def kernel(*args):
                calls.append(name)
                return real(*args)

            return kernel

        for name in ("_mul_dict", "_mul_packed"):
            monkeypatch.setattr(truncated, name, counted(name))
        monkeypatch.setattr(truncated, "ARRAY_PAIRS", 50)
        acc = TruncatedAccumulator.power(base, 9)
        assert calls == ["_mul_dict"] + ["_mul_packed"] * 7
        assert on_arrays(acc)
        expected = base
        for _ in range(8):
            expected = _truncated_mul_dict(expected, base)
        assert acc.to_polynomial() == expected == truncate(base**9)
        assert leading_term(acc.to_polynomial()) == leading_term(expected, GRLEX)
        for mono, c in expected.items():
            assert acc.coeff(mono) == c

    def test_truncated_mul_follows_the_bound(self, monkeypatch):
        a, b = zpoly("z1 + z2 + z3", 5), zpoly("1 + z1 + z2", 5)
        for bound, kernel in ((9, "_mul_packed"), (10, "_mul_dict")):
            monkeypatch.setattr(truncated, "ARRAY_PAIRS", bound)
            for name in ("_mul_dict", "_mul_packed"):
                if name != kernel:
                    monkeypatch.setattr(truncated, name, None)  # calling it raises
            assert truncated_mul(a, b) == truncate(a * b)
            monkeypatch.undo()


class TestChainBound:
    """A chain of products whose term pairs would pass MAX_CHAIN_PAIRS is
    refused before the product that passes it runs, on either kernel."""

    @pytest.mark.parametrize("array_pairs", [0, truncated.ARRAY_PAIRS], ids=["arrays", "dict"])
    def test_product_past_the_bound_is_refused_before_it_runs(self, monkeypatch, array_pairs):
        # (1 + z1 + z2 + z3)^k over F_7: 16, 56, 136, ... pairs in all
        base = parse_poly("1 + z1 + z2 + z3", small_space(3), 7)
        monkeypatch.setattr(truncated, "ARRAY_PAIRS", array_pairs)
        monkeypatch.setattr(truncated, "MAX_CHAIN_PAIRS", 56)
        assert TruncatedAccumulator.power(base, 3).to_polynomial() == truncate(base**3)
        monkeypatch.setattr(truncated, "MAX_CHAIN_PAIRS", 55)
        with pytest.raises(ValueError, match="56 term pairs, more than 55"):
            TruncatedAccumulator.power(base, 3)
        square = TruncatedAccumulator.power(base, 2)
        for name in ("_mul_dict", "_mul_packed"):
            monkeypatch.setattr(truncated, name, None)  # calling it raises
        with pytest.raises(ValueError, match="56 term pairs, more than 55"):
            square.mul_poly(base)


    def test_power_past_the_bound_is_refused_before_its_first_product(self, monkeypatch):
        # 19 products of a nonzero value by a 4-term base multiply at least
        # 76 term pairs
        base = parse_poly("1 + z1 + z2 + z3", small_space(3), 7)
        monkeypatch.setattr(truncated, "MAX_CHAIN_PAIRS", 75)
        for name in ("_mul_dict", "_mul_packed"):
            monkeypatch.setattr(truncated, name, None)  # calling it raises
        with pytest.raises(ValueError, match="at least 76 term pairs, more than 75"):
            TruncatedAccumulator.power(base, 20)
        # the pairs a value has multiplied so far count too: 4 x 4, then 3 x 4
        acc = TruncatedAccumulator(base)
        monkeypatch.undo()
        acc = acc.mul_poly(base)
        monkeypatch.setattr(truncated, "MAX_CHAIN_PAIRS", 27)
        with pytest.raises(ValueError, match="at least 28 term pairs, more than 27"):
            acc.mul_power(base, 3)

    def test_mul_power_stops_at_zero(self, monkeypatch):
        # z1^2 * z1 vanishes mod z1^3, so one product of the 10**9 is taken
        # and the bound, which holds only while the value is nonzero, is not
        # met either: 10**9 products by a 1-term base
        space = small_space(2)
        acc = TruncatedAccumulator(parse_poly("z1^2", space, 3))
        products = []
        mul_poly = TruncatedAccumulator.mul_poly

        def counted(self, poly):
            products.append(poly)
            return mul_poly(self, poly)

        monkeypatch.setattr(TruncatedAccumulator, "mul_poly", counted)
        monkeypatch.setattr(truncated, "MAX_CHAIN_PAIRS", 10**9)
        assert acc.mul_power(parse_poly("z1", space, 3), 10**9).is_zero
        assert len(products) == 1

    def test_mul_power_matches_repeated_products(self):
        a, b = zpoly("z1 + z2", 5), zpoly("1 + z1 + z3", 5)
        acc = TruncatedAccumulator(a).mul_power(b, 3)
        assert acc.to_polynomial() == truncate(a * b**3)
        assert TruncatedAccumulator(a).mul_power(b, 0).to_polynomial() == a


class TestPrimeModulus:
    """check_prime, its older name PrimeModulus, and Polynomial's use of it."""

    def test_accepts_odd_primes(self):
        check_prime(3)
        check_prime(2**31 - 1)
        assert PrimeModulus(2**31 - 1) == 2**31 - 1
        assert Polynomial.one(small_space(1), 2**31 - 1).coeff((0,)) == 1

    # 2^31 + 11 is the first prime above 2^31, beyond the int64 kernels
    @pytest.mark.parametrize("p", [2, 4, 9, 1, -3, 2**31 + 11])
    def test_rejects_bad_primes(self, p):
        with pytest.raises(ValueError):
            check_prime(p)
        with pytest.raises(ValueError):
            PrimeModulus(p)
        with pytest.raises(ValueError):
            Polynomial(small_space(1), p)

    def test_takes_no_exponent(self):
        with pytest.raises(TypeError):
            PrimeModulus(3, 2)


class TestOperandsDecide:
    """p and the variable space come from the operands; mismatches are refused."""

    def test_truncated_mul_refuses_other_space(self):
        with pytest.raises(StructureError):
            truncated_mul(zpoly("z1"), parse_poly("z1", small_space(2), 3))

    def test_truncated_mul_refuses_other_characteristic(self):
        with pytest.raises(StructureError):
            truncated_mul(zpoly("z1", 3), zpoly("z1", 5))

    def test_mul_poly_refuses_other_space(self):
        acc = TruncatedAccumulator(zpoly("z1 + z2"))
        with pytest.raises(StructureError):
            acc.mul_poly(parse_poly("z1", small_space(2), 3))

    def test_mul_poly_refuses_other_characteristic(self):
        acc = TruncatedAccumulator(zpoly("z1 + z2"))
        with pytest.raises(StructureError):
            acc.mul_poly(zpoly("z1", 5))

    def test_power_keeps_the_base_characteristic(self):
        acc = TruncatedAccumulator.power(zpoly("z1 + z2", 5), 0)
        assert (acc.space, acc.char) == (Z3, 5)
        assert acc.to_polynomial() == Polynomial.one(Z3, 5)
