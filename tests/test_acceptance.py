"""Acceptance criteria, one test per criterion, exact equality in F_p.

Every criterion prints a `criterion N: PASS/FAIL` line (visible with -s, and
in captured output on failure).
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from permcheck.fppoly import (
    Polynomial,
    TruncatedAccumulator,
    exact_divide,
    leading_term,
    parse_poly,
    truncate,
    truncated_mul,
    truncated_pow,
)
from permcheck.frobcheck import (
    count_nonvanishing,
    fedder_coefficient_fullsupport,
    fiber_count_3x4,
    scan_three_by_four_fpurity,
)
from permcheck.hankel import (
    verify_hankel_eisenstein,
    verify_hankel_hypersurface,
    verify_hankel_monomial_absence,
    verify_hankel_product_identity,
    verify_hankel_specialization_check,
)
from permcheck.linmember import member_bounded
from permcheck.monomials import verify_entry_triples, verify_squared_entry_triples
from permcheck.shapes import (
    MatrixShape,
    permanent,
    permanental_generators,
)
from permcheck.witnesses import verify_witness_membership
from helpers import brute_permanent, evaluate, permanent_eval, random_poly, small_space

HANKEL_GRID = [(n, p) for n in (1, 2, 3, 4, 5) for p in (3, 5, 7)]


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description} ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def hankel_reports():
    """One pass over the (n, p) grid, running the product-identity and
    hypersurface checks at each grid point."""
    reports = {}
    for n, p in HANKEL_GRID:
        reports[(n, p)] = (
            verify_hankel_product_identity(n, p),
            verify_hankel_hypersurface(n, p),
        )
    return reports


def test_criterion_1_product_identity(hankel_reports):
    with criterion(1, "truncated product identity on the full Hankel grid"):
        for (n, p), (lemma34, _) in hankel_reports.items():
            assert lemma34.verdict == "pass", (n, p)
            expected = (-1) ** (n + 1) % p
            assert lemma34.evidence["result_full_support_coefficient"] == expected


def test_product_identity_matches_the_power_first_order(hankel_reports):
    # lemma34 multiplies the monomial and f_{n-1} first; the product in the
    # order f_n^{p-1} * f_{n-1} * monomial must give the same evidence
    for (n, p), (lemma34, _) in hankel_reports.items():
        shape = MatrixShape.hankel(n)
        f_n = permanent(shape, char=p)
        f_prev = permanent(shape, rows=range(n - 1), cols=range(n - 1), char=p)
        exps = [0] * shape.space.count
        for i in range(1, n):
            exps[2 * i] += 1
            exps[2 * i - 1] += p - 3
        multiplier = Polynomial.monomial(shape.space, p, exps)
        product = TruncatedAccumulator.power(f_n, p - 1).mul_poly(f_prev).mul_poly(multiplier)
        full_support = (p - 1,) * shape.space.count
        assert lemma34.evidence["result_terms"] == product.nnz(), (n, p)
        assert lemma34.evidence["result_full_support_coefficient"] == product.coeff(full_support)
        assert (lemma34.verdict == "pass") == product.equals_monomial(
            full_support, (-1) ** (n + 1))


def test_criterion_2_hankel_fpurity(hankel_reports):
    with criterion(2, "Hankel hypersurface F-purity (survivor and leading term)"):
        for (n, p), (_, thm35) in hankel_reports.items():
            assert thm35.evidence["fpure_survivor_terms"] > 0, (n, p)
            assert thm35.evidence["diagonal_power_coefficient"] != 0, (n, p)
            assert thm35.evidence["leading_term_ok"], (n, p)


def test_criterion_3_fregularity_witness(hankel_reports):
    with criterion(3, "F-regularity witness product is nonzero on the grid"):
        for (n, p), (_, thm35) in hankel_reports.items():
            assert thm35.evidence["fregularity_witness_nonzero"], (n, p)
            assert thm35.verdict == "pass", (n, p)


def test_criterion_4_generic_witness_membership():
    expected_counts = {(2, 2): 1, (2, 3): 5, (3, 3): 15, (3, 4): 25, (4, 4): 44}
    with criterion(4, "generic witness: residue and all colon memberships"):
        for (m, n), count in expected_counts.items():
            closed_form = math.comb(m, 2) * math.comb(n, 2)
            closed_form += m if n >= 3 else 0
            closed_form += n if m >= 3 else 0
            assert count == closed_form
            for p in (3, 5, 7):
                report = verify_witness_membership(MatrixShape.generic(m, n), p)
                assert report.verdict == "pass", (m, n, p)
                assert report.evidence["residue_matches_full_product"], (m, n, p)
                assert report.evidence["prime_count"] == count, (m, n, p)
                assert all(entry["member"] for entry in report.evidence["memberships"])


def test_criterion_5_symmetric_witness_membership():
    with criterion(5, "symmetric witness: residue and all colon memberships"):
        for n in (2, 3, 4):
            for p in (3, 5, 7):
                report = verify_witness_membership(MatrixShape.symmetric(n), p)
                assert report.verdict == "pass", (n, p)
                assert report.evidence["prime_count"] == math.comb(n, 2)
                assert all(entry["member"] for entry in report.evidence["memberships"])


@pytest.fixture(scope="module")
def small_fiber_counts():
    counts = {}
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        counts[p] = fiber_count_3x4(p)
    counts["elapsed"] = time.perf_counter() - t0
    return counts


class TestCriterion6:
    def test_fiber_small_primes(self, small_fiber_counts):
        with criterion(6, "fiber scan p in {3,5,7}: verdicts and < 60 s budget"):
            assert small_fiber_counts[3] % 3 == 0
            assert small_fiber_counts[5] % 5 == 0
            assert small_fiber_counts[7] % 7 != 0
            assert small_fiber_counts["elapsed"] < 60.0

    def test_cross_check_truncated_p3(self, small_fiber_counts):
        with criterion(6, "cross-check p=3: truncated symbolic method"):
            gens = permanental_generators(MatrixShape.generic(3, 4), 3, char=3)
            c_truncated = fedder_coefficient_fullsupport(gens, "truncated")
            assert c_truncated == small_fiber_counts[3] % 3 == 0

    def test_cross_check_pointcount_p3_p5(self, small_fiber_counts):
        with criterion(6, "cross-check p in {3,5}: brute-force point count"):
            for p in (3, 5):
                gens = permanental_generators(
                    MatrixShape.generic(3, 4), 3, char=p
                )
                assert count_nonvanishing(gens, p) == small_fiber_counts[p]

    def test_fiber_p11(self):
        with criterion(6, "fiber scan p=11: not F-pure, < 30 min"):
            t0 = time.perf_counter()
            count = fiber_count_3x4(11)
            elapsed = time.perf_counter() - t0
            assert count == 2_150_566_000_000
            assert count % 11 == 0
            assert elapsed < 1800.0

    def test_fiber_p13(self):
        with criterion(6, "fiber scan p=13: F-pure"):
            count = fiber_count_3x4(13)
            assert count == 16_950_033_727_488
            assert count % 13 != 0

    def test_fiber_p17_to_p37(self):
        with criterion(6, "fiber scan p=17..37: F-pure exactly when p = 1 mod 6"):
            report = scan_three_by_four_fpurity([17, 19, 23, 29, 31, 37])
            assert report.verdict == "pass"
            coefficients = [row["coefficient"] for row in report.evidence["per_p"]]
            assert coefficients == [0, 7, 0, 0, 16, 26]


def test_criterion_7_entry_products():
    with criterion(7, "qualifying entry products lie in P_2; degree-2 counterexample absent"):
        for p in (3, 5):
            assert verify_entry_triples(2, 3, p).verdict == "pass"
            assert verify_entry_triples(3, 3, p).verdict == "pass"
            assert verify_squared_entry_triples(3, 3, p).verdict == "pass"
        shape = MatrixShape.generic(2, 3)
        gens = permanental_generators(shape, 2, char=3)
        absent = parse_poly("x1_1*x1_2", shape.space, 3)
        assert member_bounded(absent, gens.generators, 2) is None


def test_criterion_7_entry_products_at_larger_sizes():
    with criterion(7, "entry products lie in P_2 of the generic 5x5 and 6x6 matrices"):
        squared = verify_squared_entry_triples(5, 5, 3)
        assert squared.verdict == "pass"
        assert squared.evidence["members"] == squared.evidence["targets"] == 1800
        triples = verify_entry_triples(6, 6, 3)
        assert triples.verdict == "pass"
        assert triples.evidence["members"] == triples.evidence["targets"] == 3600


def test_criterion_8_structural_lemmas():
    with criterion(8, "irreducibility conditions, monomial absence, specialization"):
        for n in (3, 4, 5, 6):
            assert verify_hankel_eisenstein(n).verdict == "pass"
        for n in (1, 2, 3, 4, 5, 6):
            report = verify_hankel_monomial_absence(n)
            assert report.verdict == "pass"
        for n in (1, 2, 3, 4, 5):
            report = verify_hankel_specialization_check(n)
            assert report.verdict == "pass"
            assert report.evidence["generic_identifications"] == (n - 1) ** 2


class TestCriterion9:
    """Randomized property suites: 500-1000 cases each, zero failures."""

    started = None

    @classmethod
    def setup_class(cls):
        cls.started = time.perf_counter()

    def test_ring_axioms(self):
        with criterion(9, "ring axioms, 500 triples per p in {3,5,7}"):
            rng = random.Random(201)
            space = small_space(4)
            for p in (3, 5, 7):
                for _ in range(500):
                    a = random_poly(rng, space, p)
                    b = random_poly(rng, space, p)
                    c = random_poly(rng, space, p)
                    assert (a + b) + c == a + (b + c)
                    assert a + b == b + a
                    assert (a * b) * c == a * (b * c)
                    assert a * b == b * a
                    assert a * (b + c) == a * b + a * c

    def test_truncation_homomorphism(self):
        with criterion(9, "truncation commutes with multiplication, 600 cases"):
            rng = random.Random(202)
            space = small_space(3)
            for p in (3, 7, 5):
                for _ in range(200):
                    a = random_poly(rng, space, p, max_exp=p)
                    b = random_poly(rng, space, p, max_exp=p)
                    assert truncate(a * b) == truncated_mul(truncate(a), truncate(b))

    def test_powering_equivalence(self):
        with criterion(9, "truncated powering vs the truncated full power, 560 cases"):
            rng = random.Random(203)
            space = small_space(3)
            for _ in range(70):
                a = random_poly(rng, space, 5, max_exp=4)
                for k in range(8):
                    assert truncated_pow(a, k) == truncate(a**k)

    def test_permanent_oracle_equivalence(self):
        with criterion(9, "DP permanent vs permutation sum, sizes <= 4, 500 cases"):
            rng = random.Random(204)
            shapes = [
                MatrixShape.generic(4, 4),
                MatrixShape.symmetric(4),
                MatrixShape.hankel(4),
            ]
            for case in range(500):
                shape = shapes[case % 3]
                s = rng.randrange(1, 5)
                rows = tuple(rng.sample(range(4), s))
                cols = tuple(rng.sample(range(4), s))
                symbolic = permanent(shape, rows, cols, char=5)
                assert symbolic == brute_permanent(shape, rows, cols, 5)
                point = tuple(rng.randrange(5) for _ in range(shape.space.count))
                numeric = [[point[shape.entry_index(i, j)] for j in cols] for i in rows]
                assert permanent_eval(numeric, 5) == evaluate(symbolic, point)

    def test_point_count_coefficient_identity(self):
        with criterion(9, "point-count coefficient identity, v <= 3, p in {3,5}, 600 cases"):
            rng = random.Random(205)
            for p in (3, 5):
                for v in (1, 2, 3):
                    space = small_space(v)
                    full = (p - 1,) * v
                    for _ in range(100):
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
                        assert total == (-1) ** v * g.coeff(full) % p

    def test_exact_divide_round_trip(self):
        with criterion(9, "exact division round trip, 1000 cases"):
            rng = random.Random(206)
            space = small_space(3)
            for p in (3, 5):
                for _ in range(500):
                    f = random_poly(rng, space, p)
                    g = random_poly(rng, space, p, allow_zero=False)
                    assert exact_divide(f * g, g) == f

    def test_total_time_budget(self):
        with criterion(9, "property suites total under 2 minutes"):
            assert time.perf_counter() - self.started < 120.0
