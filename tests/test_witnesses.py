"""Minimal primes, witness elements, and the named verification jobs."""

import itertools
import json
import math
import random

import pytest

from permcheck import frobcheck, hankel, witnesses
from permcheck.fppoly import (
    Polynomial,
    parse_poly,
    truncate,
)
from permcheck.frobcheck import check_fpure, scan_three_by_four_fpurity, verify_fpure
from permcheck.hankel import (
    verify_hankel_eisenstein,
    verify_hankel_hypersurface,
    verify_hankel_monomial_absence,
    verify_hankel_product_identity,
    verify_hankel_specialization_check,
)
from permcheck.shapes import MatrixShape, permanental_generators
from permcheck.witnesses import (
    minimal_primes_generic,
    minimal_primes_symmetric,
    verify_witness_membership,
    witness,
)
from helpers import prime_binomial


# (label, binomial x^u + x^w as (x^u, x^w) or None, variable generators) of
# every minimal prime, in the order the classifiers return them
PRIMES_2X3 = [
    ("sub(rows 1,2; cols 1,2)", ("x1_1*x2_2", "x1_2*x2_1"), "x1_3 x2_3"),
    ("sub(rows 1,2; cols 1,3)", ("x1_1*x2_3", "x1_3*x2_1"), "x1_2 x2_2"),
    ("sub(rows 1,2; cols 2,3)", ("x1_2*x2_3", "x1_3*x2_2"), "x1_1 x2_1"),
    ("rows(1)", None, "x1_1 x1_2 x1_3"),
    ("rows(2)", None, "x2_1 x2_2 x2_3"),
]
PRIMES_3X3 = [
    ("sub(rows 1,2; cols 1,2)", ("x1_1*x2_2", "x1_2*x2_1"), "x1_3 x2_3 x3_1 x3_2 x3_3"),
    ("sub(rows 1,2; cols 1,3)", ("x1_1*x2_3", "x1_3*x2_1"), "x1_2 x2_2 x3_1 x3_2 x3_3"),
    ("sub(rows 1,2; cols 2,3)", ("x1_2*x2_3", "x1_3*x2_2"), "x1_1 x2_1 x3_1 x3_2 x3_3"),
    ("sub(rows 1,3; cols 1,2)", ("x1_1*x3_2", "x1_2*x3_1"), "x1_3 x2_1 x2_2 x2_3 x3_3"),
    ("sub(rows 1,3; cols 1,3)", ("x1_1*x3_3", "x1_3*x3_1"), "x1_2 x2_1 x2_2 x2_3 x3_2"),
    ("sub(rows 1,3; cols 2,3)", ("x1_2*x3_3", "x1_3*x3_2"), "x1_1 x2_1 x2_2 x2_3 x3_1"),
    ("sub(rows 2,3; cols 1,2)", ("x2_1*x3_2", "x2_2*x3_1"), "x1_1 x1_2 x1_3 x2_3 x3_3"),
    ("sub(rows 2,3; cols 1,3)", ("x2_1*x3_3", "x2_3*x3_1"), "x1_1 x1_2 x1_3 x2_2 x3_2"),
    ("sub(rows 2,3; cols 2,3)", ("x2_2*x3_3", "x2_3*x3_2"), "x1_1 x1_2 x1_3 x2_1 x3_1"),
    ("rows(1,2)", None, "x1_1 x1_2 x1_3 x2_1 x2_2 x2_3"),
    ("rows(1,3)", None, "x1_1 x1_2 x1_3 x3_1 x3_2 x3_3"),
    ("rows(2,3)", None, "x2_1 x2_2 x2_3 x3_1 x3_2 x3_3"),
    ("cols(1,2)", None, "x1_1 x1_2 x2_1 x2_2 x3_1 x3_2"),
    ("cols(1,3)", None, "x1_1 x1_3 x2_1 x2_3 x3_1 x3_3"),
    ("cols(2,3)", None, "x1_2 x1_3 x2_2 x2_3 x3_2 x3_3"),
]
PRIMES_SYM3 = [
    ("pair(1,2)", ("y1_1*y2_2", "y1_2^2"), "y1_3 y2_3 y3_3"),
    ("pair(1,3)", ("y1_1*y3_3", "y1_3^2"), "y1_2 y2_2 y2_3"),
    ("pair(2,3)", ("y2_2*y3_3", "y2_3^2"), "y1_1 y1_2 y1_3"),
]


class TestMinimalPrimes:
    @pytest.mark.parametrize(
        "primes,pinned",
        [
            (lambda: minimal_primes_generic(2, 3), PRIMES_2X3),
            (lambda: minimal_primes_generic(3, 3), PRIMES_3X3),
            (lambda: minimal_primes_symmetric(3), PRIMES_SYM3),
        ],
        ids=["generic-2x3", "generic-3x3", "symmetric-3"],
    )
    def test_prime_data_is_pinned(self, primes, pinned):
        primes = primes()
        assert len(primes) == len(pinned)
        for prime, (label, binomial, variables) in zip(primes, pinned):
            names = prime.space.names
            assert prime.label == label
            assert [names[i] for i in prime.variable_gens] == variables.split()
            if binomial is None:
                assert prime.binomial is None
            else:
                assert prime.binomial == tuple(
                    _exponents(parse_poly(x, prime.space, 3)) for x in binomial
                )

    @pytest.mark.parametrize(
        "m,n,count", [(2, 2, 1), (2, 3, 5), (3, 3, 15), (3, 4, 25), (4, 4, 44), (2, 4, 8)]
    )
    def test_generic_counts(self, m, n, count):
        primes = minimal_primes_generic(m, n)
        assert len(primes) == count
        closed_form = math.comb(m, 2) * math.comb(n, 2)
        if n >= 3:
            closed_form += m
        if m >= 3:
            closed_form += n
        assert len(primes) == closed_form
        assert len({p.label for p in primes}) == count

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 6)])
    def test_symmetric_counts(self, n, count):
        assert len(minimal_primes_symmetric(n)) == count

    def test_generators_form_regular_sequence_shape(self):
        # binomial in inner variables disjoint from the outside variables
        for prime in minimal_primes_generic(3, 3) + minimal_primes_symmetric(3):
            b = prime_binomial(prime, 3)
            if b is None:
                assert prime.label.startswith(("rows(", "cols("))
                continue
            inner = {i for x in prime.binomial for i, e in enumerate(x) if e}
            assert inner.isdisjoint(prime.variable_gens)
            assert {i for mono, _ in b.items() for i, e in enumerate(mono) if e} <= inner
            assert len(prime.variable_gens) + len(inner) == prime.space.count

    def test_small_cases_require_both_dimensions(self):
        with pytest.raises(ValueError):
            minimal_primes_generic(1, 3)
        with pytest.raises(ValueError):
            minimal_primes_symmetric(1)


class TestWitnessGeneric:
    def test_residue_is_full_product(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            for p in (3, 5, 7):
                f = witness(MatrixShape.generic(m, n), p)
                expected = Polynomial.monomial(f.space, p, (p - 1,) * f.space.count)
                assert truncate(f) == expected

    def test_homogeneous_of_expected_degree(self):
        f = witness(MatrixShape.generic(2, 3), 5)
        degrees = {sum(m) for m, _ in f.items()}
        assert degrees == {6 * 4}

    def test_2x2_off_terms_carry_pth_powers(self):
        # beyond the leading product, every term has a corner exponent >= p
        shape = MatrixShape.generic(2, 2)
        p = 3
        f = witness(MatrixShape.generic(2, 2), p)
        g = Polynomial.monomial(f.space, p, (p - 1,) * 4)
        a, d = shape.entry_index(0, 0), shape.entry_index(1, 1)
        for mono, _ in (f - g).items():
            assert mono[a] >= p or mono[d] >= p

    def test_construction_matches_polynomial_formula(self):
        for (m, n, p) in [(2, 2, 3), (2, 3, 3), (2, 2, 5), (3, 3, 3)]:
            shape = MatrixShape.generic(m, n)
            space = shape.space
            var = lambda i: Polynomial.variable(space, p, i)
            total = Polynomial.monomial(space, p, (p - 1,) * space.count)
            for rows in itertools.combinations(range(m), 2):
                for cols in itertools.combinations(range(n), 2):
                    a = var(shape.entry_index(rows[0], cols[0]))
                    b = var(shape.entry_index(rows[0], cols[1]))
                    c = var(shape.entry_index(rows[1], cols[0]))
                    d = var(shape.entry_index(rows[1], cols[1]))
                    inner = {
                        shape.entry_index(r, cc) for r in rows for cc in cols
                    }
                    outside = Polynomial.monomial(
                        space, p, [0 if i in inner else p - 1 for i in range(space.count)]
                    )
                    acc = Polynomial.zero(space, p)
                    for k in range(p - 1):
                        acc = acc + (a * d) ** (2 * p - 2 - k) * (b * c) ** k * ((-1) ** k)
                    total = total + outside * acc
            assert total == witness(MatrixShape.generic(m, n), p)

    def test_per_pair_exact_identity(self):
        # g + f_w = (ad)^{p-1} (prod outside x^{p-1}) (ad + bc)^{p-1}
        for (m, n, p) in [(2, 2, 3), (2, 3, 3), (2, 2, 5), (3, 3, 5)]:
            shape = MatrixShape.generic(m, n)
            space = shape.space
            var = lambda i: Polynomial.variable(space, p, i)
            g = Polynomial.monomial(space, p, (p - 1,) * space.count)
            rows, cols = (0, 1), (0, 1)
            a, b = var(shape.entry_index(0, 0)), var(shape.entry_index(0, 1))
            c, d = var(shape.entry_index(1, 0)), var(shape.entry_index(1, 1))
            inner = {shape.entry_index(r, cc) for r in rows for cc in cols}
            outside = Polynomial.monomial(
                space, p, [0 if i in inner else p - 1 for i in range(space.count)]
            )
            f_w = Polynomial.zero(space, p)
            for k in range(p - 1):
                f_w = f_w + outside * (a * d) ** (2 * p - 2 - k) * (b * c) ** k * ((-1) ** k)
            rhs = (a * d) ** (p - 1) * outside * (a * d + b * c) ** (p - 1)
            assert g + f_w == rhs

    def test_p2_refused(self):
        with pytest.raises(ValueError):
            witness(MatrixShape.generic(2, 2), 2)

    def test_hankel_shape_refused(self):
        with pytest.raises(ValueError, match="generic and symmetric shapes"):
            witness(MatrixShape.hankel(3), 3)


class TestWitnessSize:
    @pytest.mark.parametrize(
        "shape,p",
        [(MatrixShape.generic(2, 2), 5), (MatrixShape.generic(2, 3), 7),
         (MatrixShape.symmetric(2), 5), (MatrixShape.symmetric(3), 7)],
    )
    def test_guard_counts_the_built_entries(self, monkeypatch, shape, p):
        f = witness(shape, p)
        entries = len(f) * f.space.count
        monkeypatch.setattr(witnesses, "MAX_WITNESS_ENTRIES", entries)
        assert witness(shape, p) == f
        monkeypatch.setattr(witnesses, "MAX_WITNESS_ENTRIES", entries - 1)
        with pytest.raises(ValueError, match="exponent entries"):
            witness(shape, p)


    def test_oversized_shape_is_refused_before_its_space(self):
        # 10^10 variables: the guard reads m, n and p, never the names
        shape = MatrixShape.generic(100000, 100000)
        with pytest.raises(ValueError, match="exponent entries"):
            witness(shape, 3)
        assert "space" not in vars(shape)


class TestWitnessSymmetric:
    def test_residue_is_signed_full_product(self):
        for n in (2, 3):
            for p in (3, 5, 7):
                f = witness(MatrixShape.symmetric(n), p)
                sign = (-1) ** ((p - 1) // 2)
                expected = Polynomial.monomial(f.space, p, (p - 1,) * f.space.count, sign)
                assert truncate(f) == expected

    def test_construction_matches_polynomial_formula(self):
        for n in (2, 3):
            for p in (3, 5, 7):
                shape = MatrixShape.symmetric(n)
                space = shape.space
                var = lambda i: Polynomial.variable(space, p, i)
                sign = (-1) ** ((p - 1) // 2)
                total = Polynomial.monomial(space, p, (p - 1,) * space.count, sign)
                for u, v in itertools.combinations(range(n), 2):
                    yuu, yuv, yvv = var(shape.entry_index(u, u)), var(shape.entry_index(u, v)), var(shape.entry_index(v, v))
                    inner = {shape.entry_index(u, u), shape.entry_index(u, v), shape.entry_index(v, v)}
                    outside = Polynomial.monomial(
                        space, p, [0 if i in inner else p - 1 for i in range(space.count)]
                    )
                    acc = Polynomial.zero(space, p)
                    for k in range(p):
                        if k != (p - 1) // 2:
                            acc = acc + (yuu * yvv) ** (3 * (p - 1) // 2 - k) * yuv ** (2 * k) * (
                                (-1) ** k
                            )
                    total = total + outside * acc
                assert total == witness(MatrixShape.symmetric(n), p), (n, p)

    def test_per_pair_exact_identity(self):
        # g + f_uv = (y_uu y_vv)^{(p-1)/2} (prod outside y^{p-1}) (y_uu y_vv + y_uv^2)^{p-1}
        for (n, p) in [(2, 3), (3, 3), (2, 5), (3, 5)]:
            shape = MatrixShape.symmetric(n)
            space = shape.space
            var = lambda i: Polynomial.variable(space, p, i)
            sign = (-1) ** ((p - 1) // 2)
            g = Polynomial.monomial(space, p, (p - 1,) * space.count, sign)
            u, v = 0, 1
            yuu, yuv, yvv = var(shape.entry_index(u, u)), var(shape.entry_index(u, v)), var(shape.entry_index(v, v))
            inner = {shape.entry_index(u, u), shape.entry_index(u, v), shape.entry_index(v, v)}
            outside = Polynomial.monomial(
                space, p, [0 if i in inner else p - 1 for i in range(space.count)]
            )
            f_uv = Polynomial.zero(space, p)
            k_values = list(range(0, (p - 1) // 2)) + list(range((p + 1) // 2, p))
            for k in k_values:
                f_uv = f_uv + outside * (yuu * yvv) ** (3 * (p - 1) // 2 - k) * yuv ** (
                    2 * k
                ) * ((-1) ** k)
            rhs = (yuu * yvv) ** ((p - 1) // 2) * outside * (yuu * yvv + yuv * yuv) ** (p - 1)
            assert g + f_uv == rhs

    def test_nonzero_residue_mod_cubes(self):
        f = witness(MatrixShape.symmetric(2), 3)
        assert not truncate(f).is_zero


class TestLazyNames:
    """Names that other modules define, reachable here and in frobcheck and
    fppoly, each module loaded on first use; witnesses imports
    colon_membership itself."""

    def test_names_resolve_to_their_modules(self):
        from permcheck import colon, fppoly, monomials, truncated

        for name in ("verify_hankel_eisenstein", "verify_hankel_hypersurface",
                     "verify_hankel_monomial_absence", "verify_hankel_product_identity",
                     "verify_hankel_specialization_check"):
            assert getattr(witnesses, name) is getattr(hankel, name)
        assert witnesses.verify_entry_triples is monomials.verify_entry_triples
        assert witnesses.verify_squared_entry_triples is monomials.verify_squared_entry_triples
        assert witnesses.verify_fpure is frobcheck.verify_fpure
        assert witnesses.scan_three_by_four_fpurity is frobcheck.scan_three_by_four_fpurity
        assert witnesses.colon_membership is colon.colon_membership
        assert frobcheck.colon_membership is colon.colon_membership
        assert frobcheck.truncated_mul is fppoly.truncated_mul is truncated.truncated_mul

    def test_unknown_name_is_an_attribute_error(self):
        from permcheck import fppoly

        for module in (witnesses, frobcheck, fppoly):
            with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
                module.no_such_name


class TestLemmaReports:
    def test_monomial_absence_grid(self):
        for n in range(1, 7):
            report = verify_hankel_monomial_absence(n)
            assert report.verdict == "pass"
            assert report.evidence["lower_ok"]

    def test_monomial_absence_fails_on_an_upper_term(self, monkeypatch):
        # z3*z4 is supported on z_n, z_{n+1} for n = 3 and contains z_{n+1}
        real = hankel.permanent

        def with_upper_term(shape, **kwargs):
            f = real(shape, **kwargs)
            return f + parse_poly("z3*z4", f.space, f.char)

        monkeypatch.setattr(hankel, "permanent", with_upper_term)
        report = verify_hankel_monomial_absence(3)
        assert report.verdict == "fail"
        assert not report.evidence["upper_ok"]
        assert report.evidence["lower_ok"]

    def test_eisenstein_grid(self):
        for n in (3, 4, 5):
            report = verify_hankel_eisenstein(n)
            assert report.verdict == "pass"
            assert report.evidence["constant_term_coefficient"] == 1

    def test_eisenstein_small_cases_direct(self):
        assert verify_hankel_eisenstein(1).verdict == "pass"
        assert verify_hankel_eisenstein(2).verdict == "pass"

    def test_product_identity_examples(self):
        for p in (3, 5, 7):
            report = verify_hankel_product_identity(1, p)
            assert report.verdict == "pass"
        report = verify_hankel_product_identity(2, 3)
        assert report.verdict == "pass"
        assert report.evidence["result_full_support_coefficient"] == 2
        report = verify_hankel_product_identity(3, 3)
        assert report.evidence["result_full_support_coefficient"] == 1

    def test_product_identity_rejects_p2(self):
        with pytest.raises(ValueError):
            verify_hankel_product_identity(2, 2)

    def test_hankel_checks_reject_p2_in_check_prime(self):
        # the polynomial constructors refuse p = 2, so neither check guards it
        with pytest.raises(ValueError, match="odd prime"):
            verify_hankel_hypersurface(2, 2)
        with pytest.raises(ValueError, match="odd prime"):
            verify_hankel_product_identity(2, 2)

    def test_hypersurface_grid_small(self):
        for n, p in [(1, 5), (2, 3), (2, 5), (3, 3)]:
            report = verify_hankel_hypersurface(n, p)
            assert report.verdict == "pass"

    def test_hypersurface_without_fregularity_witness_is_inconclusive(self, monkeypatch):
        # (a) and (b) decide F-purity; a vanishing f_{n-1} f_n^{p-1} only
        # leaves F-regularity open, it does not refute it
        real = hankel._hankel_permanents

        def without_witness(n, p):
            space, f_n, _ = real(n, p)
            return space, f_n, Polynomial.zero(space, p)

        monkeypatch.setattr(hankel, "_hankel_permanents", without_witness)
        report = verify_hankel_hypersurface(2, 3)
        assert report.verdict == "inconclusive"
        assert report.evidence["fregularity_witness_terms"] == 0
        assert report.evidence["leading_term_ok"]

    def test_specialization_grid(self):
        for n in (1, 2, 3, 4):
            report = verify_hankel_specialization_check(n)
            assert report.verdict == "pass"
            assert report.evidence["generic_identifications"] == (n - 1) ** 2

    def test_witness_membership_reports(self):
        report = verify_witness_membership(MatrixShape.generic(2, 3), 3)
        assert report.verdict == "pass"
        assert report.evidence["prime_count"] == 5
        report = verify_witness_membership(MatrixShape.symmetric(3), 3)
        assert report.verdict == "pass"
        assert report.evidence["residue_equals_unsigned_offdiagonal_product"] is False

    def test_witness_membership_2x2_also_fedder(self):
        report = verify_witness_membership(MatrixShape.generic(2, 2), 3)
        assert report.verdict == "pass"
        fpure = verify_fpure(check_fpure(MatrixShape.generic(2, 2), 2, 3, "truncated"))
        assert fpure.verdict == "pass"

    def test_report_json_shape(self):
        report = verify_hankel_product_identity(2, 3)
        doc = report.to_json_dict()
        assert doc["schema"] == 1
        assert set(doc) == {"schema", "check", "params", "verdict", "evidence", "ms"}
        assert set(doc["params"]) == {"shape", "m", "n", "t", "p", "e", "method"}
        json.dumps(doc)  # must be serializable


def _exponents(monomial):
    (mono, _), = monomial.items()
    return mono


class TestConjectureScan:
    def test_p3(self):
        report = scan_three_by_four_fpurity([3])
        assert report.verdict == "pass"
        assert report.evidence["per_p"][0]["coefficient"] == 0
        assert report.evidence["per_p"][0]["fpure"] is False

    def test_fiber_small(self):
        report = scan_three_by_four_fpurity([3, 7])
        assert report.verdict == "pass"
        by_p = {row["p"]: row for row in report.evidence["per_p"]}
        assert by_p[3]["fpure"] is False
        assert by_p[7]["fpure"] is True

    def test_fpure_full_support_fail(self):
        report = verify_fpure(check_fpure(MatrixShape.generic(3, 4), 3, 5, "pointcount"),
                              method="pointcount")
        assert report.verdict == "fail"
