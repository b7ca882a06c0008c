"""Colon membership on packed keys, against the tuple path it replaced and
against linear membership."""

import random
from operator import lshift

import pytest

from permcheck import colon
from permcheck.colon import _closed_form_pm1, colon_membership, pack
from permcheck.fppoly import Polynomial, StructureError, VariableSpace, _shifts
from permcheck.shapes import MatrixShape
from permcheck.witnesses import (
    minimal_primes_generic,
    minimal_primes_symmetric,
    verify_witness_membership,
    witness,
)
from helpers import (
    certificate_polynomials,
    colon_membership_tuples,
    in_frobenius_power,
    prime_binomial,
    prime_generators,
    prime_omega,
    random_poly,
)


class TestColonMembership:
    def test_generic_23_all_primes(self):
        f = witness(MatrixShape.generic(2, 3), 3)
        for prime in minimal_primes_generic(2, 3):
            cert = colon_membership(f, prime)
            assert cert is not None, prime.label
            assert cert.replay() == pack(f)

    def test_symmetric_3_all_primes(self):
        f = witness(MatrixShape.symmetric(3), 3)
        for prime in minimal_primes_symmetric(3):
            cert = colon_membership(f, prime)
            assert cert is not None
            assert cert.replay() == pack(f)

    def test_f_from_another_space_refused(self):
        f = witness(MatrixShape.generic(2, 2), 3)
        with pytest.raises(StructureError, match="prime's variable space"):
            colon_membership(f, minimal_primes_generic(2, 3)[0])

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 1009])
    def test_closed_form_powers_match_repeated_products(self, p):
        # a generic block a*d + b*c and a symmetric one y11*y22 + y12^2
        for prime in (minimal_primes_generic(2, 3)[0], minimal_primes_symmetric(3)[0]):
            b = prime_binomial(prime, p)
            packed = pack(b ** (p - 1))
            shifts = _shifts(prime.space.count, packed.width)
            u, w = (sum(map(lshift, exps, shifts)) for exps in prime.binomial)
            assert _closed_form_pm1(u, w, p) == packed.terms
            # b^p alone is one multiple of the closed-form b^p generator
            one = Polynomial.one(prime.space, p)
            cert = colon_membership(b ** p, prime)
            assert certificate_polynomials(cert) == ((one, b ** p),)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("shape, minimal_primes, size", [
        (MatrixShape.generic, minimal_primes_generic, (2, 3)),
        (MatrixShape.generic, minimal_primes_generic, (3, 3)),
        (MatrixShape.generic, minimal_primes_generic, (4, 4)),
        (MatrixShape.symmetric, minimal_primes_symmetric, (3,)),
        (MatrixShape.symmetric, minimal_primes_symmetric, (5,)),
    ], ids=["generic:2x3", "generic:3x3", "generic:4x4", "symmetric:3", "symmetric:5"])
    def test_witness_certificates_have_one_entry_per_generator(
        self, shape, minimal_primes, size, p
    ):
        # one multiplier per variable generator, one of b^p and one of omega^{p-1}
        f = witness(shape(*size), p)
        for prime in minimal_primes(*size):
            cert = colon_membership(f, prime)
            assert cert is not None, prime.label
            assert len(cert.entries) <= len(prime.variable_gens) + 2, prime.label
            assert cert.replay() == pack(f)

    def test_replay_keeps_the_space_and_characteristic(self):
        # a replay equals only the packing of f in its own space and characteristic
        prime = minimal_primes_generic(2, 2)[0]
        packed = pack(witness(MatrixShape.generic(2, 2), 3))
        replay = colon_membership(packed, prime).replay()
        assert replay == packed
        assert replay != packed._replace(char=5)
        assert replay != packed._replace(space=VariableSpace(("a", "b", "c", "d")))

    def test_constant_one_is_not_member(self):
        for prime in minimal_primes_generic(2, 3):
            one = Polynomial.one(prime.space, 3)
            assert colon_membership(one, prime) is None

    def test_omega_power_is_member(self):
        for prime in minimal_primes_generic(3, 3)[:5]:
            omega = prime_omega(prime, 3)
            assert colon_membership(omega**2, prime) is not None

    def test_random_multiples_are_members(self):
        rng = random.Random(77)
        primes = minimal_primes_generic(2, 3) + minimal_primes_symmetric(3)
        for prime in primes:
            p = 3
            gens = prime_generators(prime, p)
            omega_pm1 = prime_omega(prime, p) ** (p - 1)
            for _ in range(5):
                f = omega_pm1 * random_poly(rng, prime.space, p, max_terms=2, max_exp=1)
                g = rng.choice(gens)
                f = f + g**p * random_poly(rng, prime.space, p, max_terms=2, max_exp=1)
                cert = colon_membership(f, prime)
                assert cert is not None
                assert cert.replay() == pack(f)

    def test_near_miss_rejected(self):
        # omega^{p-2} multiples are not in the colon ideal
        prime = minimal_primes_generic(2, 2)[0]
        omega = prime_omega(prime, 3)
        assert colon_membership(omega, prime) is None

    def test_pure_variable_prime_agrees_with_monomial_ideal(self):
        rng = random.Random(78)
        primes = [pr for pr in minimal_primes_generic(3, 3) if pr.binomial is None]
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
            omega_power = prime_omega(prime, p) ** (p - 1)
            gens = tuple([omega_power] + [g**p for g in prime_generators(prime, p)])
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
            f = witness(MatrixShape.generic(m, n), 3)
            for prime in minimal_primes_generic(m, n):
                for g in prime_generators(prime, 3):
                    assert in_frobenius_power(f * g, prime, 3)
        for n in (2, 3):
            f = witness(MatrixShape.symmetric(n), 3)
            for prime in minimal_primes_symmetric(n):
                for g in prime_generators(prime, 3):
                    assert in_frobenius_power(f * g, prime, 3)


# every witness whose minimal primes the oracle comparison covers
WITNESSES = [
    *((MatrixShape.generic(m, n), minimal_primes_generic, (m, n))
      for m, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]),
    *((MatrixShape.symmetric(n), minimal_primes_symmetric, (n,)) for n in (2, 3, 4, 5)),
]
WITNESS_IDS = [shape.spec_string() for shape, _, _ in WITNESSES]


class TestAgainstTuplePath:
    """The packed colon against the exponent-tuple implementation it
    replaced, kept in tests/helpers.py: the same decisions and the same
    certificates, entry by entry."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("shape, minimal_primes, size", WITNESSES, ids=WITNESS_IDS)
    def test_witness_certificates_match(self, shape, minimal_primes, size, p):
        f = witness(shape, p)
        packed = pack(f)
        for prime in minimal_primes(*size):
            cert = colon_membership(packed, prime)
            expected = colon_membership_tuples(f, prime)
            assert expected is not None and cert is not None, prime.label
            assert certificate_polynomials(cert) == expected, prime.label
            assert cert.replay() == packed, prime.label

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("shape, minimal_primes, size", WITNESSES, ids=WITNESS_IDS)
    def test_perturbed_witnesses_match(self, shape, minimal_primes, size, p):
        # f with one term dropped, rescaled or added, among the terms that
        # P^[p] does not absorb: mostly non-members
        f = witness(shape, p)
        rng = random.Random(f"{shape.spec_string()}:{p}")
        decided = []
        for prime in minimal_primes(*size):
            outer = set(prime.variable_gens)
            below = [(mono, c) for mono, c in f.items() if all(mono[i] < p for i in outer)]
            for _ in range(4):
                mono, coeff = rng.choice(below)
                change = rng.choice(["drop", "rescale", "add"])
                if change == "add":
                    mono = tuple(rng.randrange(p if i in outer else 2 * p)
                                 for i in range(len(mono)))
                shift = -coeff if change == "drop" else rng.randrange(1, p)
                g = f + Polynomial.monomial(f.space, p, mono, shift)
                cert = colon_membership(g, prime)
                expected = colon_membership_tuples(g, prime)
                assert (cert is None) == (expected is None), prime.label
                if cert is not None:
                    assert certificate_polynomials(cert) == expected
                    assert cert.replay() == pack(g)
                decided.append(cert is None)
        assert sum(decided) > len(decided) // 2

    def test_chain_labels_a_carry_apart_stay_apart(self):
        # the chain labels of these two terms for the block x11*x22 + x12*x21
        # are (18, 0, 0, 16, 18, 0) and (18, 0, 1, -16, 18, 0): a field width
        # that only holds f's exponents (5 bits) gives them one key, and the
        # two chains would close as one, although neither divides alone
        shape = MatrixShape.generic(2, 3)
        prime = minimal_primes_generic(2, 3)[0]
        f = Polynomial(shape.space, 3, [((18, 0, 0, 16, 18, 0), 1), ((0, 18, 1, 2, 0, 0), 2)])
        assert colon_membership_tuples(f, prime) is None
        assert colon_membership(f, prime) is None

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_polynomials_match(self, p):
        rng = random.Random(p)
        for prime in minimal_primes_generic(2, 3) + minimal_primes_symmetric(3):
            for _ in range(30):
                f = random_poly(rng, prime.space, p, max_terms=6, max_exp=2 * p + 1)
                cert = colon_membership(f, prime)
                expected = colon_membership_tuples(f, prime)
                assert (cert is None) == (expected is None)
                if cert is not None:
                    assert certificate_polynomials(cert) == expected
                    assert cert.replay() == pack(f)


class TestDroppedEntries:
    """A certificate with an entry dropped does not replay to f."""

    @pytest.mark.parametrize("shape, minimal_primes, size", WITNESSES, ids=WITNESS_IDS)
    def test_every_dropped_entry_breaks_the_replay(self, shape, minimal_primes, size):
        packed = pack(witness(shape, 5))
        for prime in minimal_primes(*size):
            cert = colon_membership(packed, prime)
            for i in range(len(cert.entries)):
                dropped = cert._replace(entries=cert.entries[:i] + cert.entries[i + 1:])
                assert dropped.replay() != packed, (prime.label, i)

    def test_witness_job_reports_a_dropped_entry(self, monkeypatch):
        def drop_last(f, prime):
            cert = colon_membership(f, prime)
            return cert._replace(entries=cert.entries[:-1])

        # the witness job imports colon_membership from its module when it runs
        monkeypatch.setattr(colon, "colon_membership", drop_last)
        report = verify_witness_membership(MatrixShape.generic(2, 3), 3)
        assert report.verdict == "fail"
        assert not any(row["member"] for row in report.evidence["memberships"])
