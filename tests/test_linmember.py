"""Degree-bounded membership: worked instances and the solver itself."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcheck import linmember
from permcheck.colon import colon_membership, pack
from permcheck.fppoly import Polynomial, parse_poly
from permcheck.linmember import (
    LinearSystem,
    SizeGuardError,
    build_system,
    gaussian_solve,
    member_bounded,
    members_bounded,
    term_table,
)
from permcheck.monomials import _squared_entry_triples
from permcheck.shapes import MatrixShape, permanental_generators
from permcheck.witnesses import minimal_primes_generic, witness
from helpers import (
    member_bounded_single,
    monomials_of_degree,
    monomials_up_to,
    prime_generators,
    prime_omega,
)


class TestMonomialEnumeration:
    def test_degree_counts(self):
        assert len(list(monomials_of_degree(3, 2))) == 6
        assert len(list(monomials_up_to(2, 3))) == 10

    def test_deterministic_order(self):
        assert list(monomials_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]


class TestGaussianSolve:
    def test_identity_system(self):
        system = LinearSystem(
            row_labels=[0, 1],
            col_labels=[0, 1],
            matrix=[{0: 1}, {1: 1}],
            rhs=[2, 1],
            p=3,
        )
        assert gaussian_solve(system) == [2, 1]

    def test_inconsistent_1x1(self):
        system = LinearSystem([0], [0], [{}], [1], 3)
        assert gaussian_solve(system) is None

    def test_random_consistent_systems(self):
        rng = random.Random(21)
        for _ in range(300):
            p = rng.choice([3, 5, 7])
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
            matrix = []
            for _ in range(nrows):
                support = rng.sample(range(ncols), rng.randrange(0, ncols + 1))
                matrix.append({c: rng.randrange(1, p) for c in support})
            x0 = [rng.randrange(p) for _ in range(ncols)]
            rhs = [sum(v * x0[c] for c, v in row.items()) % p for row in matrix]
            system = LinearSystem([None] * nrows, list(range(ncols)), matrix, rhs, p)
            solution = gaussian_solve(system)
            assert solution is not None
            for row, b in zip(matrix, rhs):
                assert sum(v * solution[c] for c, v in row.items()) % p == b

    def test_detects_random_inconsistency(self):
        # a clearly inconsistent pair of identical rows with different rhs
        system = LinearSystem([0, 1], [0, 1], [{0: 1, 1: 2}, {0: 1, 1: 2}], [1, 2], 3)
        assert gaussian_solve(system) is None


class TestMemberBounded:
    def setup_method(self):
        self.shape23 = MatrixShape.generic(2, 3)
        self.gens23 = permanental_generators(self.shape23, 2, char=3)

    def test_entry_triple_member(self):
        target = parse_poly("x1_1*x1_2*x2_3", self.shape23.space, 3)
        comb = member_bounded(target, self.gens23.generators, 3)
        assert comb is not None
        total = Polynomial.zero(self.shape23.space, 3)
        for gi, h in comb.items():
            total = total + h * self.gens23.generators[gi]
        assert total == target

    def test_squared_entry_member(self):
        shape = MatrixShape.generic(3, 3)
        gens = permanental_generators(shape, 2, char=5)
        target = parse_poly("x1_1^2*x2_2*x3_3", shape.space, 5)
        assert member_bounded(target, gens.generators, 4) is not None

    def test_degree_two_absence_matches_brute_force(self):
        target = parse_poly("x1_1*x1_2", self.shape23.space, 3)
        assert member_bounded(target, self.gens23.generators, 2) is None
        # independent oracle: all F_3-combinations of the three generators
        found = False
        g1, g2, g3 = self.gens23.generators
        for c1 in range(3):
            for c2 in range(3):
                for c3 in range(3):
                    if g1 * c1 + g2 * c2 + g3 * c3 == target:
                        found = True
        assert not found

    def test_random_combinations_are_members(self):
        rng = random.Random(31)
        space = self.shape23.space

        def random_linear():
            terms = {(0,) * space.count: rng.randrange(3)}
            for _ in range(rng.randrange(0, 3)):
                mono = [0] * space.count
                mono[rng.randrange(space.count)] = 1
                terms[tuple(mono)] = rng.randrange(3)
            return Polynomial(space, 3, terms)

        for _ in range(25):
            multipliers = [random_linear() for _ in self.gens23.generators]
            target = Polynomial.zero(space, 3)
            for h, g in zip(multipliers, self.gens23.generators):
                target = target + h * g
            if target.is_zero:
                continue
            bound = target.total_degree()
            comb = member_bounded(target, self.gens23.generators, bound)
            assert comb is not None
            # monotonicity: membership persists at larger bounds
            assert member_bounded(target, self.gens23.generators, bound + 1) is not None

    def test_size_guard(self, monkeypatch):
        target = parse_poly("x1_1*x1_2*x2_3", self.shape23.space, 3)
        monkeypatch.setattr(linmember, "MAX_MATRIX_ENTRIES", 2)
        with pytest.raises(SizeGuardError) as err:
            member_bounded(target, self.gens23.generators, 3)
        assert err.value.rows > 0 and err.value.cols > 0
        assert f"{err.value.rows} rows x {err.value.cols} columns" in str(err.value)

    def test_target_degree_above_bound_rejected(self):
        target = parse_poly("x1_1*x1_2*x2_3", self.shape23.space, 3)
        with pytest.raises(ValueError):
            member_bounded(target, self.gens23.generators, 2)

    def test_agreement_with_colon_membership_2x3(self):
        # same verdicts as the structural decision on every minimal prime
        p = 3
        f = witness(MatrixShape.generic(2, 3), p)
        for prime in minimal_primes_generic(2, 3):
            gens = [prime_omega(prime, p) ** (p - 1)] + [g**p for g in prime_generators(prime, p)]
            structural = colon_membership(f, prime) is not None
            linear = member_bounded(f, gens, f.total_degree())
            assert (linear is not None) == structural
            # and the constant 1 is correctly refused on both routes
            one = Polynomial.one(f.space, p)
            assert colon_membership(one, prime) is None
            assert member_bounded(one, tuple(gens), 0) is None


SHAPE23 = MatrixShape.generic(2, 3)
GENS23 = permanental_generators(SHAPE23, 2, char=3).generators


def _poly(text):
    return parse_poly(text, SHAPE23.space, 3)


@st.composite
def membership_batches(draw):
    """Generators of P_2 for the generic 2x3 matrix (one of them made
    non-homogeneous half the time), a degree bound, and a target list."""
    space, p, v = SHAPE23.space, 3, SHAPE23.space.count
    gens = list(GENS23)
    if draw(st.booleans()):
        gens[0] = gens[0] + _poly("x1_1")
    bound = draw(st.sampled_from([3, 4]))

    def member(degree):
        total = Polynomial.zero(space, p)
        for _ in range(draw(st.integers(1, 3))):
            gi = draw(st.integers(0, len(gens) - 1))
            mult = draw(st.sampled_from(list(monomials_of_degree(v, degree - 2))))
            total = total + Polynomial.monomial(space, p, mult, draw(st.integers(1, 2))) * gens[gi]
        return total

    def monomial(degree):
        return Polynomial.monomial(space, p, draw(st.sampled_from(list(monomials_of_degree(v, degree)))))

    targets = [
        member(2),
        member(3),
        member(2) + member(3),  # non-homogeneous
        _poly("x1_1*x1_2"),  # not in P_2 at degree 2
        _poly("x1_1^3"),  # outside every column
        monomial(2),
        monomial(3),
    ]
    targets.append(draw(st.sampled_from(targets)))  # a duplicate
    return tuple(gens), bound, draw(st.permutations(targets))


class TestMembersBounded:
    @settings(max_examples=60, deadline=None)
    @given(membership_batches())
    def test_matches_one_target_oracle(self, batch):
        gens, bound, targets = batch
        combinations = members_bounded(targets, gens, bound)
        assert len(combinations) == len(targets)
        for target, comb in zip(targets, combinations):
            oracle = member_bounded_single(target, gens, bound)
            assert (comb is None) == (oracle is None)
            if comb is not None:
                total = Polynomial.zero(SHAPE23.space, 3)
                for gi, h in comb.items():
                    total = total + h * gens[gi]
                assert total == target

    def test_monomials29_4x4_systems_are_small(self, monkeypatch):
        # each target's system is its own component of the 3,612 x 4,896
        # degree-4 system that one shared system would need
        sizes = []

        def recording_build_system(*args):
            system = build_system(*args)
            sizes.append((len(system.row_labels), len(system.col_labels)))
            return system

        monkeypatch.setattr(linmember, "build_system", recording_build_system)
        shape = MatrixShape.generic(4, 4)
        targets = [Polynomial.monomial(shape.space, 3, e) for e in _squared_entry_triples(shape)]
        gens = permanental_generators(shape, 2, char=3).generators
        combinations = members_bounded(targets, gens, 4)
        assert all(combinations) and len(combinations) == len(sizes) == 288
        assert max(rows for rows, _ in sizes) <= 7
        assert max(cols for _, cols in sizes) <= 13

    def test_generator_with_a_constant_term(self):
        # a constant term divides every monomial; over F_3,
        # 1 = (1 - x1_1) * (1 + x1_1) + x1_1^2 needs multipliers up to degree 1
        gens = (_poly("x1_1 + 1"), _poly("x1_1^2"))
        one = _poly("1")
        for bound, member in [(0, False), (1, False), (2, True)]:
            [comb] = members_bounded([one], gens, bound)
            assert (comb is not None) == member == (member_bounded_single(one, gens, bound) is not None)

    def test_empty_target_list(self):
        assert members_bounded([], GENS23, 3) == []

    def test_zero_generator_refused(self):
        with pytest.raises(ValueError, match="generators must be nonzero"):
            members_bounded([_poly("x1_1")], (GENS23[0], _poly("0")), 2)

    def test_wrong_solution_fails_the_remultiplication(self, monkeypatch):
        # a member target, and a solver that returns a solution of nothing:
        # the combination is checked by multiplying out, not taken on trust
        target = _poly("x1_1*x1_2*x2_3")
        monkeypatch.setattr(linmember, "gaussian_solve", lambda system: [1] * len(system.col_labels))
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            members_bounded([target], GENS23, 3)

    def test_size_guard_refuses_a_closure_as_it_grows(self, monkeypatch):
        target = _poly("x1_1*x1_2*x2_3")
        full = build_system(target, term_table(GENS23), 3)
        entries = len(full.row_labels) * len(full.col_labels)
        monkeypatch.setattr(linmember, "MAX_MATRIX_ENTRIES", entries)
        assert members_bounded([target], GENS23, 3)[0] is not None
        monkeypatch.setattr(linmember, "MAX_MATRIX_ENTRIES", entries - 1)
        with pytest.raises(SizeGuardError):
            members_bounded([target], GENS23, 3)
        # a guard of one entry stops the closure at its first column
        monkeypatch.setattr(linmember, "MAX_MATRIX_ENTRIES", 1)
        with pytest.raises(SizeGuardError) as err:
            members_bounded([target], GENS23, 3)
        assert err.value.cols == 1 < len(full.col_labels)

    def test_target_degree_above_bound_rejected(self):
        with pytest.raises(ValueError):
            members_bounded([_poly("x1_1"), _poly("x1_1*x1_2*x2_3")], GENS23, 2)


PRIMES23 = minimal_primes_generic(2, 3)


@st.composite
def colon_batches(draw):
    """A minimal prime P of the generic 2x3 P_2 at p = 3, the generators of its
    colon ideal (omega_P^{p-1}) + P^[p], and homogeneous targets of degree 8
    or 9, each a sum of monomial multiples of those generators plus up to two
    random monomials, so that members and non-members both occur."""
    p = 3
    prime = draw(st.sampled_from(PRIMES23))
    space, v = prime.space, prime.space.count
    gens = [prime_omega(prime, p) ** (p - 1)] + [g**p for g in prime_generators(prime, p)]

    def target(degree):
        f = Polynomial.zero(space, p)
        for _ in range(draw(st.integers(1, 3))):
            g = draw(st.sampled_from([g for g in gens if g.total_degree() <= degree]))
            mult = draw(st.sampled_from(list(monomials_of_degree(v, degree - g.total_degree()))))
            f = f + Polynomial.monomial(space, p, mult, draw(st.integers(1, p - 1))) * g
        for _ in range(draw(st.integers(0, 2))):
            mono = draw(st.sampled_from(list(monomials_of_degree(v, degree))))
            f = f + Polynomial.monomial(space, p, mono, draw(st.integers(1, p - 1)))
        return f

    targets = [target(draw(st.sampled_from([8, 9]))) for _ in range(draw(st.integers(1, 4)))]
    return prime, tuple(gens), [f for f in targets if not f.is_zero]


class TestColonMembershipAgreement:
    @settings(max_examples=60, deadline=None)
    @given(colon_batches())
    def test_structural_matches_linear(self, batch):
        # the generators are homogeneous, so the degree bound 9 decides exactly
        prime, gens, targets = batch
        p = 3
        for f, comb in zip(targets, members_bounded(targets, gens, 9)):
            cert = colon_membership(f, prime)
            assert (cert is None) == (comb is None)
            if cert is not None:
                assert cert.replay() == pack(f)
            if comb is not None:
                total = Polynomial.zero(f.space, p)
                for gi, h in comb.items():
                    total = total + h * gens[gi]
                assert total == f
