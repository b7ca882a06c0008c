"""monomials28 / monomials29: one stored identity per orbit, re-multiplied
once per prime, and the closed-form target counts; against the helpers'
per-target oracle, which moves each identity onto every target of small
matrices, and the identities proven over Z and checked against the
linmember solve."""

import itertools

import pytest

import helpers
from permcheck import cli, linmember, monomials
from permcheck.fppoly import Polynomial, _shifts, mul_sum, render_poly, unpack_terms
from permcheck.linmember import members_bounded
from permcheck.monomials import (
    _IDENTITIES,
    _block_permanent,
    _entry_triple_count,
    _squared_entry_triple_count,
    verify_entry_triples,
    verify_squared_entry_triples,
)
from permcheck.shapes import MatrixShape, permanent, permanental_generators
from helpers import (
    entry_triples,
    generate_entry_triples,
    generate_squared_entry_triples,
    replay_moved_identities,
    solved_identity,
    squared_entry_triples,
)

REP_IDS = ["x11^2*x22*x33", "x11*x12*x23", "x11*x21*x32"]  # the keys of _IDENTITIES


def generated(targets, shape) -> list:
    """The exponents of every target that targets(m, n) generates, its
    representative's cells moved by its row and column maps."""
    out = []
    for rep, rows, cols in targets(shape.nrows, shape.ncols):
        exps = [0] * shape.space.count
        for r, c, e in rep:
            exps[shape.entry_index(rows[r], cols[c])] += e
        out.append(tuple(exps))
    return out


def per_target_evidence(shape, p, exponents, degree):
    """The evidence of the route before orbits: members_bounded on every target."""
    targets = [Polynomial.monomial(shape.space, p, e) for e in sorted(exponents)]
    gens = permanental_generators(shape, 2, char=p).generators
    failures = [render_poly(t) for t, comb in zip(targets, members_bounded(targets, gens, degree))
                if comb is None]
    return {"targets": len(targets), "members": len(targets) - len(failures),
            "failures": failures}


def never(*args, **kwargs):
    raise AssertionError("an identity was re-multiplied before the job was refused")


class TestEntryProducts:
    def test_triples_2x3(self):
        report = verify_entry_triples(2, 3, 3)
        assert report.verdict == "pass"
        assert report.evidence["targets"] == 6

    def test_triples_3x3(self):
        report = verify_entry_triples(3, 3, 5)
        assert report.verdict == "pass"
        assert report.evidence["targets"] == 36

    def test_squared_triples_3x3(self):
        report = verify_squared_entry_triples(3, 3, 5)
        assert report.verdict == "pass"
        assert report.evidence["targets"] == 18

    def test_squared_triples_need_3x3(self):
        with pytest.raises(ValueError):
            verify_squared_entry_triples(2, 3, 3)

    @pytest.mark.parametrize("verify", [verify_entry_triples, verify_squared_entry_triples])
    @pytest.mark.parametrize("p", [2, 9])
    def test_p_must_be_an_odd_prime(self, monkeypatch, verify, p):
        # 2 is a unit mod 9, so the identities would re-multiply there too
        monkeypatch.setattr(monomials, "mul_sum", never)
        with pytest.raises(ValueError, match="odd prime"):
            verify(3, 3, p)

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 1), (2, 2), (1, 6), (6, 1)])
    def test_triples_without_a_target_are_refused(self, monkeypatch, m, n):
        # no target, so the job would pass vacuously
        monkeypatch.setattr(monomials, "mul_sum", never)
        with pytest.raises(ValueError, match="need n >= 3 and m >= 2, or m >= 3 and n >= 2"):
            verify_entry_triples(m, n, 3)


class TestTargetSize:
    SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 7)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_targets_match_the_brute_force_sets(self, m, n):
        shape = MatrixShape.generic(m, n)
        for targets, oracle in [(generate_entry_triples, entry_triples),
                                (generate_squared_entry_triples, squared_entry_triples)]:
            exponents = generated(targets, shape)
            assert len(set(exponents)) == len(exponents)
            assert set(exponents) == oracle(shape)

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_counts_match_the_generated_targets(self, m, n):
        assert _entry_triple_count(m, n) == sum(1 for _ in generate_entry_triples(m, n))
        assert _squared_entry_triple_count(m, n) == sum(
            1 for _ in generate_squared_entry_triples(m, n))

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_every_moved_identity_gives_its_target(self, m, n, p):
        # the orbit proof, target by target: each identity moved by its
        # row and column maps re-multiplies to the target it is moved onto
        for targets, count in [(generate_entry_triples, _entry_triple_count),
                               (generate_squared_entry_triples, _squared_entry_triple_count)]:
            assert replay_moved_identities(targets, m, n, p) == count(m, n)


@pytest.mark.parametrize("m, n", [(m, n) for m in range(2, 5) for n in range(2, 6)])
def test_block_permanent_is_the_2x2_permanent(m, n):
    shape = MatrixShape.generic(m, n)
    shifts = _shifts(m * n, 2)
    at = [[shifts[r * n + c] for c in range(n)] for r in range(m)]
    for rows in itertools.combinations(range(m), 2):
        for cols in itertools.combinations(range(n), 2):
            block = unpack_terms(_block_permanent(at, rows, cols), shape.space, 3, 2)
            assert block == permanent(shape, rows, cols, char=3)


class TestStoredIdentities:
    @pytest.mark.parametrize("rep", _IDENTITIES, ids=REP_IDS)
    def test_identity_holds_over_z(self, rep):
        # twice the coefficients: the sum is twice the representative.  Each
        # integer coefficient of the sum is at most `bound` in absolute value,
        # far below p = 2^31 - 1, so equality mod p is equality over Z, and
        # with 1/2 read as (p + 1)/2 the identity holds at every odd p
        identity, p = _IDENTITIES[rep], 2**31 - 1
        bound = sum(2 * abs(twice) for *_, twice in identity)
        assert bound < p // 2
        shifts = _shifts(9, 2)  # no exponent passes 2
        at = [[shifts[r * 3 + c] for c in range(3)] for r in range(3)]
        target = sum(e << at[r][c] for r, c, e in rep)
        assert mul_sum(helpers.move_identity(identity, at, 1), p) == {target: 2}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("rep", _IDENTITIES, ids=REP_IDS)
    def test_solver_returns_the_stored_identity(self, rep, p):
        half = (p + 1) // 2
        stored = {(rows, cols): {tuple(sorted(cells)): twice * half % p}
                  for rows, cols, cells, twice in _IDENTITIES[rep]}
        degree = sum(e for *_, e in rep)
        assert solved_identity(rep, p, degree) == stored


class TestOrbits:
    """The orbit route against members_bounded on every target."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m, n", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
    def test_monomials28_matches_per_target(self, m, n, p):
        shape = MatrixShape.generic(m, n)
        report = verify_entry_triples(m, n, p)
        assert report.evidence == per_target_evidence(shape, p, entry_triples(shape), 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
    def test_monomials29_matches_per_target(self, m, n, p):
        shape = MatrixShape.generic(m, n)
        report = verify_squared_entry_triples(m, n, p)
        assert report.evidence == per_target_evidence(shape, p, squared_entry_triples(shape), 4)

    def test_no_system_is_built(self, monkeypatch):
        # every orbit's identity is stored, so no linear system is solved
        def no_system(*args):
            raise AssertionError("a membership system was built")

        monkeypatch.setattr(linmember, "build_system", no_system)
        for verify in (verify_squared_entry_triples, verify_entry_triples):
            report = verify(4, 4, 3)
            assert report.evidence["members"] == report.evidence["targets"] == 288


class TestMovedCertificatesAreChecked:
    """A wrong stored coefficient is caught by the check's re-multiplication,
    and a wrong map from the representative to a target by the oracle's."""

    CHECKS = [("monomials29" if rep[0][2] == 2 else "monomials28", rep) for rep in _IDENTITIES]

    @pytest.mark.parametrize("check, rep", CHECKS, ids=REP_IDS)
    def test_wrong_stored_coefficient_raises(self, monkeypatch, check, rep):
        (rows, cols, cells, twice), *rest = _IDENTITIES[rep]
        monkeypatch.setitem(_IDENTITIES, rep, ((rows, cols, cells, twice + 1), *rest))
        verify = {"monomials28": verify_entry_triples,
                  "monomials29": verify_squared_entry_triples}[check]
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            verify(3, 3, 5)
        # and so does the CLI job, on any matrix with a target in the orbit
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            cli.run(["verify", check, "--m", "40", "--n", "40", "--p", "3,5"])

    def test_wrong_generator_map_raises(self, monkeypatch):
        move = helpers.move_identity

        def wrong_generators(identity, at, half):
            moved = move(identity, at, half)
            return [(h, moved[(i + 1) % len(moved)][1]) for i, (h, _) in enumerate(moved)]

        monkeypatch.setattr(helpers, "move_identity", wrong_generators)
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            replay_moved_identities(generate_entry_triples, 3, 3, 3)

    def test_wrong_variable_map_raises(self, monkeypatch):
        move = helpers.move_identity

        def wrong_variables(identity, at, half):
            right = move(identity, at, half)
            swapped = move(identity, [row[::-1] for row in at], half)
            return [(h, g) for (_, g), (h, _) in zip(right, swapped)]

        monkeypatch.setattr(helpers, "move_identity", wrong_variables)
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            replay_moved_identities(generate_squared_entry_triples, 3, 3, 3)
