"""monomials28 / monomials29: one system per orbit, every target re-multiplied."""

import random

import pytest

from permcheck import linmember, monomials
from permcheck.fppoly import Polynomial, parse_poly, render_poly
from permcheck.linmember import members_bounded
from permcheck.monomials import (
    _entry_products_in_p2,
    _entry_triples,
    _squared_entry_triples,
    verify_entry_triples,
    verify_squared_entry_triples,
)
from permcheck.shapes import MatrixShape, permanental_generators


def _exponents(monomial):
    (mono, _), = monomial.items()
    return mono


def per_target_evidence(shape, p, exponents, degree):
    """The evidence of the route before orbits: members_bounded on every target."""
    targets = [Polynomial.monomial(shape.space, p, e) for e in sorted(exponents)]
    gens = permanental_generators(shape, 2, char=p).generators
    failures = [render_poly(t) for t, comb in zip(targets, members_bounded(targets, gens, degree))
                if comb is None]
    return {"targets": len(targets), "members": len(targets) - len(failures),
            "failures": failures}


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

    def test_non_member_reported_under_failures(self):
        # the six monomials28 targets of 2x3 plus x1_1*x1_2*x2_2, which shares
        # its row with a column (x1_2 * perm) but is not in P_2 at degree 3
        shape = MatrixShape.generic(2, 3)
        members = ["x1_1*x1_2*x2_3", "x1_1*x1_3*x2_2", "x1_1*x2_2*x2_3",
                   "x1_2*x1_3*x2_1", "x1_2*x2_1*x2_3", "x1_3*x2_1*x2_2"]
        exponents = {_exponents(parse_poly(t, shape.space, 3)) for t in members}
        exponents.add(_exponents(parse_poly("x1_1*x1_2*x2_2", shape.space, 3)))
        report = _entry_products_in_p2("monomials28", shape, 3, exponents, 3)
        assert report.verdict == "fail"
        assert report.evidence == {"targets": 7, "members": 6, "failures": ["x1_1*x1_2*x2_2"]}
        assert verify_entry_triples(2, 3, 3).evidence["failures"] == []


@pytest.fixture
def systems(monkeypatch):
    """The (rows, columns) of every membership system built while it is in use."""
    sizes = []
    build_system = linmember.build_system

    def recording(*args):
        system = build_system(*args)
        sizes.append((len(system.row_labels), len(system.col_labels)))
        return system

    monkeypatch.setattr(linmember, "build_system", recording)
    return sizes


class TestOrbits:
    """The orbit route against members_bounded on every target."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m, n", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
    def test_monomials28_matches_per_target(self, m, n, p):
        shape = MatrixShape.generic(m, n)
        report = verify_entry_triples(m, n, p)
        assert report.evidence == per_target_evidence(shape, p, _entry_triples(shape), 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
    def test_monomials29_matches_per_target(self, m, n, p):
        shape = MatrixShape.generic(m, n)
        report = verify_squared_entry_triples(m, n, p)
        assert report.evidence == per_target_evidence(shape, p, _squared_entry_triples(shape), 4)

    @pytest.mark.parametrize("m, n, degree", [(3, 3, 3), (3, 4, 3), (3, 3, 4), (4, 4, 4)])
    def test_arbitrary_targets_match_per_target(self, m, n, degree):
        # random monomials: members and non-members, on up to `degree` rows
        # and columns, so failures and their order are compared too
        shape = MatrixShape.generic(m, n)
        rng = random.Random(m * 100 + n * 10 + degree)
        exponents = set()
        while len(exponents) < 60:
            exps = [0] * shape.space.count
            for _ in range(degree):
                exps[rng.randrange(shape.space.count)] += 1
            exponents.add(tuple(exps))
        report = _entry_products_in_p2("monomials28", shape, 3, exponents, degree)
        expected = per_target_evidence(shape, 3, exponents, degree)
        assert report.evidence == expected
        assert expected["failures"] and expected["members"]

    def test_one_system_per_orbit(self, systems):
        # monomials29 has one orbit, monomials28 two (a target and its transpose)
        report = verify_squared_entry_triples(4, 4, 3)
        assert report.evidence["members"] == report.evidence["targets"] == 288
        assert len(systems) == 1
        systems.clear()
        report = verify_entry_triples(4, 4, 3)
        assert report.evidence["members"] == report.evidence["targets"] == 288
        assert len(systems) == 2


class TestMovedCertificatesAreChecked:
    """A wrong map from the representative to a target is caught by the
    re-multiplication of the moved certificate."""

    def test_wrong_generator_map_raises(self, monkeypatch):
        move = monomials._move

        def wrong_generators(*args):
            moved = move(*args)
            return [((gi + 1) % len(args[3]), terms) for gi, terms in moved]

        monkeypatch.setattr(monomials, "_move", wrong_generators)
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            verify_entry_triples(3, 3, 3)

    def test_wrong_variable_map_raises(self, monkeypatch):
        move = monomials._move

        def wrong_variables(certificate, row_map, col_map, *rest):
            right = move(certificate, row_map, col_map, *rest)
            swapped = move(certificate, row_map, col_map[::-1], *rest)
            return [(gi, terms) for (gi, _), (_, terms) in zip(right, swapped)]

        monkeypatch.setattr(monomials, "_move", wrong_variables)
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            verify_squared_entry_triples(3, 3, 3)
