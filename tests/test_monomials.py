"""monomials28 / monomials29: one system per orbit, every target re-multiplied."""

import json
import random

import pytest

from permcheck import linmember, monomials
from permcheck.fppoly import Polynomial, parse_poly, render_poly
from permcheck.linmember import members_bounded
from permcheck.monomials import (
    _entry_products_in_p2,
    _entry_triple_count,
    _entry_triples,
    _squared_entry_triple_count,
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

    def test_triples_need_a_side_of_3(self):
        # 2x2 has no target, so it would pass or fail vacuously
        with pytest.raises(ValueError, match="need m >= 3 or n >= 3"):
            verify_entry_triples(2, 2, 3)

    def test_non_member_reported_under_failures(self):
        # the six monomials28 targets of 2x3 plus x1_1*x1_2*x2_2, which shares
        # its row with a column (x1_2 * perm) but is not in P_2 at degree 3
        shape = MatrixShape.generic(2, 3)
        members = ["x1_1*x1_2*x2_3", "x1_1*x1_3*x2_2", "x1_1*x2_2*x2_3",
                   "x1_2*x1_3*x2_1", "x1_2*x2_1*x2_3", "x1_3*x2_1*x2_2"]
        exponents = {_exponents(parse_poly(t, shape.space, 3)) for t in members}
        exponents.add(_exponents(parse_poly("x1_1*x1_2*x2_2", shape.space, 3)))
        report = _entry_products_in_p2("monomials28", shape, 3, lambda _: exponents, 3)
        assert report.verdict == "fail"
        assert report.evidence == {"targets": 7, "members": 6, "failures": ["x1_1*x1_2*x2_2"]}
        assert verify_entry_triples(2, 3, 3).evidence["failures"] == []


class TestTargetSize:
    SHAPES = [(m, n) for m in range(2, 6) for n in range(2, 6) if m * n > 4]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_counts_match_the_built_sets(self, m, n):
        shape = MatrixShape.generic(m, n)
        assert _entry_triple_count(m, n) == len(_entry_triples(shape))
        assert _squared_entry_triple_count(m, n) == len(_squared_entry_triples(shape))

    @pytest.mark.parametrize("verify, count", [
        (verify_entry_triples, _entry_triple_count(3, 4)),
        (verify_squared_entry_triples, _squared_entry_triple_count(3, 4)),
    ])
    def test_guard_counts_targets_and_variables(self, monkeypatch, verify, count):
        entries = count * 12
        monkeypatch.setattr(monomials, "MAX_TARGET_ENTRIES", entries)
        assert verify(3, 4, 3).evidence["targets"] == count
        monkeypatch.setattr(monomials, "MAX_TARGET_ENTRIES", entries - 1)
        with pytest.raises(ValueError, match="exponent entries"):
            verify(3, 4, 3)

    @pytest.mark.parametrize("verify, builder", [
        (verify_entry_triples, "_entry_triples"),
        (verify_squared_entry_triples, "_squared_entry_triples"),
    ])
    def test_oversized_matrix_is_refused_before_its_targets(self, monkeypatch, verify, builder):
        def never(*args, **kwargs):
            raise AssertionError("the target set was built before the matrix was refused")

        monkeypatch.setattr(monomials, builder, never)
        monkeypatch.setattr(monomials, "permanental_generators", never)
        with pytest.raises(ValueError, match="exponent entries"):
            verify(100000, 100000, 3)


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
        report = _entry_products_in_p2("monomials28", shape, 3, lambda _: exponents, degree)
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


class TestTargetsOncePerJob:
    """The targets and their canonical forms do not depend on p: a job over
    several primes builds them once, and the cache keeps one shape."""

    def test_one_build_for_two_primes(self, capsys, monkeypatch):
        from permcheck.cli import run

        def reports(*primes):
            monomials._orbits.cache_clear()
            assert run(["verify", "monomials29", "--m", "3", "--n", "3", "--p",
                        ",".join(primes), "--format", "json"]) == 0
            out = json.loads(capsys.readouterr().out)["reports"]
            return [{k: v for k, v in r.items() if k != "ms"} for r in out]

        separately = reports("3") + reports("5")
        built = []
        real = monomials._squared_entry_triples

        def counted(shape):
            built.append(shape)
            return real(shape)

        monkeypatch.setattr(monomials, "_squared_entry_triples", counted)
        assert reports("3", "5") == separately
        assert len(built) == 1

    def test_cache_holds_the_last_shape_only(self):
        verify_squared_entry_triples(3, 3, 3)
        verify_squared_entry_triples(3, 4, 3)
        assert monomials._orbits.cache_info().currsize == 1


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
