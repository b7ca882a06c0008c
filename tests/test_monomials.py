"""monomials28 / monomials29: each target generated with its maps, one
system per orbit, every target re-multiplied."""

import itertools

import pytest

from permcheck import linmember, monomials
from permcheck.fppoly import Polynomial, _shifts, render_poly, unpack_terms
from permcheck.linmember import members_bounded
from permcheck.monomials import (
    _block_permanent,
    _entry_triple_count,
    _entry_triples,
    _squared_entry_triple_count,
    _squared_entry_triples,
    verify_entry_triples,
    verify_squared_entry_triples,
)
from permcheck.shapes import MatrixShape, permanent, permanental_generators
from helpers import entry_triples, squared_entry_triples


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
    raise AssertionError("a target was generated before the matrix was refused")


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

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 1), (2, 2), (1, 6), (6, 1)])
    def test_triples_without_a_target_are_refused(self, monkeypatch, m, n):
        # no target, so the job would pass vacuously
        monkeypatch.setattr(monomials, "_entry_triples", never)
        with pytest.raises(ValueError, match="need n >= 3 and m >= 2, or m >= 3 and n >= 2"):
            verify_entry_triples(m, n, 3)


class TestTargetSize:
    SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 7)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_targets_match_the_brute_force_sets(self, m, n):
        shape = MatrixShape.generic(m, n)
        for targets, oracle in [(_entry_triples, entry_triples),
                                (_squared_entry_triples, squared_entry_triples)]:
            exponents = generated(targets, shape)
            assert len(set(exponents)) == len(exponents)
            assert set(exponents) == oracle(shape)

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_counts_match_the_generated_targets(self, m, n):
        assert _entry_triple_count(m, n) == sum(1 for _ in _entry_triples(m, n))
        assert _squared_entry_triple_count(m, n) == sum(1 for _ in _squared_entry_triples(m, n))

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
        monkeypatch.setattr(monomials, builder, never)
        monkeypatch.setattr(monomials, "permanental_generators", never)
        with pytest.raises(ValueError, match="exponent entries"):
            verify(100000, 100000, 3)


@pytest.mark.parametrize("m, n", [(m, n) for m in range(2, 5) for n in range(2, 6)])
def test_block_permanent_is_the_2x2_permanent(m, n):
    shape = MatrixShape.generic(m, n)
    shifts = _shifts(m * n, 2)
    at = [[shifts[r * n + c] for c in range(n)] for r in range(m)]
    for rows in itertools.combinations(range(m), 2):
        for cols in itertools.combinations(range(n), 2):
            block = unpack_terms(_block_permanent(at, rows, cols), shape.space, 3, 2)
            assert block == permanent(shape, rows, cols, char=3)


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
        assert report.evidence == per_target_evidence(shape, p, entry_triples(shape), 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
    def test_monomials29_matches_per_target(self, m, n, p):
        shape = MatrixShape.generic(m, n)
        report = verify_squared_entry_triples(m, n, p)
        assert report.evidence == per_target_evidence(shape, p, squared_entry_triples(shape), 4)

    @pytest.mark.parametrize("verify, oracle, degree, rep, columns", [
        (verify_entry_triples, entry_triples, 3, ((0, 0, 1), (0, 1, 1), (1, 2, 1)), 3),
        (verify_entry_triples, entry_triples, 3, ((0, 0, 1), (1, 0, 1), (2, 1, 1)), 2),
        (verify_squared_entry_triples, squared_entry_triples, 4,
         ((0, 0, 2), (1, 1, 1), (2, 2, 1)), 3),
    ], ids=["x11*x12*x23", "x11*x21*x32", "x11^2*x22*x33"])
    def test_orbit_without_a_certificate_fails_every_target(self, monkeypatch, verify, oracle,
                                                             degree, rep, columns):
        # the orbit of rep is the targets on as many columns as rep uses
        certificate = monomials._certificate
        monkeypatch.setattr(monomials, "_certificate",
                            lambda r, p, d: None if r == rep else certificate(r, p, d))
        shape = MatrixShape.generic(3, 4)
        targets = per_target_evidence(shape, 5, oracle(shape), degree)["targets"]
        orbit = [render_poly(Polynomial.monomial(shape.space, 5, e)) for e in sorted(oracle(shape))
                 if len({i % 4 for i, x in enumerate(e) if x}) == columns]
        report = verify(3, 4, 5)
        assert report.verdict == "fail"
        assert report.evidence == {"targets": targets, "members": targets - len(orbit),
                                   "failures": orbit}

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

        def wrong_generators(certificate, at):
            moved = move(certificate, at)
            return [(h, moved[(i + 1) % len(moved)][1]) for i, (h, _) in enumerate(moved)]

        monkeypatch.setattr(monomials, "_move", wrong_generators)
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            verify_entry_triples(3, 3, 3)

    def test_wrong_variable_map_raises(self, monkeypatch):
        move = monomials._move

        def wrong_variables(certificate, at):
            right = move(certificate, at)
            swapped = move(certificate, [row[::-1] for row in at])
            return [(h, g) for (_, g), (h, _) in zip(right, swapped)]

        monkeypatch.setattr(monomials, "_move", wrong_variables)
        with pytest.raises(RuntimeError, match="does not re-multiply"):
            verify_squared_entry_triples(3, 3, 3)
