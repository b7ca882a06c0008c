"""CLI surface: argument handling, exit codes, report formats, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from permcheck import cli, frobcheck, hankel, monomials, shapes, truncated, witnesses
from permcheck.cli import CHECKS, run
from permcheck.report import LemmaReport


# jobs whose truncated power at p = 2^31 - 1 must pass truncated.MAX_CHAIN_PAIRS
TRUNCATED_AT_2_31 = [
    ("verify", "lemma34", "--n", "3", "--p", "2147483647"),
    ("verify", "thm35", "--n", "3", "--p", "2147483647"),
    ("verify", "fpure", "--shape", "generic:2x3", "--t", "2", "--p", "2147483647"),
    ("verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--p", "2147483647"),
]
TRUNCATED_AT_2_31_IDS = ["lemma34", "thm35", "fpure-2x3", "fpure-3x4"]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = invoke(capsys, "verify", "lemma34", "--n", "2", "--p", "3")
        assert code == 0
        assert "aggregate: pass" in out

    def test_fail_is_two(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "fpure", "--shape", "generic:3x4", "--t", "3",
            "--p", "5", "--method", "pointcount", "--threads", "2",
        )
        assert code == 2
        assert "aggregate: fail" in out

    def test_even_prime_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "lemma34", "--n", "2", "--p", "2")
        assert code == 1
        assert "error" in err

    def test_prime_above_2_31_is_usage_error(self, capsys):
        # 2147483659 is the first prime above 2^31, beyond the int64 kernels
        code, out, err = invoke(capsys, "verify", "lemma34", "--n", "2", "--p", "2147483659")
        assert code == 1
        assert out == ""
        assert "2147483659" in err

    @pytest.mark.parametrize("argv", [
        ("witness-generic", "--m", "3", "--n", "3", "--p", "2147483647"),
        ("witness-symmetric", "--n", "3", "--p", "2147483647"),
        ("witness-generic", "--m", "100000", "--n", "100000", "--p", "3"),
    ])
    def test_oversized_witness_is_usage_error(self, capsys, argv):
        # refused from m, n and p before any term is built
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert "exponent entries" in err

    @pytest.mark.parametrize("argv, module, builder, message", [
        (("generators", "--shape", "generic:40x40", "--t", "2"), shapes, "permanent",
         "exponent entries"),
    ])
    def test_oversized_build_is_usage_error(self, capsys, monkeypatch, argv, module, builder,
                                            message):
        # refused from m, n and t before the first permanent is built
        def never(*args, **kwargs):
            raise AssertionError(f"{builder} ran before the size was refused")

        monkeypatch.setattr(module, builder, never)
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("permcheck: error:") and message in err

    @pytest.mark.parametrize("check, m, count", [
        ("monomials28", 40, monomials._entry_triple_count(40, 40)),
        ("monomials29", 100000, monomials._squared_entry_triple_count(100000, 100000)),
    ])
    def test_monomials_of_any_size_run_at_once(self, capsys, check, m, count):
        # one identity per orbit is re-multiplied, and the targets are counted
        # by their closed forms, so no matrix is too large
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "verify", check, "--m", str(m), "--n", str(m),
                                "--p", "3", "--format", "json")
        assert time.perf_counter() - t0 < 1.0
        assert code == 0, err
        [report] = json.loads(out)["reports"]
        assert report["evidence"] == {"targets": count, "members": count, "failures": []}

    @pytest.mark.parametrize("argv", [
        ("verify", "fpure", "--shape", "symmetric:3000", "--p", "3"),
        ("generators", "--shape", "hankel:3000"),
        ("verify", "fpure", "--shape", "generic:100000x100000", "--p", "3"),
        ("verify", "fpure", "--shape", "generic:1000000x1000000", "--p", "3"),
        ("verify", "fpure", "--shape", "generic:9x9", "--p", "3"),
    ], ids=["fpure-symmetric:3000", "generators-hankel:3000", "fpure-generic:100000x100000",
            "fpure-generic:1000000x1000000", "fpure-generic:9x9"])
    def test_oversized_t_is_refused_at_once(self, capsys, argv):
        # t = n is refused before t! is computed or printed
        t = argv[argv.index("--shape") + 1].partition(":")[2].partition("x")[0]
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert code == 1
        assert out == ""
        assert err == f"permcheck: error: symbolic permanent size {t} exceeds limit 8\n"

    def test_overflowing_point_count_is_usage_error(self, capsys):
        # at p = 2^31 - 1 a block is one lane, and the p^4 or p^5 masks of each
        # generator pass the bound
        code, out, err = invoke(
            capsys, "verify", "fpure", "--shape", "generic:3x4", "--t", "3",
            "--method", "pointcount", "--p", "2147483647",
        )
        assert code == 1
        assert out == ""
        assert "point count at p = 2147483647 needs " in err
        assert "packed lanes of tables and masks, more than 33554432" in err

    @pytest.mark.parametrize("p, lanes", [(11, 467775824), (7, 92379790)])
    def test_oversized_point_count_tables_are_usage_error(self, capsys, p, lanes):
        # one block's masks alone, (2 * p^4 + 2 * p^5) * p^3 lanes at p = 11 and
        # (2 * p^4 + 2 * p^5) * p^4 at p = 7, pass the bound
        code, out, err = invoke(
            capsys, "verify", "fpure", "--shape", "generic:3x4", "--t", "3",
            "--method", "pointcount", "--p", str(p), "--threads", "1",
        )
        assert code == 1
        assert out == ""
        assert f"point count at p = {p} needs {lanes} packed lanes" in err

    def test_overlong_point_count_is_usage_error(self, capsys):
        # the tables and masks fit (8,682,323 lanes), but 41^6 points pass
        # the bound of 2^32
        code, out, err = invoke(
            capsys, "verify", "fpure", "--shape", "generic:2x3", "--t", "2",
            "--method", "pointcount", "--p", "41", "--threads", "1",
        )
        assert code == 1
        assert out == ""
        assert "4750104241 points, more than 4294967296" in err

    def test_overlong_truncated_chain_is_usage_error(self, capsys):
        # omega of generic:4x5, t = 4 has 208,051 terms at p = 5, so omega^2
        # alone would multiply 208,051^2 term pairs; omega itself is built
        code, out, err = invoke(
            capsys, "verify", "fpure", "--shape", "generic:4x5", "--t", "4", "--p", "5",
            "--threads", "1",
        )
        assert code == 1
        assert out == ""
        assert f"{208_051**2} term pairs, more than {2**31}" in err

    @pytest.mark.parametrize("check", ["lemma34", "thm35"])
    def test_hankel_permanents_are_built_once_per_prime(self, capsys, monkeypatch, check):
        # the pre-flight builds f_n and f_{n-1} and hands them to the check
        built, real = [], hankel._hankel_permanents

        def recording(n, p):
            built.append(p)
            return real(n, p)

        monkeypatch.setattr(hankel, "_hankel_permanents", recording)
        code, _, err = invoke(capsys, "verify", check, "--n", "3", "--p", "3,5,7")
        assert code == 0, err
        assert built == [3, 5, 7]

    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        # an array product too large for memory exits 1 with one error line
        def no_memory(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(truncated, "ARRAY_PAIRS", 0)  # every product on the array kernel
        monkeypatch.setattr(truncated, "_mul_packed", no_memory)
        code, out, err = invoke(capsys, "verify", "thm35", "--n", "3", "--p", "5")
        assert code == 1
        assert out == ""
        assert err == "permcheck: error: a truncated product of 5 by 5 terms ran out of memory\n"

    def test_overlong_fiber_count_is_usage_error(self, capsys):
        # 1,019,091^2 column pairs per first column would take days
        code, out, err = invoke(
            capsys, "scan", "conjecture45", "--method", "fiber", "--p", "1009", "--threads", "1",
        )
        assert code == 1
        assert out == ""
        assert "fiber count at p = 1009 visits 1038546466281 column pairs" in err

    @pytest.mark.parametrize("argv, module, counter, message", [
        (("scan", "conjecture45", "--method", "fiber", "--p", "37,1009"), frobcheck,
         "fiber_count_3x4", "fiber count at p = 1009 visits 1038546466281 column pairs"),
        (("verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--method", "pointcount",
          "--p", "3,11"), frobcheck, "count_nonvanishing",
         "point count at p = 11 needs 467775824 packed lanes"),
        (("verify", "witness-generic", "--m", "2", "--n", "3", "--p", "10007,2147483647"),
         witnesses, "colon_membership",
         "the witness has 6442450939 terms in 6 variables, more than 500000"),
        (("verify", "witness-symmetric", "--n", "3", "--p", "10007,2147483647"),
         witnesses, "colon_membership",
         "the witness has 6442450939 terms in 6 variables, more than 500000"),
        # f_5 at p = 11 is admitted; f_5^{p-1} at p = 2^31 - 1 is refused from f_5's terms
        (("verify", "lemma34", "--n", "5", "--p", "11,2147483647"), hankel,
         "verify_hankel_product_identity",
         "a truncated product chain would multiply at least 126701535130 term pairs"),
        (("verify", "thm35", "--n", "5", "--p", "11,2147483647"), hankel,
         "verify_hankel_hypersurface",
         "a truncated product chain would multiply at least 126701535055 term pairs"),
    ], ids=["fiber", "pointcount", "witness-generic", "witness-symmetric", "lemma34", "thm35"])
    def test_oversized_prime_is_refused_before_any_count(self, capsys, monkeypatch, argv,
                                                         module, counter, message):
        # the admissible first prime would be counted if its turn came first
        def never(*args, **kwargs):
            raise AssertionError(f"{counter} ran before the oversized prime was refused")

        monkeypatch.setattr(module, counter, never)
        code, out, err = invoke(capsys, *argv, "--threads", "1")
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", TRUNCATED_AT_2_31, ids=TRUNCATED_AT_2_31_IDS)
    def test_truncated_power_at_2_31_is_refused_at_once(self, capsys, argv):
        # f^{p-1} takes p - 2 products, each of at least |f| term pairs
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert code == 1
        assert out == ""
        assert err.startswith("permcheck: error: a truncated product chain would multiply at least ")
        assert err.count("\n") == 1

    def test_bad_shape_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "fpure", "--shape", "cube:3", "--p", "3")
        assert code == 1
        assert "shape" in err
        # the shape is built before lemma32's small cases n <= 2 return
        for n in ("0", "-2"):
            code, out, err = invoke(capsys, "verify", "lemma32", "--n", n)
            assert code == 1
            assert out == ""
            assert "matrix dimensions must be positive" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "lemma34", "--p", "3")
        assert code == 1
        assert "--n" in err

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "verify", "lemma99", "--n", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("verify", "lemma31", "--n", "2", "--threads", "0"),
        ("verify", "lemma34", "--n", "2", "--p", "3", "--threads", "-4"),
        ("scan", "conjecture45", "--method", "fiber", "--p", "3", "--threads", "-1"),
    ], ids=["verify0", "verify-4", "scan-1"])
    def test_threads_below_one_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--threads" in err

    def test_threads_not_a_number_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "verify", "lemma31", "--n", "2", "--threads", "abc")
        assert code == 1
        assert out == ""
        assert "'abc'" in err

    def test_empty_prime_list_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "verify", "lemma34", "--n", "2", "--p", ",")
        assert code == 1
        assert out == ""
        assert "--p is required" in err

    def test_inconclusive_is_three(self, capsys, monkeypatch):
        report = LemmaReport("lemma31", {}, "inconclusive", {}, 0.0)
        monkeypatch.setattr(hankel, "verify_hankel_monomial_absence", lambda n: report)
        code, out, _ = invoke(capsys, "verify", "lemma31", "--n", "2")
        assert code == 3
        assert "aggregate: inconclusive" in out

    def test_non_ci_shape_refused(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "fpure", "--shape", "generic:3x3", "--t", "2", "--p", "3"
        )
        assert code == 1
        assert "complete-intersection" in err

    @pytest.mark.parametrize("method", ["truncated", "pointcount"])
    @pytest.mark.parametrize("shape", ["generic:20x20", "symmetric:5"])
    def test_non_ci_shape_refused_before_any_generator(self, capsys, monkeypatch, shape,
                                                        method):
        # generic:20x20 has 36,100 2x2 permanents, 14-18 s of building on a 2-core VM
        def never(*args, **kwargs):
            raise AssertionError("a generator was built before the shape was refused")

        monkeypatch.setattr(frobcheck, "permanental_generators", never)
        code, out, err = invoke(capsys, "verify", "fpure", "--shape", shape, "--t", "2",
                                "--p", "3", "--method", method)
        assert code == 1
        assert out == ""
        assert "requires a complete-intersection presentation" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "fpure", "--shape", "generic:2x3", "--t", "2", "--p", "3,5"),
        ("verify", "fpure", "--shape", "generic:2x3", "--t", "2", "--method", "pointcount",
         "--p", "3,5"),
    ], ids=["truncated", "pointcount"])
    def test_each_primes_generators_are_built_once(self, capsys, monkeypatch, argv):
        # the pre-flight's presentation is the one that is checked
        built = []
        real = frobcheck.permanental_generators

        def counted(shape, t, char):
            built.append(char)
            return real(shape, t, char=char)

        monkeypatch.setattr(frobcheck, "permanental_generators", counted)
        code, _, _ = invoke(capsys, *argv, "--threads", "1")
        assert code in (0, 2)
        assert built == [3, 5]


class TestReports:
    def test_prime_list_runs_each(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "thm35", "--n", "2", "--p", "3,5,7", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["params"]["p"] for r in doc["reports"]] == [3, 5, 7]
        assert doc["aggregate"] == "pass"

    def test_empty_prime_list_entries_are_skipped(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "lemma34", "--n", "2", "--p", "3,,5", "--format", "json"
        )
        assert code == 0
        assert [r["params"]["p"] for r in json.loads(out)["reports"]] == [3, 5]

    def test_json_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "witness-generic", "--m", "2", "--n", "2",
            "--p", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["tool"] == "permcheck"
        report = doc["reports"][0]
        assert report["schema"] == 1
        assert set(report["params"]) == {"shape", "m", "n", "t", "p", "e", "method"}

    def test_json_deterministic_up_to_timing(self, capsys):
        def canonical():
            code, out, _ = invoke(
                capsys, "verify", "lemma32", "--n", "4", "--format", "json",
                "--threads", "1",
            )
            assert code == 0
            return re.sub(r'"(ms|total_ms)": [0-9.]+', '"\\1": 0', out)

        assert canonical() == canonical()

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "verify", "lemma31", "--n", "3", "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["reports"][0]["check"] == "lemma31"

    @pytest.mark.parametrize("argv", [
        ("verify", "lemma31", "--n", "3"),
        ("scan", "conjecture45", "--p", "3"),
        ("generators", "--shape", "generic:2x3", "--t", "2"),
    ], ids=["verify", "scan", "generators"])
    def test_out_into_a_missing_directory_is_refused_before_any_work(
            self, capsys, monkeypatch, tmp_path, argv):
        def never(*args, **kwargs):
            raise AssertionError("a job ran before --out was refused")

        for name in ("_run_verify", "_run_scan", "_run_generators"):
            monkeypatch.setattr(cli, name, never)
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = invoke(capsys, *argv, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err.startswith("permcheck: error: --out") and "does not exist" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("verify", "lemma31", "--n", "3"),
        ("generators", "--shape", "generic:2x3", "--t", "2"),
    ], ids=["verify", "generators"])
    def test_out_naming_a_directory_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = invoke(capsys, *argv, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("permcheck: error: cannot write --out")
        assert list(tmp_path.iterdir()) == []

    def test_scan_text_output(self, capsys):
        code, out, _ = invoke(capsys, "scan", "conjecture45", "--p", "3")
        assert code == 0
        assert "conjecture45" in out
        assert "method=fiber" in out

    def test_scan_requires_p(self, capsys):
        code, _, err = invoke(capsys, "scan", "conjecture45")
        assert code == 1


class TestOneEnginePerCommand:
    """`scan conjecture45` runs the fiber count only; `fpure` runs the
    truncated route or the point count."""

    @pytest.mark.parametrize("argv, remaining, removed", [
        (("scan", "conjecture45", "--p", "5", "--method", "truncated"), ["fiber"],
         ["truncated", "pointcount"]),
        (("scan", "conjecture45", "--p", "5", "--method", "pointcount"), ["fiber"],
         ["truncated", "pointcount"]),
        (("verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--p", "5", "--method",
          "fiber"), ["truncated", "pointcount"], ["fiber"]),
    ], ids=["scan-truncated", "scan-pointcount", "fpure-fiber"])
    def test_other_routes_are_usage_errors(self, capsys, argv, remaining, removed):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("permcheck: error: argument --method: invalid choice")
        choices = err.split("choose from", 1)[1]
        assert all(m in choices for m in remaining)
        assert not any(m in choices for m in removed)

    def test_scan_runs_only_the_fiber_count(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the scan built or checked a presentation")

        for name in ("permanental_generators", "check_fpure", "fedder_coefficient_fullsupport"):
            monkeypatch.setattr(frobcheck, name, never)
        calls = []
        for name in ("_check_fiber_size", "fiber_count_3x4"):
            def recorded(p, real=getattr(frobcheck, name), name=name):
                calls.append((name, p))
                return real(p)

            monkeypatch.setattr(frobcheck, name, recorded)
        code, out, _ = invoke(capsys, "scan", "conjecture45", "--p", "3,5,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["method"] == doc["reports"][0]["params"]["method"] == "fiber"
        assert [row["coefficient"] for row in doc["reports"][0]["evidence"]["per_p"]] == [0, 0, 2]
        # every prime is sized before the first count
        assert calls[:3] == [("_check_fiber_size", p) for p in (3, 5, 7)]
        assert [p for name, p in calls if name == "fiber_count_3x4"] == [3, 5, 7]

        monkeypatch.setattr(frobcheck, "fiber_count_3x4", never)
        code, out, err = invoke(capsys, "scan", "conjecture45", "--p", "37,1009")
        assert code == 1
        assert out == ""
        assert "fiber count at p = 1009 visits 1038546466281 column pairs" in err


class TestGeneratorsDump:
    def test_round_trips_through_the_grammar(self, capsys):
        code, out, _ = invoke(capsys, "generators", "--shape", "generic:2x3", "--t", "2")
        assert code == 0
        from permcheck.fpextra import parse_poly
        from permcheck.shapes import MatrixShape, permanental_generators

        shape = MatrixShape.generic(2, 3)
        expected = permanental_generators(shape, 2, char=3).generators
        lines = out.strip().splitlines()
        assert len(lines) == 3
        parsed = [parse_poly(line, shape.space, 3) for line in lines]
        assert parsed == list(expected)

    def test_hankel_default_t(self, capsys):
        code, out, _ = invoke(capsys, "generators", "--shape", "hankel:2")
        assert code == 0
        assert out.strip() == "z1*z3 + z2^2"

    def test_rejects_prime_list(self, capsys):
        code, _, err = invoke(
            capsys, "generators", "--shape", "hankel:2", "--p", "3,5"
        )
        assert code == 1


def readme_examples():
    """The argv of each `permcheck ...` line in the README's Examples block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("permcheck ")]
    assert examples, "the README has no Examples block"
    return examples


class TestChecks:
    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_readme_example_runs(self, capsys, argv):
        code, _, err = invoke(capsys, *argv, "--threads", "1")
        assert code == 0, err

    def test_fpure_hankel(self, capsys):
        code, out, _ = invoke(capsys, "verify", "fpure", "--shape", "hankel:3", "--p", "3")
        assert code == 0
        assert "survivor" in out

    def test_fpure_generic_4x4_past_63_bit_keys(self, capsys):
        # 16 variables need 64-bit keys at p = 7; the survivor is the
        # diagonal power, as for every n x n permanent in odd characteristic
        code, out, _ = invoke(
            capsys, "verify", "fpure", "--shape", "generic:4x4", "--p", "5,7",
            "--threads", "1", "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["verdict"] for r in reports] == ["pass", "pass"]
        assert [r["evidence"]["survivor"] for r in reports] == [
            "x1_1^4*x2_2^4*x3_3^4*x4_4^4",
            "x1_1^6*x2_2^6*x3_3^6*x4_4^6",
        ]

    def test_monomials28(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "monomials28", "--m", "2", "--n", "3", "--p", "3"
        )
        assert code == 0

    def test_monomials29_4x4(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "monomials29", "--m", "4", "--n", "4", "--p", "3,5",
            "--format", "json",
        )
        assert code == 0, err
        reports = json.loads(out)["reports"]
        assert [(r["evidence"]["members"], r["evidence"]["targets"]) for r in reports] == [
            (288, 288), (288, 288)
        ]

    def test_witness_symmetric(self, capsys):
        code, _, _ = invoke(
            capsys, "verify", "witness-symmetric", "--n", "3", "--p", "3,5"
        )
        assert code == 0

    def test_witness_generic_large_prime(self, capsys):
        # the 2x2 witness has degree 4(p - 1): 4120 at p = 1031, 40024 at 10007
        code, out, err = invoke(
            capsys, "verify", "witness-generic", "--m", "2", "--n", "2", "--p", "1031,10007",
            "--format", "json",
        )
        assert code == 0, err
        reports = json.loads(out)["reports"]
        assert [report["params"]["p"] for report in reports] == [1031, 10007]
        for report in reports:
            assert report["verdict"] == "pass"
            assert report["evidence"]["residue_matches_full_product"] is True


class TestCheckTable:
    CASES = [
        (("verify", "lemma31", "--n", "2"), hankel, "verify_hankel_monomial_absence"),
        (("verify", "lemma32", "--n", "3"), hankel, "verify_hankel_eisenstein"),
        (("verify", "lemma34", "--n", "2", "--p", "3,5"), hankel,
         "verify_hankel_product_identity"),
        (("verify", "thm35", "--n", "2", "--p", "3,5"), hankel, "verify_hankel_hypersurface"),
        (("verify", "thm36", "--n", "3"), hankel, "verify_hankel_specialization_check"),
        (("verify", "witness-generic", "--m", "2", "--n", "3", "--p", "3,5"), witnesses,
         "verify_witness_membership"),
        (("verify", "witness-symmetric", "--n", "3", "--p", "3,5"), witnesses,
         "verify_witness_membership"),
        (("verify", "monomials28", "--m", "2", "--n", "3", "--p", "3,5"), monomials,
         "verify_entry_triples"),
        (("verify", "monomials29", "--m", "3", "--n", "3", "--p", "3,5"), monomials,
         "verify_squared_entry_triples"),
        (("verify", "fpure", "--shape", "hankel:3", "--p", "3,5"), frobcheck, "verify_fpure"),
        (("scan", "conjecture45", "--p", "3,5"), frobcheck, "scan_three_by_four_fpurity"),
    ]

    def test_cases_cover_every_check(self):
        assert {argv[1] for argv, _, _ in self.CASES if argv[0] == "verify"} == set(CHECKS)

    @pytest.mark.parametrize("argv, module, fn", CASES, ids=[argv[1] for argv, _, _ in CASES])
    def test_runner_calls_the_patched_module_function(self, capsys, monkeypatch, argv, module,
                                                      fn):
        calls = []

        def stub(*args, **kwargs):
            calls.append(args)
            return LemmaReport(argv[1], {}, "pass", {}, 0.0)

        monkeypatch.setattr(module, fn, stub)
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        once_per_prime = "--p" in argv and argv[0] == "verify"
        assert len(calls) == (2 if once_per_prime else 1)
        assert f"aggregate: pass ({len(calls)} check(s)" in out

    REFUSED = [
        (("verify", "witness-symmetric", "--m", "3", "--n", "4", "--p", "3"), "--m"),
        (("verify", "lemma31", "--n", "3", "--p", "5"), "--p"),
        (("verify", "lemma32", "--n", "3", "--t", "2"), "--t"),
        (("verify", "thm35", "--shape", "hankel:3", "--n", "3", "--p", "3"), "--shape"),
        (("verify", "monomials28", "--m", "2", "--n", "3", "--t", "2", "--p", "3"), "--t"),
        (("verify", "fpure", "--shape", "hankel:3", "--n", "3", "--p", "3"), "--n"),
        (("scan", "conjecture45", "--p", "3", "--m", "3"), "--m"),
        (("scan", "conjecture45", "--p", "3", "--shape", "generic:3x4"), "--shape"),
        (("scan", "conjecture45", "--p", "3", "--t", "3"), "--t"),
        # only fpure chooses a method; the others run one
        (("verify", "lemma34", "--n", "3", "--p", "3", "--method", "pointcount"), "--method"),
        (("verify", "lemma31", "--n", "3", "--method", "pointcount"), "--method"),
        (("verify", "witness-generic", "--m", "2", "--n", "3", "--p", "3", "--method",
          "pointcount"), "--method"),
        (("verify", "monomials28", "--m", "2", "--n", "3", "--p", "3", "--method",
          "pointcount"), "--method"),
        # fiber is the scan's method; no verify check lists it as a choice
        (("verify", "lemma34", "--n", "3", "--p", "3", "--method", "fiber"), "--method"),
        (("verify", "witness-generic", "--m", "2", "--n", "3", "--p", "3", "--method",
          "fiber"), "--method"),
    ]

    @pytest.mark.parametrize("argv, flag", REFUSED, ids=[
        f"{a[1]}{f}" + ("=fiber" if a[-1] == "fiber" else "") for a, f in REFUSED])
    def test_flag_the_check_ignores_is_refused(self, capsys, argv, flag):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"does not take {flag}" in err

    def test_common_flags_accepted_everywhere(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = invoke(
            capsys, "verify", "lemma31", "--n", "2", "--method", "truncated",
            "--threads", "1", "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["aggregate"] == "pass"

    @pytest.mark.parametrize("argv", [
        ("scan", "conjecture45", "--p", "3", "--method", "fiber", "--checkpoint", "p3.ck"),
        ("verify", "lemma34", "--n", "2", "--p", "3", "--e", "1"),
        ("bench", "truncated-pow"),
    ], ids=["checkpoint", "e", "bench"])
    def test_removed_surface_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("verify", "lemma31", "--n", "2"),
        ("scan", "conjecture45", "--p", "3"),
    ])
    def test_json_config_echo_keeps_its_keys(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--threads", "1", "--format", "json")
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config) == [
            "command", "check", "shape", "m", "n", "t", "p", "e", "method",
            "threads", "format", "out", "checkpoint",
        ]
        assert config["e"] == 1
        assert config["checkpoint"] is None
        assert '"e": 1,' in out
        assert '"checkpoint": null' in out

    def test_default_threads_echo_is_one_on_any_machine(self, capsys, monkeypatch):
        # --threads has no effect, so a default report must not depend on the core count
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        code, out, _ = invoke(capsys, "verify", "lemma31", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["threads"] == 1


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: prints which of numpy and concurrent.futures
# are loaded after `import permcheck.cli`, then runs argv (if any) and prints
# the exit code, which of them are loaded now, the process's OS thread count
# (None without /proc) and OPENBLAS_NUM_THREADS.
PROBE = """
import contextlib, io, json, os, sys
import permcheck, permcheck.cli
loaded = lambda: ["numpy" in sys.modules, "concurrent.futures" in sys.modules]
imported = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = permcheck.cli.run(sys.argv[1:]) if sys.argv[1:] else 0
try:
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
except OSError:
    threads = None
print(json.dumps([imported, code, loaded(), threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def child_env(**extra):
    """This environment with `src` on the path and OPENBLAS_NUM_THREADS
    removed (an in-process `run` sets it here), plus `extra`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=str(SRC), **extra)


def cold_start(*argv, **env):
    """([numpy, concurrent.futures] loaded by the import, exit code,
    [numpy, concurrent.futures] loaded after the run, OS threads after the
    run or None without /proc, OPENBLAS_NUM_THREADS after the run), with
    `env` added to the child's environment."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=child_env(**env), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


# Runs in a fresh interpreter: prints the watched modules (those of
# `permcheck`, dataclasses, inspect, numpy and concurrent.futures) loaded
# after `import permcheck.cli`, then runs argv and prints its exit code (the
# code of a SystemExit for --help and --version) and the watched modules
# loaded now.
MODULE_PROBE = """
import contextlib, io, json, sys
import permcheck.cli
watched = lambda: sorted(m for m in sys.modules if m.startswith("permcheck.")
                         or m in ("dataclasses", "inspect", "numpy", "concurrent.futures"))
imported = watched()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = permcheck.cli.run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([imported, code, watched()]))
"""


def loaded_modules(*argv):
    """(watched modules after `import permcheck.cli`, exit code, watched
    modules after running argv), from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, *argv], env=child_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


# every job of the benchmark's four workloads, with its expected exit code;
# the tests run them with --threads 1, which has no effect
BENCHMARK_JOBS = [
    ("verify lemma34 --n 3 --p 3,5,7", 0),
    ("verify lemma34 --n 4 --p 3,5,7", 0),
    ("verify lemma34 --n 5 --p 3,5", 0),
    ("verify thm35 --n 3 --p 3,5,7", 0),
    ("verify thm35 --n 4 --p 3,5,7", 0),
    ("verify thm35 --n 5 --p 3,5", 0),
    ("verify lemma31 --n 6", 0),
    ("verify lemma32 --n 6", 0),
    ("verify thm36 --n 5", 0),
    ("scan conjecture45 --method fiber --p 3,5,7", 0),
    ("scan conjecture45 --method fiber --p 5", 0),
    ("verify fpure --shape generic:3x4 --t 3 --method pointcount --p 3", 2),
    ("verify fpure --shape generic:3x4 --t 3 --p 3", 2),
    ("verify fpure --shape symmetric:4 --p 7", 0),
    ("verify fpure --shape generic:2x3 --t 2 --p 11,13", 0),
    ("verify fpure --shape symmetric:3 --p 37", 0),
    ("verify witness-generic --m 4 --n 4 --p 3,5,7", 0),
    ("verify witness-symmetric --n 5 --p 3,5,7", 0),
    ("verify monomials28 --m 3 --n 3 --p 3,5", 0),
    ("verify monomials28 --m 3 --n 4 --p 3", 0),
    ("verify monomials28 --m 4 --n 4 --p 3", 0),
    ("verify monomials29 --m 3 --n 3 --p 3,5", 0),
]

NOTHING, NUMPY = [False, False], [True, False]
# thm35 at (5, 7) has multiplied 405,684 term pairs when it reaches f_5^4,
# past truncated.ARRAY_PAIRS, so it runs the numpy product kernel
ARRAY_KERNELS = [
    ("verify", "thm35", "--n", "5", "--p", "7"),
]


class TestColdStart:
    """numpy is imported by the array kernels only, never by `import
    permcheck`, and concurrent.futures never: no check starts a thread.
    `import permcheck.cli` loads no other module of the package; a job loads
    the modules of its own check once its arguments parse, and never
    dataclasses."""

    @pytest.mark.parametrize("argv, code", [
        ((), 1),
        (("--help",), 0),
        (("--version",), 0),
        (("verify", "lemma34", "--n", "3"), 1),  # --p is missing
    ], ids=["no-command", "help", "version", "usage-error"])
    def test_front_end_loads_no_check_module(self, argv, code):
        assert loaded_modules(*argv) == (["permcheck.cli"], code, ["permcheck.cli"])

    @pytest.mark.parametrize("job, code", BENCHMARK_JOBS, ids=[job for job, _ in BENCHMARK_JOBS])
    def test_benchmark_job_loads_only_its_modules(self, job, code):
        argv = shlex.split(job) + ["--threads", "1", "--format", "json"]
        _, exit_code, modules = loaded_modules(*argv)
        assert exit_code == code
        # no job loads numpy: the point and fiber counts run on Python ints,
        # and every chain of truncated products in the benchmark stays below
        # truncated.ARRAY_PAIRS
        assert "numpy" not in modules
        assert "concurrent.futures" not in modules
        assert "dataclasses" not in modules
        assert "inspect" not in modules
        # exact division and the text grammar are for the tests only
        assert "permcheck.fpextra" not in modules
        module = CHECKS[argv[1]].module if argv[0] == "verify" else "frobcheck"
        assert f"permcheck.{module}" in modules
        # only the witness checks build witnesses
        assert ("permcheck.witnesses" in modules) == argv[1].startswith("witness-")
        if module == "hankel":
            assert not {"permcheck.frobcheck", "permcheck.linmember"} & set(modules)
            # only lemma34 and thm35 take truncated products
            assert ("permcheck.truncated" in modules) == (argv[1] in ("lemma34", "thm35"))
        else:
            assert "permcheck.hankel" not in modules
        if module == "monomials":
            # the stored identities are moved and re-multiplied; no system is solved
            assert not {"permcheck.frobcheck", "permcheck.linmember"} & set(modules)
        if argv[1] in ("fpure", "conjecture45"):
            # only the witness checks run colon membership
            assert "permcheck.colon" not in modules
        if argv[1].startswith("witness-"):
            # colon membership runs on packed keys of its own
            assert not {"permcheck.linmember", "permcheck.truncated",
                        "permcheck.frobcheck"} & set(modules)
        if "--method" in argv:  # the point and fiber counts truncate no product
            assert "permcheck.truncated" not in modules

    def test_import_loads_no_numpy(self):
        assert cold_start()[:3] == (NOTHING, 0, NOTHING)

    def test_import_loads_no_linmember(self):
        # no CLI job uses it: it is a library routine and the tests' second
        # engine for the monomials28/29 identities
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, permcheck.cli; print('permcheck.linmember' in sys.modules)"],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("argv, code", [
        (("verify", "lemma31", "--n", "3"), 0),
        (("verify", "lemma32", "--n", "3"), 0),
        (("verify", "thm36", "--n", "3"), 0),
        (("verify", "witness-generic", "--m", "2", "--n", "3", "--p", "3"), 0),
        (("verify", "witness-symmetric", "--n", "3", "--p", "3"), 0),
        (("verify", "monomials28", "--m", "2", "--n", "3", "--p", "3"), 0),
        (("verify", "monomials29", "--m", "3", "--n", "3", "--p", "3"), 0),
        (("generators", "--shape", "generic:2x3"), 0),
        # chains of truncated products below truncated.ARRAY_PAIRS pairs run on Python ints
        (("verify", "lemma34", "--n", "2", "--p", "3"), 0),
        (("verify", "thm35", "--n", "5", "--p", "5"), 0),
        # a squarefree leading term answers the hypersurface without a power
        (("verify", "fpure", "--shape", "hankel:3", "--p", "3"), 0),
        # omega^2 is computed and vanishes: not F-pure
        (("verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--p", "3"), 2),
        # the fiber and point counts run on Python ints
        (("scan", "conjecture45", "--method", "fiber", "--p", "3"), 0),
        (("verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--method", "pointcount",
          "--p", "3"), 2),
    ], ids=[
        "lemma31", "lemma32", "thm36", "witness-generic", "witness-symmetric", "monomials28",
        "monomials29", "generators", "lemma34", "thm35", "fpure-hankel", "fpure-generic-3x4",
        "conjecture45-fiber", "fpure-pointcount",
    ])
    def test_check_runs_without_numpy(self, argv, code):
        assert cold_start(*argv)[:3] == (NOTHING, code, NOTHING)

    @pytest.mark.parametrize("argv", ARRAY_KERNELS, ids=["thm35"])
    def test_array_kernel_loads_numpy(self, argv):
        # the kernels never call BLAS, so the CLI loads numpy with one
        # OpenBLAS thread rather than a pool of one per core
        probe = cold_start(*argv, "--threads", "1")
        assert probe[:3] == (NOTHING, 0, NUMPY)
        threads, blas = probe[3:]
        assert blas == "1"
        if threads is None:
            pytest.skip("no /proc/self/status to count threads")
        assert threads == 1

    def test_users_blas_thread_count_is_kept(self):
        probe = cold_start(*ARRAY_KERNELS[0], "--threads", "1", OPENBLAS_NUM_THREADS="2")
        assert probe[:3] == (NOTHING, 0, NUMPY)
        assert probe[4] == "2"

    def test_point_count_ignores_threads(self, capsys):
        # generic:3x4 at p = 3 is not F-pure
        argv = ("verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--method",
                "pointcount", "--p", "3")
        probe = cold_start(*argv, "--threads", "2")
        assert probe[:3] == (NOTHING, 2, NOTHING)
        assert probe[3] in (1, None)  # None: no /proc/self/status to count threads
        reports = {}
        for threads in (1, 2):
            code, out, _ = invoke(capsys, *argv, "--threads", str(threads), "--format", "json")
            assert code == 2
            reports[threads] = json.loads(re.sub(r'"(ms|total_ms)": [0-9.]+', '"\\1": 0', out))
            assert reports[threads]["config"].pop("threads") == threads
        assert reports[1] == reports[2]


def capped_cli(mib, *argv):
    """`python -m permcheck.cli *argv --format json` in a fresh interpreter
    with its address space capped at `mib` MiB."""

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    return subprocess.run(
        [sys.executable, "-m", "permcheck.cli", *argv, "--format", "json"],
        env=child_env(), capture_output=True, text=True, timeout=120, preexec_fn=cap,
    )


class TestMemoryCap:
    def test_fiber_p37_fits_in_64_mib(self):
        # the fiber count keeps one orbit list and one conic per first column
        # on Python ints and never loads numpy, so p = 37 fits where numpy's
        # import alone would not
        proc = capped_cli(
            64, "scan", "conjecture45", "--method", "fiber", "--p", "37", "--threads", "1"
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["aggregate"] == "pass"

    def test_point_count_p5_fits_in_64_mib(self):
        # the point count keeps its tables and one block's masks, about 10 MB
        # of lanes at p = 5, and never loads numpy, whose import alone would
        # not fit; generic 3x4 at p = 5 is not F-pure
        proc = capped_cli(
            64, "verify", "fpure", "--shape", "generic:3x4", "--t", "3", "--method",
            "pointcount", "--p", "5", "--threads", "1",
        )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["aggregate"] == "fail"

    @pytest.mark.parametrize("argv", TRUNCATED_AT_2_31, ids=TRUNCATED_AT_2_31_IDS)
    def test_truncated_power_at_2_31_is_refused_in_1_gib(self, argv):
        proc = capped_cli(1024, *argv)
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert proc.stdout == ""
        assert proc.stderr.startswith("permcheck: error:")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_numpy_job_fits_in_128_mib(self):
        # loading numpy with OpenBLAS's default pool of one thread per core
        # reserves about 41 MB of address space per extra core, and dies under
        # this cap from two cores on (142 MB peak on two); with the one thread
        # the CLI asks for, this job, which runs the numpy product kernel,
        # peaks near 107 MB
        proc = capped_cli(128, *ARRAY_KERNELS[0], "--threads", "1")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["aggregate"] == "pass"
