"""Self-time arithmetic and the out-of-package tracer."""

import pytest

from tracer import Tracer, layer_metrics, largest_self, self_times, summarize


def span(sid, parent, name, start, end, cover_end=None, cpu_s=None, counts=None):
    return [sid, parent, name, start, end, end if cover_end is None else cover_end, cpu_s, counts]


SYNTHETIC = [
    span(0, None, "cli.run", 0.0, 10.0),
    span(1, 0, "witnesses.verify_fpure", 1.0, 3.0),
    span(2, 0, "frobcheck.fiber_count_3x4", 2.0, 5.0),  # overlaps span 1 (another thread)
    span(3, 1, "fppoly.truncated_mul", 1.5, 2.5, counts={"pairs": 6, "terms_out": 4}),
    span(4, 2, "fppoly.truncated_mul", 4.0, 4.5, cover_end=4.8, counts={"pairs": 10, "terms_out": 1}),
]


def test_self_time_subtracts_union_of_children():
    selfs = self_times(SYNTHETIC)
    assert selfs[0] == pytest.approx(10.0 - 4.0)  # children cover [1, 5]
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    # the child's bookkeeping tail (4.5 .. 4.8) is covered, not charged to the parent
    assert selfs[2] == pytest.approx(3.0 - 0.8)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(0.5)


def test_children_outside_the_parent_are_clipped():
    spans = [span(0, None, "a.f", 0.0, 1.0), span(1, 0, "a.g", 0.5, 3.0)]
    assert self_times(spans)[0] == pytest.approx(0.5)


def test_summarize_sums_counts_and_counts_nested_same_name_once():
    spans = SYNTHETIC + [span(5, 3, "fppoly.truncated_mul", 1.6, 1.8)]
    summary = summarize(spans)
    mul = summary["fppoly.truncated_mul"]
    assert mul["calls"] == 3
    assert mul["s"] == pytest.approx(1.0 + 0.5)  # the nested call is inside span 3
    assert mul["self_s"] == pytest.approx(0.8 + 0.2 + 0.5)
    assert mul["pairs"] == 16 and mul["terms_out"] == 5
    metrics = layer_metrics(summary)
    assert metrics["fppoly.truncated_mul.pairs"] == 16
    assert metrics["cli.self_s"] == pytest.approx(6.0)
    assert metrics["linmember.gaussian_solve.s"] == 0.0
    assert largest_self(summary, "function") == ("cli.run", pytest.approx(6.0))
    assert largest_self(summary, "module")[0] == "cli"


def test_fiber_ratios_use_public_arguments():
    spans = [span(0, None, "frobcheck.fiber_count_3x4", 0.0, 2.0, cpu_s=3.0,
                  counts={"blocks": 3**9, "threads": 2})]
    metrics = layer_metrics(summarize(spans))
    assert metrics["frobcheck.fiber_count_3x4.blocks_per_s"] == pytest.approx(3**9 / 2.0)
    assert metrics["frobcheck.fiber_count_3x4.cpu_util"] == pytest.approx(3.0 / 4.0)


def test_install_patches_names_imported_into_other_modules():
    from permcheck import frobcheck, fppoly, witnesses
    from permcheck.fppoly import PrimeModulus
    from permcheck.shapes import MatrixShape, build_matrix, permanental_generators

    originals = (fppoly.truncated_mul, frobcheck.truncated_mul, witnesses.colon_membership,
                 fppoly.Polynomial.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert frobcheck.truncated_mul is fppoly.truncated_mul is not originals[0]
        assert witnesses.colon_membership is frobcheck.colon_membership
        gens = permanental_generators(build_matrix(MatrixShape.generic(2, 3)), 2, char=3)
        frobcheck.fedder_ci_check(gens, PrimeModulus(3))
    finally:
        tracer.uninstall()
    assert (fppoly.truncated_mul, frobcheck.truncated_mul, witnesses.colon_membership,
            fppoly.Polynomial.__mul__) == originals

    by_id = {rec[0]: rec for rec in tracer.spans}
    check = [rec for rec in tracer.spans if rec[2] == "frobcheck.fedder_ci_check"]
    assert len(check) == 1
    muls = [rec for rec in tracer.spans if rec[2] == "fppoly.truncated_mul"]
    assert muls, "truncated_mul called through frobcheck's own binding was not traced"
    for rec in muls:  # every product sits under the Fedder check
        anc = rec[1]
        while anc is not None and by_id[anc][2] != "frobcheck.fedder_ci_check":
            anc = by_id[anc][1]
        assert anc == check[0][0]
    assert all(rec[7]["pairs"] > 0 for rec in muls)
