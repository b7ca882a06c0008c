"""The correctness gate and per-child peak RSS."""

import copy
import json
import resource
import shutil
import tempfile

import pytest

import run
from workloads import job_id

SMALL = ("verify", "lemma31", "--n", "3", "--threads", "1", "--format", "json")
BIG = ("verify", "fpure", "--shape", "generic:2x3", "--t", "2", "--p", "13",
       "--threads", "1", "--format", "json")


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix=".perfbench-test-", dir=run.ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _result(doc, exit_code=0):
    return run.JobResult(argv=SMALL, exit=exit_code, stdout=json.dumps(doc), stderr="",
                         t_spawn=0.0, t_end=1.0, cpu_s=1.0, rss_mb=30.0, setup_s=0.2,
                         meta={}, timed_out=False)


REPORT = {
    "schema": 1, "aggregate": "pass", "total_ms": 12.5,
    "reports": [{"check": "lemma31", "verdict": "pass", "ms": 12.0,
                 "evidence": {"terms": 7, "ok": True}}],
}
REFERENCE = {"exit": 0, "report": run.strip_timing(REPORT)}


def test_timing_fields_are_ignored():
    doc = copy.deepcopy(REPORT)
    doc["total_ms"] = 99.0
    doc["reports"][0]["ms"] = 98.0
    assert run.check_job(_result(doc), REFERENCE) == []


def test_one_mismatched_field_is_a_failure():
    doc = copy.deepcopy(REPORT)
    doc["reports"][0]["evidence"]["terms"] = 8
    assert run.check_job(_result(doc), REFERENCE) == [
        "report differs at reports[0].evidence.terms"]
    doc = copy.deepcopy(REPORT)
    doc["reports"][0]["evidence"]["ok"] = 1  # equal in Python, not in JSON
    assert run.check_job(_result(doc), REFERENCE)


def test_exit_code_and_missing_fields_are_failures():
    assert run.check_job(_result(REPORT, exit_code=2), REFERENCE) == [
        "exit code 2, expected 0"]
    doc = copy.deepcopy(REPORT)
    del doc["reports"][0]["evidence"]["ok"]
    assert run.check_job(_result(doc), REFERENCE)
    assert run.check_job(_result(REPORT), None) == ["no reference for this job"]


def test_pass_counts_a_tampered_reference_as_failed(workdir):
    first = run.run_job(SMALL, workdir)
    reference = {"exit": first.exit, "report": run.strip_timing(json.loads(first.stdout))}
    good = run.run_pass([SMALL], {job_id(SMALL): reference}, workdir, traced=False)
    assert good["attempted"] == 1 and good["failed"] == []
    assert good["setup_s"] > 0 and good["wall_s"] > good["setup_s"]

    tampered = copy.deepcopy(reference)
    tampered["report"]["reports"][0]["verdict"] = "fail"
    bad = run.run_pass([SMALL], {job_id(SMALL): tampered}, workdir, traced=False)
    assert len(bad["failed"]) == 1
    assert bad["failed"][0].problems == ["report differs at reports[0].verdict"]


def test_peak_rss_is_per_child(workdir):
    big = run.run_job(BIG, workdir)
    small = run.run_job(SMALL, workdir)
    assert big.exit == 0 and small.exit == 0
    assert big.rss_mb > small.rss_mb + 20
    # RUSAGE_CHILDREN keeps the maximum over every child reaped so far
    children_max = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    assert children_max >= big.rss_mb > small.rss_mb


def test_traced_child_reports_layers(workdir):
    result = run.run_job(SMALL, workdir, traced=True)
    assert result.exit == 0
    layers = result.meta["layers"]
    assert layers["cli.run"]["calls"] == 1
    assert layers["witnesses.verify_hankel_monomial_absence"]["calls"] == 1
