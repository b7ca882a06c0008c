"""permcheck's benchmark: one workload of real CLI jobs, closed loop, one client.

    python3 perfbench/run.py --workload hankel --seed 1 --seconds 20 --trace 0

Each job is a fresh `python3 perfbench/child.py -- <permcheck args>` process,
so no job inherits another's cached work.  A pass runs every job of the
workload once, in an order drawn from the seed; passes repeat until
--seconds have gone by (at least one pass).  Every report is compared with
the committed reference (timing fields removed) and every exit code with
the expected one; any difference, crash or timeout is a failed job.

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s       first spawn to last verdict of a pass
  cpu_s        user + system CPU of the pass's jobs
  peak_rss_mb  largest per-job peak RSS in the pass (from os.wait4)
  setup_s      process start plus `import permcheck`, summed over the jobs
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of `tracer.layer_metrics` (medians over traced passes) plus the
tracing overhead, traced minus untraced median wall_s.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references")

sys.path.insert(0, HERE)
from tracer import largest_self, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, job_id  # noqa: E402

JOB_TIMEOUT_S = 120.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


# -- one job -------------------------------------------------------------------


@dataclass
class JobResult:
    argv: tuple
    exit: int
    stdout: str
    stderr: str
    t_spawn: float  # time.perf_counter() just before the spawn
    t_end: float  # ... just after the child was reaped
    cpu_s: float
    rss_mb: float
    setup_s: Optional[float]  # None when the child wrote no meta file
    meta: Optional[dict]
    timed_out: bool
    problems: list = field(default_factory=list)


def run_job(argv, workdir, traced=False, import_only=False) -> JobResult:
    """Spawn one child, wait for it with os.wait4, and collect its own rusage."""
    meta_path = os.path.join(workdir, "meta.json")
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    if os.path.exists(meta_path):
        os.remove(meta_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--meta", meta_path]
    cmd += ["--trace"] * traced + ["--import-only"] * import_only + ["--"] + list(argv)
    env = dict(os.environ, PYTHONPATH=SRC)
    timed_out = threading.Event()
    reaped = threading.Lock()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)

    def kill():
        with reaped:
            if proc.returncode is None:
                timed_out.set()
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(JOB_TIMEOUT_S, kill)
    timer.start()
    try:
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        t_end = time.perf_counter()
        with reaped:
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()

    with open(out_path, "rb") as fh:
        stdout = fh.read().decode("utf-8", "replace")
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    meta = None
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return JobResult(
        argv=tuple(argv),
        exit=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        t_spawn=t_spawn,
        t_end=t_end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        setup_s=None if meta is None else meta["imported_at"] - t_spawn,
        meta=meta,
        timed_out=timed_out.is_set(),
    )


# -- the correctness gate --------------------------------------------------------


def strip_timing(doc: dict) -> dict:
    """A JSON report without its `total_ms` and per-report `ms` fields."""
    doc = {k: v for k, v in doc.items() if k != "total_ms"}
    if isinstance(doc.get("reports"), list):
        doc["reports"] = [{k: v for k, v in r.items() if k != "ms"} for r in doc["reports"]]
    return doc


def diff_paths(actual, expected, path="") -> list:
    """Paths at which two JSON values differ."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        out = []
        for key in sorted(set(actual) | set(expected), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual or key not in expected:
                out.append(sub)
            else:
                out.extend(diff_paths(actual[key], expected[key], sub))
        return out
    if isinstance(actual, list) and isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}[len]"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(diff_paths(a, e, f"{path}[{i}]"))
        return out
    if type(actual) is not type(expected) or actual != expected:
        return [path or "<root>"]
    return []


def check_job(result: JobResult, reference) -> list:
    """Everything wrong with one job's outcome; empty means it passed."""
    problems = []
    if result.timed_out:
        problems.append(f"timed out after {JOB_TIMEOUT_S:.0f} s")
    if reference is None:
        return problems + ["no reference for this job"]
    if result.exit != reference["exit"]:
        problems.append(f"exit code {result.exit}, expected {reference['exit']}")
    try:
        report = strip_timing(json.loads(result.stdout))
    except (json.JSONDecodeError, AttributeError) as exc:
        return problems + [f"report is not a JSON object ({exc})"]
    problems += [f"report differs at {p}" for p in diff_paths(report, reference["report"])]
    if result.setup_s is None:
        problems.append("child wrote no set-up time")
    return problems


def load_references(workload: str) -> dict:
    with open(os.path.join(REFERENCES, f"{workload}.json")) as fh:
        return json.load(fh)["jobs"]


# -- passes ----------------------------------------------------------------------


def run_pass(jobs, references, workdir, traced) -> dict:
    """Run every job once, in the given order; one client, closed loop."""
    results = [run_job(argv, workdir, traced=traced) for argv in jobs]
    for result in results:
        result.problems = check_job(result, references.get(job_id(result.argv)))
    failed = [r for r in results if r.problems]
    out = {
        "traced": traced,
        "wall_s": results[-1].t_end - results[0].t_spawn,
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "setup_s": sum(r.setup_s for r in results if r.setup_s is not None),
        "attempted": len(results),
        "failed": failed,
    }
    if traced:
        out["layers"] = merge(r.meta["layers"] for r in results if r.meta and "layers" in r.meta)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0], "numpy": numpy_version}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below

    if not os.path.isfile(os.path.join(SRC, "permcheck", "__init__.py")):
        sys.stderr.write(f"perfbench: no permcheck sources under {SRC}\n")
        return 1
    references = load_references(args.workload)
    jobs = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"workload {args.workload}: {len(jobs)} jobs per pass, closed loop, one client, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        warm = run_job((), workdir, import_only=True)
        if warm.exit != 0 or warm.setup_s is None:
            sys.stderr.write("perfbench: the warm-up import failed:\n" + warm.stderr)
            return 1
        passes = []
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(rng.sample(jobs, len(jobs)), references, workdir, traced))
            p = passes[-1]
            print(f"pass {len(passes)} [{'traced' if traced else 'untraced'}]: "
                  f"wall_s={p['wall_s']:.4f} cpu_s={p['cpu_s']:.4f} "
                  f"peak_rss_mb={p['peak_rss_mb']:.1f} setup_s={p['setup_s']:.4f} "
                  f"failed={len(p['failed'])}/{p['attempted']}")
            for r in p["failed"]:
                print(f"  FAILED {job_id(r.argv)}: {'; '.join(r.problems[:5])}")
                if r.stderr.strip():
                    print("    stderr: " + r.stderr.strip().splitlines()[-1])
            elapsed = time.perf_counter() - t_start
            kinds = {q["traced"] for q in passes}
            enough = elapsed >= args.seconds and (not args.trace or len(kinds) == 2)
            if enough:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    untraced = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, unit in END_TO_END:
        values = [p[name] for p in untraced]
        q1, med, q3 = quartiles(values)
        print(f"{name}: median {med:.4f} {unit}, quartiles {q1:.4f} .. {q3:.4f}, "
              f"n={len(values)} passes")
        metrics[name] = {"value": med, "unit": unit}

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["layers"]) for p in traced]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass),
                   "unit": _layer_unit(name)}
            for name in per_pass[0]
        }
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"tracing overhead: {overhead:+.4f} s per pass "
              f"({len(traced)} traced, {len(untraced)} untraced passes)")
        layers = merge(p["layers"] for p in traced)
        fn, fn_s = largest_self(layers, "function")
        mod, mod_s = largest_self(layers, "module")
        print(f"largest self time: function {fn} ({fn_s:.4f} s), module {mod} ({mod_s:.4f} s)")
        for name, value in metrics.items():
            print(f"  {name} = {value['value']:.6g} {value['unit']}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s", "overhead_s"):
        return "s"
    if stat.endswith("_per_s"):
        return "1/s"
    if stat.endswith("_frac") or stat == "cpu_util":
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
