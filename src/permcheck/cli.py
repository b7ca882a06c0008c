"""Command-line front end: one subcommand per verification job.

  permcheck verify <check> [options]     run a single named check
  permcheck scan conjecture45 --p P,...  Fedder-coefficient scan over primes
  permcheck generators --shape S [--t T] [--p P]   dump ideal generators

Each verify check takes exactly the flags its CHECKS entry names; any other
of --shape/--m/--n/--t/--p is refused.  --method, --threads, --format and
--out are accepted everywhere.  --threads has no effect: every check runs on
one thread.  It is still validated and echoed in the JSON config.

Exit codes: 0 all checks passed, 2 some check failed, 3 inconclusive only,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

from . import __version__


class UsageError(Exception):
    pass


def _shape_and_t(args):
    """--shape, and --t defaulting to the smaller side (fpure, generators)."""
    from .shapes import parse_shape

    shape = parse_shape(args.shape)
    return shape, args.t if args.t is not None else min(shape.nrows, shape.ncols)


class Check(NamedTuple):
    """A verify check: the module of `permcheck` that holds its runner, the
    flags it requires, the ones it may also take, and its runner.  The
    module is imported only once the arguments parse, so a job loads the
    code of its own check and no other.  The runner is called as
    runner(module, args, p) once per prime when the check requires --p and
    as runner(module, args) otherwise.  A guard, if any, is called as
    guard(module, args, p) for every prime before the first runner, so a
    prime the check would refuse stops the job before any work.  Both look
    the check's function up on the module at call time, so a patched module
    attribute is the one that runs."""

    module: str
    required: tuple
    runner: Callable
    optional: tuple = ()
    guard: Optional[Callable] = None


CHECKS = {
    "lemma31": Check("hankel", ("n",), lambda m, a: m.verify_hankel_monomial_absence(a.n)),
    "lemma32": Check("hankel", ("n",), lambda m, a: m.verify_hankel_eisenstein(a.n)),
    "lemma34": Check(
        "hankel", ("n", "p"), lambda m, a, p: m.verify_hankel_product_identity(a.n, p)
    ),
    "thm35": Check("hankel", ("n", "p"), lambda m, a, p: m.verify_hankel_hypersurface(a.n, p)),
    "thm36": Check("hankel", ("n",), lambda m, a: m.verify_hankel_specialization_check(a.n)),
    "witness-generic": Check(
        "witnesses", ("m", "n", "p"),
        lambda m, a, p: m.verify_witness_membership(m.MatrixShape.generic(a.m, a.n), p),
    ),
    "witness-symmetric": Check(
        "witnesses", ("n", "p"),
        lambda m, a, p: m.verify_witness_membership(m.MatrixShape.symmetric(a.n), p),
    ),
    "monomials28": Check(
        "monomials", ("m", "n", "p"), lambda m, a, p: m.verify_entry_triples(a.m, a.n, p)
    ),
    "monomials29": Check(
        "monomials", ("m", "n", "p"),
        lambda m, a, p: m.verify_squared_entry_triples(a.m, a.n, p),
    ),
    "fpure": Check(
        "witnesses", ("shape", "p"),
        lambda m, a, p: m.verify_fpure(*_shape_and_t(a), p, method=a.method),
        optional=("t",),
        guard=lambda m, a, p: m.check_fpure(*_shape_and_t(a), p, a.method),
    ),
}


def _thread_count(text: str) -> int:
    """--threads: a whole number of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return threads


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="permcheck", description=__doc__)
    parser.add_argument("--version", action="version", version=f"permcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--shape", help='shape spec: "generic:MxN" | "symmetric:N" | "hankel:N"')
        p.add_argument("--m", type=int, help="row count")
        p.add_argument("--n", type=int, help="column count / size")
        p.add_argument("--t", type=int, help="submatrix size")
        p.add_argument("--p", help="odd prime, or comma-separated list")
        p.add_argument(
            "--method",
            choices=("truncated", "pointcount", "fiber"),
            default="truncated",
        )
        p.add_argument("--threads", type=_thread_count, default=1,
                       help="no effect: every check runs on one thread")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    verify = sub.add_parser("verify", help="run one verification")
    verify.add_argument("check", choices=tuple(CHECKS))
    add_common(verify)

    scan = sub.add_parser("scan", help="scan a check across primes")
    scan.add_argument("check", choices=("conjecture45",))
    add_common(scan)

    dump = sub.add_parser("generators", help="dump permanental ideal generators, one per line")
    dump.add_argument("--shape", required=True)
    dump.add_argument("--t", type=int)
    dump.add_argument("--p", default="3")
    dump.add_argument("--out")

    return parser


def _parse_primes(text):
    from .fppoly import check_prime

    primes = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            p = int(part)
            check_prime(p)
        except ValueError as exc:
            raise UsageError(f"invalid prime {part!r}: {exc}") from exc
        primes.append(p)
    if not primes:
        raise UsageError("--p is required for this check")
    return primes


def _take_flags(args, required, optional=()):
    """Refuse a missing required flag, or a given one the check does not take."""
    for flag in ("shape", "m", "n", "t", "p"):
        given = getattr(args, flag) is not None
        if flag in required and not given:
            raise UsageError(f"--{flag} is required for this check")
        if given and flag not in required and flag not in optional:
            raise UsageError(f"{args.check} does not take --{flag}")


def _run_verify(args) -> list:
    check = CHECKS[args.check]
    _take_flags(args, check.required, check.optional)
    primes = _parse_primes(args.p) if "p" in check.required else None
    module = importlib.import_module(f".{check.module}", __package__)
    if primes is None:
        return [check.runner(module, args)]
    if check.guard is not None:
        for p in primes:
            check.guard(module, args, p)
    return [check.runner(module, args, p) for p in primes]


def _run_scan(args) -> list:
    from . import witnesses

    _take_flags(args, ("p",))
    primes = _parse_primes(args.p)
    return [witnesses.scan_three_by_four_fpurity(primes, method=args.method)]


def _aggregate(reports) -> str:
    verdicts = {r.verdict for r in reports}
    if "fail" in verdicts:
        return "fail"
    if "inconclusive" in verdicts:
        return "inconclusive"
    return "pass"


def _config_echo(args) -> dict:
    # the schema keeps "e" (always 1) and a last key that is always null
    keys = ("command", "check", "shape", "m", "n", "t", "p", "e", "method",
            "threads", "format", "out", "checkpoint")
    return {k: 1 if k == "e" else getattr(args, k, None) for k in keys}


def _render_text(reports, aggregate, total_ms) -> str:
    lines = []
    for r in reports:
        shown = {k: v for k, v in r.params.items() if v is not None}
        params = " ".join(f"{k}={v}" for k, v in shown.items())
        lines.append(f"[{r.verdict.upper():>12}] {r.check} {params} ({r.ms:.1f} ms)")
        for key, value in r.evidence.items():
            if isinstance(value, list) and len(value) > 6:
                value = f"[{len(value)} entries]"
            lines.append(f"    {key}: {value}")
    lines.append(f"aggregate: {aggregate} ({len(reports)} check(s), {total_ms:.1f} ms)")
    return "\n".join(lines) + "\n"


def _render_json(reports, aggregate, total_ms, args) -> str:
    doc = {
        "schema": 1,
        "tool": "permcheck",
        "version": __version__,
        "config": _config_echo(args),
        "reports": [r.to_json_dict() for r in reports],
        "aggregate": aggregate,
        "total_ms": round(total_ms, 3),
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_generators(args) -> int:
    from .fppoly import render_poly
    from .shapes import permanental_generators

    primes = _parse_primes(args.p)
    if len(primes) != 1:
        raise UsageError("the generators dump takes a single prime")
    shape, t = _shape_and_t(args)
    pres = permanental_generators(shape, t, char=primes[0])
    _emit("\n".join(map(render_poly, pres.generators)) + "\n", args.out)
    return 0


def run(argv) -> int:
    # The array kernels are element-wise only and never call BLAS, so the
    # OpenBLAS pool that numpy's import starts (one thread per core) is dead
    # weight.  Set before any check can import numpy; a user's value is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        try:
            if args.command == "generators":
                return _run_generators(args)
            reports = _run_scan(args) if args.command == "scan" else _run_verify(args)
        except ValueError as exc:
            # bad shapes, refused methods, out-of-range sizes, p = 2 style rejections
            raise UsageError(str(exc)) from exc
        total_ms = (time.perf_counter() - t0) * 1000.0
        aggregate = _aggregate(reports)
        if args.format == "json":
            text = _render_json(reports, aggregate, total_ms, args)
        else:
            text = _render_text(reports, aggregate, total_ms)
        _emit(text, args.out)
        return {"pass": 0, "fail": 2, "inconclusive": 3}[aggregate]
    except UsageError as exc:
        sys.stderr.write(f"permcheck: error: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
