"""Spans around permcheck's public functions, installed from outside the package.

`Tracer.install()` replaces each target function with a wrapper in every
`permcheck` module namespace (and class) that binds it, so calls made through
a `from .fppoly import truncated_mul` style import are traced as well.  A
wrapper records one span per call: its id, the id of the enclosing traced
call (its parent), start and end times, and counts taken only from the
call's public arguments and result.  Counting happens after the span ends;
the bookkeeping interval is charged to the tracing overhead, not to any
layer.

`summarize()` turns the spans into per-name sums (calls, inclusive seconds,
self seconds, counts); `layer_metrics()` turns merged sums into the named
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


# -- counts, from public arguments and results only ---------------------------


def _count_mul_poly(args, kwargs, result):
    acc, poly = args[0], args[1]
    n_in = acc.nnz()
    return {"pairs": n_in * len(poly), "nnz_out": result.nnz()}


def _count_truncated_mul(args, kwargs, result):
    a, b = args[0], args[1]
    return {"pairs": len(a) * len(b), "terms_out": len(result)}


def _count_exact_divide(args, kwargs, result):
    return {"exact": int(result is not None)}


def _count_member(args, kwargs, result):
    return {"member": int(result is not None)}


def _count_fiber(args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
    return {"blocks": p**9, "threads": max(int(threads), 1)}


def _count_points(args, kwargs, result):
    gens = args[0] if args else kwargs["gens"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    return {"points": p**gens.space.count}


def _count_system(args, kwargs, result):
    return {
        "rows": len(result.row_labels),
        "cols": len(result.col_labels),
        "nnz": sum(len(row) for row in result.matrix),
    }


def _count_duplicates(args, kwargs, result):
    return {"duplicates": len(result.duplicates)}


WITNESS_CHECKS = (
    "verify_hankel_monomial_absence",
    "verify_hankel_eisenstein",
    "verify_hankel_product_identity",
    "verify_hankel_hypersurface",
    "verify_hankel_specialization_check",
    "verify_witness_membership",
    "verify_fpure",
    "verify_entry_triples",
    "verify_squared_entry_triples",
    "scan_three_by_four_fpurity",
)

# (span name, module, attribute path, counter, measure process CPU time)
TARGETS = (
    ("cli.run", "permcheck.cli", "run", None, False),
    *((f"witnesses.{fn}", "permcheck.witnesses", fn, None, False) for fn in WITNESS_CHECKS),
    ("fppoly.TruncatedAccumulator.mul_poly", "permcheck.fppoly", "TruncatedAccumulator.mul_poly",
     _count_mul_poly, False),
    ("fppoly.truncated_mul", "permcheck.fppoly", "truncated_mul", _count_truncated_mul, False),
    ("fppoly.truncated_pow", "permcheck.fppoly", "truncated_pow", None, False),
    ("fppoly.exact_divide", "permcheck.fppoly", "exact_divide", _count_exact_divide, False),
    ("fppoly.Polynomial.mul", "permcheck.fppoly", "Polynomial.__mul__", None, False),
    ("frobcheck.fiber_count_3x4", "permcheck.frobcheck", "fiber_count_3x4", _count_fiber, True),
    ("frobcheck.count_nonvanishing", "permcheck.frobcheck", "count_nonvanishing",
     _count_points, False),
    ("frobcheck.colon_membership", "permcheck.frobcheck", "colon_membership",
     _count_member, False),
    ("frobcheck.fedder_ci_check", "permcheck.frobcheck", "fedder_ci_check", None, False),
    ("frobcheck.fedder_coefficient_fullsupport", "permcheck.frobcheck",
     "fedder_coefficient_fullsupport", None, False),
    ("linmember.member_bounded", "permcheck.linmember", "member_bounded", _count_member, False),
    ("linmember.build_system", "permcheck.linmember", "build_system", _count_system, False),
    ("linmember.gaussian_solve", "permcheck.linmember", "gaussian_solve", None, False),
    ("shapes.permanent", "permcheck.shapes", "permanent", None, False),
    ("shapes.permanental_generators", "permcheck.shapes", "permanental_generators",
     _count_duplicates, False),
)

MODULES = ("cli", "witnesses", "fppoly", "frobcheck", "linmember", "shapes")


# -- recording -----------------------------------------------------------------


class Tracer:
    """Records spans as lists [id, parent, name, start, end, cover_end, cpu_s, counts].

    `end - start` is the call; `cover_end` also covers the counting done
    after it, so a parent's self time excludes the tracer's own work.
    """

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None, cpu=False):
        clock, cpu_clock, spans = time.perf_counter, time.process_time, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            rec = [sid, stack[-1] if stack else None, name, 0.0, 0.0, 0.0, None, None]
            spans.append(rec)
            stack.append(sid)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[3], rec[4], rec[5] = t0, t1, t1
                if cpu:
                    rec[6] = cpu_clock() - c0
            if counter is not None:
                rec[7] = counter(args, kwargs, result)
            rec[5] = clock()
            return result

        return traced

    def install(self):
        """Patch every binding of each target in permcheck's modules and classes."""
        for name, module_name, path, counter, cpu in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self.wrap(name, original, counter, cpu)
            bindings = 0
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "permcheck" and not mod_name.startswith("permcheck."):
                    continue
                holders = [module] + [
                    v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == mod_name
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, key, original))
                            setattr(holder, key, wrapper)
                            bindings += 1
            if bindings == 0:
                raise RuntimeError(f"no binding of {module_name}.{path} found to trace")

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


# -- analysis --------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the part of it that its children cover}."""
    children = defaultdict(list)
    for sid, parent, _name, start, _end, cover_end, *_ in spans:
        if parent is not None:
            children[parent].append((start, cover_end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end, *_ in spans
    }


def summarize(spans) -> dict:
    """Per-name sums: calls, s (inclusive, outermost calls only), self_s,
    cpu_s (where measured) and every count."""
    selfs = self_times(spans)
    by_id = {rec[0]: rec for rec in spans}
    out: dict = {}
    for sid, parent, name, start, end, _cover, cpu_s, counts in spans:
        row = out.setdefault(name, defaultdict(float))
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        outermost = True
        anc = parent
        while anc is not None:
            if by_id[anc][2] == name:
                outermost = False
                break
            anc = by_id[anc][1]
        if outermost:
            row["s"] += end - start
            if cpu_s is not None:
                row["cpu_s"] += cpu_s
                row["cpu_capacity_s"] += (end - start) * (counts or {}).get("threads", 1)
        for key, value in (counts or {}).items():
            if key != "threads":
                row[key] += value
    return {name: dict(row) for name, row in out.items()}


def merge(summaries) -> dict:
    """Add per-name sums from several jobs."""
    out: dict = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, defaultdict(float))
            for key, value in row.items():
                acc[key] += value
    return {name: dict(row) for name, row in out.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary) -> dict:
    """The named per-layer metrics, from merged per-name sums.  Functions that
    were not called report zero."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    m: dict = {}
    for name in ("fppoly.TruncatedAccumulator.mul_poly", "fppoly.truncated_mul"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.pairs"] = get(name, "pairs")
    m["fppoly.TruncatedAccumulator.mul_poly.nnz_out"] = get(
        "fppoly.TruncatedAccumulator.mul_poly", "nnz_out")
    m["fppoly.truncated_mul.terms_out"] = get("fppoly.truncated_mul", "terms_out")
    for name in ("fppoly.truncated_pow", "fppoly.exact_divide", "fppoly.Polynomial.mul",
                 "frobcheck.colon_membership", "linmember.member_bounded",
                 "linmember.build_system", "shapes.permanent"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["fppoly.truncated_pow.self_s"] = get("fppoly.truncated_pow", "self_s")
    m["fppoly.exact_divide.exact_frac"] = _ratio(
        get("fppoly.exact_divide", "exact"), get("fppoly.exact_divide", "calls"))

    fiber = "frobcheck.fiber_count_3x4"
    m[f"{fiber}.s"] = get(fiber, "s")
    m[f"{fiber}.blocks_per_s"] = _ratio(get(fiber, "blocks"), get(fiber, "s"))
    m[f"{fiber}.cpu_util"] = _ratio(get(fiber, "cpu_s"), get(fiber, "cpu_capacity_s"))
    points = "frobcheck.count_nonvanishing"
    m[f"{points}.s"] = get(points, "s")
    m[f"{points}.points_per_s"] = _ratio(get(points, "points"), get(points, "s"))
    for name in ("frobcheck.colon_membership", "linmember.member_bounded"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.member_frac"] = _ratio(get(name, "member"), get(name, "calls"))
    m["frobcheck.fedder_ci_check.s"] = get("frobcheck.fedder_ci_check", "s")
    m["frobcheck.fedder_coefficient_fullsupport.s"] = get(
        "frobcheck.fedder_coefficient_fullsupport", "s")

    for key in ("rows", "cols", "nnz"):
        m[f"linmember.build_system.{key}"] = get("linmember.build_system", key)
    m["linmember.gaussian_solve.s"] = get("linmember.gaussian_solve", "s")
    m["shapes.permanental_generators.s"] = get("shapes.permanental_generators", "s")
    m["shapes.permanental_generators.duplicates"] = get(
        "shapes.permanental_generators", "duplicates")

    for fn in WITNESS_CHECKS:
        m[f"witnesses.{fn}.s"] = get(f"witnesses.{fn}", "s")
    m["cli.run.s"] = get("cli.run", "s")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            (row.get("self_s", 0.0) for name, row in summary.items()
             if name.split(".", 1)[0] == module),
            0.0,
        )
    return m


def largest_self(summary, level="function"):
    """(name, seconds) of the function -- or module -- with the most self time."""
    totals: dict = defaultdict(float)
    for name, row in summary.items():
        key = name if level == "function" else name.split(".", 1)[0]
        totals[key] += row.get("self_s", 0.0)
    if not totals:
        return None, 0.0
    return max(totals.items(), key=lambda kv: kv[1])
