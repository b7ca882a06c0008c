"""The report every verification job returns, and its JSON form.

Kept apart from the checks so that a job loads only the modules its own
check needs.
"""

from __future__ import annotations

import time
from typing import NamedTuple


class LemmaReport(NamedTuple):
    check: str
    params: dict
    verdict: str  # "pass" | "fail" | "inconclusive"
    evidence: dict
    ms: float

    def to_json_dict(self) -> dict:
        params = {
            key: self.params.get(key) for key in ("shape", "m", "n", "t", "p", "e", "method")
        }
        return {
            "schema": 1,
            "check": self.check,
            "params": params,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "ms": round(self.ms, 3),
        }


def make_report(
    check: str, params: dict, ok: bool, evidence: dict, t0: float, inconclusive: bool = False
) -> LemmaReport:
    """The report of a check started at perf_counter() time t0: "fail" unless
    ok, else "inconclusive" when the check could not settle every claim, else
    "pass"."""
    verdict = "fail" if not ok else "inconclusive" if inconclusive else "pass"
    return LemmaReport(check, params, verdict, evidence, (time.perf_counter() - t0) * 1000.0)
