"""The benchmark's four workloads: fixed lists of `permcheck` jobs.

Every job passes `--threads` explicitly (the CLI default is the machine's
core count) and `--format json`, so its report can be compared with the
committed reference.  The workload seed only permutes job order.
"""

from __future__ import annotations

import shlex


def _jobs(*lines):
    return tuple(tuple(shlex.split(line) + ["--format", "json"]) for line in lines)


WORKLOADS = {
    # The dense truncated-power path: TruncatedAccumulator.mul_poly builds
    # f_n^{p-1} mod m^[p] in a q^v-cell array.  (n, p) = (5, 7) is left out:
    # its 7^9-cell arrays take 17-19 s and ~440 MB, and one such job per run
    # spread wall_s by 15% between runs on a 2-core VM.
    "hankel": _jobs(
        "verify lemma34 --n 3 --p 3,5,7 --threads 1",
        "verify lemma34 --n 4 --p 3,5,7 --threads 1",
        "verify lemma34 --n 5 --p 3,5 --threads 1",
        "verify thm35 --n 3 --p 3,5,7 --threads 1",
        "verify thm35 --n 4 --p 3,5,7 --threads 1",
        "verify thm35 --n 5 --p 3,5 --threads 1",
        "verify lemma31 --n 6 --threads 1",
        "verify lemma32 --n 6 --threads 1",
        "verify thm36 --n 5 --threads 1",
    ),
    # frobcheck's enumeration engines and no truncated arithmetic: the fiber
    # count of the generic 3x4 ideal on two threads, the same count on one
    # thread, and the brute-force point count.
    "fiber": _jobs(
        "scan conjecture45 --method fiber --p 3,5,7 --threads 2",
        "scan conjecture45 --method fiber --p 5 --threads 1",
        "verify fpure --shape generic:3x4 --t 3 --method pointcount --p 3 --threads 1",
    ),
    # Fedder checks where q^v exceeds DENSE_LIMIT, so truncated_mul runs its
    # dict loop (symmetric:4 at 7, symmetric:3 at 37), next to small dense
    # ones.  generic:3x4 at p = 3 is not F-pure: exit code 2.
    "fedder-sparse": _jobs(
        "verify fpure --shape generic:3x4 --t 3 --p 3 --threads 1",
        "verify fpure --shape symmetric:4 --p 7 --threads 1",
        "verify fpure --shape generic:2x3 --t 2 --p 11,13 --threads 1",
        "verify fpure --shape symmetric:3 --p 37 --threads 1",
    ),
    # Untruncated sparse arithmetic, structural colon membership and the
    # linmember build-and-solve; both truncated kernels are bypassed.
    # monomials28 at 4x4 rebuilds one 672x576 system for each of its 288
    # targets.  The largest witness and monomials29 cases are left out to
    # keep a pass near 8 s.
    "membership": _jobs(
        "verify witness-generic --m 4 --n 4 --p 3,5,7 --threads 1",
        "verify witness-symmetric --n 5 --p 3,5,7 --threads 1",
        "verify monomials28 --m 3 --n 3 --p 3,5 --threads 1",
        "verify monomials28 --m 3 --n 4 --p 3 --threads 1",
        "verify monomials28 --m 4 --n 4 --p 3 --threads 1",
        "verify monomials29 --m 3 --n 3 --p 3,5 --threads 1",
    ),
}


def job_id(argv) -> str:
    return shlex.join(argv)
