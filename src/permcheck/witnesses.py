"""Minimal primes of 2x2 permanental ideals, witness elements, and the
verification jobs behind `witness-generic` and `witness-symmetric`.

Every verification returns a LemmaReport whose verdict is backed by
machine-checked evidence (the residue modulo m^[p] and a replayed colon
certificate per minimal prime); nothing is taken on trust.
"""

from __future__ import annotations

import itertools
import math
import time

from . import _lazy_attributes
from .colon import MinimalPrime, colon_membership, pack
from .fppoly import Polynomial, render_poly, truncate
from .report import LemmaReport, make_report
from .shapes import GENERIC, SYMMETRIC, MatrixShape

# Names of other modules, each loaded with its module on first use.  Only
# perfbench/tracer.py and its tests read them here; ROADMAP item 1 deletes them.
__getattr__ = _lazy_attributes(__name__, {
    **dict.fromkeys((
        "verify_hankel_eisenstein",
        "verify_hankel_hypersurface",
        "verify_hankel_monomial_absence",
        "verify_hankel_product_identity",
        "verify_hankel_specialization_check",
    ), "hankel"),
    **dict.fromkeys(("verify_entry_triples", "verify_squared_entry_triples"), "monomials"),
    **dict.fromkeys(("verify_fpure", "scan_three_by_four_fpurity"), "frobcheck"),
})


def _one_based(ix) -> str:
    return ",".join(str(i + 1) for i in ix)


def _block_prime(label: str, shape: MatrixShape, diagonal, antidiagonal):
    """The MinimalPrime of the block permanent x^u + x^w, u the product of
    the `diagonal` variables and w of the `antidiagonal` ones, plus every
    variable outside the block."""
    u = tuple(diagonal.count(i) for i in range(shape.space.count))
    w = tuple(antidiagonal.count(i) for i in range(shape.space.count))
    outside = tuple(i for i in range(shape.space.count) if not u[i] + w[i])
    return MinimalPrime(label, shape.space, outside, (u, w))


def minimal_primes_generic(m: int, n: int) -> list:
    """All minimal primes of P_2 of a generic m x n matrix, m, n >= 2.

    One prime per 2x2 submatrix; plus the variables of any m-1 rows when
    n >= 3, and of any n-1 columns when m >= 3.
    """
    if m < 2 or n < 2:
        raise ValueError("minimal prime classification needs m, n >= 2")
    shape = MatrixShape.generic(m, n)
    e = shape.entry_index
    primes = []
    for rows in itertools.combinations(range(m), 2):
        for cols in itertools.combinations(range(n), 2):
            (i1, i2), (j1, j2) = rows, cols
            label = f"sub(rows {_one_based(rows)}; cols {_one_based(cols)})"
            primes.append(_block_prime(label, shape, (e(i1, j1), e(i2, j2)), (e(i1, j2), e(i2, j1))))
    if n >= 3:
        for rows in itertools.combinations(range(m), m - 1):
            gens = tuple(sorted(e(i, j) for i in rows for j in range(n)))
            primes.append(MinimalPrime(f"rows({_one_based(rows)})", shape.space, gens))
    if m >= 3:
        for cols in itertools.combinations(range(n), n - 1):
            gens = tuple(sorted(e(i, j) for j in cols for i in range(m)))
            primes.append(MinimalPrime(f"cols({_one_based(cols)})", shape.space, gens))
    return primes


def minimal_primes_symmetric(n: int) -> list:
    """All minimal primes of P_2 of a symmetric n x n matrix: one per pair u < v."""
    if n < 2:
        raise ValueError("minimal prime classification needs n >= 2")
    shape = MatrixShape.symmetric(n)
    e = shape.entry_index
    return [
        _block_prime(f"pair({_one_based((u, v))})", shape, (e(u, u), e(v, v)), (e(u, v),) * 2)
        for u, v in itertools.combinations(range(n), 2)
    ]


# ---------------------------------------------------------------------------
# witness elements
# ---------------------------------------------------------------------------


# Largest witness, counted as terms x variables (the exponent entries it
# stores), that `witness` accepts.  A witness job takes roughly 100 to 300
# bytes per entry, so this keeps one under ~150 MB; p = 10007 on the 2x2
# matrix (40,028 entries) runs in 29 MB.
MAX_WITNESS_ENTRIES = 500_000


def _witness(shape: MatrixShape, p: int) -> tuple:
    """(sign, minimal primes, witness) of `shape` at odd p; see `witness`.

    Refuses a witness past MAX_WITNESS_ENTRIES from m, n and p alone, before
    any prime or variable is built.
    """
    m, n, half = shape.nrows, shape.ncols, (p - 1) // 2
    # kind: (blocks, sign, skip, top, minimal primes)
    forms = {
        GENERIC: (math.comb(m, 2) * math.comb(n, 2), 1, p - 1, 2 * p - 2,
                  lambda: minimal_primes_generic(m, n)),
        SYMMETRIC: (math.comb(n, 2), (-1) ** half, half, 3 * half,
                    lambda: minimal_primes_symmetric(n)),
    }
    if shape.kind not in forms:
        raise ValueError("witness membership applies to generic and symmetric shapes")
    blocks, sign, skip, top, minimal_primes = forms[shape.kind]
    size, variables = blocks * (p - 1) + 1, shape.variable_count
    if size * variables > MAX_WITNESS_ENTRIES:
        raise ValueError(
            f"the witness has {size} terms in {variables} variables, more than "
            f"{MAX_WITNESS_ENTRIES} exponent entries"
        )
    primes = minimal_primes()
    space = primes[0].space
    terms = [((p - 1,) * space.count, sign)]
    for prime in primes:
        if prime.binomial is None:
            continue
        u, w = prime.binomial
        var_set = set(prime.variable_gens)
        base = [p - 1 if i in var_set else 0 for i in range(space.count)]
        diagonal = [i for i, e in enumerate(u) if e]  # u is 0/1
        antidiagonal = [i for i, e in enumerate(w) if e]
        w_entry = w[antidiagonal[0]]  # 1, or 2 for a symmetric pair's y_uv^2
        for k in range(p):
            if k == skip:
                continue
            # one int object per value, shared by the entries that hold it
            hi, lo = top - k, w_entry * k
            exps = list(base)
            for i in diagonal:
                exps[i] = hi
            for i in antidiagonal:
                exps[i] = lo
            terms.append((tuple(exps), (-1) ** k))
    return sign, primes, Polynomial(space, p, terms)


def witness(shape: MatrixShape, p: int) -> Polynomial:
    """The F-purity witness of the generic or symmetric matrix `shape` at odd p.

    f = sign * prod_all x^{p-1}
      + sum over the minimal primes P with a block permanent x^u + x^w of
        (prod over P's variable generators x of x^{p-1})
        * sum_k (-1)^k x^{(top-k)u + kw},

    k running over [0, p-1] but one `skip`.  Generic: sign 1, skip p-1, top
    2p-2, so the block [[a, b], [c, d]] contributes (ad)^{2p-2-k} (bc)^k.
    Symmetric: sign (-1)^{(p-1)/2}, skip (p-1)/2, top 3(p-1)/2, so the pair
    u < v contributes (y_uu y_vv)^{3(p-1)/2-k} y_uv^{2k}.  Every summand is
    a single monomial, so f is assembled termwise.  ValueError when f would
    pass MAX_WITNESS_ENTRIES, before anything is built.
    """
    return _witness(shape, p)[2]


# ---------------------------------------------------------------------------
# verification jobs
# ---------------------------------------------------------------------------


def verify_witness_membership(shape: MatrixShape, p: int) -> LemmaReport:
    """CLI checks `witness-generic` / `witness-symmetric`: the witness f lies
    in every minimal-prime colon ideal and survives modulo m^[p]."""
    t0 = time.perf_counter()
    sign, primes, f = _witness(shape, p)
    params = {
        "shape": shape.spec_string(),
        "m": shape.nrows,
        "n": shape.ncols,
        "p": p,
        "e": 1,
    }
    residue = truncate(f)
    full_product = (p - 1,) * f.space.count
    residue_ok = residue == Polynomial.monomial(f.space, p, full_product, sign)
    memberships = []
    all_member = True
    packed = pack(f)
    for prime in primes:
        cert = colon_membership(packed, prime)
        ok = cert is not None and cert.replay() == packed
        all_member = all_member and ok
        memberships.append({"prime": prime.label, "member": ok})
    evidence = {
        "witness_terms": len(f),
        "residue": render_poly(residue),
        "residue_matches_full_product": residue_ok,
        "prime_count": len(primes),
        "memberships": memberships,
    }
    if shape.kind == SYMMETRIC:
        # the unsigned off-diagonal product is a plausible-looking alternative
        # residue; record explicitly whether the computed one matches it
        diag_vars = {shape.entry_index(i, i) for i in range(shape.nrows)}
        off_diag = tuple(
            0 if i in diag_vars else p - 1 for i in range(f.space.count)
        )
        alt = Polynomial.monomial(f.space, p, off_diag)
        evidence["residue_equals_unsigned_offdiagonal_product"] = residue == alt
    ok = residue_ok and all_member
    return make_report(f"witness-{shape.kind}", params, ok, evidence, t0)
