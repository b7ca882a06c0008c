"""Minimal primes of 2x2 permanental ideals, witness elements, and the
lemma-level verification jobs behind the CLI.

Every verification returns a LemmaReport whose verdict is backed by
machine-checked evidence (surviving monomials, membership certificates,
counts); nothing is taken on trust.  Verdicts are tri-state: a failed
positive certificate for F-regularity is reported as "inconclusive", never
as a refutation.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .fppoly import (
    LEX,
    Polynomial,
    TruncatedAccumulator,
    VariableSpace,
    leading_term,
    render_poly,
    substitute,
    truncate,
)
from .shapes import (
    GENERIC,
    SYMMETRIC,
    MatrixShape,
    SymbolicMatrix,
    build_matrix,
    hankel_specialization,
    permanent,
    permanental_generators,
)
from . import frobcheck
from .frobcheck import colon_membership, fedder_coefficient_fullsupport


@dataclass(frozen=True)
class MinimalPrime:
    """A structured minimal prime of P_2: a binomial on an inner 2x2 block
    plus all outside entries, or a pure-variable ideal.

    kind: "submatrix_binomial" (generic), "symmetric_pair", "row_variables"
    or "column_variables".  For the variable kinds, `rows`/`cols` hold the
    index set whose variables generate the prime.
    """

    kind: str
    shape: MatrixShape
    space: VariableSpace
    rows: tuple = ()
    cols: tuple = ()
    entries: tuple = field(default=(), repr=False)  # matrix entry grid (var indices)

    @property
    def label(self) -> str:
        one = lambda ix: ",".join(str(i + 1) for i in ix)
        if self.kind == "submatrix_binomial":
            return f"sub(rows {one(self.rows)}; cols {one(self.cols)})"
        if self.kind == "symmetric_pair":
            return f"pair({one(self.rows)})"
        if self.kind == "row_variables":
            return f"rows({one(self.rows)})"
        return f"cols({one(self.cols)})"

    @property
    def inner_vars(self) -> tuple:
        """Variable indices of the inner block carrying the binomial."""
        if self.kind == "submatrix_binomial":
            return tuple(
                sorted({self.entries[i][j] for i in self.rows for j in self.cols})
            )
        if self.kind == "symmetric_pair":
            u, v = self.rows
            return tuple(
                sorted({self.entries[u][u], self.entries[u][v], self.entries[v][v]})
            )
        return ()

    @property
    def variable_gens(self) -> tuple:
        """Variable indices that are generators of the prime."""
        if self.kind == "row_variables":
            keep = {self.entries[i][j] for i in self.rows for j in range(self.shape.ncols)}
            return tuple(sorted(keep))
        if self.kind == "column_variables":
            keep = {self.entries[i][j] for j in self.cols for i in range(self.shape.nrows)}
            return tuple(sorted(keep))
        inner = set(self.inner_vars)
        return tuple(i for i in range(self.space.count) if i not in inner)

    def binomial(self, char: int) -> Optional[Polynomial]:
        """The permanent of the inner block, or None for variable kinds."""
        if self.kind == "submatrix_binomial":
            i1, i2 = self.rows
            j1, j2 = self.cols
            e = self.entries
            var = lambda ix: Polynomial.variable(self.space, char, ix)
            return var(e[i1][j1]) * var(e[i2][j2]) + var(e[i1][j2]) * var(e[i2][j1])
        if self.kind == "symmetric_pair":
            u, v = self.rows
            e = self.entries
            var = lambda ix: Polynomial.variable(self.space, char, ix)
            return var(e[u][u]) * var(e[v][v]) + var(e[u][v]) * var(e[u][v])
        return None

    def generators(self, char: int) -> list:
        """Flattened generator list: the binomial (if any), then the variables."""
        gens = []
        b = self.binomial(char)
        if b is not None:
            gens.append(b)
        gens.extend(Polynomial.variable(self.space, char, i) for i in self.variable_gens)
        return gens

    def omega(self, char: int) -> Polynomial:
        """Product of the regular-sequence generators."""
        out = Polynomial.one(self.space, char)
        for g in self.generators(char):
            out = out * g
        return out


def minimal_primes_generic(m: int, n: int) -> list:
    """All minimal primes of P_2 of a generic m x n matrix, m, n >= 2.

    One prime per 2x2 submatrix; plus the variables of any m-1 rows when
    n >= 3, and of any n-1 columns when m >= 3.
    """
    if m < 2 or n < 2:
        raise ValueError("minimal prime classification needs m, n >= 2")
    mat = build_matrix(MatrixShape.generic(m, n))
    primes = []
    for rows in itertools.combinations(range(m), 2):
        for cols in itertools.combinations(range(n), 2):
            primes.append(
                MinimalPrime("submatrix_binomial", mat.shape, mat.space, rows, cols, mat.entries)
            )
    if n >= 3:
        for rows in itertools.combinations(range(m), m - 1):
            primes.append(
                MinimalPrime("row_variables", mat.shape, mat.space, rows, (), mat.entries)
            )
    if m >= 3:
        for cols in itertools.combinations(range(n), n - 1):
            primes.append(
                MinimalPrime("column_variables", mat.shape, mat.space, (), cols, mat.entries)
            )
    return primes


def minimal_primes_symmetric(n: int) -> list:
    """All minimal primes of P_2 of a symmetric n x n matrix: one per pair u < v."""
    if n < 2:
        raise ValueError("minimal prime classification needs n >= 2")
    mat = build_matrix(MatrixShape.symmetric(n))
    return [
        MinimalPrime("symmetric_pair", mat.shape, mat.space, (u, v), (u, v), mat.entries)
        for u, v in itertools.combinations(range(n), 2)
    ]


# ---------------------------------------------------------------------------
# witness elements
# ---------------------------------------------------------------------------


# Largest witness, counted as terms x variables (the exponent entries it
# stores), that the builders below accept.  A witness job takes roughly 100
# to 300 bytes per entry, so this keeps one under ~150 MB; p = 10007 on the
# 2x2 matrix (40,028 entries) runs in 29 MB.
MAX_WITNESS_ENTRIES = 500_000


def _refuse_large_witness(terms: int, variables: int):
    """Refuse before allocating a witness larger than MAX_WITNESS_ENTRIES."""
    if terms * variables > MAX_WITNESS_ENTRIES:
        raise ValueError(
            f"the witness has {terms} terms in {variables} variables, more than "
            f"{MAX_WITNESS_ENTRIES} exponent entries"
        )


def witness_generic(m: int, n: int, p: int) -> Polynomial:
    """The F-purity witness for the generic m x n matrix at odd p.

    f = prod_all x^{p-1}
      + sum over 2x2 submatrices w = [[a, b], [c, d]] of
        (prod_{x not in w} x^{p-1}) * sum_{k=0}^{p-2} (-1)^k (ad)^{2p-2-k} (bc)^k.

    Every summand is a single monomial, so f is assembled termwise.
    """
    if p == 2:
        raise ValueError("the witness construction needs p > 2")
    if m < 2 or n < 2:
        raise ValueError("witness_generic needs m, n >= 2")
    _refuse_large_witness(math.comb(m, 2) * math.comb(n, 2) * (p - 1) + 1, m * n)
    mat = build_matrix(MatrixShape.generic(m, n))
    space = mat.space
    terms = [((p - 1,) * space.count, 1)]
    for rows in itertools.combinations(range(m), 2):
        for cols in itertools.combinations(range(n), 2):
            i1, i2 = rows
            j1, j2 = cols
            a, b = mat.entry(i1, j1), mat.entry(i1, j2)
            c, d = mat.entry(i2, j1), mat.entry(i2, j2)
            inner = {a, b, c, d}
            base = [0 if i in inner else p - 1 for i in range(space.count)]
            for k in range(p - 1):
                exps = list(base)
                exps[a] = exps[d] = 2 * p - 2 - k
                exps[b] = exps[c] = k
                terms.append((tuple(exps), (-1) ** k))
    return Polynomial(space, p, terms)


def witness_symmetric(n: int, p: int) -> Polynomial:
    """The F-purity witness for the symmetric n x n matrix at odd p.

    f = (-1)^{(p-1)/2} prod_{i<=j} y_ij^{p-1}
      + sum over pairs i < j of (prod_{y not in w_ij} y^{p-1}) times the two
        k-ranges k in [0, (p-3)/2] and [(p+1)/2, p-1] of
        (-1)^k (y_ii y_jj)^{3(p-1)/2 - k} y_ij^{2k}.
    """
    if p == 2:
        raise ValueError("the witness construction needs p > 2")
    if n < 2:
        raise ValueError("witness_symmetric needs n >= 2")
    _refuse_large_witness(math.comb(n, 2) * (p - 1) + 1, n * (n + 1) // 2)
    mat = build_matrix(MatrixShape.symmetric(n))
    space = mat.space
    sign = (-1) ** ((p - 1) // 2)
    terms = [((p - 1,) * space.count, sign)]
    for u, v in itertools.combinations(range(n), 2):
        yuu, yuv, yvv = mat.entry(u, u), mat.entry(u, v), mat.entry(v, v)
        inner = {yuu, yuv, yvv}
        base = [0 if i in inner else p - 1 for i in range(space.count)]
        k_values = list(range(0, (p - 1) // 2)) + list(range((p + 1) // 2, p))
        for k in k_values:
            exps = list(base)
            exps[yuu] = exps[yvv] = 3 * (p - 1) // 2 - k
            exps[yuv] = 2 * k
            terms.append((tuple(exps), (-1) ** k))
    return Polynomial(space, p, terms)


# ---------------------------------------------------------------------------
# verification jobs
# ---------------------------------------------------------------------------


@dataclass
class LemmaReport:
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


def _report(check: str, params: dict, ok: bool, evidence: dict, t0: float, failed="fail"):
    return LemmaReport(
        check=check,
        params=params,
        verdict="pass" if ok else failed,
        evidence=evidence,
        ms=(time.perf_counter() - t0) * 1000.0,
    )


@functools.lru_cache(maxsize=4)
def _hankel_data(n: int, p: int):
    """Shared Hankel objects: matrix, f_n, f_{n-1}, and f_n^{p-1} mod m^[p].

    The Frobenius power is held in a TruncatedAccumulator as packed keys:
    it reaches ~10^6 terms at (n, p) = (6, 7) and only ever needs nonzero
    tests, coefficient lookups, and further products with small polynomials.
    """
    mat = build_matrix(MatrixShape.hankel(n))
    f_n = permanent(mat, char=p)
    f_prev = permanent(mat, rows=range(n - 1), cols=range(n - 1), char=p)
    return mat, f_n, f_prev, TruncatedAccumulator.power(f_n, p - 1)


def verify_hankel_monomial_absence(n: int) -> LemmaReport:
    """CLI check `lemma31`: perm(Z_n) has no term supported on the two middle
    antidiagonal variables with the upper one present.

    The statement concerns z_{n+1}; the variant with z_{n-1} in its place is
    verified and reported alongside.
    """
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n}
    mat = build_matrix(MatrixShape.hankel(n))
    f_n = permanent(mat, char=3)

    def absent(lo_idx: int, hi_idx: int, must_appear: int) -> bool:
        # no monomial supported only on {lo_idx, hi_idx} with positive
        # exponent on must_appear
        for mono in (m for m, _ in f_n.items()):
            support = {i for i, e in enumerate(mono) if e}
            if support <= {lo_idx, hi_idx} and mono[must_appear] >= 1:
                return False
        return True

    idx_zn = n - 1
    upper_ok = True if n == 1 else absent(idx_zn, n, n)
    lower_ok = True if n == 1 else absent(n - 2, idx_zn, n - 2)
    evidence = {
        "terms": len(f_n),
        "upper_variable": None if n == 1 else mat.space.names[n],
        "upper_ok": upper_ok,
        "lower_variable": None if n == 1 else mat.space.names[n - 2],
        "lower_ok": lower_ok,
    }
    return _report("lemma31", params, upper_ok, evidence, t0)


def verify_hankel_eisenstein(n: int) -> LemmaReport:
    """CLI check `lemma32`: irreducibility conditions for perm(Z_n).

    Writing perm(Z_n) = sum a_i z_n^i over the remaining variables, the
    polynomial is monic, every lower coefficient lies in the prime generated
    by the variables other than z_n and z_{n+1}, and the constant coefficient
    contains z_1 z_{n+1}^{n-1}, which escapes the square of that prime.
    """
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n}
    if n <= 2:
        return _report("lemma32", params, True, {"small_case": True}, t0)
    mat = build_matrix(MatrixShape.hankel(n))
    f_n = permanent(mat, char=3)
    idx_zn = n - 1
    idx_up = n  # z_{n+1}
    coeffs: dict = {}
    for mono, c in f_n.items():
        i = mono[idx_zn]
        rest = tuple(0 if k == idx_zn else e for k, e in enumerate(mono))
        coeffs.setdefault(i, {})[rest] = c
    prime_indices = [i for i in range(mat.space.count) if i not in (idx_zn, idx_up)]
    monic = coeffs.get(n) == {(0,) * mat.space.count: 1}
    lower_in_prime = all(
        all(any(mono[i] for i in prime_indices) for mono in coeffs.get(i, {}))
        for i in range(n)
    )
    predicted = [0] * mat.space.count
    predicted[0] = 1
    predicted[idx_up] = n - 1
    predicted = tuple(predicted)
    a0 = coeffs.get(0, {})
    predicted_coeff = a0.get(predicted, 0)
    prime_degree = sum(predicted[i] for i in prime_indices)
    outside_square = predicted_coeff != 0 and prime_degree < 2
    ok = monic and lower_in_prime and outside_square
    evidence = {
        "monic": monic,
        "lower_coefficients_in_prime": lower_in_prime,
        "constant_term_monomial": f"z1*z{n + 1}^{n - 1}",
        "constant_term_coefficient": predicted_coeff,
        "prime_degree_of_monomial": prime_degree,
        "outside_prime_square": outside_square,
    }
    return _report("lemma32", params, ok, evidence, t0)


def verify_hankel_product_identity(n: int, p: int) -> LemmaReport:
    """CLI check `lemma34`: the exact truncated identity

    f_{n-1} f_n^{p-1} (prod z_{2i+1}) (prod z_{2i})^{p-3}
        = (-1)^{n+1} (prod_{i=1}^{2n-1} z_i)^{p-1}   mod (z_1^p, ..., z_{2n-1}^p).
    """
    if p == 2:
        raise ValueError("the identity needs p > 2")
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n, "p": p, "e": 1, "method": "truncated"}
    mat, f_n, f_prev, power = _hankel_data(n, p)
    space = mat.space
    exps = [0] * space.count
    for i in range(1, n):
        exps[2 * i] += 1  # z_{2i+1}
        exps[2 * i - 1] += p - 3  # z_{2i}
    multiplier = Polynomial.monomial(space, p, exps)
    product = power.mul_poly(f_prev).mul_poly(multiplier)
    full_support = (p - 1,) * space.count
    expected_coeff = (-1) ** (n + 1) % p
    ok = product.equals_monomial(full_support, expected_coeff)
    expected = Polynomial.monomial(space, p, full_support, expected_coeff)
    evidence = {
        "result_terms": product.nnz(),
        "result_full_support_coefficient": product.coeff(full_support),
        "expected": render_poly(expected),
        "expected_degree": (2 * n - 1) * (p - 1),
    }
    return _report("lemma34", params, ok, evidence, t0)


def verify_hankel_hypersurface(n: int, p: int) -> LemmaReport:
    """CLI check `thm35`: for the Hankel hypersurface (f_n),

    (a) the diagonal lex order z_1 > ... > z_{2n-1} gives leading term
        prod z_{2i-1};
    (b) f_n^{p-1} != 0 mod m^[p], with prod z_{2i-1}^{p-1} in its support
        (F-purity by the Fedder criterion);
    (c) f_{n-1} f_n^{p-1} != 0 mod m^[p] (the F-regularity witness).
    """
    if p == 2:
        raise ValueError("the check needs p > 2")
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n, "p": p, "e": 1, "method": "truncated"}
    mat, f_n, f_prev, power = _hankel_data(n, p)
    space = mat.space
    diag = tuple(1 if i % 2 == 0 else 0 for i in range(space.count))
    lt = leading_term(f_n, LEX)
    lt_ok = lt == (diag, 1)
    diag_power = tuple(e * (p - 1) for e in diag)
    fpure_ok = not power.is_zero
    support_ok = power.coeff(diag_power) != 0
    witness = power.mul_poly(f_prev)
    freg_ok = not witness.is_zero
    evidence = {
        "leading_term_ok": lt_ok,
        "fpure_survivor_terms": power.nnz(),
        "diagonal_power_coefficient": power.coeff(diag_power),
        "fregularity_witness_terms": witness.nnz(),
        "fregularity_witness_nonzero": freg_ok,
    }
    # (a) and (b) are if-and-only-if criteria; (c) is a positive certificate
    # only, so its failure alone leaves the F-regularity question open
    report = _report("thm35", params, lt_ok and fpure_ok and support_ok, evidence, t0)
    if report.verdict == "pass" and not freg_ok:
        report.verdict = "inconclusive"
    return report


def verify_hankel_specialization_check(n: int) -> LemmaReport:
    """CLI check `thm36`: specializing entry (i, j) to z_{i+j-1} carries the
    generic (and symmetric) permanent onto the Hankel one, with the expected
    number of independent identifications.
    """
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n}
    char = 3
    hankel_perm = permanent(build_matrix(MatrixShape.hankel(n)), char=char)

    sp_generic = hankel_specialization(n, char=char, kind=GENERIC)
    generic_perm = permanent(build_matrix(MatrixShape.generic(n, n)), char=char)
    generic_ok = substitute(generic_perm, sp_generic.mapping) == hankel_perm
    generic_count_ok = sp_generic.identifications == (n - 1) ** 2

    sp_sym = hankel_specialization(n, char=char, kind=SYMMETRIC)
    sym_perm = permanent(build_matrix(MatrixShape.symmetric(n)), char=char)
    sym_ok = substitute(sym_perm, sp_sym.mapping) == hankel_perm
    sym_count_ok = sp_sym.identifications == (n - 1) * (n - 2) // 2

    ok = generic_ok and generic_count_ok and sym_ok and sym_count_ok
    evidence = {
        "generic_substitution_ok": generic_ok,
        "generic_identifications": sp_generic.identifications,
        "symmetric_substitution_ok": sym_ok,
        "symmetric_identifications": sp_sym.identifications,
    }
    return _report("thm36", params, ok, evidence, t0)


def _expected_residue(shape: MatrixShape, space: VariableSpace, p: int) -> Polynomial:
    if shape.kind == GENERIC:
        return Polynomial.monomial(space, p, (p - 1,) * space.count)
    sign = (-1) ** ((p - 1) // 2)
    return Polynomial.monomial(space, p, (p - 1,) * space.count, sign)


def verify_witness_membership(shape: MatrixShape, p: int) -> LemmaReport:
    """CLI checks `witness-generic` / `witness-symmetric`: the witness f lies
    in every minimal-prime colon ideal and survives modulo m^[p]."""
    t0 = time.perf_counter()
    if shape.kind == GENERIC:
        check = "witness-generic"
        m, n = shape.nrows, shape.ncols
        f = witness_generic(m, n, p)
        primes = minimal_primes_generic(m, n)
    elif shape.kind == SYMMETRIC:
        check = "witness-symmetric"
        n = shape.nrows
        f = witness_symmetric(n, p)
        primes = minimal_primes_symmetric(n)
    else:
        raise ValueError("witness membership applies to generic and symmetric shapes")
    params = {
        "shape": shape.spec_string(),
        "m": shape.nrows,
        "n": shape.ncols,
        "p": p,
        "e": 1,
    }
    residue = truncate(f)
    expected = _expected_residue(shape, f.space, p)
    residue_ok = residue == expected
    memberships = []
    all_member = True
    for prime in primes:
        cert = colon_membership(f, prime)
        ok = cert is not None and cert.replay(f.space, p) == f
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
        mat = build_matrix(shape)
        diag_vars = {mat.entry(i, i) for i in range(shape.nrows)}
        off_diag = tuple(
            0 if i in diag_vars else p - 1 for i in range(f.space.count)
        )
        alt = Polynomial.monomial(f.space, p, off_diag)
        evidence["residue_equals_unsigned_offdiagonal_product"] = residue == alt
    ok = residue_ok and all_member
    return _report(check, params, ok, evidence, t0)


def verify_fpure(
    shape: MatrixShape, t: int, p: int, method: str = "truncated", threads: int = 1
) -> LemmaReport:
    """CLI check `fpure`: the Fedder criterion for a whitelisted complete
    intersection P_t of the given shape.

    The default route is symbolic truncated powering; "pointcount" and
    "fiber" go through the full-support coefficient.  They need the product
    omega of the generators to have degree equal to the variable count: then
    omega^{p-1} mod m^[p] is a multiple of prod x_i^{p-1}, so F-purity is
    that coefficient being nonzero.
    """
    t0 = time.perf_counter()
    params = {"shape": shape.spec_string(), "m": shape.nrows, "n": shape.ncols,
              "t": t, "p": p, "e": 1, "method": method}
    mat = build_matrix(shape)
    gens = permanental_generators(mat, t, char=p)
    if method == "truncated":
        survivor = frobcheck.fedder_ci_check(gens).surviving_term
    else:
        coeff = fedder_coefficient_fullsupport(gens, method=method, threads=threads)
        survivor = ((p - 1,) * mat.space.count, coeff) if coeff else None
    passed = survivor is not None
    evidence = {
        "generators": len(gens.generators),
        "duplicates": len(gens.duplicates),
        "passed": passed,
        "survivor": None
        if survivor is None
        else render_poly(Polynomial.monomial(mat.space, p, *survivor)),
    }
    return _report("fpure", params, passed, evidence, t0)


def _entry_products_in_p2(
    check: str, mat: SymbolicMatrix, p: int, exponents, degree: int
) -> LemmaReport:
    """Shared body of `monomials28` / `monomials29`: every target monomial lies
    in P_2 of the generic matrix, decided by linear algebra at the degree, with
    one shared system for all targets."""
    from .linmember import members_bounded

    t0 = time.perf_counter()
    params = {"shape": mat.shape.spec_string(), "m": mat.nrows, "n": mat.ncols, "p": p}
    gens = permanental_generators(mat, 2, char=p)
    targets = [Polynomial.monomial(mat.space, p, e) for e in sorted(exponents)]
    combinations = members_bounded(targets, gens.generators, degree)
    failures = [render_poly(t) for t, comb in zip(targets, combinations) if comb is None]
    evidence = {"targets": len(targets), "members": len(targets) - len(failures),
                "failures": failures}
    return _report(check, params, not failures and bool(targets), evidence, t0)


def verify_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials28`: every product of three entries from three
    distinct columns and two distinct rows (n >= 3), or the transpose
    configuration (m >= 3), lies in P_2, decided at d = 3."""
    mat = build_matrix(MatrixShape.generic(m, n))
    exponents = set()

    def add(rows, cols):
        exps = [0] * mat.space.count
        for r, c in zip(rows, cols):
            exps[mat.entry(r, c)] += 1
        exponents.add(tuple(exps))

    if n >= 3:
        for cols in itertools.combinations(range(n), 3):
            for rows in itertools.product(range(m), repeat=3):
                if len(set(rows)) == 2:
                    add(rows, cols)
    if m >= 3:
        for rows in itertools.combinations(range(m), 3):
            for cols in itertools.product(range(n), repeat=3):
                if len(set(cols)) == 2:
                    add(rows, cols)
    return _entry_products_in_p2("monomials28", mat, p, exponents, 3)


def verify_squared_entry_triples(m: int, n: int, p: int) -> LemmaReport:
    """CLI check `monomials29`: every product x_{i1 j1}^2 x_{i2 j2} x_{i3 j3}
    with distinct rows and distinct columns lies in P_2, at d = 4."""
    if m < 3 or n < 3:
        raise ValueError("the squared-entry products need m, n >= 3")
    mat = build_matrix(MatrixShape.generic(m, n))
    exponents = set()
    for rows in itertools.permutations(range(m), 3):
        for cols in itertools.permutations(range(n), 3):
            exps = [0] * mat.space.count
            exps[mat.entry(rows[0], cols[0])] += 2
            exps[mat.entry(rows[1], cols[1])] += 1
            exps[mat.entry(rows[2], cols[2])] += 1
            exponents.add(tuple(exps))
    return _entry_products_in_p2("monomials29", mat, p, exponents, 4)


def scan_three_by_four_fpurity(p_list, method: str = "truncated", threads: int = 1) -> LemmaReport:
    """CLI check `conjecture45`: Fedder coefficient of the generic 3x4 / t=3
    complete intersection across primes, compared with the p = 1 mod 6 rule."""
    t0 = time.perf_counter()
    p_list = list(p_list)
    params = {"shape": "generic:3x4", "m": 3, "n": 4, "t": 3, "method": method,
              "p": ",".join(str(p) for p in p_list), "e": 1}
    per_p = []
    all_ok = True
    for p in p_list:
        mat = build_matrix(MatrixShape.generic(3, 4))
        gens = permanental_generators(mat, 3, char=p)
        coeff = fedder_coefficient_fullsupport(gens, method=method, threads=threads)
        fpure = coeff != 0
        predicted = p % 6 == 1
        ok = fpure == predicted
        all_ok = all_ok and ok
        per_p.append(
            {"p": p, "coefficient": coeff, "fpure": fpure, "predicted_fpure": predicted, "ok": ok}
        )
    return _report("conjecture45", params, all_ok, {"per_p": per_p}, t0)
