"""The Hankel lemmas 3.1-3.6: the checks behind `lemma31`, `lemma32`,
`lemma34`, `thm35` and `thm36`.

They need only the permanents of the Hankel matrix and truncated products.
This module imports `fppoly`, `shapes` and the report type, never
`frobcheck` or `witnesses`; `lemma34` and `thm35` import `truncated` when
they run, so `lemma31`, `lemma32` and `thm36` jobs never compile it.
"""

from __future__ import annotations

import time

from .fppoly import LEX, Polynomial, leading_term, render_poly
from .report import LemmaReport, make_report
from .shapes import MatrixShape, hankel_image, permanent


def _hankel_permanents(n: int, p: int) -> tuple:
    """The variable space, f_n = perm(Z_n) and f_{n-1}, the permanent of its
    leading (n-1) x (n-1) block, over F_p: the inputs of lemma34 and thm35."""
    shape = MatrixShape.hankel(n)
    f_n = permanent(shape, char=p)
    f_prev = permanent(shape, rows=range(n - 1), cols=range(n - 1), char=p)
    return shape.space, f_n, f_prev


def verify_hankel_monomial_absence(n: int) -> LemmaReport:
    """CLI check `lemma31`: perm(Z_n) has no term supported on the two middle
    antidiagonal variables with the upper one present.

    The statement concerns z_{n+1}; the variant with z_{n-1} in its place is
    verified and reported alongside.
    """
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n}
    # char 3 until report schema 2 (ROADMAP item 3): perfbench/references/hankel.json pins it
    f_n = permanent(MatrixShape.hankel(n), char=3)

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
        "upper_variable": None if n == 1 else f_n.space.names[n],
        "upper_ok": upper_ok,
        "lower_variable": None if n == 1 else f_n.space.names[n - 2],
        "lower_ok": lower_ok,
    }
    return make_report("lemma31", params, upper_ok, evidence, t0)


def verify_hankel_eisenstein(n: int) -> LemmaReport:
    """CLI check `lemma32`: irreducibility conditions for perm(Z_n).

    Writing perm(Z_n) = sum a_i z_n^i over the remaining variables, the
    polynomial is monic, every lower coefficient lies in the prime generated
    by the variables other than z_n and z_{n+1}, and the constant coefficient
    contains z_1 z_{n+1}^{n-1}, which escapes the square of that prime.
    """
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n}
    shape = MatrixShape.hankel(n)  # refuses n < 1 before the small cases
    if n <= 2:
        return make_report("lemma32", params, True, {"small_case": True}, t0)
    # char 3 until report schema 2 (ROADMAP item 3): perfbench/references/hankel.json pins it
    f_n = permanent(shape, char=3)
    v = f_n.space.count
    idx_zn = n - 1
    idx_up = n  # z_{n+1}
    coeffs: dict = {}
    for mono, c in f_n.items():
        i = mono[idx_zn]
        rest = tuple(0 if k == idx_zn else e for k, e in enumerate(mono))
        coeffs.setdefault(i, {})[rest] = c
    prime_indices = [i for i in range(v) if i not in (idx_zn, idx_up)]
    monic = coeffs.get(n) == {(0,) * v: 1}
    lower_in_prime = all(
        all(any(mono[i] for i in prime_indices) for mono in coeffs.get(i, {}))
        for i in range(n)
    )
    predicted = [0] * v
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
    return make_report("lemma32", params, ok, evidence, t0)


def verify_hankel_product_identity(n: int, p: int) -> LemmaReport:
    """CLI check `lemma34`: the exact truncated identity

    f_{n-1} f_n^{p-1} (prod z_{2i+1}) (prod z_{2i})^{p-3}
        = (-1)^{n+1} (prod_{i=1}^{2n-1} z_i)^{p-1}   mod (z_1^p, ..., z_{2n-1}^p).

    m^[p] is an ideal, so the factors may be taken in any order.  The product
    starts from the monomial multiplier and f_{n-1}, then takes f_n p - 1
    times, so every intermediate stays small: at most 147 terms at
    (n, p) = (5, 5) and 6,336 at (6, 7), where f_n^{p-1} alone has about 10^6.
    """
    from .truncated import TruncatedAccumulator
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n, "p": p, "e": 1, "method": "truncated"}
    space, f_n, f_prev = _hankel_permanents(n, p)
    exps = [0] * space.count
    for i in range(1, n):
        exps[2 * i] += 1  # z_{2i+1}
        exps[2 * i - 1] += p - 3  # z_{2i}
    product = TruncatedAccumulator(Polynomial.monomial(space, p, exps)).mul_poly(f_prev)
    product = product.mul_power(f_n, p - 1)
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
    return make_report("lemma34", params, ok, evidence, t0)


def verify_hankel_hypersurface(n: int, p: int) -> LemmaReport:
    """CLI check `thm35`: for the Hankel hypersurface (f_n),

    (a) the diagonal lex order z_1 > ... > z_{2n-1} gives leading term
        prod z_{2i-1};
    (b) f_n^{p-1} != 0 mod m^[p], with prod z_{2i-1}^{p-1} in its support
        (F-purity by the Fedder criterion);
    (c) f_{n-1} f_n^{p-1} != 0 mod m^[p] (the F-regularity witness).
    """
    from .truncated import TruncatedAccumulator
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n, "p": p, "e": 1, "method": "truncated"}
    space, f_n, f_prev = _hankel_permanents(n, p)
    # f_n^{p-1} reaches ~10^6 terms at (n, p) = (6, 7); it is held packed and
    # only ever needs nonzero tests, one coefficient and one more product
    power = TruncatedAccumulator.power(f_n, p - 1)
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
    return make_report("thm35", params, lt_ok and fpure_ok and support_ok, evidence, t0,
                       inconclusive=not freg_ok)


def verify_hankel_specialization_check(n: int) -> LemmaReport:
    """CLI check `thm36`: specializing entry (i, j) to z_{i+j-1} carries the
    generic (and symmetric) permanent onto the Hankel one, with the expected
    number of independent identifications.
    """
    t0 = time.perf_counter()
    params = {"shape": f"hankel:{n}", "n": n}
    # char 3 until report schema 2 (ROADMAP item 3): perfbench/references/hankel.json pins it
    hankel = MatrixShape.hankel(n)
    hankel_perm = permanent(hankel, char=3)
    evidence = {}
    ok = True
    for shape, expected in (
        (MatrixShape.generic(n, n), (n - 1) ** 2),
        (MatrixShape.symmetric(n), (n - 1) * (n - 2) // 2),
    ):
        renamed_ok = hankel_image(permanent(shape, char=3), shape) == hankel_perm
        identifications = shape.space.count - hankel.space.count
        evidence[f"{shape.kind}_substitution_ok"] = renamed_ok
        evidence[f"{shape.kind}_identifications"] = identifications
        ok = ok and renamed_ok and identifications == expected
    return make_report("thm36", params, ok, evidence, t0)
