"""The binomial determinant criterion for level codim-3 quotients, plus the
explicit characteristic-free witnesses used for the product families.

The criterion matrix M = M(alpha, beta, gamma, t) is square of size
n = t + (alpha + beta - 2 gamma)/3; the quotient loses the WLP exactly in the
characteristics dividing det M (every characteristic when det M = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb

from .fields import QQ
from .matrices import det_integer, factor, perm_sign
from .rings import (HomogeneousPolynomial, degree_monomials, linear_form,
                    poly_mul, poly_pow)


def _hypotheses(alpha: int, beta: int, gamma: int, t: int):
    if not 0 < alpha <= beta <= gamma:
        raise ValueError(f"need 0 < alpha <= beta <= gamma; got ({alpha},{beta},{gamma})")
    if gamma > 2 * (alpha + beta):
        raise ValueError(f"need gamma <= 2(alpha+beta); got gamma={gamma}")
    if (alpha + beta + gamma) % 3 != 0:
        raise ValueError("need alpha+beta+gamma divisible by 3")
    s = (alpha + beta + gamma) // 3
    if t < s:
        raise ValueError(f"need t >= (alpha+beta+gamma)/3 = {s}; got t={t}")
    n = t + (alpha + beta - 2 * gamma) // 3
    if n < 1:
        raise ValueError("criterion inapplicable: matrix size < 1")
    return s, n


def build_M(alpha: int, beta: int, gamma: int, t: int) -> list:
    """The integer criterion matrix, as a list of int rows.

    With s = (alpha+beta+gamma)/3 and n = t + (alpha+beta-2 gamma)/3:
    top block rows i = 0..t-s-1 have entry(i, j) = binom(gamma, s+i-j);
    bottom block rows i = 0..(2 alpha + 2 beta - gamma)/3 - 1 have
    entry(i, j) = binom(gamma+t, t+beta-1-i-j).
    """
    s, n = _hypotheses(alpha, beta, gamma, t)
    rows = []
    for i in range(t - s):
        rows.append([comb(gamma, s + i - j) if 0 <= s + i - j <= gamma else 0
                     for j in range(n)])
    for i in range((2 * alpha + 2 * beta - gamma) // 3):
        rows.append([comb(gamma + t, t + beta - 1 - i - j)
                     if 0 <= t + beta - 1 - i - j <= gamma + t else 0
                     for j in range(n)])
    assert len(rows) == n
    return rows


@dataclass
class CriterionReport:
    alpha: int
    beta: int
    gamma: int
    t: int
    M: list  # int rows
    det: int
    factors: dict  # {prime: exponent}; empty when det is 0 or +-1
    failing_characteristics: set  # primes p with det = 0 mod p; 0 when det = 0

    @property
    def size(self) -> int:
        return len(self.M)

    def fails_in(self, characteristic: int) -> bool:
        if self.det == 0:
            return True
        if characteristic == 0:
            return False
        return self.det % characteristic == 0


def criterion_report(alpha: int, beta: int, gamma: int, t: int) -> CriterionReport:
    """Matrix, determinant, factorization, and failing characteristics.

    The determinant is reported as an absolute value: its sign depends only
    on the row-ordering convention and carries no information about the WLP.
    """
    M = build_M(alpha, beta, gamma, t)
    det = abs(det_integer(M))
    if det == 0:
        factors: dict = {}
        failing = {0}
    else:
        factors, cofactor = factor(det)
        if cofactor != 1:
            raise ArithmeticError(f"incomplete factorization of {det}")
        failing = set(factors)
    return CriterionReport(alpha, beta, gamma, t, M, det, factors, failing)


def vandermonde_determinant_form(num_vars: int) -> HomogeneousPolynomial:
    """F = sum over permutations sigma of (0..n-1) of sign(sigma) *
    prod_i x_i^sigma(i), with integer coefficients."""
    return HomogeneousPolynomial.from_terms(
        num_vars, {perm: perm_sign(perm)
                   for perm in permutations(range(num_vars))},
        degree=num_vars * (num_vars - 1) // 2)


def _in_pure_power_ideal(poly: HomogeneousPolynomial, k: int) -> bool:
    """Membership in (x_1^k, ..., x_n^k): every surviving term must have some
    exponent >= k, so membership holds iff deleting those terms leaves zero."""
    return all(max(e) >= k for e in poly.terms)


@dataclass
class VandermondeWitness:
    r: int
    F: HomogeneousPolynomial  # in r-1 variables, integer coefficients
    first_membership: bool  # F * x_1...x_{r-1} * L in (x_1^r, ..., x_{r-1}^r)
    second_membership: bool  # F * L^r in the same ideal
    nonzero_mod_powers: bool  # F itself survives modulo the pure powers


def vandermonde_witness(r: int) -> VandermondeWitness:
    """The explicit kernel element certifying WLP failure of the pure-power
    plus full-product quotient, with both membership checks run over the
    integers (so the certificate is valid in every characteristic)."""
    if not 3 <= r <= 7:
        raise ValueError("r must be in 3..7")
    n = r - 1
    F = vandermonde_determinant_form(n)
    L = linear_form(n, [1] * n, QQ)
    product = HomogeneousPolynomial.monomial(n, (1,) * n)
    first = _in_pure_power_ideal(poly_mul(poly_mul(F, product, QQ), L, QQ), r)
    second = _in_pure_power_ideal(poly_mul(F, poly_pow(L, r, QQ), QQ), r)
    nonzero = any(max(e) <= r - 2 for e in F.terms)
    return VandermondeWitness(r, F, first, second, nonzero)


def r4_surjectivity_matrix() -> list:
    """The 30 x 28 integer matrix, as int rows, whose full column rank
    certifies the degree-4-to-6 surjectivity step in three variables.

    Rows are the products f*q for f in {w^4, x^4, y^4, (2w+x+y)^4,
    w*x*y*(w+x+y)} and q in {w^2, w*x, x^2, w*y, x*y, y^2}; columns are the
    28 degree-6 monomials in canonical order.
    """
    f4 = poly_pow(linear_form(3, [2, 1, 1], QQ), 4, QQ)
    wxy_sum = poly_mul(HomogeneousPolynomial.monomial(3, (1, 1, 1)),
                       linear_form(3, [1, 1, 1], QQ), QQ)
    fs = [HomogeneousPolynomial.monomial(3, e)
          for e in ((4, 0, 0), (0, 4, 0), (0, 0, 4))] + [f4, wxy_sum]
    qs = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    cols = degree_monomials(3, 6)
    idx = {e: i for i, e in enumerate(cols)}
    rows = []
    for f in fs:
        for q in qs:
            shifted = f.times_monomial(q)
            row = [0] * len(cols)
            for e, c in shifted.terms.items():
                row[idx[e]] = c
            rows.append(row)
    return rows
