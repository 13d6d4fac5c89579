"""Exact matrix arithmetic: rank over Q and F_p, fraction-free determinants,
minor gcds, and small-integer factorization.

Rank over the rationals is computed on integer rows (denominators cleared).
A modular elimination over a fixed 31-bit prime gives a fast certificate
whenever the rank is full; only rank-deficient matrices fall through to the
exact integer echelon.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt

import numpy as np

from .fields import QQ, FieldSpec, is_prime

# Any modular rank is a lower bound for the rank over Q; with this prime the
# bound is tight exactly when elimination reaches min(rows, cols).
_CERT_PRIME = 2**31 - 1

# mod_rank multiplies two residues in np.int64, so it needs p*p < 2^63
MAX_MOD_RANK_PRIME = isqrt(2**63 - 1)

FACTOR_BOUND = 10**6
MINOR_COLS_CAP = 28
MINOR_COUNT_CAP = 10**4


def mod_rank(rows, ncols: int, p: int) -> int:
    """Rank of an integer matrix over F_p (vectorized elimination).

    Raises ValueError for p > MAX_MOD_RANK_PRIME, where the int64
    products would overflow."""
    if p > MAX_MOD_RANK_PRIME:
        raise ValueError(f"prime {p} is too large for int64 elimination "
                         "(need p*p < 2^63)")
    if not rows or ncols == 0:
        return 0
    A = np.array(rows, dtype=np.int64) % p
    m = A.shape[0]
    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        nz = np.nonzero(A[rank:, col])[0]
        if nz.size == 0:
            continue
        i = rank + int(nz[0])
        if i != rank:
            A[[rank, i]] = A[[i, rank]]
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank] = A[rank] * inv % p
        below = np.nonzero(A[rank + 1:, col])[0] + rank + 1
        if below.size:
            A[below] = (A[below] - np.outer(A[below, col], A[rank])) % p
        rank += 1
    return rank


def _primitive(row):
    g = 0
    for a in row:
        g = gcd(g, a)
        if g == 1:
            return row
    if g > 1:
        return [a // g for a in row]
    return row


class IntRowEchelon:
    """Incremental exact row echelon over Z (tracking rank over Q).

    Rows are kept primitive with integer entries; no divisions beyond exact
    gcd reduction, so the result is exact over the rationals.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, list] = {}  # lead column -> primitive row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _lead(self, row):
        for j, a in enumerate(row):
            if a:
                return j
        return -1

    def reduce(self, row):
        """Reduce a row against the echelon; returns the (primitive) remainder."""
        row = list(row)
        while True:
            j = self._lead(row)
            if j < 0 or j not in self.pivots:
                return _primitive(row) if j >= 0 else row
            piv = self.pivots[j]
            a, b = piv[j], row[j]
            row = [a * x - b * y for x, y in zip(row, piv)]
            row = _primitive(row)

    def add(self, row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        rem = self.reduce(row)
        j = self._lead(rem)
        if j < 0:
            return False
        self.pivots[j] = rem
        return True


def rank_int_rows(rows, ncols: int) -> int:
    """Exact rank over Q of integer rows."""
    rows = [r for r in rows if any(r)]
    if not rows or ncols == 0:
        return 0
    bound = min(len(rows), ncols)
    r = mod_rank(rows, ncols, _CERT_PRIME)
    if r == bound:
        return r
    ech = IntRowEchelon(ncols)
    for row in rows:
        ech.add(row)
        if ech.rank == bound:
            break
    return ech.rank


def clear_denominators(row):
    """Scale a row of Fractions/ints to a primitive integer row."""
    lcm = 1
    for a in row:
        if isinstance(a, Fraction):
            d = a.denominator
            lcm = lcm * d // gcd(lcm, d)
    out = []
    for a in row:
        if isinstance(a, Fraction):
            out.append(int(a * lcm))
        else:
            out.append(a * lcm)
    return _primitive(out)


def rank_rows(rows, ncols: int, field: FieldSpec) -> int:
    """Rank of rows (entries in the given field) over that field."""
    if field.characteristic == 0:
        return rank_int_rows([clear_denominators(r) for r in rows], ncols)
    return mod_rank(rows, ncols, field.characteristic)


@dataclass
class ExactMatrix:
    """Dense exact matrix over a FieldSpec (integers/rationals or F_p residues)."""

    rows: int
    cols: int
    entries: list
    field: FieldSpec = dfield(default_factory=lambda: QQ)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be non-negative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match dimensions")

    @classmethod
    def from_rows(cls, entries, field: FieldSpec = QQ) -> "ExactMatrix":
        entries = [[field.reduce(a) for a in row] for row in entries]
        return cls(len(entries), len(entries[0]) if entries else 0, entries, field)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           [list(col) for col in zip(*self.entries)] if self.entries else [],
                           self.field)


def rank(m: ExactMatrix) -> int:
    return rank_rows(m.entries, m.cols, m.field)


def det_integer(m: ExactMatrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return _bareiss([list(map(int, row)) for row in m.entries])


def _bareiss(a) -> int:
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            row_k = a[k]
            for j in range(k + 1, n):
                ai[j] = (pk * ai[j] - aik * row_k[j]) // prev
            ai[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def det_cofactor(entries) -> int:
    """Cofactor-expansion determinant; independent oracle for small matrices."""
    n = len(entries)
    if n == 0:
        return 1
    if n == 1:
        return entries[0][0]
    total = 0
    for j in range(n):
        if entries[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        total += (-1) ** j * entries[0][j] * det_cofactor(minor)
    return total


def factor(n: int):
    """Factor |n| by trial division up to FACTOR_BOUND.

    Returns (factors, cofactor) where factors is a {prime: exponent} dict and
    cofactor is 1 when the factorization is complete, otherwise the unfactored
    remainder.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d <= FACTOR_BOUND and d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        # any remaining cofactor below FACTOR_BOUND^2 must itself be prime
        if n <= FACTOR_BOUND * FACTOR_BOUND or is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            n = 1
    return factors, n


def gcd_of_maximal_minors(m: ExactMatrix) -> int:
    """Gcd of the absolute values of all maximal (cols x cols) minors."""
    if m.rows < m.cols:
        raise ValueError("need rows >= cols")
    if m.cols > MINOR_COLS_CAP:
        raise ValueError(f"cols {m.cols} exceeds cap {MINOR_COLS_CAP}")
    if comb(m.rows, m.cols) > MINOR_COUNT_CAP:
        raise ValueError("too many maximal minors for desk scale")
    entries = [list(map(int, row)) for row in m.entries]
    g = 0
    for subset in combinations(range(m.rows), m.cols):
        sub = [entries[i][:] for i in subset]
        g = gcd(g, abs(_bareiss(sub)))
        if g == 1:
            return 1
    return g
