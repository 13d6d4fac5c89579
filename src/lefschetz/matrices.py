"""Exact matrix arithmetic: rank over Q and F_p, fraction-free determinants,
minor gcds, and small-integer factorization.

Ranks over F_p and over Q run on one sparse elimination kernel in Python
integers. A row is a ``{column: entry}`` dict, reduced against pivots keyed
by their lead column. Over F_p the pivots are monic residues. Over Q the
rows are integer (denominators cleared) and the reduction is fraction-free,
so every rank is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt

from .fields import QQ, FieldSpec, is_prime

# Unused by the library; it stays bound because the benchmark tracer
# (wlpbench/tracer.py) names mod_rank spans by it.
_CERT_PRIME = 2**31 - 1

# The supported range of mod_rank and --char: primes with p*p < 2^63. The
# kernel is exact for any prime; this is the range the tests cover.
MAX_MOD_RANK_PRIME = isqrt(2**63 - 1)

FACTOR_BOUND = 10**6
MINOR_COLS_CAP = 28
MINOR_COUNT_CAP = 10**4


def _reduce(row: dict, pivots: dict, p: int) -> dict:
    """Reduce a sparse row against pivots until its lead column holds none.

    ``pivots`` maps a lead column to its pivot, a list of (column, entry)
    pairs in column order. Returns the remainder, empty exactly when the
    row lies in the pivots' span. Over F_p (p > 0) the pivots are monic, so
    a step subtracts c times the pivot, c the row's lead entry. Over Z
    (p = 0) a step scales the row by a/gcd(a, c), a the pivot's lead entry,
    and subtracts c/gcd(a, c) times the pivot.
    """
    while row:
        j = min(row)
        piv = pivots.get(j)
        if piv is None:
            break
        c = row[j]
        if p:
            for k, v in piv:
                x = (row.get(k, 0) - c * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
            continue
        a = piv[0][1]
        g = gcd(a, c)
        if a != g:
            s = a // g
            row = {k: s * x for k, x in row.items()}
        t = c // g
        for k, v in piv:
            x = row.get(k, 0) - t * v
            if x:
                row[k] = x
            else:
                del row[k]
    return row


def _sparse(row, p: int) -> dict:
    """{column: entry} of a dense row's nonzero entries, as residues when
    p > 0."""
    if p:
        return {j: b for j, a in enumerate(row) if a and (b := a % p)}
    return {j: a for j, a in enumerate(row) if a}


def _pivot(rem: dict, p: int) -> list:
    """A nonzero remainder as (column, entry) pairs in column order: monic
    over F_p, primitive over Z."""
    piv = sorted(rem.items())
    if p:
        inv = pow(piv[0][1], -1, p)
        return [(k, v * inv % p) for k, v in piv]
    g = gcd(*rem.values())
    return [(k, v // g) for k, v in piv] if g > 1 else piv


def _insert(pivots: dict, row, p: int) -> bool:
    """Reduce a dense row and store a nonzero remainder as a pivot; returns
    True if the row raised the rank."""
    rem = _reduce(_sparse(row, p), pivots, p)
    if rem:
        piv = _pivot(rem, p)
        pivots[piv[0][0]] = piv
    return bool(rem)


def mod_rank(rows, ncols: int, p: int) -> int:
    """Rank of an integer matrix over F_p.

    Raises ValueError for p > MAX_MOD_RANK_PRIME, outside the supported
    range."""
    if p > MAX_MOD_RANK_PRIME:
        raise ValueError(f"prime {p} is outside the supported range "
                         "(need p*p < 2^63)")
    pivots: dict = {}
    for row in rows:
        if len(pivots) == ncols:
            break
        _insert(pivots, row, p)
    return len(pivots)


class IntRowEchelon:
    """Incremental exact row echelon over Z (tracking rank over Q).

    Pivots are primitive integer rows; the reduction is fraction-free, so
    the result is exact over the rationals.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, list] = {}  # lead column -> (column, entry) pairs

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row):
        """Reduce a row against the echelon; returns the (primitive) remainder
        as a dense row, all zero exactly when add() would not raise the rank."""
        out = [0] * self.ncols
        rem = _reduce(_sparse(row, 0), self.pivots, 0)
        for k, v in _pivot(rem, 0) if rem else ():
            out[k] = v
        return out

    def add(self, row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        return _insert(self.pivots, row, 0)


def rank_int_rows(rows, ncols: int) -> int:
    """Exact rank over Q of integer rows."""
    ech = IntRowEchelon(ncols)
    for row in rows:
        if ech.rank == ncols:
            break
        ech.add(row)
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
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


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
