"""Exact matrix arithmetic: rank, membership and kernel relations over Q and
F_p, integer determinants, minor gcds, and small-integer factorization.

Ranks, membership tests, kernel relations and determinants run on one
sparse elimination kernel in Python integers. A row is a dense sequence or
a ``{column: int}`` dict, the form the slice engine emits; either is read
into a new dict of its nonzero entries (residues over F_p). Rows are
reduced against pivots keyed by their lead column, the least column with a
nonzero entry: monic residues over F_p, and over Q integer rows (with
denominators cleared) under a fraction-free reduction, so every result is
exact. Determinants and minor gcds take a matrix as a list of int rows.

Rows are reduced in the order they arrive, and a row whose lead column
holds no entry of the rows before it becomes a pivot unreduced, so the
insertion order sets the fill (``ideals._slice_rows`` states the order
every row of the slice engine takes). The kernel mutates neither a row it
is given nor a stored pivot.

Over Z an echelon also keeps, for each remainder it stored, its lead entry
before it was made primitive, and the scalings a/gcd(a, c) applied to its
row on the way. ``lead_product`` is D = C/S, C the product of the leads and
S that of the scalings. Both products are taken when read: rows with large
entries have large leads, and a running product would cost a big multiply
per pivot.

Lemma. For an echelon started empty, D is +-det(R_J): R the k rows that
raised the rank, J their lead columns. So for a prime p not dividing D the
rows added have the same rank over F_p as over Q.

Proof. The remainder of the i-th row of R is S_i times that row minus
rational multiples of earlier remainders (the pivots are remainders divided
by their contents); rows that reduced to zero stored nothing. By induction
the remainders are T R, T lower triangular with diagonal S_1, ..., S_k, so
on the columns J their determinant is det(T) det(R_J) = S det(R_J). There
the remainders are also triangular: each is zero left of its lead, and the
leads lie in distinct columns, so that determinant is +-C. Hence
D = +-det(R_J), an integer k x k minor of R. If p does not divide it, R
has rank k over F_p; the rank over F_p of all the rows is at least that,
and at most the rank over Q, which is k.

Corollary (``det_integer``). Add the rows of a square matrix A in order
to an empty echelon. If one does not raise the rank, det A = 0. Otherwise
R = A, J is every column, and det A = sign(l) D for l the permutation of
lead columns in row order: sorting the remainders by lead column makes
them upper triangular with the leads on the diagonal.

Unit split (``unit_split``). Reduce integer rows A over Z in order, each
against the pivots stored so far, keeping a remainder as a pivot only when
its lead entry is +-1 (negated to +1); every other nonzero remainder is set
aside in the core. At the end each core row is cleared of the pivot
columns, in ascending column order: a pivot is zero left of its lead, so
clearing column j leaves the columns before it as they were.

Lemma. With P the k pivots and C' the cleared core, rank_F(A) = k +
rank_F(C') in every field F, Q and each F_p alike.

Proof. Each step subtracts an integer multiple of a pivot from a row, or
negates a row: invertible over Z, so U A = [P; C'; 0] for a U with det
+-1, invertible mod every p too, and A and U A have the same rank over F.
On the lead columns J of P, P is unit upper triangular once sorted by
lead, and C' is zero. So a combination x P + y C' = 0 has x = 0 (read on
J), and then y C' = 0: the rows of P and C' are independent in F exactly
when those of C' are. Since rank_F(C') may still drop mod p after C' has
full rank over Q, the split stops early only when k = ncols.

``ideals.MonomialPart.all_ones_rank`` splits, for a monomial ideal's
all-ones map x L : A_d -> A_{d+1}, not the map's own h_d rows but the
rows of the degree-(d+1) slice of J, the image of I in r - 1 variables
under x_1 -> -(x_2 + ... + x_r): the map's cokernel is (S/J)_{d+1} over
Z, hence in every field, and the map's rank is h_{d+1} - n + k +
rank_F(C'), n the number of columns of J's rows (the restriction lemma
of ``ideals``, with its proof). At every
plateau of ``sweeps.level_aci_grid(12, 4)`` its core has at most 6 rows,
where the map itself has up to 96.

Minor gcds (``gcd_of_maximal_minors``). Subtracting a multiple of one row
from another is a unimodular U, and the maximal minors of U A are integer
combinations of those of A (Cauchy-Binet), and conversely through U^-1, so
their gcd is kept. A Euclid on the rows alone may thus clear a column down
to one entry p; every nonzero maximal minor then takes that row, and
expanding along the column gives gcd(A) = |p| gcd(A'), A' the other rows
without the column.
"""

from __future__ import annotations

from collections.abc import Mapping
from copy import copy
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

from .fields import MILLER_RABIN_BOUND, is_prime

# Unused by the library; it stays bound because the benchmark tracer
# (wlpbench/tracer.py) names mod_rank spans by it.
_CERT_PRIME = 2**31 - 1

FACTOR_BOUND = 10**6


def _reduce(row: dict, pivots: dict, p: int, scales=None) -> dict:
    """Reduce a sparse row against pivots until its lead column holds none.

    ``pivots`` maps a lead column to its pivot, a list of (column, entry)
    pairs in column order. Returns the remainder, empty exactly when the
    row lies in the pivots' span. Over F_p (p > 0) the pivots are monic, so
    a step subtracts c times the pivot, c the row's lead entry. Over Z
    (p = 0) a step scales the row by a/gcd(a, c), a the pivot's lead entry,
    and subtracts c/gcd(a, c) times the pivot; each scaling other than 1 is
    appended to scales, when given.
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
            if scales is not None:
                scales.append(s)
        t = c // g
        for k, v in piv:
            x = row.get(k, 0) - t * v
            if x:
                row[k] = x
            else:
                del row[k]
    return row


def _sparse(row, p: int) -> dict:
    """A new {column: entry} dict of a row's nonzero entries, as residues
    when p > 0, from a dense row or a {column: entry} dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p:
        return {j: b for j, a in items if a and (b := a % p)}
    return {j: a for j, a in items if a}


def _pivot(rem: dict, p: int) -> list:
    """A nonzero remainder as (column, entry) pairs in column order: monic
    over F_p, primitive over Z."""
    piv = sorted(rem.items())
    if p:
        inv = pow(piv[0][1], -1, p)
        return [(k, v * inv % p) for k, v in piv]
    g = gcd(*rem.values())
    return [(k, v // g) for k, v in piv] if g > 1 else piv


def _require_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"modulus must be a prime, got {p}")


# no library caller; kept while wlpbench/tracer.py binds it (ROADMAP item 12)
def mod_rank(rows, ncols: int, p: int) -> int:
    """Rank of an integer matrix over F_p; ValueError unless p is a prime
    that is_prime decides."""
    _require_prime(p)
    return IntRowEchelon(ncols, p).extend(rows)


class IntRowEchelon:
    """Incremental exact row echelon over Z (tracking rank over Q), or over
    F_p for a prime p.

    Pivots are primitive integer rows (monic residues over F_p); the
    reduction is fraction-free, so the result is exact over the rationals.
    Over Z, ``lead_product`` is the D of the module's lemma: +-det of the
    rows that raised the rank on their lead columns.
    """

    def __init__(self, ncols: int, p: int = 0):
        if p:
            _require_prime(p)
        self.ncols = ncols
        self.p = p
        self.pivots: dict[int, list] = {}  # lead column -> (column, entry) pairs
        # over Z only, see lead_product: the stored remainders' leads, and
        # the scalings of their rows
        self.leads: list[int] = []
        self.scales: list[int] = []

    @property
    def lead_product(self) -> int:
        return prod(self.leads) // prod(self.scales)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "IntRowEchelon":
        """An echelon to add rows to without changing this one; it shares
        the stored pivot lists, which are never mutated."""
        ech = copy(self)
        ech.pivots = dict(self.pivots)
        ech.leads = list(self.leads)
        ech.scales = list(self.scales)
        return ech

    def reduce(self, row):
        """Reduce a row against the echelon; returns the (primitive) remainder
        as a dense row, all zero exactly when add() would not raise the rank."""
        out = [0] * self.ncols
        rem = _reduce(_sparse(row, self.p), self.pivots, self.p)
        for k, v in _pivot(rem, self.p) if rem else ():
            out[k] = v
        return out

    def add(self, row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        scales = None if self.p else []
        rem = _reduce(_sparse(row, self.p), self.pivots, self.p, scales)
        if rem:
            piv = _pivot(rem, self.p)
            j = piv[0][0]
            self.pivots[j] = piv
            if not self.p:
                self.leads.append(rem[j])
                self.scales += scales
        return bool(rem)

    def extend(self, rows) -> int:
        """Add rows in order until the rank is full; returns the rank."""
        for row in rows:
            if self.rank == self.ncols:
                break
            self.add(row)
        return self.rank

    def relations(self, rows):
        """Yield, for each row r_i in the span of the echelon and the earlier
        rows, an integer vector c (one entry per row) with c_i != 0 and
        sum_j c_j r_j in the echelon's span. c is supported on i and the
        earlier rows that raised the rank, so it is unique up to scale.

        Row i carries the tag column ncols + i through the reduction; a
        remainder whose lead is a tag is a relation. The echelon itself is
        left unchanged."""
        n, p = self.ncols, self.p
        pivots = dict(self.pivots)
        for i, row in enumerate(rows):
            rem = _sparse(row, p)
            rem[n + i] = 1
            piv = _pivot(_reduce(rem, pivots, p), p)
            if piv[0][0] < n:
                pivots[piv[0][0]] = piv
            else:
                c = [0] * len(rows)
                for k, v in piv:
                    c[k - n] = v
                yield c


def unit_split(rows, ncols: int) -> tuple[int, list]:
    """(k, core) for integer rows, by the module's unit split: k pivots
    with lead +-1 and the core rows, as {column: entry} dicts zero on the
    pivots' lead columns. In every field the rows have rank k plus that of
    the core."""
    pivots: dict[int, list] = {}
    core = []
    for row in rows:
        if len(pivots) == ncols:
            break  # the core then clears to zero
        rem = _reduce(_sparse(row, 0), pivots, 0)
        if not rem:
            continue
        piv = sorted(rem.items())
        lead = piv[0][1]
        if lead == 1:
            pivots[piv[0][0]] = piv
        elif lead == -1:
            pivots[piv[0][0]] = [(k, -v) for k, v in piv]
        else:
            core.append(rem)
    for rem in core:
        todo = [j for j in rem if j in pivots]
        heapify(todo)
        while todo:
            j = heappop(todo)
            c = rem.get(j)
            if not c:
                continue  # cancelled since it was pushed
            for k, v in pivots[j]:
                x = rem.get(k, 0) - c * v
                if not x:
                    del rem[k]
                    continue
                if k not in rem and k in pivots:
                    heappush(todo, k)
                rem[k] = x
    return len(pivots), [rem for rem in core if rem]


# no library caller; kept while wlpbench/tracer.py binds it (ROADMAP item 12)
def rank_int_rows(rows, ncols: int) -> int:
    """Exact rank over Q of integer rows."""
    return IntRowEchelon(ncols).extend(rows)


def clear_denominators(row):
    """Scale a row of ints/Fractions to a primitive integer row.

    A mapping, such as a sparse {column: entry} row, raises TypeError:
    iterating it would read its keys as the entries."""
    if isinstance(row, Mapping):
        raise TypeError("clear_denominators takes a sequence of entries, "
                        "not a mapping")
    den = lcm(*(a.denominator for a in row))
    out = [a.numerator * (den // a.denominator) for a in row]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _int_rows(rows) -> tuple[list, int]:
    """Copies of the rows of an integer matrix, and their common length.

    Raises ValueError for ragged rows or an entry that is not an int (a
    Fraction would otherwise be truncated by the integer division)."""
    out = [list(row) for row in rows]
    ncols = len(out[0]) if out else 0
    for row in out:
        if len(row) != ncols:
            raise ValueError("matrix rows differ in length")
        for a in row:
            if not isinstance(a, int):
                raise ValueError(f"entry {a!r} is not an integer")
    return out, ncols


def perm_sign(perm) -> int:
    """The sign of a permutation of 0..n-1, given as the list of images:
    -1 to the number of transpositions that sort it."""
    perm, sign = list(perm), 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            sign = -sign
    return sign


def det_integer(m) -> int:
    """Exact determinant of a square matrix of int rows, from the echelon of
    its rows (the module's corollary)."""
    a, ncols = _int_rows(m)
    if len(a) != ncols:
        raise ValueError(
            f"determinant needs a square matrix, got {len(a)}x{ncols}")
    ech = IntRowEchelon(ncols)
    for row in a:
        if not ech.add(row):
            return 0
    return perm_sign(list(ech.pivots)) * ech.lead_product


def factor(n: int):
    """Factor |n| by trial division up to FACTOR_BOUND.

    Returns (factors, cofactor) where factors is a {prime: exponent} dict and
    cofactor is 1 when the factorization is complete, otherwise the unfactored
    remainder: a composite with no prime factor up to FACTOR_BOUND, or a
    number of at least MILLER_RABIN_BOUND, past what is_prime can decide.
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
        # any remaining cofactor below FACTOR_BOUND^2 must itself be prime;
        # one at or above MILLER_RABIN_BOUND stays unresolved
        if n <= FACTOR_BOUND * FACTOR_BOUND or (n < MILLER_RABIN_BOUND
                                                 and is_prime(n)):
            factors[n] = factors.get(n, 0) + 1
            n = 1
    return factors, n


def gcd_of_maximal_minors(m) -> int:
    """Gcd of the absolute values of all maximal (cols x cols) minors of a
    matrix of int rows, by a Euclid on its rows (see the module docstring):
    in each column the pivot is the live row with the least nonzero entry
    there in absolute value."""
    live, cols = _int_rows(m)
    if len(live) < cols:
        raise ValueError("need rows >= cols")
    g = 1
    for j in range(cols):
        hit = [r for r in live if r[j]]
        while len(hit) > 1:
            piv = min(hit, key=lambda r: abs(r[j]))
            for r in hit:
                if r is not piv:
                    q = r[j] // piv[j]
                    for k in range(j, cols):
                        r[k] -= q * piv[k]
            hit = [r for r in hit if r[j]]
        if not hit:
            return 0
        g *= abs(hit[0][j])
        live.remove(hit[0])
    return g
