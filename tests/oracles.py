"""Independent oracles used only by the tests: a cofactor determinant, the
gcd of maximal minors by enumerating them, a rank over a field for dense
rows with entries in that field, monomial divisibility, the socle of a
monomial quotient by its definition, the socle of an almost complete
intersection (x^a, y^b, z^c, x^alpha y^beta z^gamma) from its inverse
system, and the full scan of a WLP verdict: mult_map_rank in every degree."""

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from lefschetz.families import Aci3
from lefschetz.fields import FieldSpec
from lefschetz.matrices import clear_denominators, mod_rank, rank_int_rows
from lefschetz.wlp import mult_map_rank, wlp_check


def det_cofactor(entries) -> int:
    """Cofactor-expansion determinant of a small square matrix."""
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


def gcd_of_maximal_minors_brute(rows) -> int:
    """Gcd of the absolute values of every maximal minor of a small tall
    matrix, each a cofactor determinant of one choice of rows."""
    cols = len(rows[0]) if rows else 0
    g = 0
    for subset in combinations(rows, cols):
        g = gcd(g, det_cofactor(list(subset)))
    return g


def rank_rows(rows, ncols: int, field: FieldSpec) -> int:
    """Rank over the field of dense rows with entries in that field."""
    if field.characteristic == 0:
        return rank_int_rows([clear_denominators(r) for r in rows], ncols)
    return mod_rank(rows, ncols, field.characteristic)


def full_scan(I, L, field: FieldSpec) -> tuple:
    """(degrees, failures) for x L : (R/I)_d -> (R/I)_{d+1}, d = 0..D, the
    reference a WLP verdict's propagation is checked against: degrees holds
    (d, rank, injective, surjective) with each rank from mult_map_rank,
    which eliminates the rows L*m in the field and neither propagates a
    degree nor reads an integer rank; failures are the degrees where the
    rank is below min(h_d, h_{d+1})."""
    degrees, failures = [], []
    d = 0
    while (data := mult_map_rank(I, L, d, field))["h_d"]:
        rank, h_d, h_d1 = data["rank"], data["h_d"], data["h_de"]
        degrees.append((d, rank, rank == h_d, rank == h_d1))
        if rank < min(h_d, h_d1):
            failures.append(d)
        d += 1
    return degrees, failures


def assert_matches_full_scan(I, field: FieldSpec, verdict=None):
    """The verdict, wlp_check(I, field) by default, has the reports,
    failure degrees and answer of the full scan of the form it reports;
    returns it."""
    verdict = verdict or wlp_check(I, field)
    degrees, failures = full_scan(I, verdict.form_used, field)
    assert [(r.d, r.rank, r.injective, r.surjective)
            for r in verdict.reports] == degrees
    assert verdict.failure_degrees == failures
    assert verdict.has_wlp == (not failures)
    return verdict


def mono_divides(a, b) -> bool:
    """True iff the monomial with exponents a divides the one with b."""
    return all(x <= y for x, y in zip(a, b))


def socle_brute(gens, r: int) -> list:
    """The socle of k[x_1..x_r]/(gens), for exponent tuples gens with a pure
    power of every variable, by its definition: the standard monomials m
    with every m*x_i divisible by a generator. It scans the whole box below
    the least pure powers, which holds every standard monomial, and sorts
    by degree, then in canonical (descending lexicographic) order."""
    box = [min(g[i] for g in gens if g[i] and sum(map(bool, g)) == 1)
           for i in range(r)]

    def standard(m):
        return not any(mono_divides(g, m) for g in gens)

    socle = [m for m in product(*map(range, box)) if standard(m)
             and not any(standard(m[:i] + (m[i] + 1,) + m[i + 1:])
                         for i in range(r))]
    return sorted(socle, key=lambda m: (sum(m), [-a for a in m]))


@dataclass
class Aci3Metadata:
    inverse_system: list  # exponent tuples of the dual generators
    cm_type: int
    socle_degrees: list
    is_level: bool
    residual_ideal: tuple  # residual complete-intersection degrees (x, y, z powers)


def aci3_metadata(spec: Aci3) -> Aci3Metadata:
    """Inverse system, socle data, and residual ideal of the codim-3 family,
    with the convention that a dual generator with a -1 exponent is removed."""
    a, b, c = spec.a, spec.b, spec.c
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    candidates = [(a - 1, b - 1, ga - 1), (a - 1, be - 1, c - 1),
                  (al - 1, b - 1, c - 1)]
    inverse_system = []
    socle_degrees = []
    for expo in candidates:
        if min(expo) < 0:
            continue
        inverse_system.append(expo)
        socle_degrees.append(sum(expo))
    return Aci3Metadata(
        inverse_system=inverse_system,
        cm_type=len(inverse_system),
        socle_degrees=sorted(socle_degrees),
        is_level=len(set(socle_degrees)) == 1,
        residual_ideal=(a - al, b - be, c - ga),
    )
