"""Exact integer identities for the all-ones multiplication maps, checked
as numbers rather than through verdicts:

- the paper's criterion matrix M and the plateau map A_d -> A_{d+1} of a
  level almost complete intersection have the same |det|;
- for (x^a, y^b, z^c) with a+b+c even and c <= a+b-2 the map at
  d = (a+b+c-4)/2 is square, and its |det| is MacMahon's count of plane
  partitions in an A x B x C box (Li-Zanello 2010);
- where det M is nonzero, the lead product that the char-0 decision keeps
  for the plateau map is +-det M, so a char-p decision reads that rank
  exactly in the characteristics where the WLP holds."""

from fractions import Fraction
from itertools import product

from lefschetz.criterion import build_M, criterion_report
from lefschetz.families import LevelAci, make_ideal, predicates
from lefschetz.fields import QQ
from lefschetz.ideals import HomogeneousIdeal, SliceCache, monomial_part
from lefschetz.matrices import det_integer
from lefschetz.rings import HomogeneousPolynomial, linear_form
from lefschetz.sweeps import level_aci_grid
from lefschetz.wlp import wlp_check

LEVEL_GRID = list(level_aci_grid(12, 4))


def all_ones_matrix(I, d) -> list:
    """The dense 0/1 matrix of x (x_1 + ... + x_r) : A_d -> A_{d+1} of a
    monomial ideal, one row per standard monomial of degree d."""
    cache = SliceCache(I, QQ)
    ones = linear_form(I.num_vars, [1] * I.num_vars, QQ)
    ncols = len(cache.std(d + 1))
    dense = []
    for row in cache.multiple_rows(ones, cache.std(d), d + 1):
        out = [0] * ncols
        for j, a in row.items():
            out[j] = a
        dense.append(out)
    return dense


def test_det_M_is_the_det_of_the_plateau_map():
    zeros = 0
    for point in LEVEL_GRID:
        I = make_ideal(LevelAci(*point), QQ)
        d = predicates(LevelAci(*point)).twin_peaks_degree
        det = abs(det_integer(build_M(*point)))
        assert abs(det_integer(all_ones_matrix(I, d))) == det, point
        zeros += det == 0
    assert 0 < zeros < len(LEVEL_GRID)


def plane_partitions(A: int, B: int, C: int) -> int:
    """MacMahon's box formula: plane partitions in an A x B x C box."""
    count = Fraction(1)
    for i, j, k in product(range(1, A + 1), range(1, B + 1),
                           range(1, C + 1)):
        count *= Fraction(i + j + k - 1, i + j + k - 2)
    assert count.denominator == 1
    return count.numerator


CI_TRIPLES = [(a, b, c) for a in range(2, 9) for b in range(a, 9)
              for c in range(b, min(a + b - 2, 10) + 1) if (a + b + c) % 2 == 0]


def test_complete_intersection_det_counts_plane_partitions():
    for a, b, c in CI_TRIPLES:
        I = HomogeneousIdeal(3, [HomogeneousPolynomial(3, k, {e: 1})
                                 for k, e in ((a, (a, 0, 0)), (b, (0, b, 0)),
                                              (c, (0, 0, c)))])
        m = all_ones_matrix(I, (a + b + c - 4) // 2)
        assert len(m) == len(m[0]), (a, b, c)
        assert abs(det_integer(m)) == plane_partitions(
            (a + b - c) // 2, (a - b + c) // 2, (b + c - a) // 2), (a, b, c)


def test_every_prime_of_det_M_divides_the_plateau_lead_product():
    read = 0
    for point in LEVEL_GRID:
        monomial_part.cache_clear()
        I = make_ideal(LevelAci(*point), QQ)
        wlp_check(I, QQ)
        d = predicates(LevelAci(*point)).twin_peaks_degree
        rank, lead_product = SliceCache(I, QQ).shared.all_ones[d]
        report = criterion_report(*point)
        assert (rank == len(SliceCache(I, QQ).std(d))) == (report.det != 0)
        if report.det:
            assert abs(lead_product) == abs(report.det), point
            read += 1
    assert read
