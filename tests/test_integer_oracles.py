"""Exact integer identities for the all-ones multiplication maps, checked
as numbers rather than through verdicts:

- the paper's criterion matrix M and the plateau map A_d -> A_{d+1} of a
  level almost complete intersection have the same |det|;
- for (x^a, y^b, z^c) with a+b+c even and c <= a+b-2 the map at
  d = (a+b+c-4)/2 is square, and its |det| is MacMahon's count of plane
  partitions in an A x B x C box (Li-Zanello 2010);
- where det M is nonzero, the lead product D' of the core of the unit
  split that the char-0 decision makes for the plateau map
  (``MonomialPart.all_ones_rank``), from the slice of the restriction J
  of the ideal to r - 1 variables (the restriction lemma of ``ideals``),
  is +-det M, so a char-p decision reads
  that rank without eliminating exactly in the characteristics where the
  WLP holds.

The determinant and the minor gcd run on the library's elimination kernel,
so they are also checked against code that shares none of it: sympy's
determinant over ZZ (signed) and Smith normal form, and the gcd of the
maximal minors by enumerating them."""

import random
from fractions import Fraction
from itertools import product
from math import prod

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from lefschetz.criterion import (build_M, criterion_report,
                                 r4_surjectivity_matrix)
from lefschetz.families import LevelAci, make_ideal, predicates
from lefschetz.fields import QQ
from lefschetz.ideals import HomogeneousIdeal, SliceCache, monomial_part
from lefschetz.matrices import det_integer, gcd_of_maximal_minors
from lefschetz.rings import HomogeneousPolynomial, linear_form
from lefschetz.sweeps import level_aci_grid
from lefschetz.wlp import wlp_check
from oracles import gcd_of_maximal_minors_brute

LEVEL_GRID = list(level_aci_grid(12, 4))


def all_ones_matrix(I, d) -> list:
    """The dense 0/1 matrix of x (x_1 + ... + x_r) : A_d -> A_{d+1} of a
    monomial ideal, one row per standard monomial of degree d."""
    cache = SliceCache(I, QQ)
    ones = linear_form(I.num_vars, [1] * I.num_vars, QQ)
    ncols = len(cache.shared.std(d + 1))
    dense = []
    for row in cache.multiple_rows(ones, cache.shared.std(d), d + 1):
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
        part = SliceCache(I, QQ).shared
        rank, read = part.all_ones_rank(d, 0)  # split by the decision
        assert read
        lead_product = part.all_ones[d][3]
        report = criterion_report(*point)
        assert (rank == len(SliceCache(I, QQ).shared.std(d))) == (report.det != 0)
        if report.det:
            assert abs(lead_product) == abs(report.det), point
            read += 1
    assert read


def det_sympy(m) -> int:
    """The determinant over ZZ of sympy's DomainMatrix."""
    return int(DomainMatrix([[ZZ(a) for a in row] for row in m],
                            (len(m), len(m)), ZZ).det())


def test_det_integer_equals_sympy_on_every_M():
    for point in LEVEL_GRID:
        M = build_M(*point)
        assert det_integer(M) == det_sympy(M), point


def test_det_integer_equals_sympy_on_the_all_ones_maps():
    # every third plateau map, from the last and largest (96 x 96): sympy
    # takes 1.7 s on all 96 of them, against 0.6 s on these 32
    maps = [all_ones_matrix(make_ideal(LevelAci(*point), QQ),
                            predicates(LevelAci(*point)).twin_peaks_degree)
            for point in LEVEL_GRID[::-3]]
    for a, b, c in CI_TRIPLES:
        I = HomogeneousIdeal(3, [HomogeneousPolynomial(3, k, {e: 1})
                                 for k, e in ((a, (a, 0, 0)), (b, (0, b, 0)),
                                              (c, (0, 0, c)))])
        maps.append(all_ones_matrix(I, (a + b + c - 4) // 2))
    assert max(map(len, maps)) == 96
    for m in maps:
        assert det_integer(m) == det_sympy(m)


def test_det_sign_flips_under_a_row_swap():
    flipped = 0
    for point in LEVEL_GRID:
        M = build_M(*point)
        det = det_integer(M)
        for i in range(1, len(M)):
            swapped = [M[i]] + M[1:i] + [M[0]] + M[i + 1:]
            assert det_integer(swapped) == -det, (point, i)
        flipped += det != 0 and len(M) > 1
    assert flipped


def test_minor_gcd_of_the_r4_matrix_is_the_product_of_its_invariants():
    m = r4_surjectivity_matrix()
    snf = smith_normal_form(Matrix(m), domain=ZZ)
    invariants = [int(snf[i, i]) for i in range(len(m[0]))]
    assert [a for a in invariants if a != 1] == [2, 2, 8, 160]
    assert gcd_of_maximal_minors(m) == prod(invariants) == 5120


def test_minor_gcd_matches_the_enumeration_on_random_tall_matrices():
    rng = random.Random(16)
    zero = 0
    for _ in range(400):
        cols = rng.randint(1, 4)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)]
                for _ in range(cols + rng.randint(0, 3))]
        if rng.random() < 0.2:
            rows[rng.randrange(len(rows))] = [0] * cols
        if rng.random() < 0.2:  # a column that is a multiple of another
            k = rng.randint(-3, 3)
            for row in rows:
                row[-1] = k * row[0]
        g = gcd_of_maximal_minors_brute(rows)
        assert gcd_of_maximal_minors(rows) == g, rows
        zero += g == 0
    assert 0 < zero < 400
