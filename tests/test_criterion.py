import random

import pytest

from lefschetz.criterion import (build_M, criterion_report,
                                 r4_surjectivity_matrix, vandermonde_witness)
from lefschetz.matrices import det_integer, mod_rank


def test_build_M_one_by_one():
    m = build_M(1, 1, 1, 1)
    assert m == [[2]]


def test_build_M_two_by_two():
    m = build_M(1, 1, 1, 2)
    assert m == [[1, 1], [3, 3]]
    assert det_integer(m) == 0


def test_build_M_7x7_determinant():
    m = build_M(3, 3, 3, 7)
    assert len(m) == 7 and all(len(row) == 7 for row in m)
    assert abs(det_integer(m)) == 78408


def test_build_M_corner_entries():
    from math import comb
    rng = random.Random(3)
    tuples = []
    while len(tuples) < 10:
        al = rng.randint(1, 6)
        be = rng.randint(al, 8)
        ga = rng.randint(be, 10)
        # strict inequality keeps the bottom block non-empty
        if ga >= 2 * (al + be) or (al + be + ga) % 3:
            continue
        s = (al + be + ga) // 3
        t = rng.randint(s + 1, s + 4)  # t > s so the top block is present
        if t + (al + be - 2 * ga) // 3 < 1:
            continue
        tuples.append((al, be, ga, t))
    for al, be, ga, t in tuples:
        m = build_M(al, be, ga, t)
        s = (al + be + ga) // 3
        assert m[0][0] == comb(ga, s)
        assert m[-1][0] == comb(ga + t, t + be - 1
                                        - (2 * al + 2 * be - ga) // 3 + 1)


def test_build_M_hypothesis_rejection():
    with pytest.raises(ValueError):
        build_M(1, 1, 2, 2)  # sum not divisible by 3
    with pytest.raises(ValueError):
        build_M(2, 1, 3, 2)  # not sorted
    with pytest.raises(ValueError):
        build_M(1, 1, 7, 3)  # gamma > 2(alpha+beta)
    with pytest.raises(ValueError):
        build_M(3, 3, 3, 2)  # t below (alpha+beta+gamma)/3


def test_criterion_report_known_example():
    rep = criterion_report(3, 3, 3, 7)
    assert rep.det == 78408
    assert rep.factors == {2: 3, 3: 4, 11: 2}
    assert rep.failing_characteristics == {2, 3, 11}
    assert not rep.fails_in(0) and not rep.fails_in(5)
    assert rep.fails_in(2) and rep.fails_in(11)


def test_criterion_report_degenerate():
    rep = criterion_report(1, 1, 1, 2)
    assert rep.det == 0
    assert rep.fails_in(0) and rep.fails_in(7)
    assert rep.failing_characteristics == {0}


def test_criterion_odd_k_family():
    # (1,1,1,k-1) for odd k >= 3 always degenerates
    for k in (3, 5, 7, 9):
        assert criterion_report(1, 1, 1, k - 1).det == 0


def test_vandermonde_r3_closed_form():
    w = vandermonde_witness(3)
    assert w.F.terms == {(0, 1): 1, (1, 0): -1}
    assert w.first_membership and w.second_membership and w.nonzero_mod_powers


def test_vandermonde_shape():
    from math import comb, factorial
    for r in (4, 5, 6):
        w = vandermonde_witness(r)
        assert w.F.degree == comb(r - 1, 2)
        assert len(w.F.terms) == factorial(r - 1)
        assert w.first_membership and w.second_membership
        assert w.nonzero_mod_powers


def test_vandermonde_range():
    with pytest.raises(ValueError):
        vandermonde_witness(2)


def test_r4_matrix_shape_and_trivial_row():
    m = r4_surjectivity_matrix()
    assert len(m) == 30 and all(len(row) == 28 for row in m)
    # first row: w^4 * w^2 = w^6, the leading column in canonical order
    assert m[0][0] == 1
    assert all(a == 0 for a in m[0][1:])


def test_r4_matrix_multinomial_row():
    from lefschetz.rings import degree_monomials
    m = r4_surjectivity_matrix()
    cols = degree_monomials(3, 6)
    # (2w+x+y)^4 * y^2 row: coefficient of w^2*x*y^3 is 4!/(2!1!1!) * 2^2 = 48
    row = m[3 * 6 + 5]
    assert row[cols.index((2, 1, 3))] == 48
    # coefficient of w^4*y^2 comes from the pure (2w)^4 term
    assert row[cols.index((4, 0, 2))] == 16


def test_r4_matrix_rank_profile():
    m = r4_surjectivity_matrix()
    ent = [[int(a) for a in row] for row in m]
    for p, full in ((2, False), (3, True), (5, False), (7, True), (11, True)):
        assert (mod_rank(ent, 28, p) == 28) is full
