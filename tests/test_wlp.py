from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import wlp
from lefschetz.families import Jr, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import (HomogeneousIdeal, SliceCache, hilbert_profile,
                              parse_ideal, restrict_modulo_linear)
from lefschetz.rings import (HomogeneousPolynomial, degree_monomials,
                            linear_form, poly_pow)
from lefschetz.wlp import (candidate_forms, kernel_witness, mult_map_rank,
                           wlp_check)
from oracles import assert_matches_full_scan, rank_rows

XYZ = ["x", "y", "z"]


def ideal(text, field=QQ, variables=XYZ):
    return parse_ideal(text, variables, field)


def all_ones(n, field):
    return linear_form(n, [1] * n, field)


def test_ci_has_wlp_char_zero():
    v = wlp_check(ideal("x^2,y^2,z^2"), QQ)
    assert v.has_wlp and v.conclusive


def test_mult_map_rank_values():
    I = ideal("x^3,y^3,z^3,x*y*z")
    L = all_ones(3, QQ)
    data = mult_map_rank(I, L, 2, QQ)
    assert data["h_d"] == 6 and data["h_de"] == 6
    assert data["rank"] == 5  # the known maximal-rank failure


def test_mult_map_rank_of_j4_depends_on_the_field():
    # an engine of J_4 over GF(5), once passed in for a question over QQ,
    # gave the GF(5) rank 29; over QQ it is 30
    assert mult_map_rank(make_ideal(Jr(4), QQ), all_ones(4, QQ), 4,
                         QQ)["rank"] == 30
    assert mult_map_rank(make_ideal(Jr(4), GF(5)), all_ones(4, GF(5)), 4,
                         GF(5))["rank"] == 29


def test_quadratic_form_rank():
    I = ideal("x^3,y^3,z^3,x*y*z")
    F = poly_pow(all_ones(3, QQ), 2, QQ)
    data = mult_map_rank(I, F, 1, QQ)
    assert data["h_d"] == 3 and data["h_de"] == 6


def test_monomial_verdict_is_conclusive_both_ways():
    holds = wlp_check(ideal("x^4,y^4,z^4"), QQ)
    fails = wlp_check(ideal("x^3,y^3,z^3,x*y*z"), QQ)
    assert holds.has_wlp and holds.conclusive
    assert not fails.has_wlp and fails.conclusive
    assert fails.failure_degrees == [2]


def test_char2_square_failure():
    f = GF(2)
    v = wlp_check(ideal("x^2,y^2,z^2", f), f)
    assert not v.has_wlp
    assert v.failure_degrees == [1]


def test_explicit_form_strategy():
    f = GF(3)
    I = ideal("x^3,y^3,z^3", f)
    L = linear_form(3, [1, 1, 0], f)  # degenerate choice, not a Lefschetz element
    v = wlp_check(I, f, forms=[L])
    assert not v.has_wlp
    assert not v.conclusive  # a single bad form proves nothing


def test_jr5_failure_is_not_conclusive():
    # only r = 3 and r = 4 of the J_r family are proven (criterion 6)
    f = GF(2)
    v = wlp_check(make_ideal(Jr(5), f), f)
    assert not v.has_wlp
    assert not v.conclusive


def test_explicit_rejects_nonlinear():
    I = ideal("x^2,y^2,z^2")
    with pytest.raises(ValueError):
        wlp_check(I, QQ, forms=[poly_pow(all_ones(3, QQ), 2, QQ)])


def test_random_strategy_is_seeded():
    I = ideal("x^3,y^3,z^3,x^2*y+y^2*z")
    a = wlp_check(I, QQ, forms=candidate_forms(I, QQ, seed=7))
    b = wlp_check(I, QQ, forms=candidate_forms(I, QQ, seed=7))
    assert a.has_wlp == b.has_wlp
    assert a.form_used == b.form_used
    assert candidate_forms(I, QQ, seed=7) != candidate_forms(I, QQ, seed=8)


def test_full_scan_agrees_with_propagation():
    for ch in (0, 3):
        f = QQ if ch == 0 else GF(ch)
        assert_matches_full_scan(ideal("x^5,y^5,z^5,x^2*y^2*z", f), f)


def test_kernel_witness_char_p_powers():
    for p in (2, 3, 5):
        f = GF(p)
        I = ideal(f"x^{p},y^{p},z^{p}", f)
        w = kernel_witness(I, f, p - 1)
        assert w == poly_pow(all_ones(3, f), p - 1, f).monic(f)


def test_kernel_witness_none_when_injective():
    I = ideal("x^2,y^2,z^2")
    assert kernel_witness(I, QQ, 1) is None


def test_kernel_witness_none_where_the_quotient_slice_is_zero():
    # the socle degree of (x^2, y^2, z^2) is 3, so (R/I)_4 = 0
    for text in ("x^2,y^2,z^2", "x^2,y^2,z^2+x*y"):
        assert kernel_witness(ideal(text), QQ, 4) is None


def test_kernel_witness_rejects_a_form_that_is_not_linear():
    # x * x^2 is injective on (R/I)_1 (rank 3 = h_1); the witness check
    # projects the image onto degree 2, so it cannot catch a wrong witness
    I = ideal("x^5,y^5,z^5")
    x2 = HomogeneousPolynomial.from_terms(3, {(2, 0, 0): 1}, degree=2)
    assert mult_map_rank(I, x2, 1, QQ) == {"h_d": 3, "h_de": 10, "rank": 3}
    with pytest.raises(ValueError, match="linear"):
        kernel_witness(I, QQ, 1, form=x2)


def test_kernel_witness_char_zero_failure():
    I = ideal("x^3,y^3,z^3,x*y*z")
    w = kernel_witness(I, QQ, 2)
    assert w is not None and w.degree == 2
    # leading coefficient normalized to one
    assert w.terms[max(w.terms)] == 1


def test_kernel_witness_non_monomial():
    I = ideal("x^4,y^4,z^4,x*y*z-x^2*y")
    L = all_ones(3, QQ)
    # in degree 3 the map on standard monomials has a kernel (10 standard
    # monomials, rank 9), but it lies in the ideal slice: injective on R/I
    data = mult_map_rank(I, L, 3, QQ)
    assert data["rank"] == data["h_d"] == 9
    assert len(SliceCache(I, QQ).shared.std(3)) == 10
    assert kernel_witness(I, QQ, 3) is None
    # in degree 4 the first relation lies in the ideal slice and is skipped
    w4 = kernel_witness(I, QQ, 4)
    assert w4.format(["x1", "x2", "x3"]) == \
        "x1^3*x2 - 1/2*x1^2*x2^2 + 1/4*x1*x2^3"
    w5 = kernel_witness(I, QQ, 5)
    assert w5.format(["x1", "x2", "x3"]) == "x1^3*x2^2 - 1/2*x1^2*x2^3"


def test_cokernel_matches_restriction():
    I = ideal("x^3,y^3,z^3,x*y*z")
    L = all_ones(3, QQ)
    hbar = hilbert_profile(restrict_modulo_linear(I, L, 2, QQ), QQ)
    for d in range(5):
        data = mult_map_rank(I, L, d, QQ)
        assert data["h_de"] - data["rank"] == hbar[d + 1]


@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_rank_bounded_by_dimensions(a, b, c):
    I = ideal(f"x^{a},y^{b},z^{c}")
    L = all_ones(3, QQ)
    h = hilbert_profile(I)
    for d in range(h.socle_degree + 1):
        data = mult_map_rank(I, L, d, QQ)
        assert data["rank"] <= min(data["h_d"], data["h_de"])


@given(st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_monomial_ci_wlp_char_zero(k):
    # monomial complete intersections have the WLP in characteristic zero
    v = wlp_check(ideal(f"x^{k},y^{k},z^{k}"), QQ)
    assert v.has_wlp and v.conclusive


@st.composite
def map_rank_case(draw):
    """An Artinian ideal in x, y, z (pure powers, optionally a monomial and
    a generator of two or three terms), a field, a form F of degree 1 or 2
    and a degree d. Char-0 coefficients are Fractions with denominators up
    to 4."""
    ch = draw(st.sampled_from([0, 2, 3, 5, 7]))
    field = QQ if ch == 0 else GF(ch)

    def coeff():
        num = draw(st.integers(-6, 6).filter(lambda c: field.reduce(c)))
        den = draw(st.integers(1, 4)) if ch == 0 else 1
        return field.reduce(Fraction(num, den))

    powers = draw(st.lists(st.integers(2, 4), min_size=3, max_size=3))
    gens = [HomogeneousPolynomial(3, a, {tuple(a if j == i else 0
                                               for j in range(3)): 1})
            for i, a in enumerate(powers)]
    if draw(st.booleans()):
        e = tuple(draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
        if sum(e):
            gens.append(HomogeneousPolynomial(3, sum(e), {e: 1}))
    if draw(st.booleans()):
        deg = draw(st.integers(2, 3))
        monos = draw(st.lists(st.sampled_from(degree_monomials(3, deg)),
                              min_size=2, max_size=3, unique=True))
        gens.append(HomogeneousPolynomial(3, deg,
                                          {m: coeff() for m in monos}))
    I = HomogeneousIdeal(3, gens)
    L = linear_form(3, [coeff() for _ in range(3)], field)
    F = poly_pow(L, draw(st.integers(1, 2)), field)
    d = draw(st.integers(0, sum(powers) - 3))
    return I, F, d, field


@given(map_rank_case())
@settings(max_examples=60, deadline=None)
def test_direct_rows_match_projected_rows(case):
    # oracle: the rows of F*m and of the non-monomial generators' multiples
    # as projected polynomials, ranked by rank_rows
    I, F, d, field = case
    cache = SliceCache(I, field)
    de = d + F.degree
    ncols = len(cache.shared.std(de))
    base = [cache.project(g.times_monomial(m), de)
            for g in I.polynomial_generators if g.degree <= de
            for m in degree_monomials(I.num_vars, de - g.degree)]
    rows = base + [cache.project(F.times_monomial(m), de)
                   for m in cache.shared.std(d)]
    direct = [[row.get(j, 0) for j in range(ncols)]  # dense, for rank_rows
              for row in cache.slice_rows(de)
              + cache.multiple_rows(F, cache.shared.std(d), de)]
    span = rank_rows(rows, ncols, field)
    # the direct rows span the same space as the projected ones
    assert rank_rows(direct, ncols, field) == span
    assert rank_rows(direct + rows, ncols, field) == span
    assert (mult_map_rank(I, F, d, field)["rank"]
            == span - rank_rows(base, ncols, field))


def projected_map_data(I, F, d, field):
    """h_d, h_de and the rank of x F on (R/I)_d from dense projected rows:
    the oracle for mult_map_rank, which works on sparse direct rows."""
    cache = SliceCache(I, field)

    def slice_rows(k):
        return [cache.project(g.times_monomial(m), k)
                for g in I.polynomial_generators if g.degree <= k
                for m in degree_monomials(I.num_vars, k - g.degree)]

    de = d + F.degree
    n_d, n_de = len(cache.shared.std(d)), len(cache.shared.std(de))
    base = slice_rows(de)
    rows = base + [cache.project(F.times_monomial(m), de)
                   for m in cache.shared.std(d)]
    h_de = n_de - rank_rows(base, n_de, field)
    h_d = n_d - rank_rows(slice_rows(d), n_d, field)
    rank = rank_rows(rows, n_de, field) - (n_de - h_de) if h_d and h_de else 0
    return {"h_d": h_d, "h_de": h_de, "rank": rank}


@given(map_rank_case())
@settings(max_examples=40, deadline=None)
def test_mult_map_rank_matches_projected_rows(case):
    # every degree up to the case's, and _map_rank through one shared
    # cache, so later maps start from echelons that earlier maps copied
    I, F, d, field = case
    cache = SliceCache(I, field)
    for k in range(d + 1):
        expected = projected_map_data(I, F, k, field)
        assert mult_map_rank(I, F, k, field) == expected
        assert wlp._map_rank(cache, F, k, k + F.degree) == expected["rank"]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_map_ranks_leave_cached_echelons_unchanged(field):
    I = make_ideal(Jr(4), field)
    cache = SliceCache(I, field)
    top = cache.profile().socle_degree + 2
    before = {d: (cache.echelon(d).rank, cache.dim(d),
                  dict(cache.echelon(d).pivots)) for d in range(top + 1)}
    forms = [all_ones(4, field), linear_form(4, [2, 1, 1, -1], field),
             linear_form(4, [3, -2, 7, 1], field),
             poly_pow(all_ones(4, field), 2, field)]
    for F in forms:
        for d in range(top + 1 - F.degree):
            wlp._map_rank(cache, F, d, d + F.degree)
    after = {d: (cache.echelon(d).rank, cache.dim(d),
                 dict(cache.echelon(d).pivots)) for d in range(top + 1)}
    assert after == before
    assert any(cache.echelon(d).rank for d in before)  # J_4 has slice rows


def test_repeated_forms_are_decided_once():
    # over GF(2) the 11 candidates for J_4 are only two forms: x_2+x_3+x_4
    # (the special form 2x_1+x_2+x_3+x_4) and x_1+...+x_4 (every other)
    field = GF(2)
    v = wlp_check(make_ideal(Jr(4), field), field)
    assert v.forms_tried == 2
    assert not v.has_wlp and v.conclusive
