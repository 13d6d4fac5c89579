import inspect
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import ideals
from lefschetz.families import Aci3, Irkd, Irr, Jr, LevelAci, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import (HomogeneousIdeal, MonomialPart,
                              NotArtinianError, SliceCache, hilbert_profile,
                              is_artinian, parse_ideal,
                              restrict_modulo_linear, socle_report,
                              standard_monomial_tuples, standard_monomials)
from lefschetz.liaison import ci_hvector
from lefschetz.rings import (HomogeneousPolynomial, degree_monomials,
                            linear_form)
from lefschetz.sweeps import aci3_grid, level_aci_grid
from oracles import mono_divides, socle_brute

XYZ = ["x", "y", "z"]


def ideal(text, field=QQ, variables=XYZ):
    return parse_ideal(text, variables, field)


def test_monomial_flag():
    assert ideal("x^2,y^2,z^2").is_monomial
    assert not ideal("x^2,y^2,z^2,x*y+z^2").is_monomial
    with pytest.raises(TypeError):  # derived from the generators only
        HomogeneousIdeal(3, ideal("x*y+z^2").generators, True)


def test_is_artinian_pure_powers():
    assert is_artinian(ideal("x^2,y^3,z^4"))
    assert not is_artinian(ideal("x^2,y^3,x*z"))


def test_is_artinian_non_monomial_route():
    # no pure power in z among the monomials, but (x+z)^2 closes it up
    I = ideal("x^2,y^2,(x+z)^2,x*z")
    assert is_artinian(I, QQ)


def test_hilbert_ci_matches_hvector():
    I = ideal("x^3,y^4,z^5")
    assert tuple(hilbert_profile(I)) == tuple(ci_hvector([3, 4, 5]))


def test_hilbert_known_example():
    I = ideal("x^3,y^3,z^3,x*y*z")
    assert tuple(hilbert_profile(I)) == (1, 3, 6, 6, 3)


def test_hilbert_field_independent_for_monomial():
    I0 = ideal("x^4,y^4,z^4,x^2*y*z")
    I2 = ideal("x^4,y^4,z^4,x^2*y*z", GF(2))
    assert tuple(hilbert_profile(I0, QQ)) == tuple(hilbert_profile(I2, GF(2)))


def test_hilbert_non_monomial_char_dependent():
    # (x+y)^2 degenerates mod 2: x^2, y^2, (x+y)^2 spans only 2 dims there
    I0 = parse_ideal("x^2,y^2,(x+y)^2", ["x", "y"], QQ)
    I2 = parse_ideal("x^2,y^2,(x+y)^2", ["x", "y"], GF(2))
    assert tuple(hilbert_profile(I0, QQ)) == (1, 2)
    assert tuple(hilbert_profile(I2, GF(2))) == (1, 2, 1)


def test_hilbert_rejects_non_artinian():
    with pytest.raises(NotArtinianError):
        hilbert_profile(ideal("x^2,y^2"))
    # so does the monomial part's own profile, with its reason
    with pytest.raises(NotArtinianError, match="2 has no pure power"):
        MonomialPart(3, ((0, 2, 0), (2, 0, 0))).profile


@pytest.mark.parametrize("text, variables", [("x^2,y^2,1", ["x", "y"]),
                                             ("1", ["x"]),
                                             ("x^2,y^2,3", ["x", "y"])])
def test_unit_ideal_rejected(text, variables):
    # a degree-0 generator used to give an empty profile (and then a bare
    # TypeError in wlp_check and socle_report), or for "1" a NotArtinianError
    # naming a variable without a pure power
    with pytest.raises(ValueError, match="degree 0") as exc:
        parse_ideal(text, variables, QQ)
    assert not isinstance(exc.value, NotArtinianError)
    one = HomogeneousPolynomial.monomial(2, (0, 0))
    with pytest.raises(ValueError, match="degree 0"):
        HomogeneousIdeal(2, [one])


def test_ideal_rejects_a_zero_generator_and_a_ring_mismatch():
    # parse_ideal refuses both first, so only a direct construction meets
    # these checks
    with pytest.raises(ValueError, match="zero generator"):
        HomogeneousIdeal(2, [HomogeneousPolynomial(2, 2, {})])
    with pytest.raises(ValueError, match="variable count mismatch"):
        HomogeneousIdeal(3, [HomogeneousPolynomial.monomial(2, (2, 0))])


def test_equal_ideals_built_separately_answer_alike():
    # through an engine of J_3, once passed in, the profile of J_4 came out
    # as J_3's (1, 3, 6, 6, 3)
    I4 = make_ideal(Jr(4), QQ)
    assert hilbert_profile(make_ideal(Jr(4), QQ), QQ) == hilbert_profile(I4)
    assert hilbert_profile(I4) != hilbert_profile(make_ideal(Jr(3), QQ))
    monomial = ideal("x^3,y^3,z^3,x*y*z")
    assert socle_report(ideal("x^3,y^3,z^3,x*y*z")) == socle_report(monomial)


def test_standard_monomials():
    I = ideal("x^2,y^2,z^2")
    sm = standard_monomials(I, 2)
    assert sm == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_standard_monomials_requires_monomial_ideal():
    with pytest.raises(ValueError):
        standard_monomials(ideal("x^2,y^2,z^2,x*y+y*z"), 2)


def _brute_standard(gens, r, d):
    return [m for m in degree_monomials(r, d)
            if not any(mono_divides(g, m) for g in gens)]


@st.composite
def monomial_gens(draw, pure_powers):
    """Exponent tuples in r = 1..5 variables; with pure_powers, a pure
    power of every variable comes first."""
    r = draw(st.integers(1, 5))
    gens = []
    if pure_powers:
        for i in range(r):
            a = draw(st.integers(1, 5))
            gens.append(tuple(a if j == i else 0 for j in range(r)))
    gens += draw(st.lists(st.tuples(*[st.integers(0, 3)] * r), max_size=5))
    return r, gens


@given(st.booleans().flatmap(monomial_gens), st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_standard_monomial_tuples_match_divisibility_filter(case, d):
    r, gens = case
    assert standard_monomial_tuples(gens, r, d) == _brute_standard(gens, r, d)


def test_standard_monomial_tuples_edge_cases():
    assert standard_monomial_tuples([], 0, 0) == [()]
    assert standard_monomial_tuples([()], 0, 0) == []
    assert standard_monomial_tuples([(0, 0)], 2, 1) == []
    assert standard_monomial_tuples([(2, 0), (0, 2)], 2, 3) == []
    assert standard_monomial_tuples([], 3, 1) == [(1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1)]
    assert standard_monomial_tuples([(3,)], 1, 2) == [(2,)]
    assert standard_monomial_tuples([(3,)], 1, 3) == []
    assert standard_monomial_tuples([], 1, 4) == [(4,)]
    assert standard_monomial_tuples([(2, 0, 0), (0, 2, 0), (0, 0, 2)],
                                    3, 4) == []


def _ideal_of(r, gens):
    return HomogeneousIdeal(r, [HomogeneousPolynomial(r, sum(g), {g: 1})
                                for g in gens if sum(g)])


@given(monomial_gens(pure_powers=True))
@settings(max_examples=250, deadline=None)
def test_socle_matches_definition(case):
    # the socle: standard monomials m with m * x_i in I for every i
    r, gens = case
    gens = [g for g in gens if sum(g)]
    I = _ideal_of(r, gens)
    socle = socle_brute(gens, r)
    degrees = sorted(sum(m) for m in socle)
    rep = socle_report(I)
    assert rep.socle_monomials == socle
    assert rep.socle_degrees == degrees
    assert rep.cm_type == len(socle)
    assert rep.is_level == (len(set(degrees)) <= 1)
    assert list(SliceCache(I, GF(3)).shared.socle()) == socle
    part = MonomialPart(r, tuple(sorted(set(gens))))
    assert part.is_level == (len(set(degrees)) <= 1)


def _monomial_gens(spec):
    I = make_ideal(spec, QQ)
    return I.num_vars, I.monomial_generators


NAMED_SOCLE_CASES = {
    "level-chars grid": [_monomial_gens(LevelAci(*p))
                         for p in level_aci_grid(9, 3)],
    "aci3_grid(4)": [_monomial_gens(Aci3(*p)) for p in aci3_grid(4)],
    "Irkd(8,2,3), Irkd(7,3,4), Irr(6)": [
        _monomial_gens(s) for s in (Irkd(8, 2, 3), Irkd(7, 3, 4), Irr(6))],
    # not level: its socle is y*z, y^4 and x^4*y^3
    "(x^5,y^5,z^2,xy^4,y^2z,xz)": [
        (3, [(5, 0, 0), (0, 5, 0), (0, 0, 2), (1, 4, 0), (0, 2, 1),
             (1, 0, 1)])],
    # duplicate generators, and redundant ones (x^2*y with x^2, x^3 with
    # x^2, x*y^2*z with y^2*z), unsorted
    "duplicate and redundant generators": [
        (2, [(2, 0), (2, 1), (0, 3), (2, 0), (3, 0)]),
        (3, [(2, 1, 0), (0, 0, 2), (2, 0, 0), (1, 2, 1), (0, 2, 1),
             (0, 4, 0), (0, 2, 1), (3, 0, 0), (1, 1, 0)]),
    ],
}


@pytest.mark.parametrize("name", NAMED_SOCLE_CASES)
def test_socle_is_the_definition_on_named_ideals(name, monkeypatch):
    """The corners of the staircase are the socle of the definition, in its
    order, and finding them enumerates no standard monomials."""
    def enumerated(*args):
        raise AssertionError("socle() enumerated standard monomials")

    monkeypatch.setattr(ideals, "standard_monomial_tuples", enumerated)
    for r, gens in NAMED_SOCLE_CASES[name]:
        assert list(MonomialPart(r, tuple(gens)).socle()) == socle_brute(
            gens, r), gens


def _enumerated_profile(gens, r):
    """h(d), the number of degree-d standard monomials, until it vanishes:
    the enumeration the numerator lemma replaces, as an oracle."""
    values = [len(standard_monomial_tuples(gens, r, 0))]
    while values[-1]:
        values.append(len(standard_monomial_tuples(gens, r, len(values))))
    return tuple(values[:-1])


@st.composite
def artinian_monomial_gens(draw):
    """r = 1..6 variables: a pure power of every variable, then 0-8 more
    generators, each a random monomial (often redundant), a duplicate of an
    earlier generator or a further pure power, in a shuffled order."""
    r = draw(st.integers(1, 6))
    top = 4 if r <= 4 else 3
    gens = [tuple(draw(st.integers(1, top)) if j == i else 0
                  for j in range(r)) for i in range(r)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["monomial", "duplicate", "pure power"]))
        if kind == "monomial":
            g = draw(st.tuples(*[st.integers(0, top)] * r).filter(any))
        elif kind == "duplicate":
            g = draw(st.sampled_from(gens))
        else:
            i, a = draw(st.integers(0, r - 1)), draw(st.integers(1, top + 2))
            g = tuple(a if j == i else 0 for j in range(r))
        gens.append(g)
    return r, draw(st.permutations(gens))


@given(artinian_monomial_gens())
@settings(max_examples=300, deadline=None)
def test_numerator_profile_is_the_count_of_standard_monomials(case):
    r, gens = case
    h = _enumerated_profile(gens, r)
    assert tuple(MonomialPart(r, tuple(sorted(set(gens)))).profile) == h
    assert tuple(hilbert_profile(_ideal_of(r, gens), GF(2))) == h


@pytest.mark.parametrize("spec", [Irkd(8, 2, 3), Irr(6), Irkd(14, 2, 4),
                                  Irkd(46, 2, 2)], ids=repr)
def test_numerator_profile_on_named_ideals(spec, monkeypatch):
    """Irkd(8,2,3) has 64 generators, Irkd(14,2,4) 1001 and Irkd(46,2,2)
    1035 with two or more variables. No profile enumerates a monomial, and
    none needs more than a few frames of stack, whatever the number of
    generators."""
    r, gens = _monomial_gens(spec)
    h = _enumerated_profile(gens, r)

    def enumerated(*args):
        raise AssertionError("the profile enumerated standard monomials")

    monkeypatch.setattr(ideals, "standard_monomial_tuples", enumerated)
    part = MonomialPart(r, tuple(sorted(set(gens))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        profile = part.profile
    finally:
        sys.setrecursionlimit(limit)
    assert tuple(profile) == h


def test_socle_degrees_come_from_the_engine_not_a_given_profile():
    # socle_report used to scan the degrees of a profile it was given: with
    # the profile of (x^2, y^2, z^2) it found no socle of (x^3, y^3, z^3).
    # The parameter is gone; the socle comes from the generators of the
    # engine's ideal, and it is shared
    I = ideal("x^3,y^3,z^3")
    J = ideal("x^2,y^2,z^2")
    with pytest.raises(TypeError):
        socle_report(I, hilbert_profile(J))
    assert socle_report(J).socle_monomials == [(1, 1, 1)]
    rep = socle_report(I)
    assert rep.socle_monomials == [(2, 2, 2)]
    assert rep.socle_degrees == [6]
    assert rep.cm_type == 1
    for field in (QQ, GF(2)):
        assert SliceCache(I, field).shared.socle() == ((2, 2, 2),)


def test_slice_cache_dim_consistency():
    I = ideal("x^3,y^3,z^3,x*y*z+z^3")
    cache = SliceCache(I, QQ)
    h = cache.profile()
    for d in range(h.socle_degree + 1):
        assert cache.dim(d) == h[d]


def test_socle_of_ci():
    rep = socle_report(ideal("x^2,y^2,z^2"))
    assert rep.cm_type == 1
    assert rep.is_level
    assert rep.socle_degrees == [3]
    assert rep.socle_monomials == [(1, 1, 1)]


def test_socle_three_generators():
    rep = socle_report(ideal("x^3,y^3,z^3,x*y*z"))
    assert rep.cm_type == 3
    assert rep.is_level
    assert rep.socle_degrees == [4, 4, 4]


def test_socle_non_level():
    rep = socle_report(parse_ideal("x^2,y^4,x*y^2", ["x", "y"], QQ))
    assert not rep.is_level
    assert rep.socle_degrees == [2, 3]  # x*y and y^3


def test_socle_report_refuses_a_non_monomial_ideal():
    with pytest.raises(ValueError, match="monomial ideals only"):
        socle_report(ideal("x^2,y^2,z^2+x*y"))


def test_socle_of_a_non_artinian_ideal_is_an_error(monkeypatch):
    # every degree of k[x,y,z]/(x^2, y^2) has a standard monomial z^d, so a
    # socle scan without the pure-power check would never end; the degrees
    # the enumeration is asked for are capped here so that it fails instead
    enumerate_ = ideals.standard_monomial_tuples
    asked = []

    def capped(gens, r, d):
        assert d < 50, "the socle scan does not stop"
        asked.append(d)
        return enumerate_(gens, r, d)

    monkeypatch.setattr(ideals, "standard_monomial_tuples", capped)
    ideals.monomial_part.cache_clear()
    I = ideal("x^2,y^2")
    with pytest.raises(NotArtinianError, match="2 has no pure power"):
        socle_report(I)
    for field in (GF(3), QQ):
        with pytest.raises(NotArtinianError, match="2 has no pure power"):
            SliceCache(I, field).shared.socle()
    # the socle of an Artinian part enumerates no standard monomials
    asked.clear()
    assert SliceCache(ideal("x^2,y^2,z^2"), QQ).shared.socle() == ((1, 1, 1),)
    assert asked == []


def test_restriction_drops_variable():
    I = ideal("x^3,y^3,z^3,x*y*z")
    L = linear_form(3, [1, 1, 1], QQ)
    Ibar = restrict_modulo_linear(I, L, 2, QQ)
    assert Ibar.num_vars == 2
    # z -> -(x+y): z^3 and x*y*z become -(x+y)^3 and -x*y*(x+y), normalized
    # to a positive lead coefficient, with int coefficients
    terms = [sorted(g.terms.items()) for g in Ibar.generators]
    assert terms == [[((3, 0), 1)], [((0, 3), 1)],
                     [((0, 3), 1), ((1, 2), 3), ((2, 1), 3), ((3, 0), 1)],
                     [((1, 2), 1), ((2, 1), 1)]]
    assert all(type(c) is int for g in terms for _, c in g)
    assert tuple(hilbert_profile(Ibar, QQ)) == (1, 2, 3, 1)


@pytest.mark.parametrize("gens", ["x^3,y^3,z^3,x*y*z",
                                  "x^4,y^4,z^3,x*y^2*z",
                                  "x^4,y^4,z^4,2*x^2*y^2-3*x*y*z^2+z^4"])
@pytest.mark.parametrize("coeffs", [(1, 1, 1), (2, -3, 4), (1, 0, 3)])
def test_restricted_generators_are_normalized(gens, coeffs):
    # char 0: primitive integer generators with a positive lead coefficient;
    # char p: monic residues. Either way the same ideal as the monic one.
    for field in (QQ, GF(5), GF(7)):
        I = ideal(gens, field)
        L = linear_form(3, coeffs, field)
        Ibar = restrict_modulo_linear(I, L, 2, field)
        assert Ibar.generators
        for g in Ibar.generators:
            cs = list(g.terms.values())
            assert all(type(c) is int for c in cs), g
            lead = g.terms[max(g.terms)]
            if field is QQ:
                assert lead > 0 and gcd(*cs) == 1
            else:
                assert lead == 1 and all(0 < c < field.characteristic
                                         for c in cs)


def test_restriction_needs_pivot_coefficient():
    I = ideal("x^2,y^2,z^2")
    L = linear_form(3, [1, 1, 0], QQ)
    with pytest.raises(ValueError):
        restrict_modulo_linear(I, L, 2, QQ)


@st.composite
def monomial_ci(draw):
    return draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))


@given(monomial_ci())
@settings(max_examples=40, deadline=None)
def test_hilbert_total_dimension_is_product(degrees):
    n = len(degrees)
    variables = [f"x{i}" for i in range(n)]
    text = ",".join(f"{v}^{d}" for v, d in zip(variables, degrees))
    h = hilbert_profile(parse_ideal(text, variables, QQ))
    total = 1
    for d in degrees:
        total *= d
    assert sum(h) == total


@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_socle_type_matches_inverse_system_count(a, b, c):
    rep = socle_report(ideal(f"x^{a},y^{b},z^{c}"))
    assert rep.cm_type == 1
    assert rep.socle_degrees == [a + b + c - 3]


def test_zero_generator_rejected():
    with pytest.raises(ValueError):
        parse_ideal("x^2,2*y^2", XYZ, GF(2))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=str)
def test_parsed_coefficients_are_ints(field):
    I = parse_ideal("2*x*y-3*y^2, x^3, -y^3+(x-2*y)^3, z^2", ["x", "y", "z"],
                    field)
    for g in I.generators:
        assert all(type(c) is int for c in g.terms.values()), g
