"""The restriction lemma of ``ideals``: a monomial ideal's all-ones map
A_d -> A_{d+1} has rank h_{d+1} - n + rank(J's degree-(d+1) slice), J the
image of I in Z[x_2, ..., x_r] under x_1 -> -(x_2 + ... + x_r) and n the
number of its standard monomials of degree d + 1, in every field.

wlp_check ranks it by ``MonomialPart.all_ones_rank``, which splits J's
slice rows, built from ``MonomialPart.restriction``; mult_map_rank, and
the full scan of ``oracles`` made of it, eliminate the rows F*m of the map
itself, so they check it independently. J's generators are also checked
against ``restrict_modulo_linear``, which substitutes by polynomial
arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.criterion import build_M, criterion_report
from lefschetz.families import Aci3, Irr, LevelAci, make_ideal, predicates
from lefschetz.fields import GF, QQ
from lefschetz.ideals import (HomogeneousIdeal, MonomialPart, SliceCache,
                              monomial_part, restrict_modulo_linear)
from lefschetz.matrices import det_integer
from lefschetz.rings import HomogeneousPolynomial, linear_form
from lefschetz.sweeps import aci3_grid, level_aci_grid
from oracles import assert_matches_full_scan, full_scan

CHARS = (0, 2, 3, 5, 7)


def field_of(ch):
    return GF(ch) if ch else QQ


def _ideal_of(r, gens):
    return HomogeneousIdeal(r, [HomogeneousPolynomial(r, sum(g), {g: 1})
                                for g in gens])


@st.composite
def monomial_ideals(draw):
    """An Artinian monomial ideal in r = 1..5 variables: a pure power of
    every variable, then up to three more generators."""
    r = draw(st.integers(1, 5))
    top = 4 if r <= 3 else 3
    gens = {tuple(draw(st.integers(1, top)) * (i == j) for j in range(r))
            for i in range(r)}
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * r), max_size=3))
    return _ideal_of(r, sorted(gens | {g for g in extra if sum(g)}))


def _all_ones_ranks(I, field):
    """Per degree d = 0..D, the rank of the all-ones map A_d -> A_{d+1}
    by the split of J's slice (MonomialPart.all_ones_rank, on a part of
    its own, outside the monomial_part memo, so that each degree is split
    here), and by mult_map_rank (the full scan)."""
    part = MonomialPart(I.num_vars, SliceCache(I, field).shared.mono_gens)
    L = linear_form(I.num_vars, [1] * I.num_vars, field)
    direct = [rank for _, rank, _, _ in full_scan(I, L, field)[0]]
    split = [part.all_ones_rank(d, field.characteristic)
             for d in range(len(direct))]
    assert not any(read for _, read in split)
    return [rank for rank, _ in split], direct


@given(monomial_ideals(), st.permutations(CHARS))
@settings(max_examples=60, deadline=None)
def test_split_of_the_restriction_gives_the_direct_ranks(I, chars):
    """In every characteristic, decided in a drawn order through one memo:
    the verdict equals the full scan, so each degree's rank equals
    mult_map_rank's, and so does the split of J's slice in every degree."""
    monomial_part.cache_clear()
    for ch in chars:
        field = field_of(ch)
        assert_matches_full_scan(I, field)
        split, direct = _all_ones_ranks(I, field)
        assert split == direct, ch


def test_one_variable_restricts_to_the_field():
    """r = 1: S = K, J = 0 in positive degrees, so x * : A_d -> A_{d+1} of
    K[x]/(x^a) is onto, of rank h_{d+1}."""
    I = _ideal_of(1, [(4,)])
    part, images = MonomialPart(1, ((4,),)).restriction()
    assert part.num_vars == 0 and images == ()
    assert _all_ones_ranks(I, QQ) == ([1, 1, 1, 0], [1, 1, 1, 0])


def _primitive(terms) -> frozenset:
    """The terms with the sign that makes the coefficient of the greatest
    exponent positive."""
    sign = 1 if terms[max(terms)] > 0 else -1
    return frozenset((e, sign * c) for e, c in terms.items())


def _restricted_generators(I):
    """J's generators from restrict_modulo_linear, each polynomial one
    without its terms at or past a pure power of J (none dropped by
    ``restriction`` either), as sign-normalized term sets."""
    r = I.num_vars
    gens = restrict_modulo_linear(I, linear_form(r, [1] * r, QQ), 0,
                                  QQ).generators
    assert len(gens) == len(I.generators)
    powers = [0] * (r - 1)
    for g, image in zip(I.generators, gens):
        e = g.leading_monomial()
        support = [i for i, a in enumerate(e[1:]) if a]
        if not e[0] and len(support) == 1:
            i = support[0]
            powers[i] = min(powers[i] or e[i + 1], e[i + 1])
    out = []
    for g, image in zip(I.generators, gens):
        terms = dict(image.terms)
        if g.leading_monomial()[0]:
            terms = {e: c for e, c in terms.items()
                     if not any(p and a >= p for a, p in zip(e, powers))}
        if terms:
            out.append(_primitive(terms))
    return sorted(out, key=sorted)


def _restriction_generators(I):
    """J's generators as ``MonomialPart.restriction`` keeps them."""
    part = MonomialPart(I.num_vars, tuple(sorted(set(I.monomial_generators))))
    J, images = part.restriction()
    out = [frozenset({(g, 1)}) for g in J.mono_gens]
    out += [_primitive(dict(terms)) for _, terms in images]
    return sorted(out, key=sorted)


@pytest.mark.parametrize("name, ideals", [
    ("Irr(4), Irr(5)", lambda: [make_ideal(Irr(r), QQ) for r in (4, 5)]),
    ("level_aci_grid(9, 3)", lambda: [make_ideal(LevelAci(*p), QQ)
                                      for p in level_aci_grid(9, 3)]),
    ("aci3_grid(4)", lambda: [make_ideal(Aci3(*p), QQ)
                              for p in aci3_grid(4)]),
])
def test_restriction_generators_match_restrict_modulo_linear(name, ideals):
    for I in ideals():
        assert (_restriction_generators(I)
                == _restricted_generators(I)), (name, I.generators)


# ROADMAP item 11: grid points with det M = 0 outside every case of the
# level conjecture. Each fails at the twin-peaks degree 23 in every
# characteristic; chars 2 and 3 fail at one neighbour too.
DET_ZERO_FAILURES = {(2, 9, 13, 9): {0: [23], 2: [23], 3: [23, 24]},
                     (3, 7, 14, 9): {0: [23], 2: [22, 23], 3: [23]}}


@pytest.mark.parametrize("point", sorted(DET_ZERO_FAILURES))
def test_det_zero_point_outside_the_conjecture_cases_fails(point):
    assert det_integer(build_M(*point)) == criterion_report(*point).det == 0
    assert predicates(LevelAci(*point)).conjecture_case == "none"
    monomial_part.cache_clear()
    for ch, failures in DET_ZERO_FAILURES[point].items():
        field = field_of(ch)
        I = make_ideal(LevelAci(*point), field)
        verdict = assert_matches_full_scan(I, field)
        assert not verdict.has_wlp and verdict.conclusive
        assert verdict.failure_degrees == failures


def test_levelaci_fails_over_a_prime_past_2_32_that_divides_det_m():
    # 11448649999, past 2^32, is the largest prime factor of det M at
    # LevelAci(3, 10, 17, 16)
    p, point = 11448649999, (3, 10, 17, 16)
    assert criterion_report(*point).fails_in(p)
    field = GF(p)
    I = make_ideal(LevelAci(*point), field)
    verdict = assert_matches_full_scan(I, field)
    assert not verdict.has_wlp and verdict.conclusive
    assert verdict.failure_degrees == [34]
