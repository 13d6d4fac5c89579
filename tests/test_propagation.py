"""Prop. 2.1 propagation in wlp_check: surjectivity read upward in any
Artinian algebra, injectivity read downward in a level one. The propagated
verdict must equal the full scan (``oracles.full_scan``: every degree's
rank from mult_map_rank) in rank, injectivity and surjectivity per degree,
failure degrees and verdict, and must compute each map at most once.

A decision of a monomial ideal, in any characteristic, keeps the unit
split over Z of each all-ones map it computes in the process-wide
monomial_part memo, and every later decision of that ideal reads it
instead of computing (path INTEGER). So every test that counts the maps a
decision computes clears the memo first, unless it counts the splits of a
whole pass."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import wlp
from lefschetz.families import Irr, LevelAci, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import (HomogeneousIdeal, MonomialPart, SliceCache,
                              hilbert_profile, monomial_part, parse_ideal,
                              socle_report)
from lefschetz.rings import HomogeneousPolynomial
from lefschetz.sweeps import level_aci_grid
from lefschetz.wlp import COMPUTED, DOWN, INTEGER, UP, wlp_check
from oracles import assert_matches_full_scan

LEVEL_CHARS = (0, 2, 3, 5, 7, 11, 13)
# not level: its socle is y*z, y^4 and x^4*y^3, in degrees 2, 4 and 7
NON_LEVEL = "x^5,y^5,z^2,x*y^4,y^2*z,x*z"


def field_of(ch):
    return QQ if ch == 0 else GF(ch)


def count_maps(monkeypatch) -> list:
    """Record (form, d) for every map rank wlp_check computes: by an
    elimination in the decision's field (_map_rank), or, for a monomial
    ideal's all-ones map, by the unit split of the slice of its
    restriction J to r - 1 variables (a MonomialPart.all_ones_rank call
    that does not read an earlier split). A caller clears the
    monomial_part memo before each counted decision."""
    calls = []
    map_rank, all_ones_rank = wlp._map_rank, MonomialPart.all_ones_rank

    def counted_map(cache, F, d, de):
        calls.append((frozenset(F.terms.items()), d))
        return map_rank(cache, F, d, de)

    def counted_split(part, d, p):
        rank, read = all_ones_rank(part, d, p)
        if not read:
            calls.append(("all-ones", d))
        return rank, read

    monkeypatch.setattr(wlp, "_map_rank", counted_map)
    monkeypatch.setattr(MonomialPart, "all_ones_rank", counted_split)
    return calls


# the order of the paths along the degrees: a rank read from the integer
# one stands where a computed rank would
PATH_ORDER = {DOWN: 0, COMPUTED: 1, INTEGER: 1, UP: 2}


def assert_paths_honest(verdict):
    """Degrees read down, then computed (or read from an integer rank),
    then read up, with the rank each rule gives."""
    paths = [r.path for r in verdict.reports]
    assert paths == sorted(paths, key=PATH_ORDER.__getitem__)
    for r in verdict.reports:
        if r.path == UP:
            assert r.rank == r.h_d1
        elif r.path == DOWN:
            assert r.rank == r.h_d


@pytest.mark.parametrize("ch", LEVEL_CHARS)
def test_level_chars_grid_matches_full_scan(ch, monkeypatch):
    """The benchmark's level-chars grid: each map is computed once, a
    holding decision (every ideal here has a plateau) makes one, and the
    maps made are the computed degrees with a nonzero target."""
    field = field_of(ch)
    calls = count_maps(monkeypatch)
    for point in level_aci_grid(9, 3):
        I = make_ideal(LevelAci(*point), field)
        calls.clear()
        monomial_part.cache_clear()
        verdict = wlp_check(I, field)
        assert len(set(calls)) == len(calls) == sum(
            r.path == COMPUTED and r.h_d1 > 0 for r in verdict.reports)
        if verdict.has_wlp:
            assert len(calls) == 1
        assert_matches_full_scan(I, field, verdict)
        assert_paths_honest(verdict)


@pytest.mark.parametrize("r, ch", product((3, 4, 5), (0, 2, 3, 5)))
def test_irr_matches_full_scan(r, ch):
    field = field_of(ch)
    assert_paths_honest(assert_matches_full_scan(make_ideal(Irr(r), field),
                                                 field))


@st.composite
def artinian_monomial_ideals(draw):
    """(ideal, built level) in 3 or 4 variables. A level ideal is the
    annihilator of monomials of one degree D: generated by the monomials
    that divide none of them but whose every divisor by one variable does.
    Any other has a pure power of each variable and up to four more
    generators, and is level or not by chance."""
    r = draw(st.integers(3, 4))
    if draw(st.booleans()):
        D = draw(st.integers(1, 5))
        # a degree-D monomial as the multiset of its variables
        tops = draw(st.lists(st.lists(st.integers(0, r - 1), min_size=D,
                                      max_size=D).map(
            lambda v: tuple(map(v.count, range(r)))), min_size=1, max_size=3))

        def standard(m):
            return any(all(a <= b for a, b in zip(m, s)) for s in tops)

        gens = {m for m in product(range(D + 2), repeat=r)
                if sum(m) <= D + 1 and not standard(m)
                and all(standard(m[:i] + (m[i] - 1,) + m[i + 1:])
                        for i in range(r) if m[i])}
        level = True
    else:
        gens = {tuple(draw(st.integers(2, 5)) * (i == j) for j in range(r))
                for i in range(r)}
        extra = draw(st.lists(st.tuples(*[st.integers(0, 3)] * r),
                              max_size=4))
        gens |= {m for m in extra if sum(m)}
        level = False
    I = HomogeneousIdeal(r, [HomogeneousPolynomial(r, sum(g), {g: 1})
                             for g in sorted(gens)])
    return I, level


@given(artinian_monomial_ideals(), st.sampled_from((0, 2, 3)))
@settings(max_examples=80, deadline=None)
def test_random_monomial_ideals_match_full_scan(case, ch):
    I, level = case
    if level:
        assert socle_report(I).is_level
    assert_paths_honest(assert_matches_full_scan(I, field_of(ch)))


@pytest.mark.parametrize("ch", [0, 2])
def test_non_level_ideal_is_not_read_down(ch):
    """h = (1,3,4,4,5,3,2,1) fails at degree 2 only, where the socle
    element y*z is in the kernel. The first surjective step is 4 and degree
    3 is injective (4 -> 5): reading injectivity down from there, valid
    only for a level algebra, would pass degree 2."""
    field = field_of(ch)
    I = parse_ideal(NON_LEVEL, ["x", "y", "z"], field)
    assert tuple(hilbert_profile(I, field)) == (1, 3, 4, 4, 5, 3, 2, 1)
    assert not socle_report(I).is_level
    verdict = assert_matches_full_scan(I, field)
    assert verdict.failure_degrees == [2] and not verdict.has_wlp
    assert DOWN not in {r.path for r in verdict.reports}


@pytest.mark.parametrize("spec, ch, maps", [
    (LevelAci(2, 2, 2, 4), 0, 1),   # holds at its plateau
    (LevelAci(1, 2, 3, 4), 2, 4),   # fails at 6 and 7: the gap and its edges
    (Irr(5), 0, 4),                 # fails at 8 and 9
])
def test_map_counts(spec, ch, maps, monkeypatch):
    calls = count_maps(monkeypatch)
    field = field_of(ch)
    monomial_part.cache_clear()
    wlp_check(make_ideal(spec, field), field)
    assert len(calls) == maps


def test_char_p_reads_the_char_0_plateau_rank(monkeypatch):
    """After a grid point's char-0 decision, a char-p decision where the
    WLP holds computes no map, whether or not p divides D' (the lead
    product of the plateau map's core), and reports its plateau
    (h_d = h_{d+1}) under INTEGER. Every verdict equals the full scan."""
    calls = count_maps(monkeypatch)
    paths = {True: [], False: []}  # by whether p divides D'
    for point in level_aci_grid(9, 3):
        monomial_part.cache_clear()
        I = make_ideal(LevelAci(*point), QQ)
        wlp_check(I, QQ)
        part = SliceCache(I, QQ).shared
        for ch in LEVEL_CHARS[1:]:
            field = GF(ch)
            I = make_ideal(LevelAci(*point), field)
            calls.clear()
            verdict = wlp_check(I, field)
            if verdict.has_wlp:
                [plateau] = [r for r in verdict.reports if r.h_d == r.h_d1]
                assert not calls
                assert (part.all_ones_rank(plateau.d, ch)
                        == (plateau.rank, True))
                divides = part.all_ones[plateau.d][3] % ch == 0
                paths[divides].append(plateau.path)
            assert_paths_honest(assert_matches_full_scan(I, field, verdict))
    assert set(paths[False]) == {INTEGER}
    # 104 char-p decisions hold; p divides no D' of their plateau maps,
    # which is +-det of a nonsingular map
    assert (len(paths[False]), len(paths[True])) == (104, 0)


@pytest.mark.parametrize("chars", [LEVEL_CHARS, LEVEL_CHARS[::-1]])
def test_level_chars_pass_splits_each_map_once(chars, monkeypatch):
    """The 266 decisions of the benchmark's level-chars grid, each point
    decided in its seven characteristics in turn, make 156 unit splits,
    one per distinct all-ones map, and no other map rank: each later
    characteristic reads the split (eliminating the maps again in each
    field took 373 eliminations, 54 over Z and 319 mod p)."""
    calls = count_maps(monkeypatch)
    monomial_part.cache_clear()
    maps = 0
    for point in level_aci_grid(9, 3):
        calls.clear()
        for ch in chars:
            field = field_of(ch)
            wlp_check(make_ideal(LevelAci(*point), field), field)
        assert len(set(calls)) == len(calls)
        maps += len(calls)
    assert maps == 156
