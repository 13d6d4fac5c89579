"""The field-independent part of the slice engine (standard monomials, their
column index and the socle) is shared
between characteristics and between equal monomial parts through the
ideals.monomial_part memo, and so are a monomial ideal's Hilbert
profile, levelness, restriction to r - 1 variables and the unit splits
over Z of its slices, which give the all-ones maps' ranks that every later
decision of that ideal reads, in any characteristic. Every answer given
through the shared memo must be the one a cleared memo gives; only a
rank's path may say it was read from the integer rank where the cleared
memo computed it."""

import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import ideals
from lefschetz.families import Irr, Jr, LevelAci, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import (MONOMIAL_PARTS, HomogeneousIdeal,
                              NotArtinianError, SliceCache, hilbert_profile,
                              monomial_part, parse_ideal, socle_report,
                              standard_monomials)
from lefschetz.matrices import IntRowEchelon
from lefschetz.rings import HomogeneousPolynomial, linear_form
from lefschetz.sweeps import level_aci_grid
from lefschetz.wlp import COMPUTED, DOWN, INTEGER, kernel_witness, wlp_check
from oracles import full_scan

FIELDS = (QQ, GF(2), GF(3), GF(5))
LEVEL_SLICE = [LevelAci(*point) for point in list(level_aci_grid(7, 2))[:12]]


def _ideal_of(r, gens):
    return HomogeneousIdeal(r, [HomogeneousPolynomial(r, sum(g), {g: 1})
                                for g in gens])


@st.composite
def monomial_ideals(draw):
    """An Artinian monomial ideal in r = 2..4 variables: a pure power of
    every variable, then up to two more generators."""
    r = draw(st.integers(2, 4))
    gens = [tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(r))
            for i in range(r)]
    gens += [g for g in draw(st.lists(st.tuples(*[st.integers(0, 2)] * r),
                                      max_size=2)) if sum(g)]
    return r, gens


def _as_computed(verdict):
    """The verdict with each rank read from the integer rank marked
    computed, as a cleared memo computes it."""
    return replace(verdict, reports=[
        replace(r, path=COMPUTED) if r.path == INTEGER else r
        for r in verdict.reports])


def _answers(I, field, clear):
    """What the library reports about R/I over field: the verdict with its
    per-degree reports, a kernel witness in every degree, the socle and the
    standard monomials. With clear, the memo is emptied before each call."""
    def call(fn, *args):
        if clear:
            monomial_part.cache_clear()
        return fn(*args)

    verdict = call(wlp_check, I, field)
    top = len(verdict.reports)
    return {"verdict": verdict if clear else _as_computed(verdict),
            "witnesses": [call(kernel_witness, I, field, d)
                          for d in range(top)],
            "socle": call(socle_report, I),
            "standard": [call(standard_monomials, I, d)
                         for d in range(top + 1)]}


def _check_shared_against_cleared(order):
    """Decide (ideal, field) pairs in the given order through the shared
    memo, and compare each with a decision from a cleared memo."""
    shared = []
    for I, field in order:
        shared.append(_answers(I, field, clear=False))
        info = monomial_part.cache_info()
        assert info.maxsize == MONOMIAL_PARTS
        assert info.currsize <= MONOMIAL_PARTS
    for (I, field), got in zip(order, shared):
        assert got == _answers(I, field, clear=True), (I.generators, field)


@given(st.lists(monomial_ideals(), min_size=MONOMIAL_PARTS + 2,
                max_size=MONOMIAL_PARTS + 4),
       st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_shared_memo_gives_the_answers_of_a_cleared_one(cases, rnd):
    monomial_part.cache_clear()
    grid = [make_ideal(spec, QQ) for spec in rnd.sample(LEVEL_SLICE, 3)]
    ideals_list = [_ideal_of(r, gens) for r, gens in cases] + grid
    # each ideal in char p first, then the others and char 0 last
    _check_shared_against_cleared(
        [(I, field) for I in ideals_list for field in FIELDS[::-1]])
    # characteristic by characteristic: more distinct ideals than the memo
    # keeps, so entries are evicted and filled again in another field
    _check_shared_against_cleared(
        [(I, field) for field in rnd.sample(FIELDS, len(FIELDS))
         for I in ideals_list])
    # an ideal with its generators in another order has the same entry
    for I in ideals_list:
        gens = rnd.sample(I.generators, len(I.generators))
        assert (SliceCache(HomogeneousIdeal(I.num_vars, gens), GF(5)).shared
                is SliceCache(I, QQ).shared)


def test_shared_data_cannot_be_changed():
    I = make_ideal(LevelAci(2, 3, 4, 5), QQ)
    cache = SliceCache(I, GF(3))
    std = cache.shared.std(4)
    with pytest.raises((TypeError, AttributeError)):
        std[0] = (9, 9, 9)
    with pytest.raises((TypeError, AttributeError)):
        std.reverse()
    standard_monomials(I, 4).reverse()  # a caller's own copy
    socle_report(I).socle_monomials.clear()  # likewise
    assert SliceCache(I, QQ).shared.std(4) == std == tuple(standard_monomials(I, 4))
    assert socle_report(I).cm_type > 0
    h = tuple(hilbert_profile(I, QQ))
    with pytest.raises(FrozenInstanceError):
        cache.profile().values = (1,)
    assert tuple(hilbert_profile(I, QQ)) == h
    first = wlp_check(I, QQ)
    second = wlp_check(make_ideal(LevelAci(2, 3, 4, 5), QQ), QQ)
    assert _as_computed(second) == _as_computed(first)
    assert INTEGER in {r.path for r in second.reports}


@pytest.mark.parametrize("spec, first, second",
                         [(LevelAci(2, 3, 4, 5), GF(3), QQ),
                          (LevelAci(1, 2, 3, 3), QQ, GF(7)),
                          (Jr(4), GF(5), QQ)])
def test_second_characteristic_enumerates_nothing(monkeypatch, spec, first,
                                                  second):
    """Decisions after the first, in another field or with the generators
    in another order, enumerate no standard monomial and build no
    SocleReport. A monomial ideal builds no HilbertProfile either: it reads
    its part's profile and levelness. J_4 builds its own profile."""
    calls = []
    for name in ("standard_monomial_tuples", "HilbertProfile", "SocleReport"):
        def counted(*args, name=name, build=getattr(ideals, name)):
            calls.append(name)
            return build(*args)
        monkeypatch.setattr(ideals, name, counted)
    monomial_part.cache_clear()
    wlp_check(make_ideal(spec, first), first)
    assert "standard_monomial_tuples" in calls
    calls.clear()
    wlp_check(make_ideal(spec, second), second)
    I = make_ideal(spec, second)
    shuffled = random.Random(1).sample(I.generators, len(I.generators))
    wlp_check(HomogeneousIdeal(I.num_vars, shuffled), first)
    assert set(calls) == (set() if I.is_monomial else {"HilbertProfile"})


@pytest.mark.parametrize("spec", [LevelAci(1, 2, 3, 4), Irr(5)], ids=repr)
@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_monomial_decision_enumerates_only_in_r_minus_1_variables(
        monkeypatch, spec, field):
    """The profile comes from the Hilbert-series numerator and each all-ones
    map from the restriction, so the only standard monomials a monomial
    decision enumerates are those of J, in r - 1 variables."""
    num_vars = []
    enumerate_ = ideals.standard_monomial_tuples

    def recorded(mono_gens, r, d):
        num_vars.append(r)
        return enumerate_(mono_gens, r, d)

    monkeypatch.setattr(ideals, "standard_monomial_tuples", recorded)
    monomial_part.cache_clear()
    I = make_ideal(spec, field)
    wlp_check(I, field)
    assert num_vars and set(num_vars) == {I.num_vars - 1}


def test_equal_monomial_parts_share_one_profile():
    """Monomial ideals with an equal monomial part have one Hilbert profile
    in every field: the part's."""
    monomial_part.cache_clear()
    I = make_ideal(LevelAci(2, 3, 4, 5), QQ)
    J = make_ideal(LevelAci(2, 3, 4, 5), GF(5))
    J = HomogeneousIdeal(J.num_vars, J.generators[::-1])
    assert hilbert_profile(I, QQ) is hilbert_profile(J, GF(5))


XYZ = ["x", "y", "z"]


def test_generators_in_any_order_share_one_part():
    """An ideal splits its generators once, when it is built:
    monomial_generators is the sorted distinct tuple, the memo key, so
    ideals that list them in another order, or one twice, share one part
    in every field, with or without a polynomial generator."""
    monomial_part.cache_clear()
    gens = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
    I = _ideal_of(3, gens)
    J = _ideal_of(3, gens[::-1] + [gens[1]])
    assert I.monomial_generators == J.monomial_generators == tuple(
        sorted(gens))
    assert I.polynomial_generators == J.polynomial_generators == []
    part = SliceCache(I, QQ).shared
    for field in FIELDS:
        K = parse_ideal("z^3,x*y*z,x^3,y^3,x^3,x^2*y+z^3", XYZ, field)
        assert K.monomial_generators == I.monomial_generators
        assert len(K.polynomial_generators) == 1 and not K.is_monomial
        assert SliceCache(J, field).shared is part
        assert SliceCache(K, field).shared is part


def test_a_multiple_of_the_all_ones_form_reads_the_part():
    """8(x + y + z) is x + y + z over GF(7), the all-ones form: its failure
    on Irr(3) is conclusive (MMN Prop. 2.2), and its ranks split the part,
    which a decision in a second field reads. Over QQ it is another form,
    whose failure proves nothing and which splits nothing."""
    monomial_part.cache_clear()
    I = make_ideal(Irr(3), QQ)
    part = SliceCache(I, QQ).shared
    v = wlp_check(I, QQ, forms=[linear_form(3, [8, 8, 8], QQ)])
    assert (v.failure_degrees, v.conclusive, part.all_ones) == ([2], False,
                                                                {})
    field = GF(7)
    v = wlp_check(make_ideal(Irr(3), field), field,
                  forms=[linear_form(3, [8, 8, 8], field)])
    assert (v.failure_degrees, v.conclusive) == ([2], True)
    computed = [r.d for r in v.reports if r.path == COMPUTED]
    assert computed == sorted(part.all_ones) == [1, 2, 3]
    field = GF(5)
    v = wlp_check(make_ideal(Irr(3), field), field)
    assert [r.path for r in v.reports if r.d in computed] == [INTEGER] * 3


def test_non_artinian_part_raises_the_same_reason_in_every_field(
        monkeypatch):
    """(x^2, y^3) in x, y, z has no profile to share: each field makes the
    engine's Artinian check again and raises the first field's reason,
    before any monomial is enumerated (whose profile would never end)."""
    def enumerated(*args):
        raise AssertionError("a monomial was enumerated")

    monkeypatch.setattr(ideals, "standard_monomial_tuples", enumerated)
    monomial_part.cache_clear()
    with pytest.raises(NotArtinianError) as first:
        hilbert_profile(parse_ideal("x^2,y^3", XYZ, QQ), QQ)
    assert "variable index 2" in str(first.value)
    for field in (GF(2), QQ):
        I = parse_ideal("x^2,y^3", XYZ, field)
        for ask in (hilbert_profile, wlp_check):
            with pytest.raises(NotArtinianError) as again:
                ask(I, field)
            assert str(again.value) == str(first.value)


def test_level_flag_filled_in_char_p_is_read_in_char_0():
    """The non-level (x^5, y^5, z^2, xy^4, y^2z, xz), decided over GF(2) and
    then over QQ, is scanned down in neither: read as level, its failing
    degree 2 would be taken for injective. Both decisions read the
    levelness of the one shared part (MonomialPart.is_level)."""
    gens = "x^5,y^5,z^2,x*y^4,y^2*z,x*z"
    monomial_part.cache_clear()
    I = parse_ideal(gens, XYZ, GF(2))
    wlp_check(I, GF(2))
    part = SliceCache(I, GF(2)).shared
    assert part.is_level is False
    J = parse_ideal(gens, XYZ, QQ)
    assert SliceCache(J, QQ).shared is part
    got = wlp_check(J, QQ)
    assert DOWN not in {r.path for r in got.reports}
    assert got.failure_degrees == [2]
    monomial_part.cache_clear()
    assert _as_computed(got) == wlp_check(parse_ideal(gens, XYZ, QQ), QQ)


# (x_1^4, ..., x_4^4): a monomial ideal and the monomial part of J_4
CI4 = _ideal_of(4, [tuple(4 * (i == j) for j in range(4)) for i in range(4)])
# char-0 failures over several degrees, and a det M = 2^3 3^4 11^2 point
INTEGER_CASES = [lambda f: CI4, lambda f: make_ideal(Jr(4), f),
                 lambda f: make_ideal(Irr(5), f),
                 lambda f: make_ideal(LevelAci(1, 4, 4, 4), f),
                 lambda f: make_ideal(LevelAci(3, 3, 3, 7), f)]
CHARS = (QQ, GF(2), GF(3), GF(5), GF(7), GF(11))


def _decisions(ascending):
    """(ideal of a field, field, form) in the order decided: per case, a
    char-0 decision with a form that is not all-ones (it has a zero
    coordinate), then every characteristic, 0 first or last."""
    chars = CHARS if ascending else CHARS[::-1]
    for case in INTEGER_CASES:
        r = case(QQ).num_vars
        yield case, QQ, linear_form(r, [1] * (r - 1) + [0], QQ)
        for field in chars:
            yield case, field, None


def _decide(case, field, form):
    """The verdict of the given form, else of the all-ones form: for J_4
    too, so that its all-ones ranks show even where they fail."""
    I = case(field)
    if form is None:
        form = linear_form(I.num_vars, [1] * I.num_vars, field)
    return wlp_check(I, field, forms=[form])


@pytest.mark.parametrize("ascending", [True, False])
def test_integer_ranks_give_the_answers_of_a_cleared_memo(ascending):
    """Decisions that read the all-ones splits of an earlier decision, in
    any characteristic, answer as with a cleared memo, with the
    characteristics decided 0 first or 0 last; among them a char-0
    decision by another form, and J_4, whose monomial part is a monomial
    ideal decided before it."""
    monomial_part.cache_clear()
    shared = [_decide(*step) for step in _decisions(ascending)]
    read = [r for v in shared for r in v.reports if r.path == INTEGER]
    assert read
    for step, got in zip(_decisions(ascending), shared):
        monomial_part.cache_clear()
        assert _as_computed(got) == _decide(*step), step[1:]


# (x^3, y^3, z^3), and an almost complete intersection with that monomial
# part whose Hilbert function differs from it in degree 3 and above
CI3 = _ideal_of(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
ACI3 = "x^3,y^3,z^3,x*y*z-x^2*y"


def _aci3(field):
    return parse_ideal(ACI3, ["x", "y", "z"], field)


def _questions(I, field):
    """(label, call) for what is asked of R/I over field: its Hilbert
    profile; its verdicts by the all-ones form (a monomial ideal's reads
    and fills the integer ranks) and by a form with a zero coordinate,
    which is all-ones in no field; and the full scan of both forms' maps,
    by mult_map_rank in every degree."""
    r = I.num_vars
    ones = linear_form(r, [1] * r, field)
    other = linear_form(r, [1] * (r - 1) + [0], field)
    yield "profile", lambda: hilbert_profile(I, field)
    yield "all-ones", lambda: _as_computed(wlp_check(I, field, forms=[ones]))
    yield "other form", lambda: wlp_check(I, field, forms=[other])
    for name, F in (("all-ones", ones), ("other", other)):
        yield f"full scan {name}", lambda F=F: full_scan(I, F, field)


def _shared_steps(ascending):
    """(label, call) in the order asked: in each characteristic, 0 first or
    last, J_4 before and after (x_i^4), its monomial part, and the almost
    complete intersection before and after (x^3, y^3, z^3)."""
    cases = [("J_4", lambda f: make_ideal(Jr(4), f)), ("CI4", lambda f: CI4),
             ("J_4", lambda f: make_ideal(Jr(4), f)), ("ACI3", _aci3),
             ("CI3", lambda f: CI3), ("ACI3", _aci3)]
    for field in (FIELDS if ascending else FIELDS[::-1]):
        for name, make in cases:
            for label, call in _questions(make(field), field):
                yield (name, field, label), call


@pytest.mark.parametrize("ascending", [True, False])
def test_shared_rows_and_profiles_give_the_answers_of_a_cleared_memo(
        ascending):
    """The part's standard monomials and a monomial ideal's splits, made in
    one field or for one ideal, answer as with a memo cleared before every
    call: for another form, in another degree, and for a non-monomial ideal
    with the same monomial part, whose profile is its own."""
    monomial_part.cache_clear()
    steps = list(_shared_steps(ascending))
    shared = [call() for _, call in steps]
    assert (tuple(hilbert_profile(_aci3(QQ), QQ))
            != tuple(hilbert_profile(CI3, QQ)))
    for (label, call), got in zip(steps, shared):
        monomial_part.cache_clear()
        assert got == call(), label


def test_level_chars_pass_builds_each_map_rows_once(monkeypatch):
    """On the level-chars grid, each point decided in every characteristic
    of the benchmark in turn (the memo cleared per point), the rows of
    each map are built at most once: the rows of J's slice
    (ideals._slice_rows), whose split every later field reads.
    No decision of these monomial ideals builds the rows F*m of a map, or
    a slice echelon, the other caller of _slice_rows."""
    calls, direct = [], []
    rows = ideals._slice_rows
    multiple_rows = SliceCache.multiple_rows

    def counted(gens, part, e):
        calls.append((point, e))
        return rows(gens, part, e)

    def counted_direct(self, poly, monomials, d):
        direct.append((point, d))
        return multiple_rows(self, poly, monomials, d)

    monkeypatch.setattr(ideals, "_slice_rows", counted)
    monkeypatch.setattr(SliceCache, "multiple_rows", counted_direct)
    for point in level_aci_grid(9, 3):
        monomial_part.cache_clear()
        for ch in (0, 2, 3, 5, 7, 11, 13):
            field = GF(ch) if ch else QQ
            wlp_check(make_ideal(LevelAci(*point), field), field)
    assert calls and len(calls) == len(set(calls))
    assert not direct


@pytest.mark.parametrize("spec, first, second",
                         [(LevelAci(2, 3, 4, 5), QQ, GF(3)),
                          (LevelAci(1, 2, 3, 3), GF(7), QQ)])
def test_monomial_profile_builds_no_echelon(monkeypatch, spec, first,
                                            second):
    """A monomial ideal's Hilbert profile is its part's count of standard
    monomials: in a second characteristic it builds no IntRowEchelon and
    equals the first."""
    built = []
    init = IntRowEchelon.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monomial_part.cache_clear()
    profile = hilbert_profile(make_ideal(spec, first), first)
    monkeypatch.setattr(IntRowEchelon, "__init__", counted)
    assert hilbert_profile(make_ideal(spec, second), second) == profile
    assert not built


@pytest.mark.parametrize("spec, has_slices", [(LevelAci(2, 3, 4, 5), False),
                                              (Irr(4), False), (Jr(4), True)])
def test_only_polynomial_generators_give_maps_a_slice_echelon(
        monkeypatch, spec, has_slices):
    """A monomial ideal's all-ones maps are read off its restriction J:
    deciding it, in char 0 and then in char p, builds and copies no slice
    echelon. An ideal with polynomial generators starts its maps from its
    slice echelons."""
    asked = []
    echelon = SliceCache.echelon

    def counted(self, d):
        asked.append(d)
        return echelon(self, d)

    monkeypatch.setattr(SliceCache, "echelon", counted)
    monomial_part.cache_clear()
    for field in (QQ, GF(3)):
        wlp_check(make_ideal(spec, field), field)
    assert bool(asked) == has_slices
