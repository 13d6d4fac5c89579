"""The candidate-form lists of wlp_check, and the paper's search on
non-monomial ideals.

The forms are tried in order (by default candidate_forms: all-ones, the
recognized special forms, the seeded random ones), each distinct form
once. A form that fails is dropped at its first computed degree that is
neither injective nor surjective, unless it is the last: the verdict of a
search is that of its first form that holds, or else of its last, with the
full report either way. The oracle is a one-form list, which decides its
form with every degree it needs computed. A failure is conclusive when the
forms tried include those of a proof."""

import pytest

from lefschetz import wlp
from lefschetz.cli import STRATEGIES
from lefschetz.families import INJN, Irr, Jr, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import parse_ideal
from lefschetz.rings import linear_form
from lefschetz.rings import poly_pow
from lefschetz.wlp import (DEFAULT_SEED, DEFAULT_TRIALS, candidate_forms,
                           wlp_check)

IDEALS = {
    "Jr(3)": lambda f: make_ideal(Jr(3), f),
    "Jr(4)": lambda f: make_ideal(Jr(4), f),
    "INJN(2,power)": lambda f: make_ideal(INJN(2, "power", 0), f),
    "INJN(2,general)": lambda f: make_ideal(INJN(2, "general", 0), f),
    "INJN(3,power)": lambda f: make_ideal(INJN(3, "power", 0), f),
    "INJN(3,general)": lambda f: make_ideal(INJN(3, "general", 0), f),
    "binomial": lambda f: parse_ideal("x^3,y^3,z^3,x^2*y+y^2*z",
                                      ["x", "y", "z"], f),
}
CHARS = (0, 2, 3, 5, 7)
# forms_tried of each decision, as every form's every degree computed gave
FORMS_TRIED = {
    "Jr(3)": (1, 1, 6, 1, 1),
    "Jr(4)": (2, 2, 2, 9, 2),
    "INJN(2,power)": (2, 1, 3, 2, 2),
    "INJN(2,general)": (1, 1, 1, 1, 1),
    "INJN(3,power)": (6, 1, 5, 6, 6),
    "INJN(3,general)": (1, 1, 5, 1, 1),
    "binomial": (1, 1, 5, 1, 1),
}


def field_of(ch):
    return QQ if ch == 0 else GF(ch)


def search_order(I, field) -> list:
    """The distinct forms of the paper's search on a non-monomial ideal, in
    the order they are tried."""
    r = I.num_vars
    forms = ([wlp._all_ones(r)]
             + wlp._recognized_special_forms(I, field)
             + wlp._random_forms(r, field, DEFAULT_TRIALS, DEFAULT_SEED))
    distinct = {}
    for L in forms:
        distinct.setdefault(frozenset(L.terms.items()), L)
    return list(distinct.values())


def explicit(I, field, L):
    return wlp_check(I, field, forms=[L])


@pytest.mark.parametrize("name", IDEALS)
@pytest.mark.parametrize("ch", CHARS)
def test_search_matches_explicit_forms(name, ch):
    field = field_of(ch)
    I = IDEALS[name](field)
    v = wlp_check(I, field)
    assert v.forms_tried == FORMS_TRIED[name][CHARS.index(ch)]
    order = search_order(I, field)
    assert v.form_used.terms == order[v.forms_tried - 1].terms
    if not v.has_wlp:
        assert v.forms_tried == len(order)  # a failing search tries all
    oracle = explicit(I, field, v.form_used)
    assert v.reports == oracle.reports
    assert (v.has_wlp, v.failure_degrees) == (oracle.has_wlp,
                                              oracle.failure_degrees)
    for L in order[:v.forms_tried - 1]:
        assert not explicit(I, field, L).has_wlp


def test_dropped_forms_stop_at_their_first_failing_degree(monkeypatch):
    """Jr(4) over GF(5), h = (1,4,10,20,30,36,34,24,12,4): the first eight
    of its nine forms fail at degree 5, the first step with h_d >= h_{d+1},
    and each computes that map alone. The last computes the seven maps of
    its full report. Computing every degree of every form took 63."""
    calls = []
    rank = wlp._map_rank

    def counted(cache, F, d, de):
        calls.append((frozenset(F.terms.items()), d))
        return rank(cache, F, d, de)

    monkeypatch.setattr(wlp, "_map_rank", counted)
    field = GF(5)
    v = wlp_check(make_ideal(Jr(4), field), field)
    assert v.forms_tried == 9 and v.failure_degrees == [4, 5]
    assert [d for _, d in calls] == [5] * 8 + [5, 6, 0, 1, 2, 3, 4]
    assert len(set(calls)) == len(calls) == 15


@pytest.mark.parametrize("name", IDEALS)
@pytest.mark.parametrize("ch", CHARS)
def test_candidate_forms_are_the_search_order(name, ch):
    field = field_of(ch)
    I = IDEALS[name](field)
    assert ([L.terms for L in candidate_forms(I, field)]
            == [L.terms for L in search_order(I, field)])


def test_a_monomial_ideal_is_searched_by_the_all_ones_form_alone():
    I = make_ideal(Irr(4), QQ)
    assert candidate_forms(I, QQ) == [wlp._all_ones(4)]


def test_the_all_ones_form_is_one_object_for_every_caller():
    """x_1 + ... + x_r has the same terms in every field, so a monomial
    ideal's search, the allones strategy and their verdicts hold the one
    _all_ones(r) in every field."""
    ones = wlp._all_ones(3)
    assert wlp._all_ones(3) is ones
    for field in (QQ, GF(2), GF(7)):
        I, J = make_ideal(Irr(3), field), make_ideal(Jr(3), field)
        assert candidate_forms(I, field)[0] is ones
        assert STRATEGIES["allones"](J, field)[0] is ones
        assert wlp_check(I, field).form_used is ones
        assert wlp_check(J, field, [ones]).form_used is ones


@pytest.mark.parametrize("make", [lambda f: make_ideal(Irr(3), f),
                                  lambda f: make_ideal(Jr(3), f)],
                         ids=["monomial", "Jr(3)"])
def test_trials_below_one_is_rejected(make):
    field = GF(3)
    with pytest.raises(ValueError, match="trials"):
        candidate_forms(make(field), field, trials=0)


def test_forms_are_checked_before_any_is_tried():
    field = GF(5)
    I = make_ideal(Jr(4), field)
    L = linear_form(4, [1, 2, 3, 4], field)
    with pytest.raises(ValueError, match="no candidate form"):
        wlp_check(I, field, forms=[])
    with pytest.raises(ValueError, match="linear"):
        wlp_check(I, field, forms=[L, poly_pow(L, 2, field)])
    with pytest.raises(ValueError, match="in 3 variables"):
        wlp_check(I, field, forms=[L, linear_form(3, [1, 1, 1], field)])
    # each distinct form once: the repeats of L are not tried again
    assert wlp_check(I, field, forms=[L, L, L]).forms_tried == 1


def test_random_forms_are_tried_on_a_monomial_ideal():
    """Irr(4) fails the WLP in char 0 at degree 5. Random forms fail too,
    but without the all-ones form they prove nothing (MMN Prop. 2.2)."""
    I = make_ideal(Irr(4), QQ)
    ones = wlp._all_ones(4)
    drawn = wlp._random_forms(4, QQ, 9, 3)
    v = wlp_check(I, QQ, forms=drawn)
    assert (v.has_wlp, v.failure_degrees) == (False, [5])
    assert v.forms_tried == 9 and v.form_used == drawn[-1] != ones
    assert not v.conclusive
    assert wlp_check(I, QQ, forms=drawn + [ones]).conclusive
    assert wlp_check(I, QQ, forms=[ones] + drawn).conclusive


def test_jr4_failure_is_conclusive_iff_every_special_form_is_tried():
    """Over GF(5) the 8 special forms of J_4 are 5 distinct ones. A failure
    of all 5 proves the WLP fails; 4 of them prove nothing."""
    field = GF(5)
    I = make_ideal(Jr(4), field)
    special = wlp._recognized_special_forms(I, field)
    keys = list(dict.fromkeys(frozenset(L.terms.items()) for L in special))
    assert (len(special), len(keys)) == (8, 5)
    v = wlp_check(I, field, forms=special)
    assert (v.has_wlp, v.conclusive, v.forms_tried) == (False, True, 5)
    for key in keys:
        rest = [L for L in special if frozenset(L.terms.items()) != key]
        v = wlp_check(I, field, forms=rest)
        assert (v.has_wlp, v.conclusive, v.forms_tried) == (False, False, 4)
