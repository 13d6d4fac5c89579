"""The candidate-form search of wlp_check on non-monomial ideals.

The forms are tried in order (all-ones, the recognized special forms, the
seeded random ones), each distinct form once. A form that fails is dropped
at its first computed degree that is neither injective nor surjective,
unless it is the last: the verdict of a search is that of its first form
that holds, or else of its last, with the full report either way. The
oracle is strategy="explicit", which decides one form with every degree
it needs computed."""

import pytest

from lefschetz import wlp
from lefschetz.families import INJN, Jr, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import parse_ideal
from lefschetz.rings import linear_form
from lefschetz.wlp import DEFAULT_SEED, DEFAULT_TRIALS, wlp_check

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
    """The distinct forms of strategy="auto", in the order they are tried."""
    r = I.num_vars
    forms = ([wlp._all_ones(r, field)]
             + wlp._recognized_special_forms(I, field)
             + wlp._random_forms(r, field, DEFAULT_TRIALS, DEFAULT_SEED))
    distinct = {}
    for L in forms:
        distinct.setdefault(frozenset(L.terms.items()), L)
    return list(distinct.values())


def explicit(I, field, L):
    return wlp_check(I, field, strategy="explicit", form=L)


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


@pytest.mark.parametrize("strategy", ["random", "auto", "allones"])
def test_trials_below_one_is_rejected(strategy):
    field = GF(3)
    with pytest.raises(ValueError, match="trials"):
        wlp_check(make_ideal(Jr(3), field), field, strategy=strategy,
                  trials=0)


@pytest.mark.parametrize("strategy", ["auto", "random", "allones"])
def test_a_form_with_a_searching_strategy_is_rejected(strategy):
    # the form was dropped: Jr(4) over GF(5) tried 9 other forms instead
    field = GF(5)
    I = make_ideal(Jr(4), field)
    L = linear_form(4, [1, 2, 3, 4], field)
    with pytest.raises(ValueError, match="explicit"):
        wlp_check(I, field, strategy=strategy, form=L)
    assert wlp_check(I, field, strategy="explicit", form=L).forms_tried == 1
