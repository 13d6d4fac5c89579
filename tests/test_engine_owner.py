"""The slice engine owns an ideal's Hilbert profile and its Artinian test:
every entry point builds one engine and gives its reason for a
non-Artinian quotient, the profile is computed once per engine, and inputs
the engine cannot answer for (a form in another number of variables, a
generator that vanishes in the decision field) are rejected rather than
answered wrongly."""

import pytest

from lefschetz import ideals
from lefschetz.families import Jr, LevelAci, make_ideal
from lefschetz.fields import GF, QQ
from lefschetz.ideals import (HilbertProfile, NotArtinianError, SliceCache,
                              hilbert_profile, is_artinian, parse_ideal,
                              socle_report)
from lefschetz.liaison import ci_hvector
from lefschetz.rings import linear_form
from lefschetz.wlp import kernel_witness, mult_map_rank, wlp_check

XYZ = ["x", "y", "z"]


@pytest.mark.parametrize("text, reason", [
    ("x^2,y^2", "not Artinian: variable index 2 has no pure power"),
    ("x^2,y^2,x*z+y*z",
     "not Artinian: no vanishing slice below degree cap 6"),
])
@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_every_entry_point_gives_the_engine_reason(text, reason, field):
    I = parse_ideal(text, XYZ, field)
    assert not is_artinian(I, field)
    L = linear_form(3, [1, 1, 1], field)
    calls = [lambda: hilbert_profile(I, field),
             lambda: mult_map_rank(I, L, 1, field),
             lambda: kernel_witness(I, field, 1),
             lambda: wlp_check(I, field)]
    if I.is_monomial:
        calls.append(lambda: socle_report(I))
    for call in calls:
        with pytest.raises(NotArtinianError) as exc:
            call()
        assert str(exc.value) == reason


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("I", [
    lambda f: parse_ideal("x^3,y^3,z^3,x*y*z", XYZ, f),   # monomial route
    lambda f: make_ideal(Jr(4), f),                      # pure powers
    lambda f: parse_ideal("x^2,y^2,z^2-x*y", XYZ, f),   # general route
])
def test_second_profile_recomputes_nothing(I, field, monkeypatch):
    cache = SliceCache(I(field), field)
    first = cache.profile()

    def recomputed(*args):
        raise AssertionError("the profile was computed again")

    monkeypatch.setattr(SliceCache, "dim", recomputed)
    monkeypatch.setattr(SliceCache, "echelon", recomputed)
    assert cache.profile() is first
    assert not cache.not_artinian()


@pytest.mark.parametrize("spec, field", [(Jr(4), GF(5)),
                                         (LevelAci(1, 2, 3, 4), QQ)])
def test_each_entry_point_builds_one_engine(spec, field, monkeypatch):
    """A second engine would eliminate every slice echelon of J_4 again:
    wlp_check reads its own engine's profile, not hilbert_profile's."""
    built = []
    init = SliceCache.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(SliceCache, "__init__", counted)
    I = make_ideal(spec, field)
    L = linear_form(I.num_vars, [1] * I.num_vars, field)
    calls = [lambda: wlp_check(I, field), lambda: hilbert_profile(I, field),
             lambda: is_artinian(I, field),
             lambda: mult_map_rank(I, L, 2, field),
             lambda: kernel_witness(I, field, 2)]
    if I.is_monomial:
        calls.append(lambda: socle_report(I))
    for call in calls:
        built.clear()
        call()
        assert len(built) == 1


def test_profile_and_ci_hvector_are_one_type():
    h = hilbert_profile(parse_ideal("x^3,y^4,z^5", XYZ, QQ))
    assert h == ci_hvector([3, 4, 5])
    assert type(h) is HilbertProfile
    assert (len(h), h.socle_degree, h.is_symmetric) == (10, 9, True)


@pytest.mark.parametrize("num_vars", [2, 4])
def test_form_in_another_number_of_variables_rejected(num_vars):
    """Also where no row is built: h = (1, 3, 3, 1), so the map from degree
    3 has a zero target and degree 4 is zero; (x, y, z) has no map at all."""
    I = parse_ideal("x^2,y^2,z^2", XYZ, QQ)
    form = linear_form(num_vars, [1] * num_vars, QQ)
    calls = [lambda: wlp_check(I, QQ, forms=[form]),
             lambda: wlp_check(parse_ideal("x,y,z", XYZ, QQ), QQ,
                               forms=[form])]
    for d in (1, 3, 4):
        calls += [lambda d=d: kernel_witness(I, QQ, d, form=form),
                  lambda d=d: mult_map_rank(I, form, d, QQ)]
    for call in calls:
        with pytest.raises(ValueError, match=f"in {num_vars} variables"):
            call()


def test_generator_vanishing_in_the_decision_field_rejected():
    I = parse_ideal("x^2,3*y^2,z^2", XYZ, QQ)
    with pytest.raises(ValueError) as parsed:
        parse_ideal("x^2,3*y^2,z^2", XYZ, GF(3))
    for call in (lambda: wlp_check(I, GF(3)),
                 lambda: hilbert_profile(I, GF(3)),
                 lambda: SliceCache(I, GF(3))):
        with pytest.raises(ValueError) as exc:
            call()
        assert not isinstance(exc.value, NotArtinianError)
        assert str(exc.value) == str(parsed.value)
    assert wlp_check(I, GF(5)).has_wlp  # 3 is a unit mod 5


def test_kernel_witness_scales_its_form_once(monkeypatch):
    """One multiple_rows call for the form's rows: beyond what the engine's
    echelons need, one clear_denominators call (there were 71, one per
    row)."""
    calls = []
    clear = ideals.clear_denominators

    def counted(row):
        calls.append(row)
        return clear(row)

    monkeypatch.setattr(ideals, "clear_denominators", counted)
    I = make_ideal(Jr(5), QQ)
    cache = SliceCache(I, QQ)
    cache.echelon(4), cache.echelon(5)
    engine_calls = len(calls)
    calls.clear()
    assert kernel_witness(I, QQ, 4) is None
    assert len(calls) == engine_calls + 1
