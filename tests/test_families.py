import pytest

from lefschetz.families import (Aci3, INJN, Irk, Irkd, Irr, Jr, LevelAci,
                                aci3_mod3_obstruction, betti_table,
                                chain_ideal, general_form, make_ideal,
                                predicates)
from lefschetz.fields import GF, QQ
from lefschetz.ideals import hilbert_profile, socle_report
from oracles import aci3_metadata


def test_irkd_generators():
    I = make_ideal(Irkd(4, 3, 2), QQ)
    # 4 pure cubes plus C(4,2) squarefree quadrics
    assert len(I.generators) == 4 + 6
    assert I.is_monomial


def test_irk_is_irr_at_k_equals_r():
    a = make_ideal(Irk(4, 4), QQ)
    b = make_ideal(Irr(4), QQ)
    assert sorted(a.monomial_generators) == sorted(b.monomial_generators)


def test_jr_polynomial_generator():
    I = make_ideal(Jr(3), QQ)
    (g,) = I.polynomial_generators
    # x*y*(x+z) = x^2*y + x*y*z
    assert set(g.terms) == {(2, 1, 0), (1, 1, 1)}


def test_jr_matches_irr_hilbert():
    for r in (3, 4):
        hj = hilbert_profile(make_ideal(Jr(r), QQ), QQ)
        hi = hilbert_profile(make_ideal(Irr(r), QQ))
        assert tuple(hj) == tuple(hi)


def test_levelaci_expansion():
    I = make_ideal(LevelAci(2, 2, 2, 3), QQ)
    assert sorted(I.monomial_generators) == sorted(
        [(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 2)])


def test_levelaci_is_level():
    rep = socle_report(make_ideal(LevelAci(1, 2, 3, 3), QQ))
    assert rep.is_level
    assert rep.cm_type == 3


def test_validation_errors():
    with pytest.raises(ValueError):
        make_ideal(Irkd(3, 3, 5), QQ)  # d > r
    with pytest.raises(ValueError):
        make_ideal(LevelAci(3, 2, 1, 2), QQ)  # not sorted
    with pytest.raises(ValueError):
        Aci3(2, 2, 2, 1, 0, 0)  # complete intersection in disguise
    with pytest.raises(ValueError):
        Irr(2)
    with pytest.raises(ValueError):
        Jr(2)
    with pytest.raises(ValueError):
        INJN(0)
    with pytest.raises(ValueError):
        betti_table(Irr(2))  # no table for a spec make_ideal refuses


def test_aci3_metadata_type_three():
    meta = aci3_metadata(Aci3(3, 3, 3, 1, 1, 1))
    assert meta.cm_type == 3
    assert meta.is_level
    assert meta.socle_degrees == [4, 4, 4]
    assert meta.residual_ideal == (2, 2, 2)


def test_aci3_metadata_missing_variable():
    meta = aci3_metadata(Aci3(3, 3, 3, 0, 1, 2))
    assert meta.cm_type == 2
    assert len(meta.inverse_system) == 2


def test_aci3_metadata_against_socle():
    for spec in (Aci3(3, 4, 5, 1, 2, 3), Aci3(2, 3, 4, 0, 2, 1),
                 Aci3(4, 4, 4, 3, 1, 2)):
        meta = aci3_metadata(spec)
        rep = socle_report(make_ideal(spec, QQ))
        assert sorted(meta.socle_degrees) == rep.socle_degrees
        assert meta.cm_type == rep.cm_type


def test_mod3_obstruction():
    assert aci3_mod3_obstruction(Aci3(3, 3, 3, 1, 1, 1))
    assert not aci3_mod3_obstruction(Aci3(3, 3, 3, 1, 1, 2))


def test_predicates_semistable():
    p = predicates(LevelAci(3, 3, 3, 7))
    assert p.semistable
    assert p.sum_mod3_zero
    assert p.twin_peaks_degree == 2 * 9 // 3 + 7 - 2


def test_predicates_case1():
    # alpha = beta even, gamma - alpha = 3 mod 6, t even and large enough
    p = predicates(LevelAci(2, 2, 5, 4))
    assert p.conjecture_case == "case1"


def test_predicates_case2():
    # alpha = beta odd, gamma - alpha = 0 mod 6, mu = 0
    p = predicates(LevelAci(1, 1, 1, 2))
    assert p.conjecture_case == "case2"


def test_predicates_case3():
    p = predicates(LevelAci(1, 4, 4, 4))
    assert p.conjecture_case == "case3"


def test_predicates_odd_t_never_matches():
    p = predicates(LevelAci(1, 1, 1, 3))
    assert p.conjecture_case == "none"


def test_chain_ideal_endpoints():
    from lefschetz.liaison import ci_hvector
    first = chain_ideal(5, 1)
    # killing x_1 leaves the complete intersection of 4th powers in 4 variables
    assert tuple(hilbert_profile(first)) == tuple(ci_hvector([4, 4, 4, 4]))
    last = chain_ideal(5, 5)
    target = make_ideal(Irr(5), QQ)
    assert sorted(last.monomial_generators) == sorted(target.monomial_generators)


def test_general_form_seeded():
    a = general_form(4, 3, QQ, 12)
    b = general_form(4, 3, QQ, 12)
    c = general_form(4, 3, QQ, 13)
    assert a == b
    assert a != c
    assert all(a.terms.values())


def test_injn_variants():
    power = make_ideal(INJN(2, "power"), QQ)
    general = make_ideal(INJN(2, "general", 5), QQ)
    assert tuple(hilbert_profile(power, QQ)) == tuple(hilbert_profile(general, QQ))


def test_betti_table_alternating_sums():
    for spec in (Irk(3, 3), Irk(4, 2), Aci3(3, 3, 3, 1, 1, 1)):
        n = 3 if isinstance(spec, Aci3) else spec.r
        h = hilbert_profile(make_ideal(spec, QQ))
        upto = h.socle_degree + 2
        got = betti_table(spec).alternating_hilbert(n, upto)
        assert got == tuple(h) + (0,) * (upto - h.socle_degree)


def test_betti_table_last_module():
    bt = betti_table(Irk(3, 3))
    assert bt.positions[-1] == {-7: 3}



def test_betti_table_unavailable():
    with pytest.raises(ValueError):
        betti_table(INJN(2))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=str)
@pytest.mark.parametrize("spec", [
    Irkd(4, 3, 2), Irk(3, 4), Irr(4), Jr(3), Jr(4), Aci3(3, 4, 5, 1, 2, 0),
    LevelAci(2, 2, 2, 3), INJN(3), INJN(3, "general", 1)], ids=str)
def test_generator_coefficients_are_ints(spec, field):
    # char-0 coefficients are Python integers, char-p ones residues
    for g in make_ideal(spec, field).generators:
        assert all(type(c) is int for c in g.terms.values()), g
