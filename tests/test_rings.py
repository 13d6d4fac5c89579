from fractions import Fraction

import pytest

from lefschetz.fields import GF, QQ
from lefschetz.rings import (HomogeneousPolynomial, ParseError,
                             degree_monomials, format_monomial, linear_form,
                             parse_generators, poly_add, poly_mul, poly_pow)
from oracles import mono_divides

XYZ = ["x", "y", "z"]


def test_degree_monomials_count():
    # C(d + n - 1, n - 1) monomials of degree d in n variables
    assert len(degree_monomials(3, 4)) == 15
    assert len(degree_monomials(4, 6)) == 84


def test_degree_monomials_order():
    monos = degree_monomials(3, 2)
    assert monos[0] == (2, 0, 0)
    assert monos[-1] == (0, 0, 2)
    assert list(monos) == sorted(monos, reverse=True)


def test_mono_divides():
    assert mono_divides((1, 0, 1), (2, 1, 1))
    assert not mono_divides((1, 2, 0), (2, 1, 3))


def test_monomial_format():
    assert format_monomial((2, 1, 0), XYZ) == "x^2*y"
    assert format_monomial((0, 0, 0), XYZ) == "1"


def test_parse_single_monomial():
    (g,) = parse_generators("x^3", XYZ, QQ)
    assert g.terms == {(3, 0, 0): 1}


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_non_integer_coefficients_are_rejected(field):
    # linear_form(3, [0.5, 1, 1], field) used to be built, and wlp_check
    # then died of an AttributeError in char 0 or a TypeError from pow
    with pytest.raises(ValueError, match=r"coefficient 0\.5 "):
        linear_form(3, [0.5, 1, 1], field)
    with pytest.raises(ValueError, match=r"coefficient Fraction\(1, 2\) "):
        HomogeneousPolynomial.from_terms(3, {(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"coefficient 1\.5 "):
        HomogeneousPolynomial.monomial(3, (1, 0, 0)).scaled(1.5, field)


def test_parse_product_and_sum():
    (g,) = parse_generators("x*y*z + 2*x^3", XYZ, QQ)
    assert g.terms == {(1, 1, 1): 1, (3, 0, 0): 2}
    assert g.degree == 3


def test_parse_subtraction_and_parens():
    (g,) = parse_generators("(x + y)^2 - x^2", XYZ, QQ)
    assert g.terms == {(1, 1, 0): 2, (0, 2, 0): 1}


def test_parse_generator_list():
    gens = parse_generators("x^2, y^2, x*y", XYZ, QQ)
    assert len(gens) == 3


def test_parse_leading_minus():
    (g,) = parse_generators("-x^2 + y^2", XYZ, QQ)
    assert g.terms[(2, 0, 0)] == -1


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ParseError):
        parse_generators("x^2 + y", XYZ, QQ)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_generators("x + w", XYZ, QQ)


def test_parse_rejects_trailing_junk():
    with pytest.raises(ParseError):
        parse_generators("x^2 )", XYZ, QQ)


@pytest.mark.parametrize("text", ["x^\u00b2", "\u00b2*x", "x^1\u00b2"],
                         ids=["power", "coefficient", "trailing"])
def test_parse_rejects_digits_int_does_not_read(text):
    # str.isdigit accepts a superscript two, which int() does not read:
    # these ended in int()'s own ValueError
    with pytest.raises(ParseError):
        parse_generators(text, XYZ, QQ)


def test_parse_rejects_nesting_past_the_recursion_limit():
    # this ended in a RecursionError
    text = "(" * 1200 + "x" + ")" * 1200 + ",y"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_generators(text, XYZ, QQ)


def test_parse_mod_p_coefficient_collapse():
    f = GF(3)
    (g,) = parse_generators("3*x^2 + y^2", XYZ, f)
    assert g.terms == {(0, 2, 0): 1}


def test_poly_mul_cancellation():
    f = GF(2)
    a = linear_form(2, [1, 1], f)
    sq = poly_mul(a, a, f)
    # (x+y)^2 = x^2 + y^2 over F_2
    assert sq.terms == {(2, 0): 1, (0, 2): 1}


def test_poly_pow_binomial():
    L = linear_form(2, [1, 1], QQ)
    cube = poly_pow(L, 3, QQ)
    assert cube.terms[(2, 1)] == 3
    assert cube.terms[(1, 2)] == 3


def test_poly_add_degree_mismatch():
    a = HomogeneousPolynomial.monomial(2, (1, 0))
    b = HomogeneousPolynomial.monomial(2, (2, 0))
    with pytest.raises(ValueError):
        poly_add(a, b, QQ)


def test_zero_polynomial_needs_degree_tag():
    with pytest.raises(ValueError):
        HomogeneousPolynomial.from_terms(2, {})
    z = HomogeneousPolynomial.from_terms(2, {}, degree=4)
    assert z.is_zero and z.degree == 4


def test_format_roundtrip_through_parser():
    (g,) = parse_generators("x^2*y - 3*y^2*z + z^3", XYZ, QQ)
    (h,) = parse_generators(g.format(XYZ), XYZ, QQ)
    assert g == h
