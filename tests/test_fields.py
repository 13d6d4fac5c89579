from fractions import Fraction

import pytest

from lefschetz.fields import GF, QQ, FieldSpec, is_prime


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_char_zero_arithmetic():
    # char-0 coefficients are plain integers; only inv makes a Fraction
    assert QQ.reduce(3) == 3 and type(QQ.reduce(3)) is int
    assert QQ.reduce(Fraction(1, 2)) == Fraction(1, 2)
    assert QQ.inv(4) == Fraction(1, 4)
    assert QQ.reduce(-2 * QQ.inv(4)) == Fraction(-1, 2)


def test_char_p_arithmetic():
    f = GF(7)
    assert f.reduce(-1) == 6
    assert f.reduce(3 * 5) == 1
    assert f.inv(3) == 5
    assert f.reduce(0 - 1) == 6
    assert f.reduce(Fraction(1, 3)) == 5


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_field_spec_is_hashable():
    assert FieldSpec(5) == GF(5)
    assert len({QQ, GF(2), GF(2)}) == 2
