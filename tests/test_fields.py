from fractions import Fraction

import pytest
from sympy import isprime

from lefschetz.fields import (GF, MILLER_RABIN_BOUND, QQ, FieldSpec,
                             is_prime)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)


# psi_12 and psi_13, the least strong pseudoprimes to every prime base up
# to 37 and up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi_12():
    # the bases up to 37 alone called it prime, and GF accepted it
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError, match="characteristic"):
        GF(PSI_12)


def test_is_prime_refuses_psi_13():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert PSI_13 == MILLER_RABIN_BOUND
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="proven range"):
            is_prime(n)
    assert is_prime(PSI_13 - 2) == isprime(PSI_13 - 2)


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
