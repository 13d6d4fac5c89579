import random
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.fields import GF, QQ
from lefschetz.matrices import (IntRowEchelon, clear_denominators,
                                det_integer, factor, gcd_of_maximal_minors,
                                mod_rank, rank_int_rows, unit_split)
from oracles import det_cofactor, rank_rows


def test_mod_rank_identity():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mod_rank(rows, 3, 7) == 3


def test_mod_rank_dependent_rows():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert mod_rank(rows, 3, 101) == 2


@pytest.mark.parametrize("p", [0, 1, 4, 2**31])
def test_mod_rank_rejects_non_primes(p):
    # p = 0 used to give the rank over Q, p = 1 rank 0, p = 4 a pow error
    with pytest.raises(ValueError, match="must be a prime"):
        mod_rank([[1, 1], [1, -1]], 2, p)
    if p:  # IntRowEchelon takes p = 0 for Z
        with pytest.raises(ValueError, match="must be a prime"):
            IntRowEchelon(2, p)


# the largest prime with p*p < 2^63, a prime past 2^32, the least past 2^64
@pytest.mark.parametrize("p", [3037000493, 11448649999,
                               18446744073709551629])
def test_mod_rank_exact_on_rank_one_rows_at_large_primes(p):
    rng = random.Random(4)
    for _ in range(50):
        u = [rng.randrange(1, p) for _ in range(3)]
        v = [rng.randrange(1, p) for _ in range(3)]
        assert mod_rank([[a * b % p for b in v] for a in u], 3, p) == 1


def test_rank_catches_char_p_collapse():
    # rank 2 over Q but 1 over F_2
    rows = [[1, 1], [1, -1]]
    assert rank_int_rows(rows, 2) == 2
    assert mod_rank(rows, 2, 2) == 1


def test_int_echelon_matches_mod_rank_randomized():
    rng = random.Random(6)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        ech = IntRowEchelon(n)
        for row in rows:
            ech.add(row)
        assert ech.rank == rank_int_rows(rows, n)


def test_echelon_reduce_membership():
    ech = IntRowEchelon(3)
    ech.add([1, 2, 0])
    ech.add([0, 0, 5])
    assert not any(ech.reduce([2, 4, 10]))
    assert any(ech.reduce([1, 0, 0]))


def test_clear_denominators():
    row = [Fraction(1, 2), Fraction(2, 3), 1]
    assert clear_denominators(row) == [3, 4, 6]


def test_clear_denominators_rejects_sparse_rows():
    # iterating a {column: entry} row reads its columns: [3, 7] here, and
    # rank_rows([{0: 1}, {0: 2}], 2, QQ) came out as 0
    with pytest.raises(TypeError):
        clear_denominators({3: 2, 7: 4})
    with pytest.raises(TypeError):
        rank_rows([{0: 1}, {0: 2}], 2, QQ)
    assert clear_denominators({3: 2, 7: 4}.values()) == [1, 2]


def test_rank_rows_over_gf():
    f = GF(5)
    rows = [[1, 2], [3, 1]]  # det = 1 - 6 = -5 = 0 mod 5
    assert rank_rows(rows, 2, f) == 1
    assert rank_rows(rows, 2, QQ) == 2


def test_det_bareiss_vs_cofactor_randomized():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        entries = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert det_integer(entries) == det_cofactor(entries)


def test_det_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        det_integer([[1, 2, 3], [4, 5, 6]])


def test_det_rejects_ragged_rows():
    with pytest.raises(ValueError, match="differ in length"):
        det_integer([[1, 2], [3]])
    with pytest.raises(ValueError, match="differ in length"):
        det_integer([[1, 2, 3], [4, 5], [6, 7]])


def test_det_singular():
    assert det_integer([[1, 2], [2, 4]]) == 0


def test_factor_known_value():
    factors, cofactor = factor(78408)
    assert factors == {2: 3, 3: 4, 11: 2}
    assert cofactor == 1


def test_factor_large_prime_cofactor():
    p = 2**31 - 1  # prime
    factors, cofactor = factor(12 * p)
    assert factors == {2: 2, 3: 1, p: 1}
    assert cofactor == 1


def test_factor_leaves_a_pseudoprime_cofactor_unresolved():
    # psi_12 = 399165290221 * 798330580441 came back as ({psi_12: 1}, 1),
    # a complete factorization into one prime
    psi_12 = 318665857834031151167461
    assert factor(psi_12) == ({}, psi_12)
    assert factor(-10 * psi_12) == ({2: 1, 5: 1}, psi_12)


def test_factor_leaves_a_cofactor_past_is_prime_unresolved():
    psi_13 = 3317044064679887385961981
    assert factor(psi_13) == ({}, psi_13)
    assert factor(12 * psi_13) == ({2: 2, 3: 1}, psi_13)
    p = 2**89 - 1  # a prime, but past the proven range of is_prime
    assert factor(7 * p) == ({7: 1}, p)


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_gcd_of_maximal_minors_small():
    # all 2x2 minors of this 3x2 matrix are even
    assert gcd_of_maximal_minors([[2, 0], [0, 2], [2, 2]]) == 4


def test_gcd_of_maximal_minors_square():
    assert gcd_of_maximal_minors([[1, 0], [0, 3]]) == 3


def test_gcd_of_maximal_minors_rejects_ragged_rows():
    with pytest.raises(ValueError, match="differ in length"):
        gcd_of_maximal_minors([[2, 0], [0, 2], [2]])
    with pytest.raises(ValueError, match="differ in length"):
        gcd_of_maximal_minors([[2], [0, 2], [2, 2]])


def test_int_rows_reject_fractions():
    # a Fraction entry used to be truncated: det [[1/2]] came out as 0 and
    # the minor gcd of [[1/2], [3/2]] as 1
    with pytest.raises(ValueError, match="not an integer"):
        det_integer([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="not an integer"):
        gcd_of_maximal_minors([[3], [Fraction(1, 2)]])


SPLIT_PRIMES = (2, 3, 5, 7, 11, 13, 2**31 - 1)


@st.composite
def integer_rows(draw):
    """(rows, ncols): rows of 0, +-1 and small entries, with zero rows and
    repeated rows among them, each dense or a {column: entry} dict."""
    ncols = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, 1, -1, 2, -2, 3, 4, -6, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=8))
    rows += [[0] * ncols] * draw(st.integers(0, 1))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = draw(st.permutations(rows))
    return [{j: a for j, a in enumerate(row) if a} if draw(st.booleans())
            else row for row in rows], ncols


@given(integer_rows())
@settings(max_examples=300, deadline=None)
def test_unit_split_gives_the_rank_in_every_field(case):
    """k plus the core's rank is the rank over Q and over each F_p, and
    the given rows are left unchanged."""
    rows, ncols = case
    before = deepcopy(rows)
    k, core = unit_split(rows, ncols)
    assert rows == before
    assert k + rank_int_rows(core, ncols) == rank_int_rows(rows, ncols)
    for p in SPLIT_PRIMES:
        assert k + mod_rank(core, ncols, p) == mod_rank(rows, ncols, p), p


def test_unit_split_clears_the_pivot_columns_from_the_core():
    """P = [0 1] is a pivot and C = [2 1], of lead 2, goes to the core.
    Over GF(2) both rows are [0 1], of rank 1; the core left uncleared,
    [2 1] = [0 1] mod 2, would add 1."""
    rows = [[0, 1], [2, 1]]
    k, core = unit_split(rows, 2)
    assert (k, core) == (1, [{0: 2}])
    assert k + mod_rank(core, 2, 2) == mod_rank(rows, 2, 2) == 1
    assert k + rank_int_rows(core, 2) == 2


def test_unit_split_clears_a_pivot_column_an_earlier_clearing_fills():
    """C = [2 0 1] goes to the core before the pivots P0 = [1 1 0] and
    P1 = [0 1 1] arrive. Clearing column 0 takes C to [0 -2 1], which fills
    column 1, P1's lead; clearing that gives [0 0 3]. The rows have det 3:
    rank 3 over Q, F_2 and F_5, and 2 over F_3, where the core [0 -2 1],
    left uncleared of column 1, would add 1."""
    rows = [[2, 0, 1], [1, 1, 0], [0, 1, 1]]
    k, core = unit_split(rows, 3)
    assert (k, core) == (2, [{2: 3}])
    assert k + rank_int_rows(core, 3) == rank_int_rows(rows, 3) == 3
    for p, rank in ((2, 3), (3, 2), (5, 3)):
        assert k + mod_rank(core, 3, p) == mod_rank(rows, 3, p) == rank, p
