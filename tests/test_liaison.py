import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.ideals import HilbertProfile
from lefschetz.liaison import bdl_chain, bdl_step, ci_hvector, diff_of_hf_check

J5_ROW = (1, 5, 15, 35, 70, 120, 180, 240, 285, 300,
          280, 230, 165, 100, 50, 20, 5)


def test_ci_hvector_small():
    assert tuple(ci_hvector([2, 2])) == (1, 2, 1)
    assert tuple(ci_hvector([3, 3, 3])) == (1, 3, 6, 7, 6, 3, 1)


def test_ci_hvector_single_degree():
    assert tuple(ci_hvector([4])) == (1, 1, 1, 1)


@given(st.lists(st.integers(1, 7), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_ci_hvector_symmetric_and_positive(degrees):
    h = ci_hvector(degrees)
    assert h.is_symmetric
    assert all(v > 0 for v in h)
    total = 1
    for d in degrees:
        total *= d
    assert sum(h) == total


def test_bdl_step_shift_and_add():
    h = bdl_step(HilbertProfile((1, 1)), ci_hvector([2, 2]))
    # h'(j) = h(j-1) + delta(j): (1,2,1) + (0,1,1) = (1,3,2)
    assert tuple(h) == (1, 3, 2)


def test_hvector_strips_zeros_and_validates():
    assert tuple(HilbertProfile((1, 2, 0, 0))) == (1, 2)
    with pytest.raises(ValueError):
        HilbertProfile((2, 1))


def test_chain_r5_table():
    rows = bdl_chain(5)
    assert [r.label for r in rows] == ["J1", "J2", "J3", "J4", "J5"]
    assert tuple(rows[0].hvector) == tuple(ci_hvector([4, 4, 4, 4]))
    assert rows[1].link_degrees == (5, 4, 4, 4)
    assert tuple(rows[1].hvector)[:8] == (1, 5, 14, 30, 52, 74, 90, 94)
    assert tuple(rows[-1].hvector) == J5_ROW


def test_chain_r3_matches_direct():
    rows = bdl_chain(3)
    assert tuple(rows[-1].hvector) == (1, 3, 6, 6, 3)


def test_chain_variant_rows_identical():
    for r in (3, 4, 5):
        a = bdl_chain(r, "Irr")
        b = bdl_chain(r, "Jr")
        assert [tuple(x.hvector) for x in a] == [tuple(x.hvector) for x in b]


def test_chain_midpoint_dip():
    # final row is non-increasing across the midpoint C(r,2)
    from math import comb
    for r in (3, 4, 5, 6):
        h = bdl_chain(r)[-1].hvector
        mid = comb(r, 2)
        assert h[mid - 1] >= h[mid]


def test_chain_range_errors():
    with pytest.raises(ValueError):
        bdl_chain(2)
    with pytest.raises(ValueError):
        bdl_chain(8)
    with pytest.raises(ValueError):
        bdl_chain(4, "bogus")


def test_diff_of_hf_all_small_s():
    for s in range(2, 9):
        assert diff_of_hf_check(s)
    with pytest.raises(ValueError):
        diff_of_hf_check(1)
