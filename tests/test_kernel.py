"""Property tests for the sparse elimination kernel behind mod_rank,
IntRowEchelon and rank_int_rows, against sympy's DomainMatrix ranks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.matrices import IntRowEchelon, mod_rank, rank_int_rows

domainmatrix = pytest.importorskip("sympy.polys.matrices")
sympy_domains = pytest.importorskip("sympy.polys.domains")

PRIMES = [2, 3, 7, 2**31 - 1, 3037000493]


def oracle_rank(rows, ncols, domain) -> int:
    if not rows:
        return 0
    return domainmatrix.DomainMatrix.from_list(rows, domain).rank()


@st.composite
def int_matrices(draw):
    """Integer matrices up to 8 x 7: dense with entries up to 10^6, dense
    with entries in [-2, 2], or a product of thin factors (rank below the
    shape); then zero rows and scaled duplicate rows added, and the rows
    shuffled."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "small", "thin"]))
    if kind == "thin":
        k = draw(st.integers(0, min(nrows, ncols)))
        entry = st.integers(-1000, 1000)
        a = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                          min_size=nrows, max_size=nrows))
        b = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
        rows = [[sum(x * b[t][j] for t, x in enumerate(ra))
                 for j in range(ncols)] for ra in a]
    else:
        bound = 10**6 if kind == "dense" else 2
        entry = st.integers(-bound, bound)
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([0] * ncols)
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            src = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([1, -1, 2, -3, 7]))
            rows.append([scale * x for x in src])
    return draw(st.permutations(rows)), ncols


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_over_q_matches_sympy(case):
    rows, ncols = case
    expected = oracle_rank(rows, ncols, sympy_domains.QQ)
    assert rank_int_rows(rows, ncols) == expected
    ech = IntRowEchelon(ncols)
    for row in rows:
        ech.add(row)
    assert ech.rank == expected


@pytest.mark.parametrize("p", PRIMES)
@given(case=int_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_over_fp_matches_sympy(p, case):
    rows, ncols = case
    assert mod_rank(rows, ncols, p) == oracle_rank(rows, ncols,
                                                   sympy_domains.GF(p))


@given(int_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_is_zero_exactly_for_members(case, data):
    rows, ncols = case
    ech = IntRowEchelon(ncols)
    for row in rows:
        ech.add(row)
    if rows and data.draw(st.booleans()):
        # an integer combination of the rows: always a member
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows),
                                    max_size=len(rows)))
        row = [sum(c * r[j] for c, r in zip(coeffs, rows))
               for j in range(ncols)]
    else:
        row = data.draw(st.lists(st.integers(-3, 3), min_size=ncols,
                                 max_size=ncols))
    rank = ech.rank
    member = (oracle_rank(rows + [row], ncols, sympy_domains.QQ)
              == oracle_rank(rows, ncols, sympy_domains.QQ))
    remainder = ech.reduce(row)
    assert len(remainder) == ncols
    assert (not any(remainder)) == member
    assert ech.rank == rank  # reduce leaves the echelon as it was
    assert ech.add(row) == (not member)
