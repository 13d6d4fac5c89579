"""Property tests for the sparse elimination kernel behind mod_rank,
IntRowEchelon and rank_int_rows, against sympy's DomainMatrix ranks, and
for the lemma that the rank over Z answers every characteristic not
dividing the lead product."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.matrices import IntRowEchelon, mod_rank, rank_int_rows

domainmatrix = pytest.importorskip("sympy.polys.matrices")
sympy_domains = pytest.importorskip("sympy.polys.domains")

PRIMES = [2, 3, 7, 2**31 - 1, 3037000493, 18446744073709551629]  # 2^64 + 13


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


def oracle_nullity(rows, ncols, domain) -> int:
    """Dimension of {c : sum_j c_j r_j = 0}, the nullspace of the matrix
    whose columns are the rows."""
    if not rows:
        return 0
    m = domainmatrix.DomainMatrix.from_list(rows, domain).transpose()
    return m.nullspace().shape[0]


def check_relations(case, split, p):
    """relations() over the rows after `split`, against an echelon of the
    rows before it: one relation per row that does not raise the rank, each
    a combination with its own row's coefficient nonzero that reduces to
    zero, and the echelon left as it was."""
    rows, ncols = case
    start, rows = rows[:split], rows[split:]
    domain = sympy_domains.GF(p) if p else sympy_domains.QQ
    ech = IntRowEchelon(ncols, p)
    for row in start:
        ech.add(row)
    pivots = {j: list(piv) for j, piv in ech.pivots.items()}
    rels = list(ech.relations(rows))
    gain = oracle_rank(start + rows, ncols, domain) - oracle_rank(start, ncols,
                                                                   domain)
    assert len(rels) == len(rows) - gain
    lasts = []  # the highest row each relation uses: its own row
    for c in rels:
        assert len(c) == len(rows)
        lasts.append(max(i for i, x in enumerate(c) if x))
        combo = [sum(x * r[j] for x, r in zip(c, rows)) for j in range(ncols)]
        assert not any(ech.reduce(combo))
    assert lasts == sorted(set(lasts))  # one relation per dependent row
    assert ech.pivots == pivots  # relations() leaves the echelon unchanged
    if not start:
        assert len(rels) == oracle_nullity(rows, ncols, domain)


@given(int_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_relations_over_q(case, data):
    check_relations(case, data.draw(st.integers(0, len(case[0]))), 0)


@pytest.mark.parametrize("p", PRIMES)
@given(case=int_matrices(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_relations_over_fp(p, case, data):
    check_relations(case, data.draw(st.integers(0, len(case[0]))), p)


@given(int_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_ranks_ignore_row_and_column_order(case, data):
    # the order of rows and columns sets the fill, never the rank; and a
    # {column: entry} row ranks like its dense form, whether it holds only
    # nonzero entries (residues over F_p) or zeros and unreduced entries
    # too, and is left as it was
    rows, ncols = case
    p = data.draw(st.sampled_from(PRIMES))
    expected = {0: oracle_rank(rows, ncols, sympy_domains.QQ),
                p: oracle_rank(rows, ncols, sympy_domains.GF(p))}
    perm = data.draw(st.permutations(range(ncols)))
    moved = [[row[j] for j in perm] for row in data.draw(st.permutations(rows))]
    for q, rank in expected.items():
        sparse = [{j: a % q if q else a for j, a in enumerate(row)
                   if (a % q if q else a)} for row in moved]
        raw = [dict(enumerate(row)) for row in moved]
        given_rows = [dict(row) for row in sparse + raw]
        for m in (moved, sparse, raw):
            assert (mod_rank(m, ncols, q) if q
                    else rank_int_rows(m, ncols)) == rank
            ech = IntRowEchelon(ncols, q)
            for row in m:
                ech.add(row)
            assert ech.rank == rank
            # a copy seeded with the first rows reaches the same rank and
            # leaves its source as it was
            half = IntRowEchelon(ncols, q)
            seeded = half.extend(m[:len(m) // 2])
            assert half.copy().extend(m[len(m) // 2:]) == rank
            assert half.rank == seeded
        assert sparse + raw == given_rows


def test_dict_rows_with_zero_or_unreduced_entries():
    assert rank_int_rows([{0: 0}], 2) == 0
    assert rank_int_rows([{0: 2, 1: 0}, {0: -4}], 2) == 1
    assert mod_rank([{0: 1, 1: 7}, {0: 1}], 2, 7) == 1
    assert mod_rank([{0: 8, 1: -6}, {0: 1, 1: 1}], 2, 7) == 1
    ech = IntRowEchelon(2, 7)
    assert not ech.add({0: 7, 1: 14})
    assert ech.add({1: 15}) and ech.reduce({0: 0, 1: 3}) == [0, 0]


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def stored_minor(rows, ncols):
    """The echelon of the rows, and det of the rows that raised its rank on
    their lead columns, by sympy."""
    ech = IntRowEchelon(ncols)
    stored = [row for row in rows if ech.add(row)]
    cols = sorted(ech.pivots)
    minor = [[row[j] for j in cols] for row in stored]
    det = (domainmatrix.DomainMatrix.from_list(minor, sympy_domains.ZZ).det()
           if minor else 1)
    return ech, int(det)


@given(int_matrices(), st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_over_q_is_the_rank_mod_every_prime_not_dividing_leads(
        case, p, data):
    """Rows with a common factor p are mixed in. lead_product is +-det of
    the rows that raised the rank on their lead columns, a copy keeps it,
    and for every small prime q that does not divide it, rank over F_q
    equals rank over Q."""
    rows, ncols = case
    rows = [[p * x for x in row] if data.draw(st.booleans()) else row
            for row in rows]
    ech, det = stored_minor(rows, ncols)
    rank = ech.rank
    assert abs(ech.lead_product) == abs(det) != 0
    assert ech.copy().lead_product == ech.lead_product
    for q in SMALL_PRIMES:
        rank_q = oracle_rank(rows, ncols, sympy_domains.GF(q))
        if ech.lead_product % q:
            assert rank_q == rank


@pytest.mark.parametrize("rows, ncols, lead_product", [
    ([[2, 2]], 2, 2),  # its primitive lead is 1; its rank over F_2 is 0
    ([[2, 1], [0, 3], [4, 2]], 2, 6),  # the last row adds no lead
    ([[0, 5], [3, 1], [6, 7]], 2, 15),  # the last row reduces to zero
    # the second row is scaled by 2, and the scaling is divided out: det
    ([[2, 1], [3, 0]], 2, -3),
    # the last row is scaled by 2, then by 3: det
    ([[2, 0, 1], [0, 3, 1], [5, 7, 0]], 3, -29),
])
def test_lead_product_values(rows, ncols, lead_product):
    ech = IntRowEchelon(ncols)
    for row in rows:
        ech.add(row)
    assert ech.lead_product == lead_product
    assert ech.copy().lead_product == lead_product
    assert IntRowEchelon(ncols, 2).lead_product == 1  # kept over Z only
