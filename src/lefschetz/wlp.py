"""Multiplication-by-form maps on graded slices, WLP verdicts, kernel witnesses.

The rank of x F : (R/I)_d -> (R/I)_{d+e} is computed as
rank(slice(I)_{d+e} plus the rows F*m) minus rank(slice(I)_{d+e}), with all
rows projected onto the standard monomials of the monomial part of I.

Verdict strategy: for monomial ideals the all-ones form decides the WLP
(conclusively); otherwise the all-ones form, then recognized special forms,
then seeded random forms with all coordinates nonzero are tried, each
distinct form once (over a small field the candidates repeat), and any
success certifies the WLP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import FieldSpec
from .ideals import (HomogeneousIdeal, NotArtinianError, SliceCache,
                     hilbert_profile, is_artinian, socle_report)
from .rings import HomogeneousPolynomial, linear_form, poly_mul

DEFAULT_SEED = 0xC0C0A
DEFAULT_TRIALS = 5
_RANDOM_COEFF_RANGE = 100
# r for which a failure of every recognized special form of the J_r family
# is proven to be a failure of the WLP (checked against criterion 6)
_PROVEN_SPECIAL_R = (3, 4)


@dataclass
class DegreeReport:
    d: int
    h_d: int
    h_d1: int
    rank: int
    injective: bool
    surjective: bool

    @property
    def maximal(self) -> bool:
        return self.injective or self.surjective

    @classmethod
    def from_rank(cls, d: int, h_d: int, h_d1: int, rank: int) -> "DegreeReport":
        return cls(d, h_d, h_d1, rank, rank == h_d, rank == h_d1)


@dataclass
class WLPVerdict:
    reports: list
    has_wlp: bool
    failure_degrees: list
    form_used: HomogeneousPolynomial
    field: FieldSpec
    conclusive: bool
    forms_tried: int = 1


def mult_map_rank(I: HomogeneousIdeal, F: HomogeneousPolynomial, d: int,
                  field: FieldSpec, cache: SliceCache | None = None) -> dict:
    """Rank data for x F : (R/I)_d -> (R/I)_{d+deg F}."""
    cache = cache or SliceCache(I, field)
    if not is_artinian(I, field, cache):
        raise NotArtinianError("not Artinian")
    e = F.degree
    h_d = cache.dim(d)
    h_de = cache.dim(d + e)
    rank = _map_rank(cache, F, d, d + e) if h_d and h_de else 0
    return {"h_d": h_d, "h_de": h_de, "rank": rank}


def _map_rank(cache: SliceCache, F: HomogeneousPolynomial, d: int, de: int) -> int:
    rows = cache.slice_rows(de) + cache.multiple_rows(F, cache.std(d), de)
    return cache.rank(rows, len(cache.std(de))) - cache.slice_rank(de)


def _all_ones(r: int, field: FieldSpec) -> HomogeneousPolynomial:
    return linear_form(r, [1] * r, field)


def _recognized_special_forms(I: HomogeneousIdeal, field: FieldSpec) -> list:
    """Special forms for the almost-monomial family
    (x_1^r, ..., x_r^r, x_1...x_{r-1}(x_1 + x_r))."""
    r = I.num_vars
    if len(I.generators) != r + 1:
        return []
    powers = {tuple(r if j == i else 0 for j in range(r)) for i in range(r)}
    if set(I.monomial_generators) != powers:
        return []
    polys = I.polynomial_generators
    if len(polys) != 1:
        return []
    e1 = tuple([2] + [1] * (r - 2) + [0])
    e2 = tuple([1] * (r - 1) + [1])
    if set(polys[0].terms) != {e1, e2}:
        return []
    forms = [linear_form(r, [2] + [1] * (r - 1), field)]
    for t in range(1, 9):
        form = linear_form(r, [t] + [1] * (r - 2) + [-1], field)
        if len(form.terms) == r:  # all coordinates nonzero in this field
            forms.append(form)
    return forms


def _random_forms(r: int, field: FieldSpec, trials: int, seed: int) -> list:
    rng = random.Random(seed)
    forms = []
    for _ in range(trials):
        coeffs = []
        for _ in range(r):
            while True:
                c = rng.randint(-_RANDOM_COEFF_RANGE, _RANDOM_COEFF_RANGE)
                if c and field.reduce(c):
                    break
            coeffs.append(c)
        forms.append(linear_form(r, coeffs, field))
    return forms


def _verdict_for_form(cache, L, profile, level, full_scan) -> WLPVerdict:
    field = cache.field
    h = profile
    D = h.socle_degree
    if D is None:
        return WLPVerdict([], True, [], L, field, True)

    if not full_scan and level:
        plateau = next((d for d in range(D) if h[d] == h[d + 1] and h[d] > 0), None)
        if plateau is not None and all(h[d] < h[d + 1] for d in range(plateau)) \
                and all(h[d] >= h[d + 1] for d in range(plateau, D + 1)):
            # level with an internal plateau: one isomorphism check decides
            rank = _map_rank(cache, L, plateau, plateau + 1)
            if rank == h[plateau]:
                reports = []
                for d in range(D + 1):
                    rk = h[d] if d <= plateau else h[d + 1]
                    reports.append(DegreeReport.from_rank(d, h[d], h[d + 1], rk))
                return WLPVerdict(reports, True, [], L, field, True)
            # not an isomorphism: fall through for honest per-degree reports

    reports = []
    surjective_from = None
    for d in range(D + 1):
        if surjective_from is not None:
            reports.append(DegreeReport.from_rank(d, h[d], h[d + 1], h[d + 1]))
            continue
        rank = _map_rank(cache, L, d, d + 1) if h[d] and h[d + 1] else 0
        rep = DegreeReport.from_rank(d, h[d], h[d + 1], rank)
        reports.append(rep)
        if rep.surjective:
            surjective_from = d
    failures = [rep.d for rep in reports if not rep.maximal]
    return WLPVerdict(reports, not failures, failures, L, field, True)


def wlp_check(I: HomogeneousIdeal, field: FieldSpec, strategy: str = "auto",
              form: HomogeneousPolynomial | None = None,
              trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
              full_scan: bool = False) -> WLPVerdict:
    """Decide the WLP of R/I over the given field.

    strategy: "auto" (all-ones, then recognized special forms, then seeded
    random), "allones", "random", or "explicit" with an explicit form.
    """
    cache = SliceCache(I, field)
    profile = hilbert_profile(I, field, cache)
    level = (socle_report(I, cache, profile).is_level if I.is_monomial
             else False)

    special = []
    if strategy == "explicit":
        if form is None:
            raise ValueError("explicit strategy needs a form")
        if form.degree != 1:
            raise ValueError("Lefschetz candidate must be linear")
        forms = [form]
    elif strategy == "allones" or I.is_monomial:
        forms = [_all_ones(I.num_vars, field)]
    elif strategy == "random":
        forms = _random_forms(I.num_vars, field, trials, seed)
    elif strategy == "auto":
        special = _recognized_special_forms(I, field)
        forms = ([_all_ones(I.num_vars, field)] + special
                 + _random_forms(I.num_vars, field, trials, seed))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    verdict = None
    tried = set()
    for L in forms:
        key = frozenset(L.terms.items())
        if key in tried:
            continue  # the same form again: over a small field draws repeat
        tried.add(key)
        verdict = _verdict_for_form(cache, L, profile, level, full_scan)
        verdict.forms_tried = len(tried)
        if verdict.has_wlp:
            return verdict
    # every tried form failed
    if I.is_monomial and any(L.terms == _all_ones(I.num_vars, field).terms
                             for L in forms):
        verdict.conclusive = True  # all-ones decides monomial ideals
    elif special and I.num_vars in _PROVEN_SPECIAL_R:
        verdict.conclusive = True  # the family's proof-backed forms all failed
    else:
        verdict.conclusive = False
    return verdict


def kernel_witness(I: HomogeneousIdeal, field: FieldSpec, d: int,
                   form: HomogeneousPolynomial | None = None):
    """A nonzero degree-d kernel element of multiplication by the all-ones
    form on (R/I)_d, or None if the map is injective.

    The returned element is re-verified: nonzero modulo the degree-d slice,
    with its image inside the degree-(d+1) slice span."""
    cache = SliceCache(I, field)
    if not is_artinian(I, field, cache):
        raise NotArtinianError("not Artinian")
    L = form if form is not None else _all_ones(I.num_vars, field)
    std_d = cache.std(d)
    if not std_d:
        return None
    ech_next = cache.echelon(d + 1)
    columns = []
    for m in std_d:
        row = [field.reduce(a) for a in cache.project(L.times_monomial(m), d + 1)]
        columns.append(ech_next.reduce(row))
    # solve: find c with sum_m c_m * reduced(L*m) = 0
    matrix = [[field.reduce(col[i]) for col in columns]
              for i in range(len(cache.std(d + 1)))]
    kernel = _nullspace(matrix, len(std_d), field)
    ech_d = cache.echelon(d)
    for vec in kernel:
        witness = HomogeneousPolynomial.from_terms(
            I.num_vars, {m: c for m, c in zip(std_d, vec) if c}, degree=d)
        if witness.is_zero:
            continue
        coords = [field.reduce(a) for a in cache.project(witness, d)]
        if not any(ech_d.reduce(coords)):
            continue  # lies in the ideal slice: zero in the quotient
        witness = _normalize_leading(witness, field)
        _verify_witness(cache, witness, L, d, field)
        return witness
    return None


def _normalize_leading(poly: HomogeneousPolynomial, field: FieldSpec):
    """Scale so the first nonzero coordinate in canonical order is 1."""
    lead = max(poly.terms)
    return poly.scaled(field.inv(poly.terms[lead]), field)


def _verify_witness(cache: SliceCache, witness, L, d: int, field: FieldSpec):
    coords = [field.reduce(a) for a in cache.project(witness, d)]
    if not any(cache.echelon(d).reduce(coords)):
        raise AssertionError("kernel witness lies in the ideal slice")
    image = [field.reduce(a) for a in cache.project(
        poly_mul(L, witness, field), d + 1)]
    if any(cache.echelon(d + 1).reduce(image)):
        raise AssertionError("kernel witness image escapes the ideal slice")


def _nullspace(rows, ncols: int, field: FieldSpec) -> list:
    """Nullspace basis of the matrix (rows x ncols) over the field."""
    rows = [list(r) for r in rows if any(r)]
    pivots = {}  # col -> normalized row
    for row in rows:
        for j, piv in sorted(pivots.items()):
            if row[j]:
                c = row[j]
                row = [field.sub(a, field.mul(c, b)) for a, b in zip(row, piv)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            inv = field.inv(row[lead])
            new = [field.mul(a, inv) for a in row]
            # keep the pivot rows fully reduced (Gauss-Jordan), so the
            # free-variable back-substitution below is a direct read-off
            for other in pivots.values():
                c = other[lead]
                if c:
                    other[:] = [field.sub(a, field.mul(c, b))
                                for a, b in zip(other, new)]
            pivots[lead] = new
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for j in pivots:
            vec[j] = field.neg(pivots[j][f])
        basis.append(vec)
    return basis


def cokernel_dimension(I: HomogeneousIdeal, L: HomogeneousPolynomial, d: int,
                       field: FieldSpec) -> int:
    """dim coker(x L : (R/I)_d -> (R/I)_{d+1})."""
    data = mult_map_rank(I, L, d, field)
    return data["h_de"] - data["rank"]
