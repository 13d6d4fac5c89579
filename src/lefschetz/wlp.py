"""Multiplication-by-form maps on graded slices, WLP verdicts, kernel witnesses.

The rank of x F : (R/I)_d -> (R/I)_{d+e} is computed as
rank(slice(I)_{d+e} plus the rows F*m) minus rank(slice(I)_{d+e}), with all
rows projected onto the standard monomials of the monomial part of I; but
wlp_check takes a monomial ideal's all-ones map from the restriction of I
to r - 1 variables (below).

Per-degree ranks (Prop. 2.1 of the source paper, for any linear form L and
any field). Write A = R/I, h its Hilbert function and D its socle degree.
- (a) If x L : A_d -> A_{d+1} is onto, so is the next map, in any A:
  A_{d+2} = A_1 A_{d+1} = A_1 L A_d = L A_1 A_d, inside L A_{d+1}.
- (b) If A is level and x L : A_d -> A_{d+1} is injective, so is the map
  from A_{d-1}: take a in A_{d-1} with L a = 0. Then L (x a) = 0 for every
  linear x, so x a = 0 by injectivity in degree d, and a is in the socle.
  The socle of a level algebra lies in degree D > d - 1 alone, so a = 0.
So a WLP decision computes the maps up from the first step with
h_d >= h_{d+1} (no earlier step is onto) to the first surjective step d_s,
and, for a level algebra, down from d_s to the first injective step d_i.
Degrees above d_s have rank h_{d+1}, degrees below d_i rank h_d, and each
degree between is computed once. In a level algebra every degree strictly
between d_i and d_s fails (neither onto, being below d_s, nor injective,
being above d_i), so a WLP that holds at a plateau h_p = h_{p+1} takes one
map, and a failure its failing degrees and at most the two steps around
them. DegreeReport.path says which of the three gave a degree its rank,
or that a computed rank was read from an integer one (below).

Work shared across characteristics. A monomial ideal's MonomialPart owns
its Hilbert profile, from the Hilbert-series numerator, whether it is
level, and the rank of its all-ones map in each degree
(``MonomialPart.all_ones_rank``, by the restriction lemma of ``ideals``):
the first decision that needs a degree, in any characteristic, splits the
rows of the restriction's slice over Z once, and every later decision of
that ideal, char 0 or p, reads the rank from that split (path INTEGER).
So a first decision enumerates standard monomials only in r - 1
variables, the restriction's, and one in a further characteristic
enumerates nothing and builds no profile or socle; it reads h once,
padded with h_{D+1} = 0, and builds each DegreeReport and the failure
degrees in one pass. mult_map_rank and kernel_witness neither read nor
fill these splits: they eliminate the rows F*m of the map itself, in every
degree asked, so they check the lemma and the propagation independently.

Candidate forms: wlp_check tries the given forms in order, each distinct
form once, and any success certifies the WLP. By default it tries
candidate_forms, the paper's search: the all-ones form alone for a
monomial ideal, else the all-ones form, recognized special forms and
seeded random forms. The all-ones form x_1 + ... + x_r has the same terms
in every field, so it is one object, ``_all_ones(r)``, in all. A form
equal to it, such as 8(x_1 + x_2 + x_3) over F_7, is taken as it. A
failing search reports its last form (reports, failure degrees,
form_used); each earlier one stops at its first computed degree that is
not maximal, usually the first step with h_d >= h_{d+1}. A failure is
conclusive when the forms tried include those of a proof: all-ones for a
monomial ideal (MMN Prop. 2.2), every recognized special form of J_r for r
in _PROVEN_SPECIAL_R.

Each public function builds and reads one slice engine: NotArtinianError
for a non-Artinian R/I, ValueError for a form not linear or in another
number of variables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .fields import QQ, FieldSpec
from .ideals import HomogeneousIdeal, SliceCache
from .rings import HomogeneousPolynomial, linear_form, poly_mul

DEFAULT_SEED = 0xC0C0A
DEFAULT_TRIALS = 5
_RANDOM_COEFF_RANGE = 100
# r for which a failure of every recognized special form of the J_r family
# is proven to be a failure of the WLP (checked against criterion 6)
_PROVEN_SPECIAL_R = (3, 4)


# how a DegreeReport's rank was obtained
COMPUTED = "computed"
INTEGER = "read from the integer rank"  # MonomialPart.all_ones_rank
UP = "propagated up"  # from a surjective step below, Prop. 2.1(a)
DOWN = "propagated down"  # from an injective step above, Prop. 2.1(b)


@dataclass(slots=True)
class DegreeReport:
    d: int
    h_d: int
    h_d1: int
    rank: int
    injective: bool
    surjective: bool
    path: str = COMPUTED


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
                  field: FieldSpec) -> dict:
    """Rank data for x F : (R/I)_d -> (R/I)_{d+deg F}; its cokernel has
    dimension h_de - rank."""
    cache = SliceCache(I, field)
    cache.require_same_ring(F)
    cache.require_artinian()
    de = d + F.degree
    h_d, h_de = cache.dim(d), cache.dim(de)
    rank = _map_rank(cache, F, d, de) if h_d and h_de else 0
    return {"h_d": h_d, "h_de": h_de, "rank": rank}


def _map_rank(cache: SliceCache, F: HomogeneousPolynomial, d: int,
              de: int) -> int:
    """Rank of x F : (R/I)_d -> (R/I)_de, what the rows F*m, m in std(d),
    add to the rank of the degree-de slice.

    A copy of the cached echelon of the degree-de slice (left unchanged,
    and empty for a monomial ideal) takes the rows F*m, m in the order of
    ``ideals._slice_rows``, until it reaches full rank."""
    ech = cache.echelon(de).copy()
    slice_rank = ech.rank
    rows = cache.multiple_rows(F, cache.shared.std(d)[::-1], de)
    return ech.extend(rows) - slice_rank


@lru_cache(maxsize=None)
def _all_ones(r: int) -> HomogeneousPolynomial:
    """x_1 + ... + x_r, the same in every field: one object, never mutated."""
    return linear_form(r, [1] * r, QQ)


def _recognized_special_forms(I: HomogeneousIdeal, field: FieldSpec) -> list:
    """Special forms for the almost-monomial family
    (x_1^r, ..., x_r^r, x_1...x_{r-1}(x_1 + x_r))."""
    r = I.num_vars
    powers = {tuple(r if j == i else 0 for j in range(r)) for i in range(r)}
    polys = I.polynomial_generators
    e1 = tuple([2] + [1] * (r - 2) + [0])
    e2 = tuple([1] * (r - 1) + [1])
    if (len(I.generators) != r + 1 or set(I.monomial_generators) != powers
            or len(polys) != 1 or set(polys[0].terms) != {e1, e2}):
        return []
    forms = [linear_form(r, [2] + [1] * (r - 1), field)]
    for t in range(1, 9):
        form = linear_form(r, [t] + [1] * (r - 2) + [-1], field)
        if len(form.terms) == r:  # all coordinates nonzero in this field
            forms.append(form)
    return forms


def _random_forms(r: int, field: FieldSpec, trials=DEFAULT_TRIALS,
                  seed=DEFAULT_SEED) -> list:
    """trials forms with every coordinate nonzero, drawn from seed."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)

    def coeff():  # nonzero in the field
        c = 0
        while not field.reduce(c):
            c = rng.randint(-_RANDOM_COEFF_RANGE, _RANDOM_COEFF_RANGE)
        return c
    return [linear_form(r, [coeff() for _ in range(r)], field)
            for _ in range(trials)]


class _Failing(Exception):
    """A computed degree of a dropped form is not maximal."""


def _verdict_for_form(cache, L, last=True) -> WLPVerdict:
    """Every degree's rank of x L : (R/I)_d -> (R/I)_{d+1}, d = 0..D, by
    the rule of the module docstring: scan up from the first step with
    h_d >= h_{d+1} to the first surjective step d_s (Prop. 2.1(a)); if the
    algebra is level, scan down from d_s to the first injective step d_i
    (Prop. 2.1(b), which needs the socle in degree D alone); read the
    degrees above d_s and below d_i off h, and compute each one between
    once.

    h is the engine's profile. A monomial ideal reads levelness off its
    part (another's part may lack a pure power) and its all-ones ranks
    from part.all_ones_rank, which splits or reads, in any characteristic.

    last=False is for a form the caller drops if it fails: the first
    computed degree that is neither injective nor surjective raises
    _Failing, and no later degree is computed."""
    profile = cache.profile()
    h = profile.values + (0,)  # h_{D+1} = 0
    D = profile.socle_degree
    p = cache.field.characteristic
    monomial = cache.I.is_monomial
    part = cache.shared if monomial and L == _all_ones(L.num_vars) else None
    ranks = {}
    read = set()  # degrees whose rank was read from an earlier split

    def rank(d):
        if d not in ranks:  # h_d > 0 for d <= D; no map to a zero space
            if not h[d + 1]:
                ranks[d] = 0
            elif part is None:
                ranks[d] = _map_rank(cache, L, d, d + 1)
            else:
                ranks[d], was_read = part.all_ones_rank(d, p)
                if was_read:
                    read.add(d)
            if not last and ranks[d] < min(h[d], h[d + 1]):
                raise _Failing
        return ranks[d]

    first = next(d for d in range(D + 1) if h[d] >= h[d + 1])
    d_s = next(d for d in range(first, D + 1) if rank(d) == h[d + 1])
    d_i = -1
    if monomial and cache.shared.is_level:
        d_i = next((d for d in range(d_s, -1, -1) if rank(d) == h[d]), -1)
    reports, failures = [], []
    for d in range(D + 1):
        h_d, h_d1 = h[d], h[d + 1]
        if d > d_s:
            r, path = h_d1, UP
        elif d < d_i:
            r, path = h_d, DOWN
        else:
            r, path = rank(d), INTEGER if d in read else COMPUTED
        injective, surjective = r == h_d, r == h_d1
        if not (injective or surjective):
            failures.append(d)
        reports.append(DegreeReport(d, h_d, h_d1, r, injective, surjective,
                                    path))
    return WLPVerdict(reports, not failures, failures, L, cache.field, True)


def candidate_forms(I: HomogeneousIdeal, field: FieldSpec,
                    trials=DEFAULT_TRIALS, seed=DEFAULT_SEED) -> list:
    """The paper's search (the module docstring), each distinct form once.
    ValueError for trials < 1."""
    r = I.num_vars
    if I.is_monomial and trials >= 1:  # else _random_forms refuses trials
        return [_all_ones(r)]
    return _distinct([_all_ones(r)]
                     + _recognized_special_forms(I, field)
                     + _random_forms(r, field, trials, seed))


def _distinct(forms) -> list:
    """The forms in order, each set of terms once."""
    return list({frozenset(L.terms.items()): L for L in forms}.values())


def _require_forms(cache: SliceCache, forms: list):
    """ValueError unless there is a form, each linear and in the ring."""
    if not forms:
        raise ValueError("no candidate form to try")
    for L in forms:
        if L.degree != 1:
            raise ValueError("Lefschetz candidate must be linear")
        cache.require_same_ring(L)


def wlp_check(I: HomogeneousIdeal, field: FieldSpec, forms=None) -> WLPVerdict:
    """Decide the WLP of R/I over the given field by the linear forms in
    order (the module docstring), candidate_forms(I, field) by default.
    The verdict is that of the first form that holds, or else of the last
    one. ValueError unless forms holds a form, each linear and in R."""
    cache = SliceCache(I, field)
    forms = candidate_forms(I, field) if forms is None else _distinct(forms)
    _require_forms(cache, forms)
    for n, L in enumerate(forms, 1):
        try:
            verdict = _verdict_for_form(cache, L, last=n == len(forms))
        except _Failing:
            continue  # fails; only the last form's report is returned
        verdict.forms_tried = n
        if verdict.has_wlp:
            return verdict
    # every form failed: conclusive if they include the forms of a proof
    if I.is_monomial:  # all-ones decides the WLP (MMN Prop. 2.2)
        verdict.conclusive = _all_ones(I.num_vars) in forms
    else:  # every special form of J_r, r proven: if tried, none is new
        special = _recognized_special_forms(I, field)
        verdict.conclusive = (I.num_vars in _PROVEN_SPECIAL_R and bool(special)
                              and len(_distinct(forms + special)) == len(forms))
    return verdict


def kernel_witness(I: HomogeneousIdeal, field: FieldSpec, d: int,
                   form: HomogeneousPolynomial | None = None):
    """A nonzero degree-d kernel element of multiplication by the linear
    form, all-ones by default, on (R/I)_d, or None if it is injective.

    The returned element is normalized (HomogeneousPolynomial.normalized):
    monic in char p, and in char 0 the primitive integer element with a
    positive lead coefficient. It is re-verified: nonzero modulo the
    degree-d slice, with its image inside the degree-(d+1) slice span."""
    cache = SliceCache(I, field)
    L = form if form is not None else _all_ones(I.num_vars)
    _require_forms(cache, [L])
    cache.require_artinian()
    if not cache.dim(d):
        return None  # (R/I)_d = 0
    std_d = cache.shared.std(d)
    # row i is L*std_d[i], so the relations' entries follow std_d
    rows = cache.multiple_rows(L, std_d, d + 1)
    ech_d = cache.echelon(d)
    for vec in cache.echelon(d + 1).relations(rows):
        if not any(ech_d.reduce(vec)):
            continue  # lies in the ideal slice: zero in the quotient
        witness = HomogeneousPolynomial.from_terms(
            I.num_vars, {m: c for m, c in zip(std_d, vec) if c}, degree=d)
        witness = witness.normalized(field)
        _verify_witness(cache, witness, L, d, field)
        return witness
    return None


def _verify_witness(cache: SliceCache, witness, L, d: int, field: FieldSpec):
    """Re-check a witness independently of the rows it was found from: its
    coordinates and those of L*witness come from project and poly_mul."""
    if not any(cache.echelon(d).reduce(cache.project(witness, d))):
        raise AssertionError("kernel witness lies in the ideal slice")
    image = cache.project(poly_mul(L, witness, field), d + 1)
    if any(cache.echelon(d + 1).reduce(image)):
        raise AssertionError("kernel witness image escapes the ideal slice")
