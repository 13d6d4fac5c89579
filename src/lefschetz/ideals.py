"""Homogeneous ideals, degree slices, Hilbert profiles, socle, and restriction.

All quotient computations are degree-slice linear algebra: the span of a
degree-d slice of an ideal is row-reduced against the monomial basis of R_d.
For monomial ideals the slice span is exactly the span of the non-standard
monomials, so quotient dimensions reduce to counting standard monomials.

What does not depend on the field is computed once per process and shared:
the standard monomials of the monomial part in each degree, their column
index, and the socle of a monomial ideal live in a ``MonomialPart``, kept
by ``monomial_part`` in an LRU memo of MONOMIAL_PARTS (two) entries keyed
by (number of variables, sorted distinct monomial generators). The socle is
read off the generators, with no monomial enumerated: its monomials are the
corners of the staircase of standard monomials (Alexander duality; Miller
and Sturmfels, Combinatorial Commutative Algebra, ch. 5). A ``SliceCache``
holds one part and adds only the field-dependent echelons of the
non-monomial slice rows, so an ideal decided in several characteristics, or
two ideals with an equal monomial part, enumerate their monomials once, and
a monomial ideal builds no echelon for its Hilbert profile. The part also
keeps the generators of the monomial ideal's restriction J to r - 1
variables, and the unit split over Z of the slices of J, which answers the
rank of each all-ones map of the monomial ideal in every characteristic;
and the monomial ideal's Hilbert profile (a ``HilbertProfile``, the one
type for Hilbert functions and h-vectors) and level flag, which a decision
in a further characteristic reads. The engine decides the Artinian test,
and owns the Hilbert profile of an ideal with polynomial generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from math import comb
from operator import add, le

from .fields import QQ, FieldSpec
from .matrices import IntRowEchelon, clear_denominators
from .rings import (HomogeneousPolynomial, parse_generators, poly_add,
                    poly_mul, poly_pow)


@dataclass
class HomogeneousIdeal:
    """A homogeneous ideal, given by a generator list in r variables."""

    num_vars: int
    generators: list
    is_monomial: bool = dfield(init=False)

    def __post_init__(self):
        for g in self.generators:
            if g.is_zero:
                raise ValueError("zero generator")
            if g.degree == 0:
                raise ValueError("generator of degree 0: the unit ideal, "
                                 "whose quotient is zero")
            if g.num_vars != self.num_vars:
                raise ValueError("generator variable count mismatch")
        self.is_monomial = all(g.is_term for g in self.generators)

    @property
    def monomial_generators(self) -> list:
        """Exponent tuples of the single-term generators."""
        return [g.leading_monomial() for g in self.generators if g.is_term]

    @property
    def polynomial_generators(self) -> list:
        return [g for g in self.generators if not g.is_term]

    def degree_cap(self) -> int:
        """Crude Artinian-detection bound: sum of the generator degrees."""
        return sum(g.degree for g in self.generators)


class NotArtinianError(ValueError):
    pass


def parse_ideal(text: str, variables, field: FieldSpec) -> HomogeneousIdeal:
    gens = parse_generators(text, variables, field)
    _require_nonzero(gens, field)
    return HomogeneousIdeal(len(list(variables)), gens)


def _require_nonzero(gens, field: FieldSpec):
    """ValueError for a generator with no coefficient nonzero in field."""
    if not all(any(map(field.reduce, g.terms.values())) for g in gens):
        raise ValueError("generator reduces to zero in the field")


def standard_monomial_tuples(mono_gens, num_vars: int, d: int) -> list:
    """Degree-d monomials divisible by no generator, canonical order.

    A recursion over the exponents, fixed from the first variable on. The
    exponent of variable i stays below the least i-th exponent of the
    generators whose support ends at i and whose earlier exponents divide
    the fixed prefix, so no divisible monomial is ever built. The last
    exponent, forced by the degree, is checked in the loop over the one
    before.
    """
    if num_vars == 0:
        return [()] if d == 0 and not mono_gens else []
    # per variable i: (g[:i], g[i]) of the generators g with last support i
    ending = [[] for _ in range(num_vars)]
    caps = [d] * num_vars  # largest exponents, below the pure powers
    for g in mono_gens:
        support = [i for i, a in enumerate(g) if a]
        if not support:
            return []  # the unit ideal
        last = support[-1]
        if len(support) == 1:
            caps[last] = min(caps[last], g[last] - 1)
        else:
            ending[last].append((g[:last], g[last]))
    # room[i]: the most degree variables i.. can still take
    room = [0] * (num_vars + 1)
    for i in range(num_vars - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if d > room[0]:
        return []
    if num_vars == 1:
        return [(d,)]
    top = num_vars - 1
    last_ending = ending[top]
    out = []

    def extend(prefix, i, rest):
        cap = caps[i]
        for head, a in ending[i]:
            if a <= cap and all(map(le, head, prefix)):
                cap = a - 1
        leaf = i + 1 == top
        for a in range(min(rest, cap), max(0, rest - room[i + 1]) - 1, -1):
            m, b = prefix + (a,), rest - a  # b <= caps[i + 1], by room
            if not leaf:
                extend(m, i + 1, b)
                continue
            for head, e in last_ending:
                if e <= b and all(map(le, head, m)):
                    break
            else:
                out.append(m + (b,))

    extend((), 0, d)
    return out


def standard_monomials(I: HomogeneousIdeal, d: int) -> list:
    """Exponent tuples of the degree-d standard monomials of a monomial
    ideal, in canonical order."""
    if not I.is_monomial:
        raise ValueError("standard monomials need a monomial ideal; "
                         "use degree-slice ranks instead")
    return list(SliceCache(I, QQ).std(d))


# entries the monomial_part memo keeps: an ideal decided in every
# characteristic in turn needs one; verify.criterion_3, which alternates
# between two ideals in each characteristic, needs two
MONOMIAL_PARTS = 2


class MonomialPart:
    """The field-independent data of a monomial ideal, filled on demand:
    per degree the standard monomials (a tuple) and their column index, the
    socle (the corners of the staircase, from the generators alone), and
    the restriction and the map ranks below. Shared between slice engines
    through monomial_part, so nothing filled in may be changed.

    Its pure powers are found once: ``powers[i]`` is the least a with x_i^a
    a generator (0 for none); ``reason`` names a variable with none ("" when
    there is none), why the quotient is not Artinian.

    ``restriction`` keeps the data of J, the image of the monomial ideal
    in r - 1 variables under x_1 -> -(x_2 + ... + x_r), that no field
    changes: a nested MonomialPart of its monomial generators and the
    integer terms of its other generators. ``restriction_rows`` builds
    the rows of its slices from them.

    ``all_ones`` maps a degree d to (k, core, rank over Q of the core,
    D') for the all-ones map A_d -> A_{d+1} of the monomial ideal itself:
    the rows of J's degree-(d + 1) slice split over Z into k' pivots with
    lead +-1 and the core rows (``matrices.unit_split``), k = h_{d+1} - n
    + k' for the n standard monomials of J in that degree, so that the
    map's rank in every field is k plus the core's (``wlp``'s restriction
    lemma), and D' is the lead product of the core's echelon over Z, which
    gives the core's rank over F_p for every p that does not divide it
    (the lemmas of ``matrices``). The first ``wlp_check`` of the monomial
    ideal that needs degree d fills it, in any characteristic, and every
    later decision of that ideal with the all-ones form reads it; an ideal
    with other generators shares the part but not these splits.

    ``profile`` is the ``HilbertProfile`` of the monomial ideal itself and
    ``level`` whether its quotient is level, each None until first needed.
    ``SliceCache.profile`` fills the first after the engine's Artinian
    check, so a part without a pure power of every variable never has one;
    ``wlp.wlp_check`` fills the second from ``socle_report``. Every later
    engine of the monomial ideal, in any field, reads them; an ideal with
    other generators shares the part but has its own profile."""

    def __init__(self, num_vars: int, mono_gens: tuple):
        self.num_vars = num_vars
        self.mono_gens = mono_gens
        powers = [0] * num_vars
        for g in mono_gens:
            support = [i for i, a in enumerate(g) if a]
            if len(support) == 1:
                i = support[0]
                powers[i] = min(g[i], powers[i] or g[i])
        self.powers = tuple(powers)
        self.reason = (f"not Artinian: variable index {powers.index(0)} has "
                       "no pure power" if 0 in powers else "")
        self._std: dict[int, tuple] = {}
        self._index: dict[int, dict] = {}
        self._socle: tuple | None = None
        self.all_ones: dict[int, tuple] = {}
        self.profile: HilbertProfile | None = None
        self.level: bool | None = None
        self._restriction: tuple | None = None

    def std(self, d: int) -> tuple:
        s = self._std.get(d)
        if s is None:
            s = tuple(standard_monomial_tuples(self.mono_gens,
                                               self.num_vars, d))
            self._std[d] = s
            self._index[d] = {m: i for i, m in enumerate(s)}
        return s

    def index(self, d: int) -> dict:
        """{standard monomial: its column} in degree d. The dict itself is
        shared (a read-only view would slow every row built), so callers
        only read it."""
        self.std(d)
        return self._index[d]

    def socle(self) -> tuple:
        """Standard monomials m with every m*x_i non-standard, by degree,
        then in canonical order: the corners of the staircase.

        The pure powers alone have one corner, x^(a - 1). Each generator g
        removes the monomials it divides: a corner c that g divides gives
        way to the c with c_i = g_i - 1, one for each x_i dividing g, less
        those below another corner; the other corners stay. Without a pure
        power of every variable: NotArtinianError, with ``reason``."""
        if self._socle is None:
            if self.reason:
                raise NotArtinianError(self.reason)
            corners = [tuple(a - 1 for a in self.powers)]
            for g in self.mono_gens:
                kept, split = [], set()
                for c in corners:
                    if not all(map(le, g, c)):
                        kept.append(c)
                        continue
                    for i, a in enumerate(g):
                        if a:
                            split.add(c[:i] + (a - 1,) + c[i + 1:])
                pool = kept + list(split)
                for n in split:
                    for c in pool:
                        if n != c and all(map(le, n, c)):
                            break
                    else:
                        kept.append(n)
                corners = kept
            self._socle = tuple(sorted(sorted(corners, reverse=True), key=sum))
        return self._socle

    def restriction(self) -> tuple:
        """(part, images) for J, the image of the monomial ideal in
        S = Z[x_2, ..., x_r] under x_1 -> -(x_2 + ... + x_r), with the
        sign of each image, a unit, dropped (``wlp``'s restriction lemma).

        ``part`` is the MonomialPart of J's monomial generators, those of
        the ideal free of x_1, in r - 1 variables. It is built here, not
        through monomial_part, so that it evicts no entry of that memo.

        ``images`` has, for each other generator x_1^a m', its degree and
        the terms of (x_2 + ... + x_r)^a m' as (exponent, multinomial
        coefficient a!/(b_2! ... b_r!)) pairs, less every term with an
        exponent at or past a pure power of part: such a term, times any
        monomial, is not standard. A generator left with no term is
        dropped."""
        if self._restriction is None:
            part = MonomialPart(self.num_vars - 1, tuple(
                g[1:] for g in self.mono_gens if not g[0]))
            images = []
            for g in self.mono_gens:
                if g[0]:
                    terms = _multinomial_terms(g[0], [
                        power - 1 - b if power else g[0]
                        for power, b in zip(part.powers, g[1:])])
                    if terms:
                        images.append((sum(g), tuple(
                            (tuple(map(add, b, g[1:])), c) for b, c in terms)))
            self._restriction = part, tuple(images)
        return self._restriction

    def restriction_rows(self, e: int):
        """Yield the rows g*m of J's degree-e slice (``restriction``), on
        the standard monomials of its monomial part in degree e, as
        {column: entry} dicts: for each image g, in order, and m in the
        part's std(e - deg g)[::-1], the order ``wlp._rows`` states for its
        rows. Empty rows are skipped. The rows are built as they are
        taken, so a consumer that stops at full rank builds no more."""
        part, images = self.restriction()
        idx = part.index(e)
        for degree, terms in images:
            if degree <= e:
                yield from filter(None, _product_rows(
                    terms, part.std(e - degree)[::-1], idx))


def _product_rows(terms, monomials, idx: dict):
    """Yield the row of t*m for each m in monomials, in that order, t the
    polynomial with the (exponent, coefficient) pairs terms: a {column:
    entry} dict on the monomials of idx ({monomial: column}), empty where
    no term of t*m is one of them."""
    for m in monomials:
        row = {}
        for e, c in terms:
            i = idx.get(tuple(map(add, m, e)))
            if i is not None:
                row[i] = c  # distinct terms land on distinct columns
        yield row


def _multinomial_terms(a: int, caps: list) -> list:
    """(b, a!/(b_1! ... b_n!)) for the exponents b of (x_1 + ... + x_n)^a
    with b_i <= caps[i], in descending lexicographic order."""
    out = []

    def extend(prefix, i, rest, coeff):
        if i == len(caps) - 1:
            if rest <= caps[i]:
                out.append((prefix + (rest,), coeff))
            return
        for b in range(min(rest, caps[i]), -1, -1):
            extend(prefix + (b,), i + 1, rest - b, coeff * comb(rest, b))

    if caps:
        extend((), 0, a, 1)
    return out


@lru_cache(maxsize=MONOMIAL_PARTS)
def monomial_part(num_vars: int, mono_gens: tuple) -> MonomialPart:
    """The shared MonomialPart of the monomial ideal generated by mono_gens
    (sorted distinct exponent tuples) in num_vars variables."""
    return MonomialPart(num_vars, mono_gens)


class SliceCache:
    """Per-(ideal, field) cache of degree-slice data: the slice engine.

    For each degree d it exposes the standard monomials of the monomial part,
    the slice rows contributed by the non-monomial generators (projected onto
    those standard monomials), their echelon, and the quotient dimension. None
    of these depend on a linear form, so one engine serves the Artinian test,
    the Hilbert profile, the socle and every form a WLP decision tries. It
    decides the first and computes the second once; not_artinian gives every
    NotArtinianError its reason. A generator that vanishes raises ValueError.

    The standard monomials, their index and the socle do not depend on the
    field either: they come from the MonomialPart of I's monomial generators,
    shared through the monomial_part memo (keyed by the number of variables
    and the sorted distinct monomial generators, MONOMIAL_PARTS = 2 entries)
    with every engine of an equal monomial part, in any characteristic. An
    ideal with no polynomial generators reads its Hilbert profile from the
    part too: the first engine that needs it fills it (``profile``), and
    every later engine of that ideal, in any field, starts with it.
    """

    def __init__(self, I: HomogeneousIdeal, field: FieldSpec):
        _require_nonzero(I.generators, field)
        self.I = I
        self.field = field
        self.poly_gens = I.polynomial_generators
        self.shared = monomial_part(
            I.num_vars, tuple(sorted(set(I.monomial_generators))))
        self._ech: dict[int, IntRowEchelon] = {}
        self._reason: str | None = None
        self._profile = None if self.poly_gens else self.shared.profile

    def std(self, d: int) -> tuple:
        return self.shared.std(d)

    def index(self, d: int) -> dict:
        return self.shared.index(d)

    def project(self, poly: HomogeneousPolynomial, d: int):
        """Coefficient vector of poly on the degree-d standard monomials.

        Terms divisible by the monomial part are dropped: they are zero in
        the quotient by the monomial sub-ideal.
        """
        idx = self.index(d)
        row = [0] * len(self.std(d))
        for e, c in poly.terms.items():
            i = idx.get(e)
            if i is not None:
                row[i] = c  # distinct terms land on distinct columns
        return row

    def slice_rows(self, d: int) -> list:
        """Sparse integer (char 0) or residue (char p) rows spanning the
        non-monomial part of the ideal slice in degree d, projected to
        standard monomials: the nonempty rows g*m, for each polynomial
        generator g and m in std(d - deg g)[::-1]. A non-standard m gives
        an empty row (every term of g*m lies in the monomial part), and so
        do many standard ones in high degrees; neither is kept.

        The order is the one wlp._rows states for its rows: m ascending in
        canonical order, so that the lead LM(g)*m of a row, when standard,
        meets no earlier row of g, and most rows become pivots without an
        update."""
        rows = []
        for g in self.poly_gens:
            if g.degree <= d:
                rows += filter(None, self.multiple_rows(
                    g, self.std(d - g.degree)[::-1], d))
        return rows

    def multiple_rows(self, poly: HomogeneousPolynomial, monomials,
                      d: int) -> list:
        """The rows of poly*m, one for each m in monomials, in that order, as
        {column: entry} dicts on the degree-d standard monomials (empty where
        the product lies in the monomial part), with poly scaled once (see
        _scaled_terms): the rows span the same space as the unscaled ones. A
        form in another number of variables raises ValueError."""
        self.require_same_ring(poly)
        return list(_product_rows(self._scaled_terms(poly), monomials,
                                 self.index(d)))

    def require_same_ring(self, poly: HomogeneousPolynomial):
        """ValueError for a polynomial in another number of variables than
        the ideal: no map of the quotient is multiplication by it."""
        if poly.num_vars != self.I.num_vars:
            raise ValueError(f"a polynomial in {poly.num_vars} variables for "
                             f"an ideal in {self.I.num_vars}")

    def _scaled_terms(self, poly: HomogeneousPolynomial) -> list:
        """(exponent, coefficient) pairs of a nonzero multiple of poly with
        integer coefficients: the primitive integer form in char 0, the
        nonzero residues in char p."""
        if self.field.characteristic:
            reduced = [(e, self.field.reduce(c)) for e, c in poly.terms.items()]
            return [(e, c) for e, c in reduced if c]
        return list(zip(poly.terms, clear_denominators(poly.terms.values())))

    def dim(self, d: int) -> int:
        """dim (R/I)_d: for a monomial ideal the part's count of standard
        monomials, with no echelon built."""
        n = len(self.std(d))
        return n - self.echelon(d).rank if self.poly_gens else n

    def echelon(self, d: int) -> IntRowEchelon:
        """Echelon of the degree-d slice rows: the slice rank, and the
        reduction oracle for membership in the slice span, over the integers
        in char 0 and over F_p in char p. Callers copy it before adding."""
        if d not in self._ech:
            ech = IntRowEchelon(len(self.std(d)), self.field.characteristic)
            ech.extend(self.slice_rows(d))
            self._ech[d] = ech
        return self._ech[d]

    def not_artinian(self) -> str:
        """Why R/I is not Artinian ("" when it is), decided once: a monomial
        ideal by its pure powers; any other by those or else by a vanishing
        slice up to the degree cap."""
        if self._reason is None:
            self._reason = self.shared.reason
            if self._reason and not self.I.is_monomial:
                cap = self.I.degree_cap()
                self._reason = "" if any(
                    self.dim(d) == 0 for d in range(1, cap + 1)) else (
                    f"not Artinian: no vanishing slice below degree cap {cap}")
        return self._reason

    def require_artinian(self):
        """NotArtinianError, with not_artinian's reason, unless R/I is
        Artinian; asked through is_artinian, which traces time as the test."""
        if not is_artinian(self.I, self.field, self):
            raise NotArtinianError(self.not_artinian())

    def profile(self) -> HilbertProfile:
        """h(d) = dim (R/I)_d from d = 0 until it vanishes, computed once;
        NotArtinianError when R/I is not Artinian. A monomial ideal counts
        its part's standard monomials, so it builds no echelon, and keeps
        the profile in the part, where every later engine reads it."""
        if self._profile is None:
            self.require_artinian()
            values = [self.dim(0)]
            while values[-1]:
                values.append(self.dim(len(values)))
            self._profile = HilbertProfile(tuple(values))
            if not self.poly_gens:
                self.shared.profile = self._profile
        return self._profile


def slice_engine(I: HomogeneousIdeal, field: FieldSpec,
                 cache: SliceCache | None = None) -> SliceCache:
    """The slice engine of I over field: cache, or a new one when cache is
    None. An engine built for another ideal or field would answer for that
    one, so it raises ValueError."""
    if cache is None:
        return SliceCache(I, field)
    if cache.field != field or (cache.I is not I and cache.I != I):
        raise ValueError("the slice engine was built for another ideal or "
                         "field")
    return cache


def is_artinian(I: HomogeneousIdeal, field: FieldSpec = QQ,
                cache: SliceCache | None = None) -> bool:
    """Artinian test: pure powers of every variable (monomial route), or a
    vanishing Hilbert slice below the degree cap (general route), read from
    the engine (SliceCache.not_artinian)."""
    return not slice_engine(I, field, cache).not_artinian()


@dataclass(frozen=True)
class HilbertProfile:
    """An Artinian Hilbert function, or h-vector, h(0..D): trailing zeros
    stripped, and starting with h(0) = 1 (else ValueError). Immutable: a
    monomial ideal's profile is one object, read by its engines in every
    field."""

    values: tuple

    def __post_init__(self):
        vals = list(self.values)
        while vals and vals[-1] == 0:
            vals.pop()
        if not vals or vals[0] != 1:
            raise ValueError("h-vector must start with 1")
        object.__setattr__(self, "values", tuple(vals))

    @property
    def socle_degree(self) -> int:
        """Top nonzero degree."""
        return len(self.values) - 1

    @property
    def is_symmetric(self) -> bool:
        return self.values == self.values[::-1]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, d: int) -> int:
        return self.values[d] if 0 <= d < len(self.values) else 0


def hilbert_profile(I: HomogeneousIdeal, field: FieldSpec = QQ,
                    cache: SliceCache | None = None) -> HilbertProfile:
    """h(d) = dim (R/I)_d, computed degree by degree until it vanishes, once
    per engine. NotArtinianError, with the engine's reason, when R/I is not
    Artinian.

    Field-independent for monomial ideals (standard-monomial counting)."""
    return slice_engine(I, field, cache).profile()


@dataclass
class SocleReport:
    socle_monomials: list  # exponent tuples
    socle_degrees: list
    cm_type: int
    is_level: bool


def socle_report(I: HomogeneousIdeal,
                 cache: SliceCache | None = None) -> SocleReport:
    """Socle of a monomial Artinian quotient: standard monomials killed by
    every variable, that is, m with every m*x_i non-standard.

    The socle does not depend on the field: a given engine may be over any
    field, and the socle is computed once per monomial part and shared; it
    raises the engine's NotArtinianError, whose reason is the part's."""
    if not I.is_monomial:
        raise ValueError("socle_report supports monomial ideals only")
    cache = slice_engine(I, QQ if cache is None else cache.field, cache)
    socle = list(cache.shared.socle())
    degrees = sorted(sum(m) for m in socle)
    return SocleReport(socle, degrees, len(socle), len(set(degrees)) <= 1)


def restrict_modulo_linear(I: HomogeneousIdeal, L: HomogeneousPolynomial,
                           pivot: int, field: FieldSpec) -> HomogeneousIdeal:
    """Image of I in R/(L) = K[x_1,..,x_r minus the pivot variable].

    The pivot variable is eliminated by solving L = 0; generators are
    re-expanded and zero generators dropped. Each is normalized to lead
    coefficient 1 in char p, and in char 0 to its primitive integer form
    with a positive lead coefficient.
    """
    r = I.num_vars
    e_pivot = tuple(1 if j == pivot else 0 for j in range(r))
    c_pivot = L.terms.get(e_pivot)
    if not c_pivot:
        raise ValueError("pivot coefficient of the linear form is zero")
    # substitution: x_pivot = sum over other vars of s_i * x_i (in r-1 vars)
    subs_terms = {}
    for e, c in L.terms.items():
        if e == e_pivot:
            continue
        small = _drop_var(e, pivot)
        subs_terms[small] = field.reduce(-c * field.inv(c_pivot))
    subst = HomogeneousPolynomial(r - 1, 1, subs_terms)

    new_gens = []
    for g in I.generators:
        out = HomogeneousPolynomial(r - 1, g.degree, {})
        for e, c in g.terms.items():
            k = e[pivot]
            base = HomogeneousPolynomial.from_terms(
                r - 1, {_drop_var(e, pivot): field.reduce(c)}, degree=g.degree - k)
            term = poly_mul(base, poly_pow(subst, k, field), field)
            out = poly_add(out, term, field)
        out = out.reduced(field).monic(field)
        if field.characteristic == 0:
            out = HomogeneousPolynomial(r - 1, g.degree, dict(
                zip(out.terms, clear_denominators(out.terms.values()))))
        if not out.is_zero:
            new_gens.append(out)
    return HomogeneousIdeal(r - 1, new_gens)


def _drop_var(e, i: int):
    return e[:i] + e[i + 1:]
