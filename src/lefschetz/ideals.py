"""Homogeneous ideals, degree slices, Hilbert profiles, socle, and restriction.

All quotient computations are degree-slice linear algebra: the span of a
degree-d slice of an ideal is row-reduced against the monomial basis of R_d.
For monomial ideals the slice span is exactly the span of the non-standard
monomials, and the quotient dimensions come from the numerator lemma.

What does not depend on the field is computed once per process and shared:
the standard monomials of the monomial part in each degree, their column
index, and the socle of a monomial ideal live in a ``MonomialPart``, kept
by ``monomial_part`` in an LRU memo of MONOMIAL_PARTS (two) entries keyed
by (number of variables, sorted distinct monomial generators). The socle is
read off the generators: its monomials are the corners of the staircase
(Alexander duality; Miller and Sturmfels, Combinatorial Commutative
Algebra, ch. 5). A ``SliceCache`` holds one part and adds only the
field-dependent echelons of the non-monomial slice rows. For the monomial
ideal itself the part also owns its Hilbert profile (a ``HilbertProfile``,
the one type for Hilbert functions and h-vectors), by the numerator lemma,
whether its quotient is level, and the rank of each all-ones map in every
characteristic, by the restriction lemma; so a monomial decision enumerates
standard monomials only in r - 1 variables. The engine decides the Artinian
test, and owns the Hilbert profile of an ideal with polynomial generators.
Each public entry point, here and in ``wlp``, builds the one engine it reads.

Numerator lemma (Bigatti, "Computation of Hilbert-Poincare series", 1997;
the K-polynomial of Miller and Sturmfels). For a monomial ideal I of
R = F[x_1, ..., x_r], HS(R/I) = K_I(t)/(1 - t)^r with K_I in Z[t] the same
in every field: K_I = prod (1 - t^a_i) for I = (x_1^a_1, ..., x_r^a_r),
and K_I = K_(I + (p)) + t^e K_(I : p) for any p = x_j^e. Proof: 0 ->
R/(I : p)(-e) -> R/I -> R/(I + p) -> 0, the first map times p, is exact,
and the x_i^a_i are a regular sequence (Koszul).

Restriction lemma. Let I be a monomial ideal of R = Z[x_1, ..., x_r],
L = x_1 + ... + x_r, A = R/I with Hilbert function h, S = Z[x_2, ..., x_r]
and J the ideal of S generated by the images of I's generators under
x_1 -> -(x_2 + ... + x_r). Let n be the number of standard monomials of
degree d + 1 free of x_1, and (k', C') the unit split over Z
(``matrices.unit_split``) of the rows of J's degree-(d+1) slice, written
on the standard monomials of J's monomial generators. Then in every field
F, x L : A_d -> A_{d+1} has rank h_{d+1} - n + k' + rank_F(C').

Proof. The substitution is a ring map R -> S over Z, onto with kernel
(L), so R/(I + (L)) and S/J are isomorphic, and stay so after tensoring
with F, where J is generated by the same images. In degree d + 1 the left
side is the cokernel of x L, so the rank is h_{d+1} - dim_F (S/J)_{d+1}.
J's monomial generators are those of I free of x_1; a generator with x_1
divides no monomial free of it, so their standard monomials of degree
d + 1 are the n standard ones of I free of x_1. Modulo them, J_{d+1} is
spanned by the rows g*m, for the image g of each other generator and each
monomial m of S of degree d + 1 - deg g, projected on those n monomials
(zero unless m is standard too). So dim_F (S/J)_{d+1} = n - rank_F(rows)
= n - k' - rank_F(C'), by the unit split's lemma (``matrices``). Each
image's sign (-1)^a is a unit, and a term with an exponent at or past a
pure power of J projects to zero times every m, so dropping either
changes no row's span.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property, lru_cache
from itertools import accumulate, zip_longest
from math import factorial, prod
from operator import add, le, lt

from .fields import QQ, FieldSpec
from .matrices import IntRowEchelon, unit_split
from .rings import (HomogeneousPolynomial, degree_monomials,
                    parse_generators, poly_add, poly_mul, poly_pow)


@dataclass
class HomogeneousIdeal:
    """A homogeneous ideal, given by a generator list in r variables, split
    once: the sorted distinct exponents of the single-term generators (the
    monomial_part memo's key), and the list of the others."""

    num_vars: int
    generators: list
    monomial_generators: tuple = dfield(init=False, repr=False)
    polynomial_generators: list = dfield(init=False, repr=False)
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
        self.monomial_generators = tuple(sorted(
            {g.leading_monomial() for g in self.generators if g.is_term}))
        self.polynomial_generators = [g for g in self.generators
                                      if not g.is_term]
        self.is_monomial = not self.polynomial_generators


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
    the fixed prefix, so no divisible monomial is ever built.
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
    out = []

    def extend(prefix, i, rest):
        cap = caps[i]
        for head, a in ending[i]:
            if a <= cap and all(map(le, head, prefix)):
                cap = a - 1
        if i + 1 == num_vars:  # the degree forces the last exponent
            if rest <= cap:
                out.append(prefix + (rest,))
            return
        for a in range(min(rest, cap), max(0, rest - room[i + 1]) - 1, -1):
            extend(prefix + (a,), i + 1, rest - a)

    extend((), 0, d)
    return out


def standard_monomials(I: HomogeneousIdeal, d: int) -> list:
    """Exponent tuples of the degree-d standard monomials of a monomial
    ideal, in canonical order."""
    if not I.is_monomial:
        raise ValueError("standard monomials need a monomial ideal; "
                         "use degree-slice ranks instead")
    return list(SliceCache(I, QQ).shared.std(d))


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
    integer terms of its other generators, from which ``_slice_rows``
    builds the rows of its slices.

    For the monomial ideal itself, the part owns what every decision of it
    reads, in any field: ``profile``, its ``HilbertProfile`` by the
    numerator lemma; ``is_level``; and ``all_ones_rank``, the rank of each
    all-ones map A_d -> A_{d+1} in every characteristic, from the entry
    ``all_ones[d]`` = (k, core, rank over Q of the core, D', n) that its
    first call for d fills (the restriction lemma). This module fills them;
    every other only reads them. An ideal with other generators shares the
    part, but none of these describe its quotient."""

    def __init__(self, num_vars: int, mono_gens: tuple):
        self.num_vars = num_vars
        self.mono_gens = mono_gens
        powers = _pure_and_mixed([0] * num_vars, mono_gens)[0]
        self.powers = tuple(powers)
        self.reason = (f"not Artinian: variable index {powers.index(0)} has "
                       "no pure power" if 0 in powers else "")
        self._std: dict[int, tuple] = {}
        self._index: dict[int, dict] = {}
        self._socle: tuple | None = None
        self.all_ones: dict[int, tuple] = {}
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
        sign of each image, a unit, dropped (the restriction lemma of the
        module docstring).

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

    def all_ones_rank(self, d: int, p: int) -> tuple[int, bool]:
        """(rank, read) for the all-ones map x L : A_d -> A_{d+1} of the
        monomial ideal over a field of characteristic p, by the restriction
        lemma (the module docstring).

        The first call for d splits the rows of J's degree-(d+1) slice
        over Z on its n standard monomials (``matrices.unit_split``) into
        k' unit pivots and a core, and eliminates the core over Z once: it
        keeps ``all_ones[d]`` = (k, core, rank over Q of the core, D', n),
        k = h_{d+1} - n + k' and D' the core echelon's lead product, and
        read is False. Every later call, for any p, reads that entry, and
        read is True. The rank is k + rank_Q(core) when p does not divide
        D' (p = 0 included), which is then the core's rank over F_p (the
        lemmas of ``matrices``), and otherwise k plus the core eliminated
        mod p on J's n columns. No prime that lowers the rank is hidden:
        each divides D'."""
        entry = self.all_ones.get(d)
        read = entry is not None
        if not read:
            part, images = self.restriction()
            n = len(part.std(d + 1))
            # J's rows are built as they are taken, so a split that reaches
            # full rank builds no more
            k, core = unit_split(_slice_rows(images, part, d + 1), n)
            ech = IntRowEchelon(n)
            entry = self.all_ones[d] = (self.profile[d + 1] - n + k,
                                        tuple(core), ech.extend(core),
                                        ech.lead_product, n)
        k, core, rank, lead, n = entry
        if p and not lead % p:
            rank = IntRowEchelon(n, p).extend(core)
        return k + rank, read

    @cached_property
    def profile(self) -> HilbertProfile:
        """The Hilbert profile by the numerator lemma: r running sums of K,
        which end in zeros. NotArtinianError, with ``reason``, as socle."""
        if self.reason:
            raise NotArtinianError(self.reason)
        h = _hilbert_numerator(self.powers, self.mono_gens)
        for _ in range(self.num_vars):
            h = list(accumulate(h))
        return HilbertProfile(tuple(h))

    @cached_property
    def is_level(self) -> bool:
        """Whether the quotient is level: its socle, sorted by degree, has
        its first and last monomial in one degree. NotArtinianError, with
        ``reason``, as for ``socle``."""
        socle = self.socle()
        return sum(socle[0]) == sum(socle[-1])


def _hilbert_numerator(caps: tuple, gens) -> list:
    """The coefficients of K(t), HS(R/I) = K(t)/(1 - t)^r, for I generated
    by the pure powers x_i^caps[i] and the monomials gens, by the numerator
    lemma, on a stack rather than by recursion. The pivot is x_j^e, x_j in
    the most generators of two or more variables and e the median of its
    exponents there: I + p keeps those below e, and I : p lowers all by e.
    Each has fewer generators or lower exponents, so the stack empties."""
    K = [0]
    todo = [(0, *_pure_and_mixed(caps, gens))]
    while todo:
        shift, caps, mixed = todo.pop()
        if not mixed:
            P = [0] * shift + [1]
            for a in caps:
                P = [c - (P[i - a] if i >= a else 0)
                     for i, c in enumerate(P + [0] * a)]
            K = list(map(sum, zip_longest(K, P, fillvalue=0)))
            continue
        counts = [sum(map(bool, column)) for column in zip(*mixed)]
        j = counts.index(max(counts))
        powers = sorted(g[j] for g in mixed if g[j])
        e = powers[len(powers) // 2]
        todo.append((shift, caps[:j] + [e] + caps[j + 1:],
                     [g for g in mixed if g[j] < e]))
        todo.append((shift + e, *_pure_and_mixed(
            caps[:j] + [caps[j] - e] + caps[j + 1:],
            [g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in mixed])))
    return K


def _pure_and_mixed(caps, gens) -> tuple[list, list]:
    """(caps lowered to the pure powers among gens, a cap of 0 standing for
    none, and, if no cap is 0, the other generators no x_i^caps[i] divides)."""
    caps, mixed = list(caps), []
    for g in gens:
        if sum(map(bool, g)) > 1:
            mixed.append(g)
        else:  # x_i^a, a = sum(g)
            i = g.index(sum(g))
            caps[i] = min(caps[i] or g[i], g[i])
    return caps, [g for g in mixed if all(map(lt, g, caps))]


def _slice_rows(gens, part: MonomialPart, e: int):
    """Yield the nonempty rows g*m of the degree-e slice of gens, on the
    standard monomials of part, as {column: entry} dicts: for each
    (degree, terms) pair of gens in order, terms the (exponent, integer
    coefficient) pairs of g, and each m in part.std(e - deg g)[::-1].

    That order, m ascending in canonical order, is the one every row the
    slice engine eliminates takes, the rows F*m of a map (``wlp._map_rank``)
    included. A row pivots on its leading monomial, LM(g)*m when that is
    standard, and every monomial of the rows g*m' before it is below
    LM(g)*m, because m' < m. So most rows meet no earlier row in their lead
    column and become pivots without an update (``matrices``)."""
    idx = part.index(e)
    for degree, terms in gens:
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
    return [(b, factorial(a) // prod(map(factorial, b)))
            for b in degree_monomials(len(caps), a) if all(map(le, b, caps))]


@lru_cache(maxsize=MONOMIAL_PARTS)
def monomial_part(num_vars: int, mono_gens: tuple) -> MonomialPart:
    """The shared MonomialPart of the monomial ideal generated by mono_gens
    (sorted distinct exponent tuples) in num_vars variables."""
    return MonomialPart(num_vars, mono_gens)


class SliceCache:
    """Per-(ideal, field) cache of degree-slice data: the slice engine.

    For each degree d it exposes the slice rows contributed by the
    non-monomial generators (projected onto the standard monomials of the
    monomial part), their echelon, and the quotient dimension. None of these
    depend on a linear form, so one engine serves the Artinian test, the
    Hilbert profile, the socle and every form a WLP decision tries. It
    decides the first and computes the second once; not_artinian gives every
    NotArtinianError its reason. A generator that vanishes raises ValueError.

    The standard monomials, their index and the socle do not depend on the
    field either: they are the tables of ``shared``, the MonomialPart of I's
    monomial generators, read through it (``cache.shared.std(d)``) and
    shared through the monomial_part memo with every engine of an equal
    monomial part, in any characteristic. A monomial ideal reads its Hilbert
    profile from the part too (``MonomialPart.profile``).
    """

    def __init__(self, I: HomogeneousIdeal, field: FieldSpec):
        _require_nonzero(I.generators, field)
        self.I = I
        self.field = field
        # (degree, terms) of each polynomial generator
        self.poly_gens = [(g.degree, g.terms.items())
                          for g in I.polynomial_generators]
        self.shared = monomial_part(I.num_vars, I.monomial_generators)
        self._ech: dict[int, IntRowEchelon] = {}
        self._reason: str | None = None
        self._profile: HilbertProfile | None = None

    def project(self, poly: HomogeneousPolynomial, d: int):
        """Coefficient vector of poly on the degree-d standard monomials.

        Terms divisible by the monomial part are dropped: they are zero in
        the quotient by the monomial sub-ideal.
        """
        idx = self.shared.index(d)
        row = [0] * len(self.shared.std(d))
        for e, c in poly.terms.items():
            i = idx.get(e)
            if i is not None:
                row[i] = c  # distinct terms land on distinct columns
        return row

    def slice_rows(self, d: int) -> list:
        """Sparse integer rows spanning the non-monomial part of the ideal
        slice in degree d, projected to standard monomials: the nonempty
        rows g*m of ``_slice_rows``, for each polynomial generator g and m
        in std(d - deg g). A non-standard m gives an empty row (every term of
        g*m lies in the monomial part), and so do many standard ones in
        high degrees; neither is kept."""
        return list(_slice_rows(self.poly_gens, self.shared, d))

    def multiple_rows(self, poly: HomogeneousPolynomial, monomials,
                      d: int) -> list:
        """The rows of poly*m, one for each m in monomials, in that order, as
        {column: entry} dicts on the degree-d standard monomials (empty where
        the product lies in the monomial part). A form in another number of
        variables raises ValueError."""
        self.require_same_ring(poly)
        return list(_product_rows(poly.terms.items(), monomials,
                                  self.shared.index(d)))

    def require_same_ring(self, poly: HomogeneousPolynomial):
        """ValueError for a polynomial in another number of variables than
        the ideal: no map of the quotient is multiplication by it."""
        if poly.num_vars != self.I.num_vars:
            raise ValueError(f"a polynomial in {poly.num_vars} variables for "
                             f"an ideal in {self.I.num_vars}")

    def dim(self, d: int) -> int:
        """dim (R/I)_d: for a monomial ideal the part's count of standard
        monomials, with no echelon built."""
        n = len(self.shared.std(d))
        return n - self.echelon(d).rank if self.poly_gens else n

    def echelon(self, d: int) -> IntRowEchelon:
        """Echelon of the degree-d slice rows: the slice rank, and the
        reduction oracle for membership in the slice span, over the integers
        in char 0 and over F_p in char p. Callers copy it before adding."""
        if d not in self._ech:
            ech = IntRowEchelon(len(self.shared.std(d)),
                                self.field.characteristic)
            ech.extend(self.slice_rows(d))
            self._ech[d] = ech
        return self._ech[d]

    def not_artinian(self) -> str:
        """Why R/I is not Artinian ("" when it is), decided once: a monomial
        ideal by its pure powers; any other by those or else by a vanishing
        slice up to the degree cap, the sum of the generator degrees."""
        if self._reason is None:
            self._reason = self.shared.reason
            if self._reason and not self.I.is_monomial:
                cap = sum(g.degree for g in self.I.generators)
                self._reason = "" if any(
                    self.dim(d) == 0 for d in range(1, cap + 1)) else (
                    f"not Artinian: no vanishing slice below degree cap {cap}")
        return self._reason

    def require_artinian(self):
        """NotArtinianError, with not_artinian's reason, unless R/I is
        Artinian."""
        if self.not_artinian():
            raise NotArtinianError(self.not_artinian())

    def profile(self) -> HilbertProfile:
        """h(d) = dim (R/I)_d from d = 0 until it vanishes; NotArtinianError
        when R/I is not Artinian. A monomial ideal reads its part's profile
        (the numerator lemma), so it enumerates no monomial and builds no
        echelon; any other computes its own once, slice by slice."""
        self.require_artinian()
        if not self.poly_gens:
            return self.shared.profile
        if self._profile is None:
            values = [self.dim(0)]
            while values[-1]:
                values.append(self.dim(len(values)))
            self._profile = HilbertProfile(tuple(values))
        return self._profile


def is_artinian(I: HomogeneousIdeal, field: FieldSpec = QQ) -> bool:
    """Artinian test: pure powers of every variable (monomial route), or a
    vanishing Hilbert slice below the degree cap (general route), read from
    the engine (SliceCache.not_artinian)."""
    return not SliceCache(I, field).not_artinian()


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


def hilbert_profile(I: HomogeneousIdeal,
                    field: FieldSpec = QQ) -> HilbertProfile:
    """h(d) = dim (R/I)_d until it vanishes, by the engine
    (SliceCache.profile); NotArtinianError, with the engine's reason, when
    R/I is not Artinian. Field-independent for monomial ideals, whose
    profile comes from the Hilbert-series numerator (the numerator lemma)."""
    return SliceCache(I, field).profile()


@dataclass
class SocleReport:
    socle_monomials: list  # exponent tuples
    socle_degrees: list
    cm_type: int
    is_level: bool


def socle_report(I: HomogeneousIdeal) -> SocleReport:
    """Socle of a monomial Artinian quotient: standard monomials killed by
    every variable, that is, m with every m*x_i non-standard.

    The socle does not depend on the field: it is computed once per
    monomial part and shared; it raises the part's NotArtinianError."""
    if not I.is_monomial:
        raise ValueError("socle_report supports monomial ideals only")
    part = SliceCache(I, QQ).shared
    socle = list(part.socle())  # sorted by degree
    return SocleReport(socle, [sum(m) for m in socle], len(socle),
                       part.is_level)


def restrict_modulo_linear(I: HomogeneousIdeal, L: HomogeneousPolynomial,
                           pivot: int, field: FieldSpec) -> HomogeneousIdeal:
    """Image of I in R/(L) = K[x_1,..,x_r minus the pivot variable].

    The pivot variable is eliminated by solving L = 0 with no division: a
    term c*m*x_pivot^k of a generator g goes to c * c_pivot^(deg g - k) * m
    * (-sum c_i*x_i)^k, which is c_pivot^(deg g) times its image. Zero
    generators are dropped, and each other is normalized: monic in char p,
    and in char 0 primitive with a positive lead coefficient.
    """
    r = I.num_vars
    e_pivot = tuple(1 if j == pivot else 0 for j in range(r))
    c_pivot = field.reduce(L.terms.get(e_pivot, 0))
    if not c_pivot:
        raise ValueError("pivot coefficient of the linear form is zero")
    subst = HomogeneousPolynomial.from_terms(r - 1, {
        _drop_var(e, pivot): field.reduce(-c)
        for e, c in L.terms.items() if e != e_pivot}, degree=1)

    new_gens = []
    for g in I.generators:
        out = HomogeneousPolynomial(r - 1, g.degree, {})
        for e, c in g.terms.items():
            k = e[pivot]
            n = g.degree - k
            base = HomogeneousPolynomial.from_terms(r - 1, {
                _drop_var(e, pivot): field.reduce(c * c_pivot ** n)}, degree=n)
            term = poly_mul(base, poly_pow(subst, k, field), field)
            out = poly_add(out, term, field)
        out = out.normalized(field)
        if not out.is_zero:
            new_gens.append(out)
    return HomogeneousIdeal(r - 1, new_gens)


def _drop_var(e, i: int):
    return e[:i] + e[i + 1:]
