"""Constructors for the studied ideal families, plus the arithmetic
predicates (semistability, mod-3 obstruction, conjecture cases) and graded
Betti tables. A family spec checks its parameters when it is made
(ValueError), so every spec in hand is valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .fields import FieldSpec
from .ideals import HomogeneousIdeal
from .rings import (HomogeneousPolynomial, degree_monomials, linear_form,
                    poly_mul, poly_pow)

GENERAL_FORM_COEFF_RANGE = 50


@dataclass(frozen=True)
class Irkd:
    r: int
    k: int
    d: int

    def __post_init__(self):
        if self.r < 2 or self.k < 1 or not 2 <= self.d <= self.r:
            raise ValueError(f"Irkd needs r >= 2, k >= 1, 2 <= d <= r; got {self}")


@dataclass(frozen=True)
class Irk:
    r: int
    k: int

    def __post_init__(self):
        if self.r < 2 or self.k < 1:
            raise ValueError(f"Irk needs r >= 2, k >= 1; got {self}")


@dataclass(frozen=True)
class Irr:
    r: int

    def __post_init__(self):
        if self.r < 3:
            raise ValueError(f"Irr needs r >= 3; got {self}")


@dataclass(frozen=True)
class Jr:
    r: int

    def __post_init__(self):
        if self.r < 3:
            raise ValueError(f"Jr needs r >= 3; got {self}")


@dataclass(frozen=True)
class Aci3:
    """Codimension-3 almost complete intersection (x^a, y^b, z^c, x^al y^be z^ga)."""

    a: int
    b: int
    c: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        ok = (0 <= self.alpha < self.a and 0 <= self.beta < self.b
              and 0 <= self.gamma < self.c)
        if not ok:
            raise ValueError(f"Aci3 needs 0 <= exponent < pure power; got {self}")
        if sum(1 for e in (self.alpha, self.beta, self.gamma) if e > 0) < 2:
            raise ValueError("Aci3 with <= 1 positive mixed exponent is a "
                             "complete intersection")


@dataclass(frozen=True)
class LevelAci:
    """Level codim-3 almost complete intersection
    (x^(alpha+t), y^(beta+t), z^(gamma+t), x^alpha y^beta z^gamma)."""

    alpha: int
    beta: int
    gamma: int
    t: int

    def __post_init__(self):
        if self.t < 1 or not 1 <= self.alpha <= self.beta <= self.gamma:
            raise ValueError(f"LevelAci needs t >= 1 and 1 <= alpha <= beta <= gamma; got {self}")

    def as_aci3(self) -> Aci3:
        return Aci3(self.alpha + self.t, self.beta + self.t, self.gamma + self.t,
                    self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class INJN:
    """Codim-4 pure powers plus a degree-N linear-form power or general form."""

    N: int
    variant: str = "power"
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("INJN needs N >= 1")
        if self.variant not in ("power", "general"):
            raise ValueError(f"INJN variant must be power or general; got {self.variant!r}")


FamilySpec = Irkd | Irk | Irr | Jr | Aci3 | LevelAci | INJN


def _pure_power(r: int, i: int, k: int) -> HomogeneousPolynomial:
    return HomogeneousPolynomial.monomial(r, tuple(k if j == i else 0 for j in range(r)))


def make_ideal(spec: FamilySpec, field: FieldSpec) -> HomogeneousIdeal:
    if isinstance(spec, Irkd):
        r = spec.r
        gens = [_pure_power(r, i, spec.k) for i in range(r)]
        for support in combinations(range(r), spec.d):
            expo = tuple(1 if i in support else 0 for i in range(r))
            gens.append(HomogeneousPolynomial.monomial(r, expo))
        return HomogeneousIdeal(r, gens)
    if isinstance(spec, Irk):
        r = spec.r
        gens = [_pure_power(r, i, spec.k) for i in range(r)]
        gens.append(HomogeneousPolynomial.monomial(r, (1,) * r))
        return HomogeneousIdeal(r, gens)
    if isinstance(spec, Irr):
        return make_ideal(Irk(spec.r, spec.r), field)
    if isinstance(spec, Jr):
        r = spec.r
        gens = [_pure_power(r, i, r) for i in range(r)]
        base = HomogeneousPolynomial.monomial(r, (1,) * (r - 1) + (0,))
        lin = linear_form(r, [1] + [0] * (r - 2) + [1], field)
        gens.append(poly_mul(base, lin, field))
        return HomogeneousIdeal(r, gens)
    if isinstance(spec, Aci3):
        gens = [_pure_power(3, 0, spec.a), _pure_power(3, 1, spec.b),
                _pure_power(3, 2, spec.c),
                HomogeneousPolynomial.monomial(3, (spec.alpha, spec.beta, spec.gamma))]
        return HomogeneousIdeal(3, gens)
    if isinstance(spec, LevelAci):
        return make_ideal(spec.as_aci3(), field)
    if isinstance(spec, INJN):
        gens = [_pure_power(4, i, spec.N) for i in range(4)]
        if spec.variant == "power":
            gens.append(poly_pow(linear_form(4, [1, 1, 1, 1], field), spec.N, field))
        else:
            gens.append(general_form(4, spec.N, field, spec.seed))
        return HomogeneousIdeal(4, gens)
    raise TypeError(f"unknown family spec {spec!r}")


def chain_ideal(r: int, i: int) -> HomogeneousIdeal:
    """The i-th monomial ideal in the double-link chain toward the pure-power
    plus full-product ideal: (x_1^r,..,x_i^r, x_{i+1}^(r-1),..,x_r^(r-1),
    x_1*...*x_i); the r-th ideal is the chain's target."""
    if not 1 <= i <= r:
        raise ValueError("need 1 <= i <= r")
    gens = []
    for j in range(r):
        k = r if j < i else r - 1
        gens.append(_pure_power(r, j, k))
    gens.append(HomogeneousPolynomial.monomial(
        r, tuple(1 if j < i else 0 for j in range(r))))
    return HomogeneousIdeal(r, gens)


def general_form(num_vars: int, degree: int, field: FieldSpec, seed: int):
    """Seeded random form with every coefficient nonzero."""
    rng = random.Random(seed)
    terms = {}
    for e in degree_monomials(num_vars, degree):
        while True:
            c = rng.randint(-GENERAL_FORM_COEFF_RANGE, GENERAL_FORM_COEFF_RANGE)
            if c and field.reduce(c):
                break
        terms[e] = field.reduce(c)
    return HomogeneousPolynomial(num_vars, degree, terms)


def aci3_mod3_obstruction(spec: Aci3) -> bool:
    """True iff a+b+c+alpha+beta+gamma is divisible by 3, i.e. WLP failure in
    characteristic zero is not excluded."""
    total = spec.a + spec.b + spec.c + spec.alpha + spec.beta + spec.gamma
    return total % 3 == 0


@dataclass
class LevelAciPredicates:
    semistable: bool
    sum_mod3_zero: bool
    conjecture_case: str  # "case1" | "case2" | "case3" | "none"
    twin_peaks_degree: int | None


def predicates(spec: LevelAci) -> LevelAciPredicates:
    al, be, ga, t = spec.alpha, spec.beta, spec.gamma, spec.t
    s3 = al + be + ga
    semistable = ga <= 2 * (al + be) and 3 * t >= s3
    sum_mod3_zero = s3 % 3 == 0
    case = "none"
    if t % 2 == 0:
        if al == be and al % 2 == 0 and (ga - al) % 6 == 3:
            lam = (ga - al) // 3
            if 1 <= lam <= al and t >= al + lam:
                case = "case1"
        if case == "none" and al == be and al % 2 == 1 and (ga - al) % 6 == 0:
            mu = (ga - al) // 6
            if mu <= (al - 1) // 2 and t >= al + 2 * mu:
                case = "case2"
        if case == "none" and be == ga and al % 2 == 1 and (ga - al) % 3 == 0:
            rho = (ga - al) // 3
            if t >= al + 2 * rho:
                case = "case3"
    twin = 2 * s3 // 3 + t - 2 if sum_mod3_zero else None
    return LevelAciPredicates(semistable, sum_mod3_zero, case, twin)


@dataclass
class BettiTable:
    """Graded Betti numbers: per homological position, {twist: multiplicity}."""

    positions: list  # list of dicts, position 0 is {0: 1}

    def alternating_hilbert(self, num_vars: int, upto: int) -> tuple:
        """Hilbert values 0..upto of the quotient, from the resolution."""
        vals = []
        for d in range(upto + 1):
            h = 0
            for i, pos in enumerate(self.positions):
                for twist, mult in pos.items():
                    shifted = d + twist
                    if shifted >= 0:
                        h += (-1) ** i * mult * comb(shifted + num_vars - 1,
                                                     num_vars - 1)
            vals.append(h)
        return tuple(vals)


def betti_table(spec: FamilySpec) -> BettiTable:
    """Betti tables for the product family I_{r,k} and the codim-3 family."""
    if isinstance(spec, (Irr, Jr)):
        spec = Irk(spec.r, spec.r)
    if isinstance(spec, Irk):
        r, k = spec.r, spec.k
        positions = [{0: 1}]
        for i in range(1, r):
            pos: dict[int, int] = {}
            pos[-i * k] = pos.get(-i * k, 0) + comb(r, i)
            tw = -(r + (i - 1) * (k - 1))
            pos[tw] = pos.get(tw, 0) + comb(r, i - 1)
            positions.append(pos)
        positions.append({-(r + (r - 1) * (k - 1)): comb(r, r - 1)})
        return BettiTable(positions)
    if isinstance(spec, LevelAci):
        spec = spec.as_aci3()
    if isinstance(spec, Aci3):
        a, b, c = spec.a, spec.b, spec.c
        al, be, ga = spec.alpha, spec.beta, spec.gamma
        pos1: dict[int, int] = {}
        for tw in (-(al + be + ga), -a, -b, -c):
            pos1[tw] = pos1.get(tw, 0) + 1
        pos2: dict[int, int] = {}
        for tw in (-(al + be + c), -(al + ga + b), -(be + ga + a),
                   -(b + c), -(a + c), -(a + b)):
            pos2[tw] = pos2.get(tw, 0) + 1
        pos3: dict[int, int] = {}
        for tw in (-(al + b + c), -(be + a + c), -(ga + a + b)):
            pos3[tw] = pos3.get(tw, 0) + 1
        return BettiTable([{0: 1}, pos1, pos2, pos3])
    raise ValueError(f"no Betti table for family {type(spec).__name__}")
