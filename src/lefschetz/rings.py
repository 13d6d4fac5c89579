"""Monomials as exponent tuples, homogeneous polynomials, and the parser.

The canonical order on monomials of equal degree is degree-lexicographic with
x1 > x2 > ... > xr; within a degree slice this is plain descending
lexicographic comparison of exponent tuples.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .fields import FieldSpec

Expo = tuple  # exponent tuple, one entry per variable


def mono_mul(a: Expo, b: Expo) -> Expo:
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def degree_monomials(num_vars: int, d: int) -> tuple:
    """All exponent tuples of total degree d, in canonical (descending) order."""
    if num_vars == 0:
        return ((),) if d == 0 else ()
    if num_vars == 1:
        return ((d,),)
    out = []
    for e0 in range(d, -1, -1):
        for rest in degree_monomials(num_vars - 1, d - e0):
            out.append((e0,) + rest)
    return tuple(out)


def format_monomial(expo: Expo, variables) -> str:
    """An exponent tuple as text, e.g. (2, 1, 0) over x, y, z as x^2*y."""
    parts = []
    for v, e in zip(variables, expo):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


class HomogeneousPolynomial:
    """A homogeneous polynomial: a term dict {exponent tuple: nonzero coeff}.

    The zero polynomial carries an explicit degree tag. Coefficients are
    Python ints, in the attached field's canonical form: any integer in char
    0, residues in char p. Any other coefficient raises ValueError.
    """

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int, terms: dict):
        self.num_vars = num_vars
        self.degree = degree
        self.terms = terms
        for e, c in terms.items():
            if sum(e) != degree:
                raise ValueError(f"term {e} breaks homogeneity (degree {degree})")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} of {e} is not an integer")
            if not c:
                raise ValueError("zero coefficient stored in term dict")

    @classmethod
    def from_terms(cls, num_vars: int, terms: dict, degree: int | None = None):
        terms = {e: c for e, c in terms.items() if c}
        if degree is None:
            if not terms:
                raise ValueError("degree tag required for the zero polynomial")
            degree = sum(next(iter(terms)))
        return cls(num_vars, degree, terms)

    @classmethod
    def monomial(cls, num_vars: int, expo: Expo):
        return cls(num_vars, sum(expo), {tuple(expo): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_term(self) -> bool:
        return len(self.terms) == 1

    def leading_monomial(self) -> Expo:
        return max(self.terms)

    def scaled(self, c, field: FieldSpec) -> "HomogeneousPolynomial":
        c = field.reduce(c)
        if not c:
            return HomogeneousPolynomial(self.num_vars, self.degree, {})
        return HomogeneousPolynomial(
            self.num_vars, self.degree,
            {e: field.reduce(a * c) for e, a in self.terms.items()})

    def times_monomial(self, expo: Expo) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(
            self.num_vars, self.degree + sum(expo),
            {mono_mul(e, expo): c for e, c in self.terms.items()})

    def normalized(self, field: FieldSpec) -> "HomogeneousPolynomial":
        """The normal form of the multiples of self: monic in char p, and
        primitive with a positive lead coefficient in char 0."""
        if self.is_zero:
            return self
        lead = self.terms[self.leading_monomial()]
        p = field.characteristic
        if p:
            return self.scaled(pow(lead, -1, p), field)
        g = gcd(*self.terms.values()) * (1 if lead > 0 else -1)
        return HomogeneousPolynomial(
            self.num_vars, self.degree,
            {e: c // g for e, c in self.terms.items()})

    def format(self, variables) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = format_monomial(e, variables)
            if c == 1 and sum(e) > 0:
                s = mono
            elif c == -1 and sum(e) > 0:
                s = f"-{mono}"
            elif sum(e) == 0:
                s = str(c)
            else:
                s = f"{c}*{mono}"
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return out

    def __eq__(self, other):
        return (isinstance(other, HomogeneousPolynomial)
                and self.num_vars == other.num_vars
                and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        vars_ = [f"x{i+1}" for i in range(self.num_vars)]
        return f"<{self.format(vars_)}>"


def poly_add(a: HomogeneousPolynomial, b: HomogeneousPolynomial,
             field: FieldSpec) -> HomogeneousPolynomial:
    if a.degree != b.degree and not (a.is_zero or b.is_zero):
        raise ValueError("degree mismatch in sum")
    terms = dict(a.terms)
    for e, c in b.terms.items():
        s = field.reduce(terms.get(e, 0) + c)
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return HomogeneousPolynomial(a.num_vars, max(a.degree, b.degree), terms)


def poly_mul(a: HomogeneousPolynomial, b: HomogeneousPolynomial,
             field: FieldSpec) -> HomogeneousPolynomial:
    terms: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = mono_mul(ea, eb)
            s = field.reduce(terms.get(e, 0) + ca * cb)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return HomogeneousPolynomial(a.num_vars, a.degree + b.degree, terms)


def poly_pow(a: HomogeneousPolynomial, n: int, field: FieldSpec) -> HomogeneousPolynomial:
    out = HomogeneousPolynomial(a.num_vars, 0, {(0,) * a.num_vars: 1})
    for _ in range(n):
        out = poly_mul(out, a, field)
    return out


def linear_form(num_vars: int, coeffs, field: FieldSpec) -> HomogeneousPolynomial:
    terms = {}
    for i, c in enumerate(coeffs):
        c = field.reduce(c)
        if c:
            e = tuple(1 if j == i else 0 for j in range(num_vars))
            terms[e] = c
    return HomogeneousPolynomial(num_vars, 1, terms)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    """Recursive-descent parser for the generator-expression grammar:

    ideal   := term ("," term)*
    term    := product (("+"|"-") product)*
    product := ["-"] factor ("*" factor)*
    factor  := integer | variable ["^" posint] | "(" term ")" ["^" posint]
    """

    def __init__(self, text: str, variables, field: FieldSpec):
        self.text = text
        self.pos = 0
        self.variables = list(variables)
        self.field = field
        self.num_vars = len(self.variables)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse_ideal(self):
        gens = [self.parse_term()]
        while self._peek() == ",":
            self.pos += 1
            gens.append(self.parse_term())
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return gens

    def parse_term(self):
        poly = self.parse_product()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.parse_product()
            if op == "-":
                rhs = rhs.scaled(-1, self.field)
            if poly.is_zero:
                poly = HomogeneousPolynomial(self.num_vars, rhs.degree, {})
            if rhs.is_zero:
                rhs = HomogeneousPolynomial(self.num_vars, poly.degree, {})
            if poly.degree != rhs.degree and not (poly.is_zero or rhs.is_zero):
                raise ParseError("inhomogeneous generator", self.pos)
            poly = poly_add(poly, rhs, self.field)
        return poly

    def parse_product(self):
        negate = False
        if self._peek() == "-":
            negate = True
            self.pos += 1
        poly = self.parse_factor()
        while self._peek() == "*":
            self.pos += 1
            poly = poly_mul(poly, self.parse_factor(), self.field)
        if negate:
            poly = poly.scaled(-1, self.field)
        return poly

    def parse_factor(self):
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            poly = self.parse_term()
            self._expect(")")
            return poly_pow(poly, self._maybe_power(), self.field)
        if ch.isdecimal():
            n = self._read_int()
            c = self.field.reduce(n)
            terms = {(0,) * self.num_vars: c} if c else {}
            return HomogeneousPolynomial(self.num_vars, 0, terms)
        if ch.isalpha() or ch == "_":
            name = self._read_name()
            if name not in self.variables:
                raise ParseError(f"unknown variable '{name}'", start)
            i = self.variables.index(name)
            e = self._maybe_power()
            expo = tuple(e if j == i else 0 for j in range(self.num_vars))
            return HomogeneousPolynomial(self.num_vars, e, {expo: 1})
        raise ParseError("expected integer, variable, or '('", self.pos)

    def _maybe_power(self) -> int:
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            n = self._read_int()
            if n < 1:
                raise ParseError("exponent must be positive", self.pos)
            return n
        return 1

    def _read_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected integer", start)
        return int(self.text[start:self.pos])

    def _read_name(self) -> str:
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        return self.text[start:self.pos]


def parse_generators(text: str, variables, field: FieldSpec):
    """Parse a comma-separated generator list; raises ParseError on bad input,
    parentheses nested past Python's recursion limit included."""
    parser = _Parser(text, variables, field)
    try:
        return parser.parse_ideal()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None
