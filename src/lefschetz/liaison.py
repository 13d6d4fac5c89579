"""Hilbert-function calculus for complete intersections and basic double links.

The Hilbert-function shadow of a basic double link ell*I + J is
h'(j) = h_I(j-1) + Delta h_J(j), and the first difference of the complete
intersection J is always realized as the h-vector of the Artinian complete
intersection obtained by adding the missing variable.

Every h-vector here is an ``ideals.HilbertProfile``, as ``hilbert_profile``
returns, so a predicted and a computed one compare as objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ideals import HilbertProfile


def ci_hvector(degrees) -> HilbertProfile:
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1))."""
    degrees = list(degrees)
    if not degrees:
        raise ValueError("need at least one degree")
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return HilbertProfile(tuple(coeffs))


def bdl_step(h_I: HilbertProfile, h_J_delta: HilbertProfile) -> HilbertProfile:
    """One basic double link: h'(j) = h_I(j-1) + h_J_delta(j)."""
    n = max(len(h_I) + 1, len(h_J_delta))
    return HilbertProfile(tuple(h_I[j - 1] + h_J_delta[j] for j in range(n)))


@dataclass
class ChainRow:
    label: str
    link_degrees: tuple  # CI degrees whose h-vector was added (empty for the seed)
    hvector: HilbertProfile


def bdl_chain(r: int, variant: str = "Irr") -> list:
    """The chain of basic double links from the codim-r complete intersection
    seed up to (x_1^r,...,x_r^r, product generator), as Hilbert-function rows.

    variant "Irr" targets the pure product x_1...x_r; variant "Jr" targets the
    almost-monomial product x_1...x_{r-1}(x_1+x_r). The two chains are
    numerically identical link by link.
    """
    if not 3 <= r <= 7:
        raise ValueError("r must be in 3..7")
    if variant not in ("Irr", "Jr"):
        raise ValueError(f"unknown variant {variant!r}")
    rows = [ChainRow("J1", (), ci_hvector([r - 1] * (r - 1)))]
    for i in range(1, r):
        link = tuple([r] * i + [r - 1] * (r - 1 - i))
        nxt = bdl_step(rows[-1].hvector, ci_hvector(link))
        rows.append(ChainRow(f"J{i + 1}", link, nxt))
    return rows


def diff_of_hf_check(s: int) -> bool:
    """Compare the midpoint drops of the pure-power complete intersection in s
    variables against its two-step double-link partner."""
    if not 2 <= s <= 9:
        raise ValueError("s must be in 2..9")
    h_i = ci_hvector([s] * s)
    h_j = ci_hvector([s + 1, s + 1] + [s] * (s - 2))
    mid = comb(s, 2)
    lhs = h_i[mid] - h_i[mid - 1]
    rhs = h_j[mid + 1] - h_j[mid + 2]
    return lhs <= rhs
