"""Exact-arithmetic toolkit for deciding the weak Lefschetz property of
Artinian monomial and almost-monomial quotients.

Everything is computed with exact arithmetic (rationals or prime fields);
there is no floating point anywhere in the decision paths.

A monomial is an exponent tuple, one entry per variable: standard_monomials
and SocleReport.socle_monomials return them, and
rings.format_monomial(expo, variables) writes one as text.
"""

from .fields import GF, QQ, FieldSpec
from .ideals import (HilbertProfile, HomogeneousIdeal, NotArtinianError,
                     hilbert_profile, parse_ideal, socle_report,
                     standard_monomials)
from .wlp import WLPVerdict, kernel_witness, mult_map_rank, wlp_check

__all__ = [
    "GF", "QQ", "FieldSpec",
    "HilbertProfile", "HomogeneousIdeal", "NotArtinianError",
    "hilbert_profile", "parse_ideal", "socle_report", "standard_monomials",
    "WLPVerdict", "kernel_witness", "mult_map_rank", "wlp_check",
]

__version__ = "0.1.0"
