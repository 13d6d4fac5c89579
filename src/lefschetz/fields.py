"""Exact coefficient fields: the rationals (characteristic 0) and prime fields F_p.

A coefficient is a Python int in either: any integer in char 0, a residue
once reduced in char p.
"""

from __future__ import annotations

from dataclasses import dataclass


# psi_13, the least strong pseudoprime to every prime base up to 41
MILLER_RABIN_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, proven deterministic below
    psi_13 = MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86
    (2017)); ValueError for larger n. The bases up to 37 alone pass
    psi_12 = 318665857834031151167461 = 399165290221 * 798330580441."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is past the proven range of is_prime")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True)
class FieldSpec:
    """Ground field, identified by its characteristic (0 = exact rationals)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    def reduce(self, c: int) -> int:
        """Bring an integer coefficient into canonical form for this field:
        unchanged in char 0, a residue in char p. ValueError for any other
        number, such as a Fraction or a float."""
        if not isinstance(c, int):
            raise ValueError(f"coefficient {c!r} is not an integer")
        return c % self.characteristic if self.characteristic else c


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
