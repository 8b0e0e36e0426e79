"""Karp-Rabin fingerprints over a prime field.

The fingerprint of a symbol sequence s is its hash sum(s[i] * delta^i) mod p;
the hash of s then t is hash(s) + delta^len(s) * hash(t), so a grammar node
keeps delta^len mod p next to its hash to compose them in O(1).  Every range,
of a grammar tree or of a raw tail, hashes by one rule over its sequence's
prefix hashes P: hash(s[a:b)) = (P(b) - P(a)) * delta^-a mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property

MERSENNE61 = (1 << 61) - 1


@cache
def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases, exact for every n < 3.1e23
    (so for every n < 2^64)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for b in bases:
        x = pow(b, d, n)  # n passes if x is 1 or some x^(2^i), i < r, is -1
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(r)):
            return False
    return True


@dataclass(frozen=True)
class HashConfig:
    """Field modulus, a prime in [3, 2^64), and the per-run base delta in
    [1, p-1].  The modulus must be prime, so that every delta is invertible
    and the hashes live in a field."""

    p: int = MERSENNE61
    delta: int = 1

    def __post_init__(self):
        if not (3 <= self.p < 1 << 64 and _is_prime(self.p)):
            raise ValueError(f"modulus {self.p} is not a prime in [3, 2^64)")
        if not 1 <= self.delta < self.p:
            raise ValueError(f"base {self.delta} is outside [1, {self.p - 1}]")

    @cached_property
    def delta_inv(self) -> int:
        """delta^-1 mod p, computed once per configuration."""
        return pow(self.delta, -1, self.p)

    @staticmethod
    def from_seed(seed: int, p: int = MERSENNE61) -> "HashConfig":
        return HashConfig(p=p, delta=random.Random(seed).randrange(1, p))
