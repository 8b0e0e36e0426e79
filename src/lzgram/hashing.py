"""Karp-Rabin fingerprints over a prime field.

A fingerprint of a symbol sequence s is sum(s[i] * delta^i) mod p together
with delta^len mod p, so two fingerprints can be concatenated in O(1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

MERSENNE61 = (1 << 61) - 1


@dataclass(frozen=True)
class HashConfig:
    """Field modulus and the per-run base delta in [1, p-1]."""

    p: int = MERSENNE61
    delta: int = 1

    @staticmethod
    def from_seed(seed: int, p: int = MERSENNE61) -> "HashConfig":
        if p < 3:
            raise ValueError("modulus too small")
        delta = random.Random(seed).randrange(1, p)
        return HashConfig(p=p, delta=delta)


class Fingerprint(NamedTuple):
    """(hash, delta^len mod p, len) of a symbol sequence."""

    hash: int
    pow: int
    length: int


def fp_empty() -> Fingerprint:
    return Fingerprint(0, 1, 0)


def fp_symbol(cfg: HashConfig, symbol: int) -> Fingerprint:
    return Fingerprint(symbol % cfg.p, cfg.delta % cfg.p, 1)


def fp_concat(cfg: HashConfig, a: Fingerprint, b: Fingerprint) -> Fingerprint:
    p = cfg.p
    return Fingerprint((a.hash + a.pow * b.hash) % p, (a.pow * b.pow) % p, a.length + b.length)


def fp_of(cfg: HashConfig, symbols) -> Fingerprint:
    """Direct evaluation, linear time. Reference for tests and small inputs."""
    p = cfg.p
    h = 0
    pw = 1
    n = 0
    for s in symbols:
        h = (h + pw * s) % p
        pw = (pw * cfg.delta) % p
        n += 1
    return Fingerprint(h, pw, n)
