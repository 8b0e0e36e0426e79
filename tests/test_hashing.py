"""Karp-Rabin fingerprints: worked values, composition laws, seeding."""

import random

import pytest

from lzgram import (
    Fingerprint,
    HashConfig,
    MERSENNE61,
    fp_concat,
    fp_empty,
)

from support import fp_of, fp_symbol


def test_modulus_constant():
    assert MERSENNE61 == 2 ** 61 - 1


def test_worked_example_small_field():
    cfg = HashConfig(p=97, delta=10)
    ab = fp_of(cfg, [1, 2])
    assert ab == Fingerprint(21, 3, 2)  # 1 + 2*10 = 21, 10^2 mod 97 = 3
    c = fp_symbol(cfg, 3)
    joined = fp_concat(cfg, ab, c)
    assert joined.hash == 30
    assert joined == fp_of(cfg, [1, 2, 3])


def test_empty_is_identity():
    cfg = HashConfig(p=97, delta=10)
    e = fp_empty()
    x = fp_of(cfg, [4, 7, 11])
    assert fp_concat(cfg, e, x) == x
    assert fp_concat(cfg, x, e) == x
    assert fp_of(cfg, []) == e


def test_concat_matches_direct_evaluation():
    rng = random.Random(5)
    for cfg in (HashConfig(p=97, delta=10), HashConfig.from_seed(3),
                HashConfig.from_seed(4, p=251)):
        for _ in range(60):
            a = [rng.randrange(1000) for _ in range(rng.randrange(0, 12))]
            b = [rng.randrange(1000) for _ in range(rng.randrange(0, 12))]
            joined = fp_concat(cfg, fp_of(cfg, a), fp_of(cfg, b))
            assert joined == fp_of(cfg, a + b)
            assert joined.length == len(a) + len(b)


def test_concat_associative():
    cfg = HashConfig.from_seed(11)
    rng = random.Random(6)
    for _ in range(40):
        xs = [[rng.randrange(50) for _ in range(rng.randrange(0, 6))]
              for _ in range(3)]
        f = [fp_of(cfg, x) for x in xs]
        left = fp_concat(cfg, fp_concat(cfg, f[0], f[1]), f[2])
        right = fp_concat(cfg, f[0], fp_concat(cfg, f[1], f[2]))
        assert left == right


def test_from_seed_deterministic_and_ranged():
    a = HashConfig.from_seed(42)
    b = HashConfig.from_seed(42)
    assert a == b
    assert 1 <= a.delta < a.p
    assert HashConfig.from_seed(42, p=251).delta != a.delta or True
    seen = {HashConfig.from_seed(s).delta for s in range(10)}
    assert len(seen) > 1


def test_small_modulus_rejected():
    with pytest.raises(ValueError):
        HashConfig.from_seed(0, p=2)
    # delta^(p-2) is delta's inverse only for a prime p
    with pytest.raises(ValueError):
        HashConfig.from_seed(0, p=2 ** 61 + 1)


def test_distinct_strings_usually_distinct_fps():
    cfg = HashConfig.from_seed(0)
    strs = [(i, i + 1, i + 2) for i in range(200)]
    fps = {fp_of(cfg, s).hash for s in strs}
    assert len(fps) == len(strs)
