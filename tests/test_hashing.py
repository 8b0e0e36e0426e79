"""Karp-Rabin hashes: worked values, seeding, the modulus check."""

import pytest

from lzgram import AvlGrammar, HashConfig, MERSENNE61

from support import fp_of


def test_modulus_constant():
    assert MERSENNE61 == 2 ** 61 - 1


def test_worked_example_small_field():
    cfg = HashConfig(p=97, delta=10)
    assert fp_of(cfg, [1, 2]) == 21  # 1 + 2*10
    g = AvlGrammar(cfg)
    ab = g.concat(g.leaf(1), g.leaf(2))
    assert (ab.hash, ab.pow) == (21, 3)  # 10^2 mod 97 = 3
    abc = g.concat(ab, g.leaf(3))
    assert abc.hash == 30 == fp_of(cfg, [1, 2, 3])  # 21 + 3*3
    assert g.prefix_fp(abc, 2) == 21
    assert g.prefix_fp(abc, 0) == 0


@pytest.mark.parametrize("p", [31, 251, MERSENNE61])
def test_delta_inv_is_fermat_inverse(p):
    for delta in (1, 2, 3, p // 2, p - 2, p - 1):
        inv = HashConfig(p=p, delta=delta).delta_inv
        assert inv == pow(delta, p - 2, p)
        assert delta * inv % p == 1


def test_from_seed_deterministic_and_ranged():
    a = HashConfig.from_seed(42)
    b = HashConfig.from_seed(42)
    assert a == b
    assert 1 <= a.delta < a.p
    small = HashConfig.from_seed(42, p=251)
    assert small == HashConfig.from_seed(42, p=251)
    assert 1 <= small.delta < 251
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
    fps = {fp_of(cfg, s) for s in strs}
    assert len(fps) == len(strs)


@pytest.mark.parametrize("delta", [0, 31, 62, -5])
def test_base_outside_field_rejected(delta):
    # the base must lie in [1, p-1]: 0 or a multiple of p hashes every
    # string alike
    with pytest.raises(ValueError):
        HashConfig(p=31, delta=delta)
    assert HashConfig(p=31, delta=1).delta == 1
    assert HashConfig(p=31, delta=30).delta == 30
