"""Single-pass engine: block reading, Monte-Carlo parse, Las-Vegas wrapper."""

import dataclasses
import math
import random

import pytest

from lzgram import (
    MERSENNE61,
    BlockReader,
    HashConfig,
    Scheme,
    make_text,
    parse_fast,
    parse_las_vegas,
    parse_las_vegas_detailed,
    parse_reference,
)
from lzgram.adversarial import FAMILIES, binary_reduce, gen_lzd_slow

from support import EX1_LZD, EX1_LZMW, EX1_TEXT, random_text, register_parsing


class CountingSource:
    """Iterable that records how many symbols were pulled from it."""

    def __init__(self, syms):
        self.syms = tuple(syms)
        self.count = 0

    def __len__(self):
        return len(self.syms)

    def __iter__(self):
        for s in self.syms:
            self.count += 1
            yield s


def test_example_1_both_schemes():
    for scheme, want in ((Scheme.LZD, EX1_LZD), (Scheme.LZMW, EX1_LZMW)):
        res = parse_fast(EX1_TEXT, scheme)
        register_parsing("fast-ex1", res.parsing)
        assert res.parsing == want


def test_tiny_inputs():
    for syms in ((), (3,), (0, 1)):
        text = make_text(syms)
        for scheme in Scheme:
            res = parse_fast(text, scheme)
            assert res.parsing == parse_reference(text, scheme)
    assert parse_fast(make_text(()), Scheme.LZD).parsing.phrases == ()


def test_unknown_length_stream_matches_known():
    rng = random.Random(99)
    for trial in range(12):
        syms = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 800)))
        scheme = Scheme.LZD if trial % 2 == 0 else Scheme.LZMW
        known = parse_fast(syms, scheme, seed=5)
        streamed = parse_fast(iter(syms), scheme, seed=5)
        assert streamed.parsing == known.parsing
        assert streamed.stats.symbols_read == len(syms)


def test_matches_reference_on_random_texts():
    rng = random.Random(24601)
    for trial in range(80):
        sigma = rng.choice([2, 3, 5, 12])
        n = rng.randrange(1, 1500)
        text = random_text(rng, n, sigma)
        scheme = Scheme.LZD if trial % 2 == 0 else Scheme.LZMW
        res = parse_fast(text, scheme, seed=trial)
        register_parsing("fast-random", res.parsing)
        assert res.parsing == parse_reference(text, scheme)


def test_matches_reference_on_adversarial_families():
    for name, k in (("lzd-approx", 4), ("lzmw-approx", 8),
                    ("lzd-slow", 8), ("lzmw-slow", 8)):
        gen, scheme, _ = FAMILIES[name]
        text = gen(k)
        res = parse_fast(text, scheme)
        register_parsing(f"fast-{name}", res.parsing)
        assert res.parsing == parse_reference(text, scheme)
        reduced, _ = binary_reduce(text, scheme)
        res2 = parse_fast(reduced, scheme)
        register_parsing(f"fast-{name}-bin", res2.parsing)
        assert res2.parsing == parse_reference(reduced, scheme)


def test_single_pass_symbol_reads():
    rng = random.Random(7)
    for _ in range(10):
        syms = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 400)))
        src = CountingSource(syms)
        res = parse_fast(src, Scheme.LZMW)
        assert src.count == len(syms)
        assert res.stats.symbols_read == len(syms)
        assert res.stats.blocks_read >= 1


def test_block_reader_known_length():
    syms = list(range(1000))
    r = BlockReader(syms)
    assert r.block_length() == max(16, math.ceil(math.log2(1000)) ** 2)
    out = []
    while True:
        block = r.read_block()
        if not block:
            break
        out.extend(block)
    assert out == syms
    assert r.delivered == 1000


def test_block_reader_unknown_length():
    r = BlockReader(iter(range(40)))
    assert r.known_length is None
    first = r.block_length()
    assert first == 16  # doubling estimate starts small
    out = []
    while True:
        block = r.read_block()
        if not block:
            break
        out.extend(block)
    assert out == list(range(40))


def test_structure_bounds():
    rng = random.Random(314)
    for trial in range(15):
        sigma = rng.choice([2, 4, 8])
        n = rng.randrange(50, 2000)
        text = random_text(rng, n, sigma)
        scheme = Scheme.LZD if trial % 2 == 0 else Scheme.LZMW
        res = parse_fast(text, scheme)
        z = len(res.parsing.phrases)
        assert res.stats.trie_nodes <= 2 * z + sigma + 1
        assert res.stats.grammar_nodes <= 6 * z * math.log2(n)
        assert res.stats.ops > 0


def test_deterministic_per_seed():
    text = random_text(random.Random(55), 600, 3)
    a = parse_fast(text, Scheme.LZD, seed=9)
    b = parse_fast(text, Scheme.LZD, seed=9)
    assert a.parsing == b.parsing
    assert a.stats == b.stats


def test_las_vegas_small_modulus():
    # p=251 leaves few collision-free hash bases once n approaches p, so
    # keep inputs short and give the retry loop headroom
    rng = random.Random(777)
    retried = 0
    for trial in range(10):
        syms = tuple(rng.randrange(4) for _ in range(rng.randrange(20, 150)))
        scheme = Scheme.LZD if trial % 2 == 0 else Scheme.LZMW
        res = parse_las_vegas_detailed(lambda: syms, scheme, seed=trial,
                                       p=251, max_attempts=512)
        register_parsing("lv-p251", res.parsing)
        assert res.parsing == parse_reference(make_text(syms), scheme)
        retried += res.attempts > 1
    assert retried >= 1


def test_las_vegas_default_modulus_first_try():
    rng = random.Random(888)
    for trial in range(6):
        syms = tuple(rng.randrange(5) for _ in range(rng.randrange(10, 500)))
        scheme = Scheme.LZMW if trial % 2 == 0 else Scheme.LZD
        res = parse_las_vegas_detailed(lambda: syms, scheme, seed=trial)
        assert res.attempts == 1
        assert res.parsing == parse_reference(make_text(syms), scheme)
        assert parse_las_vegas(lambda: syms, scheme, seed=trial) == res.parsing


def test_las_vegas_exhausted_attempts():
    syms = (0, 1, 0, 0, 1)
    with pytest.raises(RuntimeError):
        parse_las_vegas_detailed(lambda: syms, Scheme.LZD, max_attempts=0)


def test_slow_family_k16_agreement():
    text = gen_lzd_slow(16)
    res = parse_fast(text, Scheme.LZD)
    register_parsing("fast-lzd-slow-16", res.parsing)
    assert res.parsing == parse_reference(text, Scheme.LZD)
    assert res.stats.symbols_read == len(text.symbols)


# (symbols_read, blocks_read, searches, parts, grammar_ops, trie_ops, ma_ops,
#  trie_nodes, grammar_nodes) of parse_fast(..., seed=0).  The two op counters
# move whenever the engine's search paths change; the other seven fields are
# fixed by the parsing and the block reader.
PINNED_FAST_STATS = {
    "lzd-slow": (13123, 67, 885, 818, 126420, 7801, 13095, 654, 2393),
    "lzmw-slow": (7870, 47, 694, 647, 107597, 6861, 13964, 914, 1776),
    "random-lzd": (1200, 10, 492, 482, 42029, 3617, 6203, 291, 752),
    "random-lzmw": (1200, 10, 448, 438, 60695, 3890, 8383, 541, 755),
}


def test_fast_stats_pinned():
    runs = {}
    for name in ("lzd-slow", "lzmw-slow"):
        gen, scheme, _ = FAMILIES[name]
        runs[name] = (gen(8), scheme)
    text = random_text(random.Random(2718), 1200, 4)
    runs["random-lzd"] = (text, Scheme.LZD)
    runs["random-lzmw"] = (text, Scheme.LZMW)
    for name, (text, scheme) in runs.items():
        stats = parse_fast(text, scheme, seed=0).stats
        assert dataclasses.astuple(stats) == PINNED_FAST_STATS[name], name
