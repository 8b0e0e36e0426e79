"""Single-pass engine: block reading, Monte-Carlo parse, Las-Vegas wrapper."""

import dataclasses
import gc
import math
import random
import tracemalloc

import pytest

from lzgram import (
    MERSENNE61,
    BlockReader,
    HashConfig,
    Literal,
    Scheme,
    make_text,
    parse_fast,
    parse_las_vegas_detailed,
    parse_reference,
    phrase_expansions,
)
from lzgram.adversarial import FAMILIES, binary_reduce, gen_lzd_slow
from lzgram.model import phrase_ends

from support import (EX1_LZD, EX1_LZMW, EX1_TEXT, PINNED_FAST_STATS,
                     CountingSource, engine_parse, random_text,
                     register_parsing, to_symbols)


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


def test_block_reader_schedule():
    # the block length follows the symbols delivered, not the input's
    # length, which a generator does not know
    n = 1000
    r = BlockReader(s for s in range(n))
    blocks = []
    while block := r.read_block():
        blocks.append(block)
    assert [s for block in blocks for s in block] == list(range(n))
    assert r.delivered == n and r.blocks_read == len(blocks)
    lengths = [len(block) for block in blocks]
    assert lengths[0] == 16
    assert lengths[:-1] == sorted(lengths[:-1])  # the last one may be cut short
    assert max(lengths) <= math.ceil(math.log2(n + 16)) ** 2


def test_las_vegas_reads_one_shot_iterators():
    rng = random.Random(4321)
    for scheme in Scheme:
        syms = tuple(rng.randrange(3) for _ in range(300))
        res = parse_las_vegas_detailed(lambda: iter(syms), scheme, seed=1)
        assert res.parsing == parse_reference(make_text(syms), scheme)


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
        assert parse_las_vegas_detailed(lambda: syms, scheme, seed=trial) == res


def test_las_vegas_exhausted_attempts():
    syms = (0, 1, 0, 0, 1)
    with pytest.raises(RuntimeError):
        parse_las_vegas_detailed(lambda: syms, Scheme.LZD, max_attempts=0)


# Binary texts on which, at modulus 31, the wrapper's output can spell the
# input without being greedy (ROADMAP open item 1).  The LZD text is the
# first that a seeded sweep (random.Random(2), binary texts of 80-129
# symbols, bases 0-19) found.
NON_GREEDY_LZMW_TEXT = ("0001011011110011010111100100100101011011001111010001"
                        "0111011010010110110011001001111101011011100011011001"
                        "111110110")
NON_GREEDY_LZD_TEXT = ("0010100011011010111011110101110110001100111010010001"
                       "00111000111010000001000000011")

GREEDINESS_DEFECT = pytest.mark.xfail(
    strict=True, reason="the Las-Vegas wrapper checks only that a parsing "
    "spells the input, not that it is greedy (ROADMAP open item 1)")


def non_greedy_seeds(text, scheme):
    """The seeds in 0-299 whose wrapper output at modulus 31 spells text but
    is not the greedy parsing."""
    syms = tuple(map(int, text))
    want = phrase_ends(syms, parse_reference(make_text(syms), scheme))
    non_greedy = []
    for seed in range(300):
        try:
            res = parse_las_vegas_detailed(lambda: syms, scheme,
                                           seed=seed, p=31)
        except RuntimeError:
            continue  # exhausting the attempts is an honest answer
        if phrase_ends(syms, res.parsing) != want:
            non_greedy.append(seed)
    return non_greedy


@GREEDINESS_DEFECT
def test_las_vegas_output_is_greedy_at_modulus_31():
    assert non_greedy_seeds(NON_GREEDY_LZMW_TEXT, Scheme.LZMW) == []


@GREEDINESS_DEFECT
def test_las_vegas_lzd_output_is_greedy_at_modulus_31():
    assert non_greedy_seeds(NON_GREEDY_LZD_TEXT, Scheme.LZD) == []


def test_slow_family_k16_agreement():
    text = gen_lzd_slow(16)
    res = parse_fast(text, Scheme.LZD)
    register_parsing("fast-lzd-slow-16", res.parsing)
    assert res.parsing == parse_reference(text, Scheme.LZD)
    assert res.stats.symbols_read == len(text.symbols)


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


def test_marking_walks_stay_linear():
    # each node's up moves only to a longer prefix of its string, and the
    # leaves are distinct dictionary strings, so over a parse the marking
    # walks examine at most 2 trie_nodes + 6n child entries
    runs = []
    for name in ("lzd-slow", "lzmw-slow"):
        gen, scheme, _ = FAMILIES[name]
        runs += [(gen(k), scheme) for k in (8, 16)]
    rng = random.Random(2424)
    for _ in range(20):
        text = random_text(rng, rng.randrange(50, 2000), rng.choice([2, 4, 16]))
        runs += [(text, scheme) for scheme in Scheme]
    for text, scheme in runs:
        stats = parse_fast(text, scheme).stats
        assert stats.ma_ops <= 2 * stats.trie_nodes + 6 * stats.symbols_read


def collision_corpus(rng, texts):
    """Short texts over small alphabets, parsed below at small moduli, where
    fingerprint collisions are frequent."""
    for trial in range(texts):
        syms = tuple(rng.randrange(rng.randrange(2, 5))
                     for _ in range(rng.randrange(20, 301)))
        for scheme in Scheme:
            yield trial, syms, scheme


def referenced_expansion(scheme, expansions, ref):
    """What a dictionary reference spells under a parsing's expansions: an
    int j is phrase j under LZD and the pair of phrases j, j + 1 under LZMW."""
    if isinstance(ref, Literal):
        return (ref.symbol,)
    if scheme is Scheme.LZD:
        return expansions[ref - 1]
    return expansions[ref - 1] + expansions[ref]


def test_grammar_spells_the_parsing_under_collisions():
    # every phrase tree joins its parts' trees, so it spells what its
    # reference expands to under the emitted parsing, even where a collision
    # made the parsing wrong
    wrong = 0
    for trial, syms, scheme in collision_corpus(random.Random(4711), 400):
        for p in (31, 251):
            eng, parsing = engine_parse(syms, scheme,
                                        HashConfig.from_seed(trial, p))
            expansions = phrase_expansions(parsing)
            for ref, tree in eng._trees.items():
                want = referenced_expansion(scheme, expansions, ref)
                assert to_symbols(tree) == want, (trial, p, ref)
            wrong += parsing != parse_reference(make_text(syms), scheme)
    assert wrong > 0  # the moduli are small enough to make collisions


def trie_nodes(trie):
    stack = [trie.root]
    while stack:
        v = stack.pop()
        yield v
        stack.extend(v.children.values())


def test_cached_trie_hashes_are_exact():
    rng = random.Random(1618)
    for trial, syms, scheme in collision_corpus(rng, 100):
        for p in (MERSENNE61, 31):
            eng, _ = engine_parse(syms, scheme, HashConfig.from_seed(trial, p))
            g = eng.g
            for v in trie_nodes(eng.trie):
                assert v.hash == g.prefix_fp(v.tree, v.depth)
                if p == MERSENNE61:  # no collision corrupts the topology
                    # a child's tree starts with v's string
                    for c in v.children.values():
                        assert g.prefix_fp(c.tree, v.depth) == v.hash


def test_stats_walk_stays_under_the_parse_peak():
    # grammar_nodes walks the phrase trees; stats() drops the trie and carry
    # first, so the walk does not set the run's peak
    gen, scheme, _ = FAMILIES["lzmw-slow"]
    text = gen(16)
    tracemalloc.start()
    try:
        eng, _ = engine_parse(text.symbols, scheme, HashConfig.from_seed(0))
        parse_peak = tracemalloc.get_traced_memory()[1]
        eng.stats()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * parse_peak


def test_engine_is_freed_when_parse_fast_returns():
    # stats() cuts the trie's reference cycles (parent and up), so only
    # the result outlives parse_fast, even with the cyclic collector off
    gen, scheme, _ = FAMILIES["lzmw-slow"]
    text = gen(16)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        res = parse_fast(text, scheme)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert live < 0.5 * 2 ** 20


def test_rejected_attempt_is_freed_before_the_next():
    # stats() frees a rejected engine's trie, so a retry
    # peaks like a single parse, even with the cyclic collector off
    gen, scheme, _ = FAMILIES["lzd-slow"]
    syms = gen(8).symbols

    def peak(parse):
        tracemalloc.start()
        try:
            res = parse()
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    enabled = gc.isenabled()
    gc.disable()
    try:
        res, retry_peak = peak(lambda: parse_las_vegas_detailed(
            lambda: syms, scheme, seed=2, p=100043))
        _, single_peak = peak(lambda: parse_fast(syms, scheme))
    finally:
        if enabled:
            gc.enable()
    assert res.attempts == 2
    assert retry_peak <= 1.25 * single_peak
