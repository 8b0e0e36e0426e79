"""Generator families: frozen prefixes, witness grammars, reductions."""

import hashlib
import random

import pytest

from lzgram import (
    Scheme,
    expand_grammar,
    parse_naive,
    parse_reference,
    phrase_expansions,
    validate_grammar,
    make_text,
)
from lzgram.adversarial import (
    FAMILIES,
    ParameterError,
    alpha_sequence,
    beta_block,
    beta_sequence,
    binary_reduce,
    gen_lzd_approx,
    gen_lzd_slow,
    gen_lzmw_approx,
    gen_lzmw_slow,
    lzd_slow_layout,
    lzmw_slow_layout,
    small_grammar_lzd,
    small_grammar_lzmw,
)

from support import random_text, register_parsing


def digest(obj) -> str:
    """First 16 hex digits of the SHA-256 of repr(obj): pins content."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def test_parameter_validation():
    for gen in (gen_lzmw_approx, gen_lzd_approx):
        for bad in (0, 2, 3, 6, 12):
            with pytest.raises(ParameterError):
                gen(bad)
        gen(4)
    for gen in (gen_lzd_slow, gen_lzmw_slow):
        for bad in (4, 6, 12, 24):
            with pytest.raises(ParameterError):
                gen(bad)
        gen(8)
    with pytest.raises(ParameterError, match="block index must be >= 1"):
        beta_block(0)
    with pytest.raises(ParameterError, match="cannot reduce an empty text"):
        binary_reduce(make_text([], 2), Scheme.LZD)


def test_lzmw_approx_prefix():
    t = gen_lzmw_approx(4)
    assert t.symbols[:4] == (1, 0, 1, 2)  # b a b c


def test_lzd_approx_prefix():
    t = gen_lzd_approx(4)
    assert t.symbols[:10] == (0, 0, 2, 2, 0, 0, 0, 2, 2, 2)  # aacc aaaccc


def test_lengths_grow_cubically():
    for gen in (gen_lzmw_approx, gen_lzd_approx):
        sizes = {k: len(gen(k)) for k in (4, 8, 16, 32)}
        assert sizes[4] < sizes[8] < sizes[16] < sizes[32]
        # cubic growth: doubling k multiplies length by ~8 eventually
        assert sizes[32] / sizes[16] > 6


def test_slow_lengths_frozen():
    assert len(gen_lzd_slow(8)) == 13123
    assert len(gen_lzd_slow(16)) == 233083
    assert len(gen_lzmw_slow(8)) == 7870
    assert len(gen_lzmw_slow(16)) == 134159
    # digests of (symbols, bound) and of the layout's spans: content, not
    # only lengths
    pins = {
        (gen_lzd_slow, lzd_slow_layout): {
            8: ("f8d523a309a959cc", "0ee065f0f9daf8fe"),
            16: ("9923acd27bf0efc0", "45fdfb6294c35ab6")},
        (gen_lzmw_slow, lzmw_slow_layout): {
            8: ("8232f193328e1aa8", "2f5f1e73e9a04005"),
            16: ("e513ad3ba75d84e0", "eb5acff7d3f20c3b")},
    }
    for (gen, layout_fn), by_k in pins.items():
        for k, (text_pin, layout_pin) in by_k.items():
            t = gen(k)
            assert digest((t.symbols, t.alphabet_bound)) == text_pin
            assert digest(layout_fn(k)) == layout_pin


def test_slow_alphabet_layout():
    for gen, layout_fn in ((gen_lzd_slow, lzd_slow_layout),
                           (gen_lzmw_slow, lzmw_slow_layout)):
        k = 8
        t = gen(k)
        letters = [s for s in t.symbols if s < k * k]
        seps = [s for s in t.symbols if s >= k * k]
        assert set(letters) == set(range(k * k))
        # separators pairwise distinct: each id occurs exactly once
        assert len(seps) == len(set(seps))
        blocks = layout_fn(k)
        assert blocks[0][0] == "s_prime"
        assert blocks[-1][2] == len(t)
        for _, start, end in blocks:
            assert 0 <= start < end <= len(t)
        # the spans tile the text, under distinct labels
        assert blocks[0][1] == 0
        for (_, _, end), (_, start, _) in zip(blocks, blocks[1:]):
            assert start == end
        assert len({label for label, _, _ in blocks}) == len(blocks)


def test_approx_phrase_counts_frozen():
    zs = {k: len(parse_naive(gen_lzd_approx(k), Scheme.LZD).parsing)
          for k in (4, 8, 16)}
    assert zs == {4: 24, 8: 56, 16: 144}
    zs = {k: len(parse_naive(gen_lzmw_approx(k), Scheme.LZMW).parsing)
          for k in (4, 8, 16)}
    assert zs == {4: 46, 8: 101, 16: 256}
    assert zs[8] >= 8 * 8 / 4


def test_witness_grammars_expand_exactly():
    for k in (4, 8, 16):
        g = small_grammar_lzd(k)
        validate_grammar(g)
        assert expand_grammar(g) == gen_lzd_approx(k).symbols
        g = small_grammar_lzmw(k)
        validate_grammar(g)
        assert expand_grammar(g) == gen_lzmw_approx(k).symbols
    # digests of the sorted productions, rule ids included
    pins = {
        small_grammar_lzd: {4: "078dba3e5b9dcc63", 8: "edf1b0295644f911",
                            16: "e9080ae7c1a58dbc"},
        small_grammar_lzmw: {4: "9de272f824c65c6f", 8: "1641930a27458268",
                             16: "28c143da42c24e79"},
    }
    for builder, by_k in pins.items():
        for k, pin in by_k.items():
            assert digest(sorted(builder(k).productions.items())) == pin


def test_witness_growth_linear():
    for builder in (small_grammar_lzd, small_grammar_lzmw):
        sizes = {k: builder(k).size() for k in (4, 8, 16, 32)}
        for k in (4, 8, 16):
            assert sizes[2 * k] / sizes[k] <= 2.5
    # one fitted constant per family over k in {4,8,16}
    assert all(small_grammar_lzd(k).size() <= 23 * k for k in (4, 8, 16))
    assert all(small_grammar_lzmw(k).size() <= 26 * k for k in (4, 8, 16))


def test_empty_rule_expands_to_empty():
    g = small_grammar_lzd(4)
    empty_rules = [rid for rid, rhs in g.productions.items() if rhs == ()]
    assert empty_rules, "the chain base rule derives the empty string"


def test_alpha_sequence_frozen_prefix():
    assert alpha_sequence(12) == [
        "00", "01", "11",
        "0000", "0001", "0011", "0101", "0111", "1111",
        "00000000", "00000001", "00000011",
    ]
    # level sizes: |A_1| = 3, |A_2| = 6
    seq = alpha_sequence(9)
    assert [len(s) for s in seq] == [2] * 3 + [4] * 6


def test_beta_blocks_frozen_prefix():
    assert [beta_block(m) for m in range(1, 7)] == [
        "0", "011", "00", "000101", "0011011111", "0000",
    ]
    # B_2 holds 8 strings of length 4 (|B_L| = |B_(L-1)|^2 - 1)
    seq = beta_sequence(13)
    level2 = seq[5:13]
    assert len(level2) == 8
    assert all(len(s) == 4 for s in level2)
    assert len(set(level2)) == 8
    # the all-zeros member's block is the member itself
    assert beta_block(1) == "0"
    assert beta_block(3) == "00"
    assert beta_block(6) == "0000"


def test_binary_reduce_small_alphabet():
    t = make_text([0, 1, 0, 0, 1], 2)
    reduced, phi = binary_reduce(t, Scheme.LZD)
    assert reduced.alphabet_bound == 2
    assert phi.ell == 2
    assert set(phi.table) == {0, 1}
    images = {"".join(map(str, img)) for img in phi.table.values()}
    assert images <= {"00", "01", "11"}
    assert len(images) == 2


def test_binary_reduce_lzmw_first_symbol_forced():
    t = make_text([3, 1, 2, 3], 4)
    reduced, phi = binary_reduce(t, Scheme.LZMW)
    img = phi.table[3]
    assert set(img) == {0}
    assert len(img) == phi.ell


def test_binary_reduce_parsing_decomposition():
    rng = random.Random(77)
    for _ in range(25):
        sigma = rng.randrange(2, 7)
        base = list(range(sigma)) + \
            [rng.randrange(sigma) for _ in range(rng.randrange(1, 40))]
        t = make_text(base, sigma)
        for scheme in Scheme:
            reduced, phi = binary_reduce(t, scheme)
            whole = register_parsing("adv.reduce", parse_reference(reduced, scheme))
            head = register_parsing("adv.reduce", parse_reference(
                make_text(phi.prefix, 2), scheme))
            inner = parse_reference(t, scheme)
            whole_exps = phrase_expansions(whole)
            head_exps = phrase_expansions(head)
            assert whole_exps[:len(head_exps)] == head_exps
            tail = whole_exps[len(head_exps):]
            expected = [phi.image(e) for e in phrase_expansions(inner)]
            assert tail == expected


def test_family_registry():
    assert set(FAMILIES) == {"lzmw-approx", "lzd-approx", "lzd-slow", "lzmw-slow"}
    for gen, scheme, kmin in FAMILIES.values():
        t = gen(kmin)
        assert len(t) > 0
        register_parsing("adv.family", parse_reference(t, scheme))
