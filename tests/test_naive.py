"""Compacted-trie parsers: trie mechanics, oracle equivalence, counters."""

import dataclasses
import random

from lzgram import (
    Literal,
    Scheme,
    parse_naive,
    parse_reference,
    phrase_expansions,
    make_text,
)
from lzgram.naive import CompactedTrie
from lzgram.adversarial import (
    FAMILIES,
    gen_lzd_slow,
    gen_lzmw_slow,
    lzd_slow_layout,
)

from support import EX1_LZD, EX1_LZMW, EX1_TEXT, random_text, register_parsing


# -- trie mechanics ---------------------------------------------------------


def trie_nodes(trie):
    out = []
    stack = [trie.root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children.values())
    return out


def assert_well_formed(trie):
    for node in trie_nodes(trie):
        if node is trie.root:
            assert node.length == 0 and node.depth == 0
            continue
        assert node.length >= 1
        assert node.mark is not None or len(node.children) >= 2
        for child in node.children.values():
            assert child.depth == node.depth + child.length
    for node in trie_nodes(trie):
        firsts = [trie.syms[c.start] for c in node.children.values()]
        assert len(firsts) == len(set(firsts))


def test_empty_trie_query():
    trie = CompactedTrie([0, 1, 0])
    assert trie.longest_marked(0) == (None, 0)


def test_marked_prefix_query():
    # backing text "ababx" as 0 1 0 1 9; dictionary holds "ab" and "abab"
    syms = [0, 1, 0, 1, 9]
    trie = CompactedTrie(syms)
    trie.insert(0, 2, "ab")
    trie.insert(0, 4, "abab")
    payload, length = trie.longest_marked(0)
    assert (payload, length) == ("abab", 4)
    assert_well_formed(trie)


def test_unmarked_branching_node_does_not_count():
    # "ab" and "ad" marked leave an unmarked branching node for "a";
    # querying at "ac..." matches one symbol but no marked prefix.
    syms = [0, 1, 0, 3, 0, 2]
    trie = CompactedTrie(syms)
    trie.insert(0, 2, "ab")
    trie.insert(2, 4, "ad")
    assert trie.longest_marked(4) == (None, 0)
    a_node = trie.root.children[0]
    assert a_node.mark is None and a_node.depth == 1
    assert len(a_node.children) == 2
    assert_well_formed(trie)


def test_insert_shapes():
    syms = [0, 1, 0, 1]
    trie = CompactedTrie(syms)
    trie.insert(0, 2, "ab")
    assert trie.stats.nodes_created == 1
    assert trie.root.children[0].mark == "ab"
    # extend the leaf: exactly one new node
    trie.insert(0, 4, "abab")
    assert trie.stats.nodes_created == 2
    # split case: fresh trie, long string first, then its prefix
    t2 = CompactedTrie(syms)
    t2.insert(0, 4, "abab")
    t2.insert(0, 2, "ab")
    mid = t2.root.children[0]
    assert mid.mark == "ab" and mid.depth == 2
    assert t2.stats.nodes_created == 2
    assert_well_formed(t2)


def test_first_mark_wins():
    syms = [0, 1]
    trie = CompactedTrie(syms)
    trie.insert(0, 2, "old")
    trie.insert(0, 2, "new")
    assert trie.root.children[0].mark == "old"


# -- parsers ----------------------------------------------------------------


def test_worked_example_both_schemes():
    lzd = parse_naive(EX1_TEXT, Scheme.LZD)
    assert register_parsing("naive.ex1", lzd.parsing) == EX1_LZD
    lzmw = parse_naive(EX1_TEXT, Scheme.LZMW)
    assert register_parsing("naive.ex1", lzmw.parsing) == EX1_LZMW


def test_two_symbols():
    ab = make_text([0, 1], 2)
    res = parse_naive(ab, Scheme.LZD)
    assert res.parsing.phrases == ((Literal(0), Literal(1)),)
    assert res.stats.symbol_comparisons >= 2
    res = parse_naive(ab, Scheme.LZMW)
    assert res.parsing.phrases == (Literal(0), Literal(1))


def test_oracle_equivalence_random():
    rng = random.Random(31337)
    for _ in range(150):
        sigma = rng.choice([2, 4, 16, 256])
        t = random_text(rng, rng.randrange(1, 400), sigma)
        for scheme in Scheme:
            res = parse_naive(t, scheme)
            assert res.parsing == parse_reference(t, scheme)
            register_parsing("naive.random", res.parsing)
            assert res.stats.symbol_comparisons >= len(t)


def test_marked_set_equals_dictionary():
    rng = random.Random(8)

    def marked_strings(trie):
        found = []
        stack = [(trie.root, ())]
        while stack:
            node, spell = stack.pop()
            if node.mark is not None:
                found.append(spell)
            for child in node.children.values():
                label = tuple(trie.syms[child.start:child.start + child.length])
                stack.append((child, spell + label))
        return sorted(found)

    for _ in range(25):
        t = random_text(rng, rng.randrange(2, 120), rng.choice([2, 4, 8]))
        res = parse_naive(t, Scheme.LZD, collect_trace=True)
        exps = phrase_expansions(res.parsing)
        expected = {(s,) for s in set(t.symbols)} | set(exps)
        assert sorted(expected) == marked_strings(res.trie)

        res = parse_naive(t, Scheme.LZMW, collect_trace=True)
        exps = phrase_expansions(res.parsing)
        pairs = {exps[i] + exps[i + 1] for i in range(len(exps) - 1)}
        expected = {(s,) for s in set(t.symbols)} | pairs
        assert sorted(expected) == marked_strings(res.trie)


def test_trie_well_formed_after_parse():
    rng = random.Random(9)
    for _ in range(10):
        t = random_text(rng, rng.randrange(2, 200), rng.choice([2, 4]))
        for scheme in Scheme:
            res = parse_naive(t, scheme, collect_trace=True)
            assert_well_formed(res.trie)


def test_slow_family_oracle_equivalence():
    for gen, scheme, origin in ((gen_lzd_slow, Scheme.LZD, "naive.lzd-slow-8"),
                                (gen_lzmw_slow, Scheme.LZMW, "naive.lzmw-slow-8")):
        t = gen(8)
        res = parse_naive(t, scheme)
        assert res.parsing == parse_reference(t, scheme)
        register_parsing(origin, res.parsing)


def test_slow_counter_growth():
    # Work grows ~k^5 while doubling k: ratio of edge counters >= 20.
    for gen, scheme in ((gen_lzd_slow, Scheme.LZD),
                        (gen_lzmw_slow, Scheme.LZMW)):
        edges = {}
        for k in (8, 16, 32):
            edges[k] = parse_naive(gen(k), scheme).stats.edges_traversed
        assert edges[16] / edges[8] >= 20
        assert edges[32] / edges[16] >= 20


def test_lzd_slow_dictionary_after_priming():
    # After the priming block every prefix and suffix of every w_i must be
    # available as a dictionary string.
    k = 8
    t = gen_lzd_slow(k)
    layout = lzd_slow_layout(k)
    label, start, end = layout[0]
    assert label == "s_prime" and start == 0
    parsing = parse_reference(t, Scheme.LZD)
    exps = phrase_expansions(parsing)
    pos = 0
    dictionary = set()
    for e in exps:
        if pos >= end:
            break
        pos += len(e)
        dictionary.add(e)
    assert pos == end, "phrase boundary must align with the priming block"
    for sym in set(t.symbols[:end]):
        dictionary.add((sym,))
    for i in range(1, k + 1):
        w = tuple(range((i - 1) * k, (i - 1) * k + k))
        for j in range(1, k + 1):
            assert w[:j] in dictionary, f"missing prefix w_{i}[:{j}]"
            assert w[j - 1:] in dictionary, f"missing suffix w_{i}[{j}:]"


# StepStats fields, then the number of traced parts and their summed search
# comparisons; any change to the trie walk's charging rules shows here.
PINNED_STEP_STATS = {
    "lzd-slow": (28578, 27423, 653, 818, 22202),
    "lzmw-slow": (20131, 18886, 913, 647, 11322),
    "random-lzd": (2853, 2151, 290, 482, 1915),
    "random-lzmw": (3742, 2895, 540, 438, 1886),
}


def test_step_stats_pinned():
    runs = {}
    for name in ("lzd-slow", "lzmw-slow"):
        gen, scheme, _ = FAMILIES[name]
        runs[name] = (gen(8), scheme)
    text = random_text(random.Random(2718), 1200, 4)
    runs["random-lzd"] = (text, Scheme.LZD)
    runs["random-lzmw"] = (text, Scheme.LZMW)
    for name, (text, scheme) in runs.items():
        res = parse_naive(text, scheme, collect_trace=True)
        got = dataclasses.astuple(res.stats) + (
            len(res.trace), sum(t.search_cmp for t in res.trace))
        assert got == PINNED_STEP_STATS[name], name
