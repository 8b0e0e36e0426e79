"""Balanced append-only grammar: shadow-model equivalence, balance, sharing."""

import math
import random

import pytest

from lzgram import AvlGrammar, HashConfig, fp_of
from lzgram.avlgrammar import Probe

from support import build_by_copies


def build_random(rng, steps, sigma=4, copy_cap=400, length_cap=6000):
    cfg = HashConfig.from_seed(rng.randrange(1 << 30))
    g = AvlGrammar(cfg)
    model: list[int] = []
    for _ in range(steps):
        do_copy = model and rng.random() < 0.45 and len(model) < length_cap
        if do_copy:
            start = rng.randrange(len(model))
            end = min(len(model), start + rng.randrange(1, copy_cap))
            g.append_copy(start, end)
            model.extend(model[start:end])
        else:
            sym = rng.randrange(sigma)
            g.append_literal(sym)
            model.append(sym)
    return cfg, g, model


def test_empty_grammar():
    g = AvlGrammar(HashConfig.from_seed(0))
    assert g.length == 0
    assert g.to_symbols() == ()
    assert g.substring_fp(0, 0).length == 0
    assert g.reachable_nodes() == 0
    g.validate()


def test_matches_shadow_model():
    rng = random.Random(424242)
    for _ in range(25):
        _, g, model = build_random(rng, 60)
        assert g.length == len(model)
        assert g.to_symbols() == tuple(model)
        g.validate()


def test_symbol_at_and_extract():
    rng = random.Random(7)
    _, g, model = build_random(rng, 80)
    for _ in range(200):
        i = rng.randrange(len(model))
        assert g.symbol_at(i) == model[i]
    for _ in range(50):
        a = rng.randrange(len(model) + 1)
        b = rng.randrange(a, min(len(model), a + 300) + 1)
        assert tuple(g.extract(a, b)) == tuple(model[a:b])


def test_substring_fingerprints_match_oracle():
    rng = random.Random(99)
    for _ in range(8):
        cfg, g, model = build_random(rng, 50)
        for _ in range(150):
            a = rng.randrange(len(model) + 1)
            b = rng.randrange(a, len(model) + 1)
            assert g.substring_fp(a, b) == fp_of(cfg, model[a:b])


def test_height_balanced():
    rng = random.Random(3)
    for _ in range(10):
        _, g, model = build_random(rng, 70)
        if g.root is None:
            continue
        assert g.root.height <= 1.45 * math.log2(len(model) + 2)
        g.validate()


def test_copy_sharing_keeps_node_count_logarithmic():
    g = AvlGrammar(HashConfig.from_seed(5))
    g.append_literal(0)
    g.append_literal(1)
    for _ in range(40):
        g.append_copy(0, g.length)  # repeated doubling
    assert g.length == 2 ** 41
    assert g.reachable_nodes() <= 90
    g.validate()


def test_copy_range_validation():
    g = AvlGrammar(HashConfig.from_seed(1))
    g.append_literal(0)
    with pytest.raises(ValueError):
        g.append_copy(0, 2)
    with pytest.raises(ValueError):
        g.append_copy(2, 1)
    with pytest.raises(ValueError):
        g.substring_fp(0, 5)
    g.append_copy(0, 0)  # empty copy is a no-op
    assert g.length == 1


def test_ops_counter_monotone():
    g = AvlGrammar(HashConfig.from_seed(2))
    before = g.ops
    for i in range(20):
        g.append_literal(i % 3)
    g.append_copy(3, 17)
    g.substring_fp(2, 30)
    assert g.ops > before


def cover_visits(g, start, end):
    before = g.ops
    g._cover(start, end)
    return g.ops - before


def test_one_walk_queries_on_copy_built_grammars():
    # ops counts node visits: one query visits exactly the nodes that the
    # range's tiling walk (_cover) visits
    rng = random.Random(31337)
    for length in (1, 2, 3, 40, 90, 150):
        cfg, g, model, _ = build_by_copies(rng, length)
        g.validate()
        for a in range(len(model)):
            before = g.ops
            assert g.symbol_at(a) == model[a]
            assert g.ops - before == cover_visits(g, a, a + 1)
            for b in range(a + 1, len(model) + 1):
                before = g.ops
                assert g.substring_fp(a, b) == fp_of(cfg, model[a:b])
                assert g.ops - before == cover_visits(g, a, b)
    cfg, g, model, _ = build_by_copies(rng, 20000)
    assert g.root.height >= 12
    for _ in range(400):
        a = rng.randrange(len(model))
        b = rng.randrange(a + 1, len(model) + 1)
        before = g.ops
        assert g.substring_fp(a, b) == fp_of(cfg, model[a:b])
        assert g.ops - before == cover_visits(g, a, b)
        assert g.symbol_at(a) == model[a]


PHI = (1 + 5 ** 0.5) / 2


def test_forest_under_literals_and_copies_to_the_end():
    # copies that end at g.length, whole-content ones included, cover a
    # spine node; the copy must take the trees under it instead.  An AVL
    # tree of height h has at least Fib(h + 1) >= PHI ** (h - 1) leaves, and
    # the spine adds one level above the tallest tree.  (1.45 * log2(n + 2)
    # is not a bound here: repeated whole copies make near-Fibonacci trees,
    # and a single tree exceeds it too.)
    rng = random.Random(60221)
    for _ in range(8):
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        g = AvlGrammar(cfg)
        model: list[int] = []
        for _ in range(120):
            r = rng.random()
            if not model or r < 0.35:
                sym = rng.randrange(3)
                g.append_literal(sym)
                model.append(sym)
            else:
                n = len(model)
                if r < 0.5 and n <= 2000:
                    start = 0
                else:
                    start = rng.randrange(max(0, n - 300), n)
                end = n if r < 0.85 else rng.randrange(start + 1, n + 1)
                g.append_copy(start, end)
                model.extend(model[start:end])
            g.validate()
            assert g.to_symbols() == tuple(model)
            assert all(t.height <= 1 + math.log(t.length, PHI) for t in g._trees)
            assert g.root.height <= 2 + math.log(len(model), PHI)
            assert len(g._trees) <= 1.45 * math.log2(len(model) + 2)


def test_probe_keeps_last_grammar_symbol_until_moved():
    # distinct symbols: every position reads a different one
    g = AvlGrammar(HashConfig.from_seed(17))
    for s in range(64):
        g.append_literal(s)
    probe = Probe(g, 10, 20)
    assert probe.symbol_at(5) == 15
    ops = g.ops
    assert probe.symbol_at(5) == 15
    assert g.ops == ops  # a repeated read costs no grammar op
    # a stale symbol after a move would silently corrupt a parse
    probe.rebase(30, 20, [])
    assert probe.symbol_at(5) == 35
    probe.consume(3)
    assert probe.symbol_at(5) == 38
    probe.rebase(40, 4, [99, 98])
    assert probe.symbol_at(3) == 43
    probe.consume(2)  # position 3 moves into the tail
    assert probe.symbol_at(3) == 98
    assert probe.fp(4) == fp_of(g.cfg, [42, 43, 99, 98])


def expand(node):
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        if node.sym is not None:
            out.append(node.sym)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)


def assert_avl(node):
    """Balanced at every node; returns the height."""
    if node.sym is not None:
        return 1
    hl, hr = assert_avl(node.left), assert_avl(node.right)
    assert abs(hl - hr) <= 1
    assert node.height == max(hl, hr) + 1
    return node.height


def test_concat_spells_a_then_b():
    # phrase trees as the engine builds them: leaves, and concatenations of
    # earlier trees, many of them far apart in height
    rng = random.Random(8128)
    cfg = HashConfig.from_seed(8128)
    g = AvlGrammar(cfg)
    trees = [(g.leaf(s), (s,)) for s in range(4)]
    assert g.concat(None, trees[0][0]) is trees[0][0]
    assert g.concat(trees[1][0], None) is trees[1][0]
    for _ in range(400):
        (a, sa), (b, sb) = rng.choice(trees), rng.choice(trees[-20:])
        t = g.concat(a, b)
        assert expand(t) == sa + sb
        assert (t.hash, t.pow, t.length) == fp_of(cfg, sa + sb)
        assert_avl(t)
        assert expand(a) == sa and expand(b) == sb  # shared, not changed
        if len(sa) + len(sb) <= 2000:
            trees.append((t, sa + sb))
    assert g.length == 0  # building trees appends nothing


def test_appending_concatenated_trees():
    # literals, fresh concatenations and trees appended before, which the
    # grammar then shares; validate() also checks that no spine node is
    # below a tree node
    rng = random.Random(1729)
    for _ in range(6):
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        g = AvlGrammar(cfg)
        model: list[int] = []
        trees = []
        for _ in range(150):
            r = rng.random()
            if not trees or r < 0.3:
                s = rng.randrange(3)
                t, st = g.leaf(s), (s,)
            elif r < 0.7:
                (a, sa), (b, sb) = rng.choice(trees), rng.choice(trees)
                t, st = g.concat(a, b), sa + sb
            else:
                t, st = rng.choice(trees)
            g.append(t)
            model.extend(st)
            if len(st) <= 2000:
                trees.append((t, st))
            g.validate()
            assert g.to_symbols() == tuple(model)
            assert g.substring_fp(0, len(model)) == fp_of(cfg, model)
