"""Balanced grammar trees: shadow-model equivalence, balance, sharing."""

import math
import random

import pytest

from lzgram import MERSENNE61, AvlGrammar, HashConfig, Literal, Scheme
from lzgram.adversarial import FAMILIES
from lzgram.avlgrammar import Probe

from support import (build_by_copies, copy_of, cover, engine_parse, extract,
                     fp_of, probe_on, random_text, to_symbols, tree_of)


def build_random(rng, steps, sigma=4, copy_cap=400, length_cap=6000,
                 p=MERSENNE61):
    """A tree over a text made of literals and copies of its earlier ranges."""
    cfg = HashConfig.from_seed(rng.randrange(1 << 30), p)
    g = AvlGrammar(cfg)
    sym = rng.randrange(sigma)
    root, model = g.leaf(sym), [sym]
    for _ in range(steps - 1):
        if rng.random() < 0.45 and len(model) < length_cap:
            start = rng.randrange(len(model))
            end = min(len(model), start + rng.randrange(1, copy_cap))
            root = g.concat(root, copy_of(g, root, start, end))
            model.extend(model[start:end])
        else:
            sym = rng.randrange(sigma)
            root = g.concat(root, g.leaf(sym))
            model.append(sym)
    return cfg, g, root, model


def assert_avl(cfg, node, seen=None):
    """Balanced at every node, with exact cached height, length, hash and
    pow; nodes in seen were checked before.  Returns the height."""
    if seen is None:
        seen = set()
    if node in seen:
        return node.height
    p = cfg.p
    if node.sym is not None:
        want = (1, 1, node.sym % p, cfg.delta % p)
    else:
        l, r = node.left, node.right
        hl, hr = assert_avl(cfg, l, seen), assert_avl(cfg, r, seen)
        assert abs(hl - hr) <= 1, "balance violated"
        want = (max(hl, hr) + 1, l.length + r.length,
                (l.hash + l.pow * r.hash) % p, l.pow * r.pow % p)
    assert (node.height, node.length, node.hash, node.pow) == want
    seen.add(node)
    return node.height


def test_empty_grammar():
    g = AvlGrammar(HashConfig.from_seed(0))
    # an empty range needs no tree: the trie root has none
    assert g.prefix_fp(None, 0) == 0
    assert g.reachable_nodes([]) == 0
    assert g.ops == 0


def test_matches_shadow_model():
    rng = random.Random(424242)
    for _ in range(25):
        cfg, _, root, model = build_random(rng, 60)
        assert root.length == len(model)
        assert to_symbols(root) == tuple(model)
        assert_avl(cfg, root)


def test_symbol_at_and_extract():
    rng = random.Random(7)
    _, g, root, model = build_random(rng, 80)
    for _ in range(200):
        i = rng.randrange(len(model))
        assert g.symbol_at(root, i) == model[i]
    for _ in range(50):
        a = rng.randrange(len(model) + 1)
        b = rng.randrange(a, min(len(model), a + 300) + 1)
        assert tuple(extract(root, a, b)) == tuple(model[a:b])


def test_substring_fingerprints_match_oracle():
    rng = random.Random(99)
    for _ in range(8):
        cfg, g, root, model = build_random(rng, 50)
        for _ in range(150):
            a = rng.randrange(len(model) + 1)
            b = rng.randrange(a, len(model) + 1)
            assert g.prefix_fp(root, b) == fp_of(cfg, model[:b])
            # a range inside a tree is a probe's to hash
            assert probe_on(g, root, a, b - a).fp(b - a) == fp_of(cfg, model[a:b])


PHI = (1 + 5 ** 0.5) / 2


def is_lazy(tree):
    return tree.sym is None and abs(tree.left.height - tree.right.height) >= 2


def assert_phrase_tree(cfg, tree, seen):
    """An AVL tree, or a lazy root: one node with exact cached fields over
    two AVL trees whose heights differ by 2 or more.  An AVL tree of height h
    has at least Fib(h + 1) >= PHI ** (h - 1) leaves, and a lazy root is one
    level above its taller child."""
    if is_lazy(tree):
        l, r = tree.left, tree.right
        want = (max(assert_avl(cfg, l, seen), assert_avl(cfg, r, seen)) + 1,
                l.length + r.length, (l.hash + l.pow * r.hash) % cfg.p,
                l.pow * r.pow % cfg.p)
        assert (tree.height, tree.length, tree.hash, tree.pow) == want
        assert tree.height <= 2 + math.log(tree.length, PHI)
    else:
        assert_avl(cfg, tree, seen)
        assert tree.height <= 1 + math.log(tree.length, PHI)


def engine_runs():
    """(cfg, engine, parsing) for the slow families at k=8 and 50 random
    texts, at the default modulus."""
    runs = []
    for name in ("lzd-slow", "lzmw-slow"):
        gen, scheme, _ = FAMILIES[name]
        runs.append((gen(8).symbols, scheme))
    rng = random.Random(3)
    for trial in range(50):
        text = random_text(rng, rng.randrange(20, 1500), rng.choice([2, 3, 4, 16]))
        runs.append((text.symbols, Scheme.LZD if trial % 2 == 0 else Scheme.LZMW))
    for seed, (syms, scheme) in enumerate(runs):
        cfg = HashConfig.from_seed(seed)
        yield (cfg, *engine_parse(syms, scheme, cfg))


def test_height_balanced():
    # every phrase tree the engine builds is AVL or, until the phrase is
    # first cited as a part, a lazy root over two AVL trees
    for cfg, eng, _ in engine_runs():
        seen = set()
        for tree in eng._trees.values():
            assert_phrase_tree(cfg, tree, seen)


def test_cited_phrases_are_balanced_and_repointed():
    # a phrase cited as a part was balanced at its first citation, and the
    # trie nodes that read its lazy root now read the balanced tree: the only
    # lazy roots left in the trie are trees of phrases never cited
    lazy_runs = 0
    for cfg, eng, parsing in engine_runs():
        # an int part cites a phrase under LZD and a pair under LZMW, the
        # engine's own payload either way
        if parsing.scheme is Scheme.LZD:
            parts = [part for ph in parsing.phrases for part in ph]
        else:
            parts = parsing.phrases
        cited = {part for part in parts if not isinstance(part, Literal)}
        seen = set()
        for ref in cited:
            assert_avl(cfg, eng._trees[ref], seen)
        uncited = {id(tree) for ref, tree in eng._trees.items() if ref not in cited}
        stack = list(eng.trie.root.children.values())
        while stack:
            v = stack.pop()
            stack.extend(v.children.values())
            if is_lazy(v.tree):
                assert id(v.tree) in uncited
        lazy_runs += any(map(is_lazy, eng._trees.values()))
    assert lazy_runs > 0


def test_copy_sharing_keeps_node_count_logarithmic():
    cfg = HashConfig.from_seed(5)
    g = AvlGrammar(cfg)
    root = tree_of(g, [0, 1])
    for _ in range(40):
        root = g.concat(root, copy_of(g, root, 0, root.length))  # doubling
    assert root.length == 2 ** 41
    assert g.reachable_nodes([root]) <= 90
    assert_avl(cfg, root)


def test_query_range_validation():
    g = AvlGrammar(HashConfig.from_seed(1))
    t = tree_of(g, [0, 1])
    for i in (3, -1):
        with pytest.raises(ValueError):
            g.prefix_fp(t, i)
    for i in (2, -1):
        with pytest.raises(ValueError):
            g.symbol_at(t, i)
    assert g.prefix_fp(t, 0) == 0  # an empty prefix reads nothing
    assert probe_on(g, t, 5, 0).fp(0) == 0  # nor does an empty range


def test_ops_counter_monotone():
    g = AvlGrammar(HashConfig.from_seed(2))
    before = g.ops
    t = tree_of(g, [i % 3 for i in range(20)])
    assert g.ops > before
    before = g.ops
    g.prefix_fp(t, 17)
    assert g.ops > before


def cover_visits(g, tree, start, end):
    before = g.ops
    cover(g, tree, start, end)
    return g.ops - before


def assert_probe_range(g, tree, model, start, end):
    """A probe hashes tree[start:end) exactly, visiting the nodes of one
    prefix descent per end of the range, none for an end at 0."""
    before = g.ops
    probe = probe_on(g, tree, start, end - start)
    assert probe.fp(end - start) == fp_of(g.cfg, model[start:end])
    visits = g.ops - before
    assert visits == (cover_visits(g, tree, 0, start) if start else 0) \
        + cover_visits(g, tree, 0, end)


def test_one_walk_queries_on_copy_built_grammars():
    # ops counts node visits: one query visits exactly the nodes that the
    # range's tiling walk (cover) visits, and a probe's range hash costs the
    # two prefix descents of its ends
    rng = random.Random(31337)
    for length in (1, 2, 3, 40, 90, 150):
        cfg, g, root, model, _ = build_by_copies(rng, length)
        assert_avl(cfg, root)
        for a in range(len(model)):
            before = g.ops
            assert g.symbol_at(root, a) == model[a]
            assert g.ops - before == cover_visits(g, root, a, a + 1)
            before = g.ops
            assert g.prefix_fp(root, a + 1) == fp_of(cfg, model[:a + 1])
            assert g.ops - before == cover_visits(g, root, 0, a + 1)
            for b in range(a + 1, len(model) + 1):
                assert_probe_range(g, root, model, a, b)
    cfg, g, root, model, _ = build_by_copies(rng, 20000)
    assert root.height >= 12
    for _ in range(400):
        a = rng.randrange(len(model))
        b = rng.randrange(a + 1, len(model) + 1)
        before = g.ops
        assert g.prefix_fp(root, b) == fp_of(cfg, model[:b])
        assert g.ops - before == cover_visits(g, root, 0, b)
        assert_probe_range(g, root, model, a, b)
        assert g.symbol_at(root, a) == model[a]


def test_probe_keeps_last_grammar_symbol_until_moved():
    # distinct symbols: every position reads a different one
    g = AvlGrammar(HashConfig.from_seed(17))
    t = tree_of(g, range(64))
    probe = probe_on(g, t, 10, 20)
    assert probe.symbol_at(5) == 15
    ops = g.ops
    assert probe.symbol_at(5) == 15
    assert g.ops == ops  # a repeated read costs no grammar op
    # a stale symbol after a move would silently corrupt a parse
    probe.rebase(t, 30, 20, [])
    assert probe.symbol_at(5) == 35
    probe.consume(3)
    assert probe.symbol_at(5) == 38
    probe.rebase(tree_of(g, range(63, -1, -1)), 0, 20, [])
    assert probe.symbol_at(5) == 58
    probe.rebase(t, 40, 4, [99, 98])
    assert probe.symbol_at(3) == 43
    probe.consume(2)  # position 3 moves into the tail
    assert probe.symbol_at(3) == 98
    assert probe.fp(4) == fp_of(g.cfg, [42, 43, 99, 98])


def test_probe_keeps_its_symbol_across_a_consume_in_the_tree():
    # a consume that stays in the tree part moves the cached symbol from q
    # to q - k, where re-reading it costs no grammar op
    g = AvlGrammar(HashConfig.from_seed(17))
    t = tree_of(g, range(64))
    probe = probe_on(g, t, 10, 20)
    probe.symbol_at(7)
    for k, q in ((3, 4), (4, 0)):
        probe.consume(k)
        ops = g.ops
        assert probe.symbol_at(q) == 17
        assert g.ops == ops
    assert probe.symbol_at(1) == 18  # the other positions read afresh
    probe.rebase(t, 10, 5, [99, 98])
    probe.symbol_at(4)
    probe.consume(6)  # into the tail: the cache goes
    assert probe.symbol_at(0) == 98


def test_probe_hashes_every_prefix_across_moves():
    # fp keeps P(start) and delta^-start, and the tree part's hash and
    # delta^glen, until the probe moves; a stale pair would hash the tree
    # part or every prefix that reaches into the tail wrongly.  A small
    # modulus wraps the difference of prefix hashes below 0 often.
    rng = random.Random(2718)
    for trial in range(12):
        cfg, g, root, model = build_random(rng, 40,
                                           p=31 if trial % 2 else MERSENNE61)
        probe = Probe(g)
        want: list[int] = []  # the probe's string
        for _ in range(40):
            if not want or rng.random() < 0.4:
                start = rng.randrange(len(model) + 1)
                room = min(len(model) - start, 200)
                glen = rng.choice([0, rng.randrange(room + 1)])
                tail = [rng.randrange(4) for _ in range(rng.choice([0, 1, 30]))]
                probe.rebase(root if glen else None, start, glen, list(tail))
                want = model[start:start + glen] + tail
            else:
                k = rng.randrange(1, len(want) + 1)  # may cross into the tail
                probe.consume(k)
                want = want[k:]
            assert probe.length == len(want)
            h, pw = 0, 1
            for q in range(len(want) + 1):
                assert probe.fp(q) == h
                if q < len(want):
                    h, pw = (h + pw * want[q]) % cfg.p, pw * cfg.delta % cfg.p


def test_concat_spells_a_then_b():
    # phrase trees as the engine builds them: leaves, and concatenations of
    # earlier trees, many of them far apart in height
    rng = random.Random(8128)
    cfg = HashConfig.from_seed(8128)
    g = AvlGrammar(cfg)
    trees = [(g.leaf(s), (s,)) for s in range(4)]
    for _ in range(400):
        (a, sa), (b, sb) = rng.choice(trees), rng.choice(trees[-20:])
        t = g.concat(a, b)
        assert to_symbols(t) == sa + sb
        n = len(sa) + len(sb)
        assert (t.hash, t.pow, t.length) == (fp_of(cfg, sa + sb),
                                             pow(cfg.delta, n, cfg.p), n)
        assert_avl(cfg, t)
        assert to_symbols(a) == sa and to_symbols(b) == sb  # shared, not changed
        if len(sa) + len(sb) <= 2000:
            trees.append((t, sa + sb))


def test_appending_concatenated_trees():
    # a text tree that grows by literals, fresh concatenations and trees
    # appended before, which it then shares
    rng = random.Random(1729)
    for _ in range(6):
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        g = AvlGrammar(cfg)
        root = None
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
            root = t if root is None else g.concat(root, t)
            model.extend(st)
            if len(st) <= 2000:
                trees.append((t, st))
            assert_avl(cfg, root)
            assert to_symbols(root) == tuple(model)
            assert g.prefix_fp(root, len(model)) == fp_of(cfg, model)
