"""z-fast trie: fat binary search, validated search, marked-ancestor pointers."""

import random
from types import MappingProxyType

import pytest

from lzgram import (AvlGrammar, HashConfig, Scheme, parse_fast,
                    parse_reference, ztrie)
from lzgram.adversarial import FAMILIES
from lzgram.avlgrammar import Probe
from lzgram.hashing import MERSENNE61
from lzgram.ztrie import ZTrie, two_fattest

from support import (PINNED_FAST_STATS, build_by_copies, copy_of,
                     engine_parse, extract, probe_on, random_text, to_symbols,
                     tree_of)


class ListProbe:
    """Probe over an explicit symbol list with O(1) prefix hashes."""

    def __init__(self, cfg, syms):
        self.syms = tuple(syms)
        self.length = len(self.syms)
        fps, pw = [0], 1
        for s in self.syms:
            fps.append((fps[-1] + pw * s) % cfg.p)
            pw = pw * cfg.delta % cfg.p
        self._fps = fps

    def fp(self, k):
        return self._fps[k]

    def symbol_at(self, i):
        return self.syms[i]


def lcp_len(a, b):
    m = 0
    for x, y in zip(a, b):
        if x != y:
            break
        m += 1
    return m


def build_trie(cfg, content, intervals):
    """A trie holding content[start:end) for each interval, each string its
    own tree."""
    g = AvlGrammar(cfg)
    trie = ZTrie(g)
    for idx, (start, end) in enumerate(intervals):
        trie.insert(tree_of(g, content[start:end]), ("dict", idx))
    return g, trie


def string(v):
    """A trie node's string."""
    return to_symbols(v.tree)[:v.depth] if v.tree is not None else ()


# -- two_fattest ------------------------------------------------------------


def test_two_fattest_examples():
    assert two_fattest(0, 1) == 1
    assert two_fattest(0, 8) == 8
    assert two_fattest(3, 8) == 8
    assert two_fattest(8, 11) == 10
    assert two_fattest(6, 7) == 7
    assert two_fattest(5, 6) == 6


def test_two_fattest_brute_force():
    def zeros(x):
        return (x & -x).bit_length() - 1

    for a in range(128):
        for b in range(a + 1, 129):
            f = two_fattest(a, b)
            assert a < f <= b
            assert zeros(f) == max(zeros(x) for x in range(a + 1, b + 1))


# -- marked-ancestor index --------------------------------------------------


def walk_up_marked(node):
    while node is not None and node.payload is None:
        node = node.parent
    return node


def reachable(trie):
    """The nodes a walk down the children maps from the root reaches."""
    nodes, stack = [], [trie.root]
    while stack:
        v = stack.pop()
        nodes.append(v)
        stack.extend(v.children.values())
    return nodes


def test_marked_ancestor_matches_walk_up():
    rng = random.Random(505)
    for _ in range(30):
        sigma = rng.choice([2, 3, 4])
        n = rng.randrange(10, 80)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        intervals = []
        for _ in range(rng.randrange(1, 25)):
            start = rng.randrange(n)
            end = rng.randrange(start + 1, min(n, start + 12) + 1)
            intervals.append((start, end))
        _, trie = build_trie(cfg, content, intervals)
        for v in reachable(trie):
            assert trie.nearest_marked(v, v.depth) is walk_up_marked(v)


# -- trie searches ----------------------------------------------------------


def test_empty_trie_locate():
    cfg = HashConfig.from_seed(0)
    trie = ZTrie(AvlGrammar(cfg))
    probe = ListProbe(cfg, [0, 1])
    assert trie.prefix_search(probe) is trie.root
    node, m = trie.locate(probe)
    assert node is trie.root and m == 0
    assert trie.node_count == 1


def test_exact_string_locates_its_node():
    cfg = HashConfig.from_seed(1)
    content = [0, 1, 0, 0, 1, 1]
    g, trie = build_trie(cfg, content, [(0, 4), (0, 2)])
    probe = ListProbe(cfg, content[0:4])
    node, m = trie.locate(probe)
    assert m == 4 and node.depth == 4
    w = trie.nearest_marked(node, m)
    assert w is not None and w.payload == ("dict", 0)
    # the shorter dictionary string sits on the same path
    probe2 = ListProbe(cfg, content[0:2])
    node2, m2 = trie.locate(probe2)
    assert m2 == 2
    w2 = trie.nearest_marked(node2, m2)
    assert w2.payload == ("dict", 1)


def test_disjoint_probe_locates_root():
    cfg = HashConfig.from_seed(2)
    g, trie = build_trie(cfg, [0, 0, 1, 0], [(0, 3)])
    probe = ListProbe(cfg, [7, 7])
    node, m = trie.locate(probe)
    assert node is trie.root and m == 0
    assert trie.nearest_marked(node, m) is None


def test_partial_edge_match():
    cfg = HashConfig.from_seed(3)
    content = [0, 1, 0, 1, 2, 2]
    g, trie = build_trie(cfg, content, [(0, 4)])  # "0101"
    probe = ListProbe(cfg, [0, 1, 0, 2])
    node, m = trie.locate(probe)
    assert m == 3
    assert node.parent.depth < m <= node.depth
    # no marked prefix of length <= 3 exists
    assert trie.nearest_marked(node, m) is None


def test_reinsert_only_marks():
    cfg = HashConfig.from_seed(4)
    content = [0, 1, 0, 1]
    g, trie = build_trie(cfg, content, [(0, 3)])
    count = trie.node_count
    trie.insert(tree_of(g, content[0:3]), ("dup", 0))
    assert trie.node_count == count
    probe = ListProbe(cfg, content[0:3])
    node, m = trie.locate(probe)
    assert trie.nearest_marked(node, m).payload == ("dict", 0)  # first wins


def test_split_of_a_replaced_child_leaves_its_siblings():
    # under a fingerprint collision an insert can put a new leaf under the
    # key of an existing child c, while c.parent still names the parent; a
    # later split of c must then change no entry of the parent's children
    cfg = HashConfig.from_seed(5)
    g, trie = build_trie(cfg, [2, 2, 0, 1, 1], [(0, 2), (2, 5)])  # "22", "011"
    root = trie.root
    c = root.children[0]
    sibling = root.children[2]
    replacing = trie._new_leaf(root, 0, tree_of(g, [0, 0]))
    trie._split(c, 1)
    assert root.children == {2: sibling, 0: replacing}


def test_node_count_bound():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randrange(8, 120)
        sigma = rng.choice([2, 4])
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        intervals = []
        for _ in range(rng.randrange(1, 30)):
            start = rng.randrange(n)
            end = rng.randrange(start + 1, n + 1)
            intervals.append((start, end))
        _, trie = build_trie(cfg, content, intervals)
        assert trie.node_count <= 2 * len(intervals) + 1


def test_locate_against_oracle():
    rng = random.Random(161803)
    for _ in range(40):
        sigma = rng.choice([2, 3])
        n = rng.randrange(6, 90)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        intervals = []
        for _ in range(rng.randrange(1, 20)):
            start = rng.randrange(n)
            end = rng.randrange(start + 1, min(n, start + 14) + 1)
            intervals.append((start, end))
        _, trie = build_trie(cfg, content, intervals)
        strings = [tuple(content[a:b]) for a, b in intervals]
        for _ in range(30):
            qlen = rng.randrange(1, 16)
            if rng.random() < 0.5 and strings:
                base = list(rng.choice(strings))[:qlen]
                while len(base) < qlen:
                    base.append(rng.randrange(sigma))
                q = tuple(base)
            else:
                q = tuple(rng.randrange(sigma) for _ in range(qlen))
            node, m = trie.locate(ListProbe(cfg, q))
            want = max((lcp_len(q, s) for s in strings), default=0)
            assert m == want
            lo = node.parent.depth if node.parent is not None else -1
            assert lo < m <= node.depth or (node is trie.root and m == 0)
            w = trie.nearest_marked(node, m)
            best = max((len(s) for s in strings
                        if len(s) <= m and s == q[:len(s)]), default=None)
            if best is None:
                assert w is None
            else:
                assert w is not None and w.depth == best


def test_trie_invariants_after_random_inserts():
    rng = random.Random(1729)
    for _ in range(40):
        sigma = rng.choice([2, 3, 4])
        n = rng.randrange(6, 120)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        intervals = []
        for _ in range(rng.randrange(1, 40)):
            start = rng.randrange(n)
            end = rng.randrange(start + 1, min(n, start + 20) + 1)
            intervals.append((start, end))
        g, trie = build_trie(cfg, content, intervals)
        want = {}
        for idx, (a, b) in enumerate(intervals):
            want.setdefault(tuple(content[a:b]), ("dict", idx))
        got = {}
        stack = [trie.root]
        while stack:
            v = stack.pop()
            if v.payload is not None:
                got[string(v)] = v.payload
            if v is not trie.root:
                # a node without a payload is a branching point: a split
                # gets the payload or a second child in the same insert
                assert v.payload is not None or len(v.children) >= 2
                f = two_fattest(v.parent.depth, v.depth)
                key = f << 64 | g.prefix_fp(v.tree, f)
                assert trie.table[key] is v
            for sym, c in v.children.items():
                assert c.parent is v
                assert c.depth > v.depth
                assert string(c)[v.depth] == sym
                assert string(c)[:v.depth] == string(v)
                stack.append(c)
        assert got == want


class RecordingProbe:
    """A probe's length and fingerprints, recording every prefix length it
    is asked about."""

    def __init__(self, probe):
        self.probe = probe
        self.length = probe.length
        self.asked = []

    def fp(self, k):
        self.asked.append(k)
        return self.probe.fp(k)

    def symbol_at(self, i):
        return self.probe.symbol_at(i)


def test_lcp_lower_bound_matches_oracle():
    rng = random.Random(4142)
    for _ in range(60):
        sigma = rng.choice([2, 3, 5])
        n = rng.randrange(4, 120)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        g = AvlGrammar(cfg)
        root = tree_of(g, content)
        for _ in range(20):
            start = rng.randrange(n)
            max_len = rng.randrange(n - start + 1)
            if rng.random() < 0.5:
                # a grammar range, usually sharing a prefix with the target
                a = rng.choice([start, rng.randrange(n)])
                probe = probe_on(g, root, a, rng.randrange(a + 1, n + 1) - a)
                syms = content[probe.start:probe.start + probe.length]
            else:
                syms = content[start:start + rng.randrange(n - start + 1)]
                if syms and rng.random() < 0.7:
                    syms[rng.randrange(len(syms))] = rng.randrange(sigma)
                syms += [rng.randrange(sigma) for _ in range(rng.randrange(4))]
                probe = ListProbe(cfg, syms)
            want = lcp_len(syms[:max_len], content[start:start + max_len])
            tree = copy_of(g, root, start, n)
            assert g.common_prefix(probe, tree, max_len) == want
            for lo in range(want + 1):
                log = RecordingProbe(probe)
                assert g.common_prefix(log, tree, max_len, lo) == want
                # the known prefix is never read again
                hi = min(probe.length, max_len)
                assert all(lo < q <= hi for q in log.asked), (lo, hi, log.asked)


def test_lcp_descent_on_copy_built_grammars():
    # a copy and its source are equal ranges built from large shared nodes,
    # so the first mismatch after them, or one planted inside them, lies deep
    # inside such a node
    rng = random.Random(2357)
    sigma = 3
    for _ in range(5):
        cfg, g, root, content, copies = build_by_copies(rng, 2500, sigma)
        n = len(content)
        long = [c for c in copies if 32 <= c[2] <= 400] or copies
        for _ in range(8):
            src, dst, length = rng.choice(long)
            start, other = rng.choice([(src, dst), (dst, src)])
            end = min(n, other + length + rng.randrange(1, 30))
            syms = content[other:end]
            if rng.random() < 0.5:
                probe = probe_on(g, root, other, end - other)
            else:
                j = rng.randrange(length // 2, len(syms))
                syms[j] = (syms[j] + rng.randrange(1, sigma)) % sigma
                probe = ListProbe(cfg, syms)
            max_len = rng.choice([n - start, rng.randrange(n - start + 1)])
            want = lcp_len(syms[:max_len], content[start:start + max_len])
            tree = copy_of(g, root, start, n)
            for lo in range(want + 1):
                assert g.common_prefix(probe, tree, max_len, lo) == want


def _trie_shape(trie, name=lambda v: id(v.tree)):
    """Every node's (depth, name, child keys, payload), in a walk that
    visits children by key, and the table with nodes named by walk index;
    by default a node is named by its tree's identity, for tries that share
    their trees."""
    index, shape = {}, []
    stack = [trie.root]
    while stack:
        v = stack.pop()
        index[id(v)] = len(shape)
        keys = sorted(v.children)
        shape.append((v.depth, name(v), tuple(keys), v.payload))
        stack.extend(v.children[k] for k in reversed(keys))
    table = {key: index[id(v)] for key, v in trie.table.items()}
    return shape, table


def test_insert_at_locus_matches_plain_insert():
    # the engine's pattern: a long probe at `start` is located, other strings
    # are inserted, then content[start:end) is inserted at the old locus.
    # Each string is one tree, inserted into both tries
    rng = random.Random(8128)
    for _ in range(60):
        sigma = rng.choice([2, 3, 4])
        n = rng.randrange(10, 150)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        g = AvlGrammar(cfg)
        at_locus, plain = ZTrie(g), ZTrie(g)

        def both(start, end, payload, at=None):
            tree = tree_of(g, content[start:end])
            at_locus.insert(tree, payload, at=at)
            plain.insert(tree, payload)

        for idx in range(rng.randrange(15)):
            start = rng.randrange(n)
            both(start, rng.randrange(start + 1, min(n, start + 12) + 1), ("pre", idx))
        for idx in range(rng.randrange(1, 25)):
            start = rng.randrange(n)
            if rng.random() < 0.2:
                both(start, start + 1, ("lit", idx), at=(at_locus.root, 0))
                continue
            probe_end = rng.randrange(start + 1, n + 1)
            locus = at_locus.locate(ListProbe(cfg, content[start:probe_end]))
            for j in range(rng.randrange(4)):
                # strings that share a prefix with the probe split its path
                # or extend it
                a = rng.choice([start, start, rng.randrange(n)])
                both(a, rng.randrange(a + 1, min(n, a + 16) + 1), ("mid", idx, j))
            end = rng.randrange(start + 1, probe_end + 1)
            both(start, end, ("phrase", idx), at=locus)
        assert _trie_shape(at_locus) == _trie_shape(plain)


def test_locate_resumes_from_a_certified_prefix():
    # the engine's resume: once a probe's whole prefix is certified at (v, m),
    # locating the longer probe from there gives the answer from the root
    rng = random.Random(9973)
    for _ in range(40):
        sigma = rng.choice([2, 3])
        n = rng.randrange(10, 100)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        intervals = []
        for _ in range(rng.randrange(1, 25)):
            start = rng.randrange(n)
            intervals.append((start, rng.randrange(start + 1, min(n, start + 16) + 1)))
        _, trie = build_trie(cfg, content, intervals)
        for _ in range(30):
            a, b = rng.choice(intervals)
            q = content[a:b] + [rng.randrange(sigma) for _ in range(rng.randrange(6))]
            cut = rng.randrange(len(q) + 1)
            v, m = trie.locate(ListProbe(cfg, q[:cut]))
            if m == cut:
                probe = ListProbe(cfg, q)
                assert trie.locate(probe, at=(v, m)) == trie.locate(probe)


def test_index_and_search_bound_after_every_insert():
    # every node answers like a walk up, reach holds the deepest string per
    # first symbol, and no search probes a length beyond the deepest string
    # that starts with the probe's first symbol, where every lookup must miss
    rng = random.Random(31415)
    for _ in range(25):
        sigma = rng.choice([2, 3, 4])
        n = rng.randrange(10, 100)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        g = AvlGrammar(cfg)
        trie = ZTrie(g)
        strings = []
        for idx in range(rng.randrange(1, 30)):
            start = rng.randrange(n)
            end = rng.randrange(start + 1, min(n, start + 16) + 1)
            trie.insert(tree_of(g, content[start:end]), ("dict", idx))
            strings.append(tuple(content[start:end]))
            nodes = reachable(trie)
            deepest = {}
            for v in nodes:
                assert trie.nearest_marked(v, v.depth) is walk_up_marked(v)
                if v is not trie.root:
                    assert v.first == string(v)[0]
                    deepest[v.first] = max(deepest.get(v.first, 0), v.depth)
            assert trie.reach == deepest
            longest = max(deepest.values())
            for _ in range(4):
                a = rng.randrange(n)
                q = content[a:a + rng.randrange(longest + 1)]
                q += [rng.randrange(sigma + 1)
                      for _ in range(longest + 1 - len(q) + rng.randrange(4))]
                probe = RecordingProbe(ListProbe(cfg, q))
                trie.prefix_search(probe)
                assert max(probe.asked, default=0) <= trie.reach.get(q[0], 0)
                node, m = trie.locate(ListProbe(cfg, q))
                assert m == max(lcp_len(q, s) for s in strings)
                best = max((len(s) for s in strings if s == tuple(q[:len(s)])),
                           default=None)
                w = trie.nearest_marked(node, m)
                assert (w.depth if w is not None else None) == best


def test_search_for_an_unknown_first_symbol_probes_nothing():
    # no trie string starts with the probe's first symbol, so every length
    # would miss: the search makes no table probe and gets the root
    cfg = HashConfig.from_seed(8)
    g, trie = build_trie(cfg, [0, 1, 1, 0, 1, 0, 0, 1], [(0, 5), (2, 8), (4, 6)])
    for q in ([2], [2, 0, 1, 1, 0], [3, 0, 1, 1, 0, 1, 0, 0, 1]):
        ops = trie.ops
        assert trie.prefix_search(ListProbe(cfg, q)) is trie.root
        assert trie.ops == ops
    assert trie.locate(ListProbe(cfg, [2, 0, 1])) == (trie.root, 0)
    assert set(trie.reach) == {0, 1}


def test_packed_keys_at_the_largest_modulus():
    # at the largest prime below 2^64 a hash fills 64 bits, and a table key
    # f << 64 | h still names one (f, h): the engine parses like the
    # reference, and the table has one key per node's distinct pair
    p = 18446744073709551557
    rng = random.Random(6464)
    for trial in range(20):
        text = random_text(rng, rng.randrange(50, 600),
                           rng.choice([2, 3, 4, 16]))
        cfg = HashConfig.from_seed(trial, p)
        for scheme in Scheme:
            want = parse_reference(text, scheme)
            assert parse_fast(text, scheme, cfg=cfg).parsing == want
            eng, _ = engine_parse(text.symbols, scheme, cfg)
            trie, g = eng.trie, eng.g
            pairs = set()
            for v in reachable(trie):
                if v is not trie.root:
                    f = two_fattest(v.parent.depth, v.depth)
                    h = g.prefix_fp(v.tree, f)
                    assert trie.table[f << 64 | h] is v
                    pairs.add((f, h))
            assert len(trie.table) == len(pairs)


def test_node_hashes_after_plain_inserts():
    # a new leaf takes its tree's hash and a split node hashes its own
    # prefix; the table keys agree with them where the key length is the
    # node's depth
    rng = random.Random(2357)
    for _ in range(30):
        sigma = rng.choice([2, 3])
        n = rng.randrange(10, 120)
        content = [rng.randrange(sigma) for _ in range(n)]
        cfg = HashConfig.from_seed(rng.randrange(1 << 30))
        intervals = []
        for _ in range(rng.randrange(1, 30)):
            start = rng.randrange(n)
            intervals.append((start, rng.randrange(start + 1, min(n, start + 16) + 1)))
        g, trie = build_trie(cfg, content, intervals)
        stack = [trie.root]
        while stack:
            v = stack.pop()
            stack.extend(v.children.values())
            assert v.hash == g.prefix_fp(v.tree, v.depth)
            if v.parent is not None and two_fattest(v.parent.depth, v.depth) == v.depth:
                assert trie.table[v.depth << 64 | v.hash] is v


def engine_corpus():
    """(symbols, scheme, cfg) of the slow families at k=8 and of seeded
    random texts, a third of them at modulus 31, where collisions are
    frequent."""
    for name in ("lzd-slow", "lzmw-slow"):
        gen, scheme, _ = FAMILIES[name]
        yield gen(8).symbols, scheme, HashConfig.from_seed(0)
    rng = random.Random(1618)
    for trial in range(30):
        syms = random_text(rng, rng.randrange(50, 600),
                           rng.choice([2, 3, 4, 16])).symbols
        cfg = (HashConfig(p=31, delta=rng.randrange(1, 31)) if trial % 3 == 0
               else HashConfig.from_seed(rng.randrange(1 << 30)))
        for scheme in Scheme:
            yield syms, scheme, cfg


def test_up_pointers_answer_like_a_walk_up(monkeypatch):
    # every node reachable from the root answers like a walk up parent
    # pointers.  Under a collision an insert can replace a child in its
    # parent's map, and no marking walk reaches that node then; at the
    # default modulus there is none, and every node made answers so.  A
    # node keeps one pointer for its queries, up, and leaves share one
    # read-only empty child map
    assert ztrie._TrieNode.__slots__ == ("parent", "depth", "tree", "hash",
                                         "children", "payload", "up", "first")
    made = []

    class Recorded(ztrie._TrieNode):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(ztrie, "_TrieNode", Recorded)
    for syms, scheme, cfg in engine_corpus():
        made.clear()
        eng, _ = engine_parse(syms, scheme, cfg)
        trie = eng.trie
        nodes = reachable(trie)
        if cfg.p == MERSENNE61:
            assert len(nodes) == len(made)
            nodes = made
        for v in nodes:
            assert trie.nearest_marked(v, v.depth) is walk_up_marked(v)
        for v in made:
            if v.children:
                assert type(v.children) is dict
            else:
                assert type(v.children) is MappingProxyType
                with pytest.raises(TypeError):
                    v.children[0] = v


def test_marking_walks_top_down_chain():
    # strings a^i b hang a chain of unmarked split nodes a^i; marking a^i
    # top-down walks the whole chain below each time, which comes close to
    # the bound: each up moves to a longer prefix of its node's string, and
    # the leaves are distinct strings
    a, b, chain = 0, 1, 40
    g = AvlGrammar(HashConfig.from_seed(7))
    trie = ZTrie(g)
    strings = [[a] * i + [b] for i in range(1, chain + 1)]
    strings += [[a] * i for i in range(1, chain + 1)]
    for idx, s in enumerate(strings):
        trie.insert(tree_of(g, s), ("dict", idx))
        nodes = reachable(trie)
        for v in nodes:
            assert trie.nearest_marked(v, v.depth) is walk_up_marked(v)
        leaves = sum(v.depth for v in nodes if not v.children)
        assert trie.ma_ops <= 2 * trie.node_count + 2 * leaves
    # a^i's walk scans the two children of each a^j, j > i
    assert trie.ma_ops >= chain * (chain - 1)


def record_inserts(monkeypatch):
    """Log every trie insert as (trie, tree, payload, continues, calls):
    continues tells whether the locus given is a node with a child under
    the string's next symbol, and calls lists the (name, args) of the
    `locate`, `_mark` and `Probe.rebase` calls the insert makes and the
    ("leaf", node) of each leaf it creates."""
    log, calls = [], None
    insert, new_leaf = ZTrie.insert, ZTrie._new_leaf

    def recorded(name, method):
        def call(self, *args, **kwargs):
            if calls is not None:
                calls.append((name, args))
            return method(self, *args, **kwargs)
        return call

    def logged_insert(self, tree, payload, at=None):
        nonlocal calls
        continues = False
        if at is not None:
            # the locus as insert sees it, after edge splits since its search
            v, m = at
            m = min(m, tree.length)
            while v.parent is not None and v.parent.depth >= m:
                v = v.parent
            continues = (m == v.depth < tree.length
                         and next(extract(tree, m, m + 1)) in v.children)
        calls = []
        log.append((self, tree, payload, continues, calls))
        try:
            return insert(self, tree, payload, at)
        finally:
            calls = None

    def logged_new_leaf(self, *args):
        leaf = new_leaf(self, *args)
        if calls is not None:
            calls.append(("leaf", leaf))
        return leaf

    monkeypatch.setattr(ZTrie, "insert", logged_insert)
    monkeypatch.setattr(ZTrie, "_new_leaf", logged_new_leaf)
    monkeypatch.setattr(ZTrie, "locate", recorded("locate", ZTrie.locate))
    monkeypatch.setattr(ZTrie, "_mark", recorded("_mark", ZTrie._mark))
    monkeypatch.setattr(Probe, "rebase", recorded("rebase", Probe.rebase))
    return log


def test_insert_searches_only_past_a_child_under_the_next_symbol(monkeypatch):
    # from a locus, a string inserted since can extend the path only through
    # a child of the locus node under the next symbol; any other insert
    # reads that symbol from its tree and neither rebases the trie's probe
    # nor searches.  The engine's trie still equals one built by plain
    # inserts of the same strings, named by their strings, as a lazy phrase
    # tree is replaced by its balanced join once cited
    insert = ZTrie.insert
    log = record_inserts(monkeypatch)
    for syms, scheme, cfg in engine_corpus():
        log.clear()
        eng, _ = engine_parse(syms, scheme, cfg)
        searched = 0
        for trie, _, _, continues, calls in log:
            assert trie is eng.trie
            names = [name for name, _ in calls if name in ("rebase", "locate")]
            assert names == (["rebase", "locate"] if continues else [])
            searched += continues
        assert 0 < searched < len(log)
        if cfg.p == MERSENNE61:
            plain = ZTrie(eng.g)
            for _, tree, payload, _, _ in log:
                insert(plain, tree, payload)
            assert _trie_shape(eng.trie, string) == _trie_shape(plain, string)


def test_a_new_leaf_takes_its_payload_without_a_walk(monkeypatch):
    # a new leaf has no children, so a marking walk from it would examine
    # none: it takes its payload by assignment, and ma_ops, which counts
    # the child entries walks examine, keeps its pinned values
    log = record_inserts(monkeypatch)
    for syms, scheme, cfg in engine_corpus():
        log.clear()
        engine_parse(syms, scheme, cfg)
        for _, _, payload, _, calls in log:
            leaves = [leaf for name, leaf in calls if name == "leaf"]
            marked = [args[0] for name, args in calls if name == "_mark"]
            assert len(leaves) <= 1 and len(marked) <= 1
            assert not any(v is leaf for v in marked for leaf in leaves)
            assert all(leaf.payload is payload for leaf in leaves)
    for name in ("lzd-slow", "lzmw-slow"):
        gen, scheme, _ = FAMILIES[name]
        eng, _ = engine_parse(gen(8).symbols, scheme, HashConfig.from_seed(0))
        assert eng.trie.ma_ops == PINNED_FAST_STATS[name][6]
