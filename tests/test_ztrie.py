"""z-fast trie stack: fat binary search, order maintenance, marked ancestors."""

import random

import pytest

from lzgram import AvlGrammar, HashConfig, fp_concat, fp_empty, fp_symbol
from lzgram.ztrie import MarkedAncestorIndex, OrderList, ZTrie, two_fattest


class ListProbe:
    """Probe over an explicit symbol list with O(1) prefix fingerprints."""

    def __init__(self, cfg, syms):
        self.syms = tuple(syms)
        self.length = len(self.syms)
        fps = [fp_empty()]
        for s in self.syms:
            fps.append(fp_concat(cfg, fps[-1], fp_symbol(cfg, s)))
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
    g = AvlGrammar(cfg)
    for s in content:
        g.append_literal(s)
    trie = ZTrie(g)
    for idx, (start, end) in enumerate(intervals):
        trie.insert(start, end, ("dict", idx))
    return g, trie


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


# -- order maintenance ------------------------------------------------------


def test_order_list_preserves_insert_order():
    om = OrderList()
    first = om.insert_first()
    items = [first]
    for _ in range(50):
        items.append(om.insert_after(items[-1]))
    labels = [it.label for it in items]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)


def test_order_list_relabels_under_point_pressure():
    om = OrderList()
    anchor = om.insert_first()
    squeezed = []
    for _ in range(5000):
        squeezed.append(om.insert_after(anchor))
    # Every insert_after(anchor) lands directly after the anchor, so the
    # list order is anchor, then squeezed in reverse insertion order.
    assert om.relabels >= 1
    labels = [anchor.label] + [it.label for it in reversed(squeezed)]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)


# -- marked-ancestor index --------------------------------------------------


def walk_up_marked(node):
    while node is not None and not node.ma_marked:
        node = node.parent
    return node


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
        nodes = []
        stack = [trie.root]
        while stack:
            v = stack.pop()
            nodes.append(v)
            stack.extend(v.children.values())
        for v in nodes:
            assert trie.ma.nearest(v) is walk_up_marked(v)


def test_marked_ancestor_direct():
    ma = MarkedAncestorIndex(seed=1)

    class Node:
        def __init__(self, parent, om, after):
            self.parent = parent
            self.ma_marked = False
            self.open_item = om.insert_after(after)
            self.close_item = om.insert_after(self.open_item)

    om = OrderList()
    sentinel = om.insert_first()
    root = Node(None, om, sentinel)
    a = Node(root, om, root.open_item)
    b = Node(a, om, a.open_item)
    assert ma.nearest(b) is None
    ma.mark(root)
    assert ma.nearest(b) is root
    ma.mark(a)
    assert ma.nearest(b) is a
    assert ma.nearest(root) is root
    ma.mark(a)  # idempotent
    assert ma.nearest(b) is a


# -- trie searches ----------------------------------------------------------


def test_empty_trie_locate():
    cfg = HashConfig.from_seed(0)
    g = AvlGrammar(cfg)
    g.append_literal(0)
    trie = ZTrie(g)
    probe = ListProbe(cfg, [0, 1])
    assert trie.prefix_search(probe) is trie.root
    node, m = trie.locate(probe)
    assert node is trie.root and m == 0
    assert trie.node_count() == 1


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
    count = trie.node_count()
    trie.insert(0, 3, ("dup", 0))
    assert trie.node_count() == count
    probe = ListProbe(cfg, content[0:3])
    node, m = trie.locate(probe)
    assert trie.nearest_marked(node, m).payload == ("dict", 0)  # first wins


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
        assert trie.node_count() <= 2 * len(intervals) + 1


def test_insert_range_validation():
    cfg = HashConfig.from_seed(7)
    g = AvlGrammar(cfg)
    g.append_literal(0)
    trie = ZTrie(g)
    with pytest.raises(ValueError):
        trie.insert(0, 2, None)
    with pytest.raises(ValueError):
        trie.insert(1, 1, None)


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

        def string(v):
            return tuple(content[v.ell:v.ell + v.depth])

        got = {}
        stack = [trie.root]
        while stack:
            v = stack.pop()
            if v.ma_marked:
                got[string(v)] = v.payload
            if v is not trie.root:
                f = two_fattest(v.parent.depth, v.depth)
                key = (f, g.substring_fp(v.ell, v.ell + f).hash)
                assert trie.table[key] is v
            for sym, c in v.children.items():
                assert c.parent is v
                assert c.depth > v.depth
                assert content[c.ell + v.depth] == sym
                assert string(c)[:v.depth] == string(v)
                stack.append(c)
        assert got == want
