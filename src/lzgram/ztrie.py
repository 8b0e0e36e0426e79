"""Fingerprint-indexed compacted trie with a nearest-marked-ancestor index.

The trie stores dictionary strings as intervals into the parsed prefix held by
an `AvlGrammar`; no string data is copied.  Lookups run a fat binary search
over prefix lengths (probing two-fattest lengths against a hash table keyed by
prefix fingerprints), then validate the candidate with fingerprint-driven LCP
computations.  All answers are therefore correct only with high probability;
callers recover from collisions at a higher level.

Marked nodes form the current dictionary.  Nearest-marked-ancestor queries use
Euler-tour intervals kept in an order-maintenance list: marked intervals nest
or are disjoint, so the innermost marked interval containing a node's opening
endpoint is its deepest marked ancestor-or-self.
"""

from __future__ import annotations

import random

from .avlgrammar import AvlGrammar


def two_fattest(a: int, b: int) -> int:
    """The unique x in (a, b] with the most trailing zero bits (0 < a < b ok)."""
    i = (a ^ b).bit_length() - 1
    return b & ~((1 << i) - 1)


# ---------------------------------------------------------------------------
# order-maintenance list

_LABEL_SPAN = 1 << 1024


class _OmItem:
    __slots__ = ("label", "prev", "next")


class OrderList:
    """Doubly-linked list with O(1) order comparison via integer labels.

    Labels live in (0, 2^1024); a midpoint insertion that finds no gap left
    triggers a global relabel, which preserves relative order (so structures
    that compare labels lazily stay consistent).
    """

    def __init__(self):
        head = _OmItem()
        head.label = 0
        head.prev = head.next = head
        self._head = head
        self._count = 0
        self.relabels = 0

    def insert_first(self) -> _OmItem:
        return self.insert_after(self._head)

    def insert_after(self, anchor: _OmItem) -> _OmItem:
        nxt = anchor.next
        hi = _LABEL_SPAN if nxt is self._head else nxt.label
        if hi - anchor.label < 2:
            self._relabel()
            nxt = anchor.next
            hi = _LABEL_SPAN if nxt is self._head else nxt.label
        item = _OmItem()
        item.label = anchor.label + (hi - anchor.label) // 2
        item.prev = anchor
        item.next = nxt
        anchor.next = item
        nxt.prev = item
        self._count += 1
        return item

    def _relabel(self) -> None:
        self.relabels += 1
        spacing = _LABEL_SPAN // (self._count + 2)
        label = 0
        item = self._head.next
        while item is not self._head:
            label += spacing
            item.label = label
            item = item.next


# ---------------------------------------------------------------------------
# nearest-marked-ancestor index

class _TreapNode:
    __slots__ = ("tnode", "prio", "left", "right", "max_close")

    def __init__(self, tnode, prio):
        self.tnode = tnode
        self.prio = prio
        self.left = None
        self.right = None
        self.max_close = tnode.close_item


class MarkedAncestorIndex:
    """Treap over marked Euler intervals, keyed by opening endpoint.

    `nearest(v)` stabs v's opening label: the marked interval with the largest
    opening label at or before it whose closing label is at or after it.  For
    nested-or-disjoint intervals that is the innermost container, i.e. the
    deepest marked ancestor-or-self of v.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._root = None
        self.ops = 0

    def mark(self, tnode) -> None:
        if tnode.ma_marked:
            return
        tnode.ma_marked = True
        self._root = self._insert(self._root, _TreapNode(tnode, self._rng.random()))

    def _insert(self, t, node):
        self.ops += 1
        if t is None:
            return node
        if node.tnode.open_item.label < t.tnode.open_item.label:
            t.left = self._insert(t.left, node)
            if t.left.prio > t.prio:
                t = self._rot_right(t)
        else:
            t.right = self._insert(t.right, node)
            if t.right.prio > t.prio:
                t = self._rot_left(t)
        self._pull(t)
        return t

    @staticmethod
    def _pull(t) -> None:
        best = t.tnode.close_item
        if t.left is not None and t.left.max_close.label > best.label:
            best = t.left.max_close
        if t.right is not None and t.right.max_close.label > best.label:
            best = t.right.max_close
        t.max_close = best

    def _rot_right(self, t):
        l = t.left
        t.left = l.right
        l.right = t
        self._pull(t)
        self._pull(l)
        return l

    def _rot_left(self, t):
        r = t.right
        t.right = r.left
        r.left = t
        self._pull(t)
        self._pull(r)
        return r

    def nearest(self, tnode):
        """Deepest marked ancestor-or-self of tnode, or None."""
        return self._stab(self._root, tnode.open_item.label)

    def _stab(self, t, pos):
        if t is None or t.max_close.label < pos:
            return None
        self.ops += 1
        if t.tnode.open_item.label > pos:
            return self._stab(t.left, pos)
        got = self._stab(t.right, pos)
        if got is not None:
            return got
        if t.tnode.close_item.label >= pos:
            return t.tnode
        return self._stab(t.left, pos)


# ---------------------------------------------------------------------------
# fingerprint LCP search and the grammar-interval probe

def lcp_by_fingerprint(g: AvlGrammar, probe, start: int, max_len: int) -> int:
    """Longest common prefix of the probe's string and content[start:start+max_len).

    Binary search over prefix lengths comparing fingerprints; exact w.h.p.
    """
    lo, hi = 0, min(probe.length, max_len)
    if hi and probe.fp(hi) == g.substring_fp(start, start + hi):
        return hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe.fp(mid) == g.substring_fp(start, start + mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


class _Interval:
    """Probe over content[start:end) of the grammar.

    It keeps the last symbol read: insert re-reads, as the new leaf's key,
    the symbol that locate found no child for.
    """

    __slots__ = ("g", "start", "length", "_q", "_sym")

    def __init__(self, g: AvlGrammar, start: int, end: int):
        self.g = g
        self.start = start
        self.length = end - start
        self._q = -1

    def fp(self, q: int):
        return self.g.substring_fp(self.start, self.start + q)

    def symbol_at(self, q: int) -> int:
        if q != self._q:
            self._q, self._sym = q, self.g.symbol_at(self.start + q)
        return self._sym


# ---------------------------------------------------------------------------
# the trie

class _TrieNode:
    __slots__ = ("parent", "depth", "ell", "children", "payload",
                 "open_item", "close_item", "ma_marked")

    def __init__(self, parent, depth, ell):
        self.parent = parent
        self.depth = depth
        self.ell = ell
        self.children = {}
        self.payload = None
        self.open_item = None
        self.close_item = None
        self.ma_marked = False


class ZTrie:
    """Compacted trie over substrings of an append-only grammar's content.

    Every non-root node owns one hash-table key: the fingerprint of its
    string's prefix at the two-fattest length of its depth span.  Edge splits
    migrate keys so the mapping stays exact (up to fingerprint collisions).
    """

    def __init__(self, g: AvlGrammar):
        self.g = g
        self.om = OrderList()
        self.ma = MarkedAncestorIndex()
        self.table: dict = {}
        self.ops = 0
        root = _TrieNode(None, 0, 0)
        root.open_item = self.om.insert_first()
        root.close_item = self.om.insert_after(root.open_item)
        self.root = root
        self._nodes = 1

    def node_count(self) -> int:
        return self._nodes

    def _register(self, node: _TrieNode) -> None:
        f = two_fattest(node.parent.depth, node.depth)
        fp = self.g.substring_fp(node.ell, node.ell + f)
        self.table[(f, fp.hash)] = node

    def _new_leaf(self, parent, depth, ell) -> _TrieNode:
        """New childless node; its Euler interval nests just inside parent's."""
        node = _TrieNode(parent, depth, ell)
        node.open_item = self.om.insert_after(parent.close_item.prev)
        node.close_item = self.om.insert_after(node.open_item)
        self._nodes += 1
        return node

    # -- insertion ---------------------------------------------------------

    def insert(self, start: int, end: int, payload) -> _TrieNode:
        """Insert content[start:end) as a dictionary string; returns its node.

        Existing strings are only marked.  The string is found by `locate`;
        at most one edge split and one new leaf follow.
        """
        if not 0 <= start < end <= self.g.length:
            raise ValueError(f"insert range [{start},{end}) outside content")
        probe = _Interval(self.g, start, end)
        v, m = self.locate(probe)
        if m < v.depth:
            v = self._split(v, m)
        if m < probe.length:
            leaf = self._new_leaf(v, probe.length, start)
            v.children[probe.symbol_at(m)] = leaf
            self._register(leaf)
            v = leaf
        if v.payload is None:
            v.payload = payload
        self.ma.mark(v)
        return v

    def _split(self, c: _TrieNode, mid_depth: int) -> _TrieNode:
        """Split the edge into c at depth mid_depth, returning the new middle
        node."""
        v = c.parent
        mid = _TrieNode(v, mid_depth, c.ell)
        mid.open_item = self.om.insert_after(c.open_item.prev)
        mid.close_item = self.om.insert_after(c.close_item)
        self._nodes += 1
        v.children[self.g.symbol_at(c.ell + v.depth)] = mid
        mid.children[self.g.symbol_at(c.ell + mid_depth)] = c
        c.parent = mid
        # migrate c's search key: its depth span shrank from (v.depth, c.depth]
        # to (mid_depth, c.depth]
        f_old = two_fattest(v.depth, c.depth)
        if f_old <= mid_depth:
            fp = self.g.substring_fp(c.ell, c.ell + f_old)
            self.table[(f_old, fp.hash)] = mid
            self._register(c)
        else:
            self._register(mid)
        return mid

    # -- search ------------------------------------------------------------

    def prefix_search(self, probe) -> _TrieNode:
        """Fat binary search: candidate node for the probe's longest trie prefix.

        The result is only w.h.p. the right node (and may be one node too
        high); callers must validate with fingerprint LCPs, as locate() does.
        """
        a, b = 0, probe.length
        v = self.root
        while a < b:
            f = two_fattest(a, b)
            self.ops += 1
            u = self.table.get((f, probe.fp(f).hash))
            if u is None:
                b = f - 1
            else:
                v = u
                a = u.depth
        return v

    def locate(self, probe):
        """Validated search: (node, lcp) where lcp is the length of the longest
        prefix of the probe present in the trie and node is the explicit node
        at or immediately below that point (root for lcp 0).

        Always terminates and always returns m in (node.parent.depth,
        node.depth], even if earlier collisions corrupted the topology; the
        answer itself is only w.h.p. correct.
        """
        v = self.prefix_search(probe)
        # climb until the probe demonstrably reaches v's edge
        while True:
            if v.parent is None:
                m = 0
                break
            m = lcp_by_fingerprint(self.g, probe, v.ell, v.depth)
            if m > v.parent.depth:
                break
            v = v.parent
        # then extend downward by validated child steps only
        while m == v.depth and m < probe.length:
            c = v.children.get(probe.symbol_at(m))
            if c is None:
                break
            self.ops += 1
            m2 = lcp_by_fingerprint(self.g, probe, c.ell, c.depth)
            if m2 <= v.depth:
                break
            v, m = c, m2
        return v, m

    def nearest_marked(self, v: _TrieNode, m: int):
        """Deepest marked node on the path to the point at depth m on the
        root-v path (v from locate with its lcp m)."""
        base = v if m == v.depth else v.parent
        return self.ma.nearest(base)
