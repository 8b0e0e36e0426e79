"""Hash-indexed compacted trie with a nearest-marked-ancestor index.

The trie stores each dictionary string as the `AvlGrammar` tree that spells
it; no string data is copied.  Lookups run a fat binary search over prefix
lengths (probing two-fattest lengths against a hash table keyed by prefix
fingerprints), then validate the candidate with fingerprint-driven LCP
computations.  All answers are therefore correct only with high probability;
callers recover from collisions at a higher level.

Nodes with a payload are the current dictionary; a node is marked iff it has
one.  Nearest-marked-ancestor queries use Euler-tour intervals kept in an
order-maintenance list, whose labels are ints below 2^60 kept apart by local
relabelling (O(log n) amortized items moved per insert): marked intervals
nest or are disjoint, so the innermost marked interval containing a node's
opening endpoint is its deepest marked ancestor-or-self.  A marked node
answers for itself, so a query only ever starts at an unmarked node: the
root, or a split node no dictionary string ends at.  Only those nodes and
their ancestors carry an interval, and only the marked ones among them are
entered in the index.  A leaf also has no child dict until it gets a child.
"""

from __future__ import annotations

import random
from types import MappingProxyType

from .avlgrammar import AvlGrammar, Probe


def two_fattest(a: int, b: int) -> int:
    """The unique x in (a, b] with the most trailing zero bits (0 < a < b ok)."""
    i = (a ^ b).bit_length() - 1
    return b & ~((1 << i) - 1)


# ---------------------------------------------------------------------------
# order-maintenance list

# CPython keeps ints in 30-bit digits: a label below 2^60 takes two of them
_LABEL_BITS = 60


class _OmItem:
    __slots__ = ("label", "prev", "next")


class OrderList:
    """Doubly-linked list with O(1) order comparison via integer labels.

    Labels live in [0, 2^60).  The sentinel `head` keeps label 0, and
    `insert_after(head)` inserts a first item.  A midpoint insert
    that finds no gap relabels evenly the smallest aligned label range of
    2^i around the anchor holding at most (4/3)^i items, the new one
    included (Bender, Cole, Demaine, Farach-Colton and Zito, ESA 2002): an
    insert moves O(log n) items amortized.  Should no range up to the whole
    universe be that sparse, the universe grows by a bit.  A relabel keeps
    relative order, so structures that compare labels lazily stay
    consistent.  `relabels` counts relabel passes and `relabelled` the items
    they moved.
    """

    def __init__(self):
        head = _OmItem()
        head.label = 0
        head.prev = head.next = head
        self.head = head
        self._bits = _LABEL_BITS
        self.relabels = 0
        self.relabelled = 0

    def insert_after(self, anchor: _OmItem) -> _OmItem:
        nxt = anchor.next
        hi = 1 << self._bits if nxt is self.head else nxt.label
        if hi - anchor.label < 2:
            self._spread(anchor)
            hi = 1 << self._bits if nxt is self.head else nxt.label
        item = _OmItem()
        item.label = anchor.label + (hi - anchor.label) // 2
        item.prev = anchor
        item.next = nxt
        anchor.next = item
        nxt.prev = item
        return item

    def _spread(self, anchor: _OmItem) -> None:
        """Relabel evenly the smallest sparse aligned range around anchor."""
        head = self.head
        first = last = anchor
        count = i = 1
        while True:
            i += 1
            self._bits = max(self._bits, i)
            lo = anchor.label >> i << i
            hi = lo + (1 << i)
            while first is not head and first.prev.label >= lo:
                first = first.prev
                count += 1
            while last.next is not head and last.next.label < hi:
                last = last.next
                count += 1
            if (count + 1) * 3 ** i <= 4 ** i:
                break
        # spacing >= 1.5^i >= 3, and the range's end stays free
        spacing = (1 << i) // (count + 1)
        self.relabels += 1
        self.relabelled += count
        item = first
        for j in range(count):
            item.label = lo + j * spacing
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

    `nearest(v)` is v itself when v has a payload.  Otherwise it stabs v's
    opening label: the entered interval with the largest opening label at or
    before it whose closing label is at or after it.  For nested-or-disjoint
    intervals that is the innermost container, i.e. the deepest marked
    proper ancestor of v, provided every marked ancestor of an unmarked node
    has been entered.  ZTrie gives an interval to every unmarked node and to
    its ancestors, and enters each marked node that has one.
    """

    def __init__(self):
        self._rng = random.Random(0)
        self._root = None
        self.ops = 0

    def enter(self, tnode) -> None:
        """Enter a marked node's interval, once; ZTrie enters a marked node
        when it is marked or gets its interval, whichever comes last."""
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
        if tnode.payload is not None:
            return tnode
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
# the trie

# every leaf's children: read-only, so a stray write raises
_NO_CHILDREN = MappingProxyType({})


class _TrieNode:
    __slots__ = ("parent", "depth", "tree", "hash", "children", "payload",
                 "open_item", "close_item")

    def __init__(self, parent, depth, tree, hash_):
        self.parent = parent
        self.depth = depth
        self.tree = tree  # its string is tree[0:depth) (the root has none)
        self.hash = hash_  # of its string
        self.children = _NO_CHILDREN  # a dict once it has a child
        self.payload = None
        self.open_item = None  # its Euler interval, once a query can
        self.close_item = None  # start at it or below it


class ZTrie:
    """Compacted trie over strings spelled by prefixes of grammar trees.

    Every non-root node owns one hash-table key: the fingerprint of its
    string's prefix at the two-fattest length of its depth span.  Edge splits
    migrate keys so the mapping stays exact (up to fingerprint collisions).
    Every node also keeps the hash of its whole string, which an LCP against
    it compares first.
    """

    def __init__(self, g: AvlGrammar):
        self.g = g
        self._probe = Probe(g)  # one per trie, reused by every insert
        self.om = OrderList()
        self.ma = MarkedAncestorIndex()
        self.table: dict = {}
        self.ops = 0
        self.max_depth = 0  # no table key is longer
        root = _TrieNode(None, 0, None, 0)
        root.children = {}
        root.open_item = self.om.insert_after(self.om.head)
        root.close_item = self.om.insert_after(root.open_item)
        self.root = root
        self.node_count = 1  # the root included

    def _register(self, node: _TrieNode) -> None:
        f = two_fattest(node.parent.depth, node.depth)
        h = self.g.prefix_fp(node.tree, f) if f < node.depth else node.hash
        self.table[(f, h)] = node

    def _join(self, node: _TrieNode) -> None:
        """Give node, and each ancestor without one, an Euler interval,
        top-down, each the last one inside its parent's, and enter the
        marked ones.  The nodes with intervals are closed upwards, so none
        lies below a node that joins, and each node joins once."""
        path = []
        while node.open_item is None:
            path.append(node)
            node = node.parent
        om = self.om
        for node in reversed(path):
            node.open_item = om.insert_after(node.parent.close_item.prev)
            node.close_item = om.insert_after(node.open_item)
            if node.payload is not None:
                self.ma.enter(node)

    def _new_leaf(self, parent, tree) -> _TrieNode:
        """New bare leaf under parent spelling the whole tree; a leaf
        parent gets its child dict."""
        if parent.children is _NO_CHILDREN:
            parent.children = {}
        if tree.length > self.max_depth:
            self.max_depth = tree.length
        node = _TrieNode(parent, tree.length, tree, tree.hash)
        self.node_count += 1
        return node

    # -- insertion ---------------------------------------------------------

    def insert(self, tree, payload, at=None) -> _TrieNode:
        """Insert the string tree spells as a dictionary string; returns its
        node, which is a new leaf holding the tree unless the string is
        already a node or an edge point.

        The first payload given for a string stays; payloads are never None.
        The string is found by `locate`, or from `at`: the (node, lcp) that
        `locate` returned, possibly before other inserts, for a string that
        starts with this one.  At most one edge split and one new leaf follow.
        """
        probe = self._probe
        probe.rebase(tree, 0, tree.length, [])
        if at is None:
            v, m = self.locate(probe)
        else:
            v, m = at
            m = min(m, probe.length)
            # edges may have been split since that search
            while v.parent is not None and v.parent.depth >= m:
                v = v.parent
            # a mismatch inside an edge is permanent: only at a node can a
            # string inserted since continue the path
            if m == v.depth < probe.length:
                v, m = self.locate(probe, at=(v, m))
        if m < v.depth:
            v = self._split(v, m)
        if m < probe.length:
            if v.payload is None:  # v stays unmarked: a query can start here
                self._join(v)
            leaf = self._new_leaf(v, tree)
            v.children[probe.symbol_at(m)] = leaf
            self._register(leaf)
            v = leaf
        if v.payload is None:
            v.payload = payload
            if v.open_item is not None:  # else it is entered when it joins
                self.ma.enter(v)
        return v

    def _split(self, c: _TrieNode, mid_depth: int) -> _TrieNode:
        """Split the edge into c at depth mid_depth, returning the new middle
        node."""
        v = c.parent
        # the split point's own string, not the inserted one: they differ
        # when a fingerprint collision led the search here
        mid = _TrieNode(v, mid_depth, c.tree,
                        self.g.prefix_fp(c.tree, mid_depth))
        mid.children = {}
        # wrap c's interval; without one, mid joins if it stays unmarked
        if c.open_item is not None:
            mid.open_item = self.om.insert_after(c.open_item.prev)
            mid.close_item = self.om.insert_after(c.close_item)
        self.node_count += 1
        # c's entry in v.children, found by identity; an insert under a
        # fingerprint collision may have replaced it, and then none changes
        for key, child in v.children.items():
            if child is c:
                v.children[key] = mid
                break
        mid.children[self.g.symbol_at(c.tree, mid_depth)] = c
        c.parent = mid
        # c's depth span shrank from (v.depth, c.depth] to (mid_depth, c.depth]:
        # if that drops its key's length, the key is mid's now (mid's string
        # is a prefix of c's) and c takes a new one
        self._register(mid)
        if two_fattest(v.depth, c.depth) <= mid_depth:
            self._register(c)
        return mid

    # -- search ------------------------------------------------------------

    def prefix_search(self, probe) -> _TrieNode:
        """Fat binary search: candidate node for the probe's longest trie prefix.

        The result is only w.h.p. the right node (and may be one node too
        high); callers must validate with fingerprint LCPs, as locate() does.
        Lengths beyond the deepest node are not probed: every one would miss.
        """
        a, b = 0, min(probe.length, self.max_depth)
        v = self.root
        while a < b:
            f = two_fattest(a, b)
            self.ops += 1
            u = self.table.get((f, probe.fp(f)))
            if u is None:
                b = f - 1
            else:
                v = u
                a = u.depth
        return v

    def locate(self, probe, at=None):
        """Validated search: (node, lcp) where lcp is the length of the longest
        prefix of the probe present in the trie and node is the explicit node
        at or immediately below that point (root for lcp 0).

        With at=(v, m), the probe is known to match the trie up to the point
        at depth m on v's edge (m in (v.parent.depth, v.depth], or (root, 0)),
        and the search extends from there instead of starting at the root.

        Always terminates and always returns m in (node.parent.depth,
        node.depth], even if earlier collisions corrupted the topology; the
        answer itself is only w.h.p. correct.
        """
        v, m = (self.prefix_search(probe), 0) if at is None else at
        # climb until the probe demonstrably reaches v's edge; a given locus
        # is on its edge already, so its first LCP, finishing it, ends this
        while v.parent is not None:
            m = self.g.common_prefix(probe, v.tree, v.depth, m, v.hash)
            if m > v.parent.depth:
                break
            v, m = v.parent, 0
        # then extend downward by validated child steps only
        while m == v.depth and m < probe.length:
            c = v.children.get(probe.symbol_at(m))
            if c is None:
                break
            self.ops += 1
            m2 = self.g.common_prefix(probe, c.tree, c.depth, 0, c.hash)
            if m2 <= v.depth:
                break
            v, m = c, m2
        return v, m

    def nearest_marked(self, v: _TrieNode, m: int):
        """Deepest marked node on the path to the point at depth m on the
        root-v path (v from locate with its lcp m)."""
        base = v if m == v.depth else v.parent
        return self.ma.nearest(base)
