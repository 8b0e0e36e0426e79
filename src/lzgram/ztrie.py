"""Hash-indexed compacted trie with nearest-marked-ancestor pointers.

The trie stores each dictionary string as the `AvlGrammar` tree that spells
it; no string data is copied.  Lookups run a fat binary search over prefix
lengths (probing two-fattest lengths against a hash table keyed by prefix
fingerprints), then validate the candidate with fingerprint-driven LCP
computations.  All answers are therefore correct only with high probability;
callers recover from collisions at a higher level.

Nodes with a payload are the current dictionary; a node is marked iff it has
one.  A marked node answers a nearest-marked-ancestor query for itself; an
unmarked node keeps its deepest marked proper ancestor in `up` (None for the
root and for a node without one).  Marking a node walks down the children
dicts from it, stopping at marked nodes, and points `up` of every unmarked
node it reaches at the newly marked node; a new leaf, which has no children,
takes its payload without a walk, and a split node copies `up` from its
parent.  A query is O(1), and over a parse of n symbols, sigma of them
distinct, the walks cost O(n):

- each node is marked once;
- an unmarked node u is reached only when a node between u and its current
  `up` is marked, so `up` moves to a strictly longer prefix of u's string,
  at most |s(u)| times, and each visit scans deg(u) child entries;
- map each (node, non-first child) pair to the leftmost leaf below that
  child: the map is one-to-one, and an unmarked non-root node has at least
  two children, so the sum of |s(u)| * deg(u) is at most twice the leaves'
  total length;
- leaves are distinct dictionary strings, of total length at most n + sigma
  for LZD phrases and 2n + sigma for LZMW pairs;
- a marked node's own children add at most 2 * node_count.

So `ma_ops`, the child entries the walks examine, is at most
2 * node_count + 6n.  Under a fingerprint collision an insert can replace a
child in its parent's dict; the walk then no longer reaches that node, whose
`up` may go stale.  It is still a marked proper ancestor by parent pointers,
so a part is never longer than the carry.  A leaf also has no child dict
until it gets a child.
"""

from __future__ import annotations

from types import MappingProxyType

from .avlgrammar import AvlGrammar, Probe


def two_fattest(a: int, b: int) -> int:
    """The unique x in (a, b] with the most trailing zero bits (0 < a < b ok)."""
    i = (a ^ b).bit_length() - 1
    return b & ~((1 << i) - 1)


# every leaf's children: read-only, so a stray write raises
_NO_CHILDREN = MappingProxyType({})


class _TrieNode:
    __slots__ = ("parent", "depth", "tree", "hash", "children", "payload",
                 "up", "first")

    def __init__(self, parent, depth, tree, hash_, first):
        self.parent = parent
        self.depth = depth
        self.tree = tree  # its string is tree[0:depth) (the root has none)
        self.hash = hash_  # of its string
        self.children = _NO_CHILDREN  # a dict once it has a child
        self.payload = None
        self.up = None  # while unmarked: its deepest marked proper ancestor
        self.first = first  # its string's first symbol (None for the root)


class ZTrie:
    """Compacted trie over strings spelled by prefixes of grammar trees.

    Every non-root node owns one hash-table key: the fingerprint h of its
    string's prefix at the two-fattest length f of its depth span, packed as
    the int f << 64 | h (h < p < 2^64, so the packing is one-to-one).  Edge
    splits migrate keys so the mapping stays exact (up to fingerprint
    collisions).  Every node also keeps the hash of its whole string, which
    an LCP against it compares first.  `reach` maps a symbol to the depth of
    the deepest node whose string starts with it, which bounds a search.
    """

    def __init__(self, g: AvlGrammar):
        self.g = g
        self._probe = Probe(g)  # one per trie, reused by every insert
        self.table: dict = {}
        self.ops = 0
        self.ma_ops = 0  # child entries examined by marking walks
        self.reach: dict = {}  # first symbol -> deepest string's length
        root = _TrieNode(None, 0, None, 0, None)
        root.children = {}
        self.root = root
        self.node_count = 1  # the root included

    def _register(self, node: _TrieNode) -> None:
        f = two_fattest(node.parent.depth, node.depth)
        h = self.g.prefix_fp(node.tree, f) if f < node.depth else node.hash
        self.table[f << 64 | h] = node

    def _new_leaf(self, parent, key, tree) -> _TrieNode:
        """New bare leaf spelling the whole tree, the child of parent under
        key; a leaf parent gets its child dict."""
        first = key if parent is self.root else parent.first
        node = _TrieNode(parent, tree.length, tree, tree.hash, first)
        if parent.children is _NO_CHILDREN:
            parent.children = {}
        parent.children[key] = node
        if node.depth > self.reach.get(first, 0):
            self.reach[first] = node.depth
        self._register(node)
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
        starts with this one.  From `at`, the symbol after the lcp is read
        from the tree, and the probe is rebased and `locate` resumed only
        when the locus is a node with a child under that symbol.  At most one
        edge split and one new leaf follow; a new leaf has no children, so it
        takes its payload without a marking walk.
        """
        probe = self._probe
        if at is None:
            probe.rebase(tree, 0, tree.length, [])
            v, m = self.locate(probe)
            key = probe.symbol_at(m) if m < tree.length else None
        else:
            v, m = at
            m = min(m, tree.length)
            # edges may have been split since that search
            while v.parent is not None and v.parent.depth >= m:
                v = v.parent
            key = self.g.symbol_at(tree, m) if m < tree.length else None
            # a mismatch inside an edge is permanent: only a child of a node
            # under the next symbol, from a string inserted since, can
            # continue the path
            if m == v.depth and key in v.children:
                probe.rebase(tree, 0, tree.length, [])
                probe.known(m, key)
                v, m = self.locate(probe, at=(v, m))
                key = probe.symbol_at(m) if m < tree.length else None
        if m < v.depth:
            v = self._split(v, m)
        if key is not None:
            v = self._new_leaf(v, key, tree)
            v.payload = payload
        elif v.payload is None:
            self._mark(v, payload)
        return v

    def _mark(self, node: _TrieNode, payload) -> None:
        """Give node its payload and make it the `up` of every unmarked node
        below it that no marked node separates from it."""
        node.payload = payload
        stack = [node]
        while stack:
            for c in stack.pop().children.values():
                self.ma_ops += 1
                if c.payload is None:
                    c.up = node
                    stack.append(c)

    def _split(self, c: _TrieNode, mid_depth: int) -> _TrieNode:
        """Split the edge into c at depth mid_depth, returning the new middle
        node."""
        v = c.parent
        # the split point's own string, not the inserted one: they differ
        # when a fingerprint collision led the search here
        mid = _TrieNode(v, mid_depth, c.tree,
                        self.g.prefix_fp(c.tree, mid_depth), c.first)
        mid.children = {}
        mid.up = v if v.payload is not None else v.up
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
        Lengths beyond the deepest string that starts with the probe's first
        symbol are not probed: every one would miss.  So a probe whose first
        symbol starts no string probes nothing and gets the root.
        """
        a = 0  # an empty probe reads no symbol and searches nothing
        b = probe.length and min(probe.length,
                                 self.reach.get(probe.symbol_at(0), 0))
        v = self.root
        while a < b:
            f = two_fattest(a, b)
            self.ops += 1
            u = self.table.get(f << 64 | probe.fp(f))
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
        return base if base.payload is not None else base.up
