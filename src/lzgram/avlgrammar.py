"""Balanced straight-line grammar of immutable AVL trees.

A tree is a height-balanced binary DAG: leaves carry single symbols, internal
nodes concatenate their children.  `leaf` makes a one-symbol tree and
`concat` joins two trees with O(|height difference|) new nodes, sharing the
rest of both, so a tree built from earlier trees adds O(log n) nodes and the
grammar stays near z*log(n) nodes for z joins.  A phrase tree of the
streaming engine may be "lazy" until the phrase is first cited: one `_mk`
root over two AVL trees whose heights differ by 2 or more, one level above
the taller.  Queries read it like any tree; `concat` needs AVL inputs, so
the engine joins a lazy root's two children before it uses the phrase as a
part.  Every node caches its length and the hash of its expansion with
delta^length, which a join composes; a query takes the tree it reads and
gives prefix hashes, symbols and LCPs in logarithmic time.  A `Probe` hashes
a range inside a tree as a difference of two prefix hashes.

All ranges are 0-based half-open.  The `ops` counter tallies node visits and
node constructions; it is the deterministic work measure used by benchmarks.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .hashing import HashConfig


class _Node:
    __slots__ = ("sym", "left", "right", "height", "length", "hash", "pow")

    def __init__(self, sym, left, right, height, length, hash_, pow_):
        self.sym = sym
        self.left = left
        self.right = right
        self.height = height
        self.length = length
        self.hash = hash_
        self.pow = pow_


class AvlGrammar:
    def __init__(self, cfg: HashConfig):
        self.cfg = cfg
        self.ops = 0

    # -- node constructors ---------------------------------------------------

    def leaf(self, sym: int) -> _Node:
        """A one-symbol tree."""
        self.ops += 1
        p = self.cfg.p
        return _Node(sym, None, None, 1, 1, sym % p, self.cfg.delta % p)

    def _mk(self, l: _Node, r: _Node) -> _Node:
        self.ops += 1
        p = self.cfg.p
        return _Node(None, l, r, max(l.height, r.height) + 1,
                     l.length + r.length,
                     (l.hash + l.pow * r.hash) % p, (l.pow * r.pow) % p)

    def _bal(self, l: _Node, r: _Node) -> _Node:
        # children differ in height by at most 2 here; one rotation fixes it
        if r.height - l.height == 2:
            if r.left.height <= r.right.height:
                return self._mk(self._mk(l, r.left), r.right)
            rl = r.left
            return self._mk(self._mk(l, rl.left), self._mk(rl.right, r.right))
        if l.height - r.height == 2:
            if l.right.height <= l.left.height:
                return self._mk(l.left, self._mk(l.right, r))
            lr = l.right
            return self._mk(self._mk(l.left, lr.left), self._mk(lr.right, r))
        return self._mk(l, r)

    def concat(self, a: _Node, b: _Node) -> _Node:
        """The tree spelling a then b; it shares their nodes, so a and b stay
        valid."""
        if abs(a.height - b.height) <= 1:
            return self._mk(a, b)
        if a.height > b.height:
            return self._bal(a.left, self.concat(a.right, b))
        return self._bal(self.concat(a, b.left), b.right)

    # -- queries ---------------------------------------------------------

    def prefix_fp(self, tree: _Node | None, end: int) -> int:
        """Hash of tree[0:end) in one root-to-leaf descent that appends whole
        left siblings.  An empty prefix hashes to 0 and needs no tree (the
        trie root has none)."""
        if end == 0:
            return 0
        if not 0 < end <= tree.length:
            raise ValueError(f"prefix [0,{end}) outside the tree")
        p = self.cfg.p
        node, h, pw, ops = tree, 0, 1, 1
        while end < node.length:
            left = node.left
            if end <= left.length:
                node = left
                ops += 1
            else:
                h = (h + pw * left.hash) % p
                pw = pw * left.pow % p
                end -= left.length
                node = node.right
                ops += 2
        self.ops += ops
        return (h + pw * node.hash) % p

    def symbol_at(self, tree: _Node, pos: int) -> int:
        if not 0 <= pos < tree.length:
            raise ValueError(f"position {pos} outside the tree")
        node, ops = tree, 1
        while node.sym is None:
            left = node.left
            if pos < left.length:
                node = left
            else:
                pos -= left.length
                node = node.right
            ops += 1
        self.ops += ops
        return node.sym

    def common_prefix(self, probe, tree: _Node, max_len: int, lo: int = 0,
                      full: int | None = None) -> int:
        """Longest common prefix of the probe's string and tree[0:max_len),
        the first lo symbols known to match; full, if given, is the hash of
        tree[0:max_len).

        One full-length hash comparison, then, if it fails, one root-to-leaf
        descent, exact w.h.p.: keeping the hash of tree[0:off) for the node's
        start off, at each node whose middle lies past the known prefix and
        short of the clamped length, the probe's hash up to the middle
        decides which child holds the first mismatch.
        """
        hi = min(probe.length, max_len)
        if hi <= lo:
            return lo
        # equal lengths make equal pows: the hashes decide
        if full is None or hi < max_len:
            full = self.prefix_fp(tree, hi)
        if probe.fp(hi) == full:
            return hi
        p = self.cfg.p
        node, off, h, pw, ops = tree, 0, 0, 1, 1
        while node.sym is None:
            left = node.left
            mid = off + left.length
            ops += 1
            if mid >= hi:
                node = left
                continue
            lh = (h + pw * left.hash) % p
            ops += 1
            if mid <= lo or probe.fp(mid) == lh:
                h, pw = lh, pw * left.pow % p
                node, off = node.right, mid
            else:
                node = left
        self.ops += ops
        return off

    def reachable_nodes(self, roots) -> int:
        """The number of distinct nodes under the given trees."""
        seen: set[_Node] = set()  # nodes hash by identity
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node.sym is None:
                stack.append(node.left)
                stack.append(node.right)
        return len(seen)


class Probe:
    """tree[start:start+glen) of a grammar tree followed by a raw tail, as the
    length/fp/symbol_at probe that searches and LCPs read.

    The streaming engine's lookahead ("carry") is one: the phrase tree whose
    prefix the last search certified, plus freshly read symbols.  A trie
    insert reads its string, a whole tree, through one with an empty tail.
    The last grammar symbol read is kept: locate's child step re-reads the
    one prefix_search read, and insert re-reads, as the new leaf's key, the
    symbol that locate found no child for.  An insert that resumes a search
    from a locus has read the symbol there from its tree, and hands it over
    with `known`.
    """

    __slots__ = ("g", "cfg", "tree", "start", "glen", "length", "_gh", "_gpow",
                 "_sh", "_sinv", "_q", "_sym", "_tail", "_th", "_dpow",
                 "_dinvpow", "_dinv", "_toff")

    def __init__(self, g: AvlGrammar):
        self.g = g
        self.cfg = cfg = g.cfg
        self._dinv = cfg.delta_inv
        # delta^i and delta^-i, grown to the longest tail seen
        self._dpow = [1]
        self._dinvpow = [1]
        self.rebase(None, 0, 0, [])

    def fp(self, q: int) -> int:
        """Hash of the probe's first q symbols.  A range of the tree or of
        the tail hashes as (P(b) - P(a)) * delta^-a over its prefix hashes P."""
        glen, p = self.glen, self.cfg.p
        if q > glen:
            a = self._toff
            h = (self._th[a + q - glen] - self._th[a]) * self._dinvpow[a] % p
            if glen == 0:
                return h
            if self._gh is None:  # the grammar part's hash and delta^glen
                self._gh = self.fp(glen)
                self._gpow = pow(self.cfg.delta, glen, p)
            return (self._gh + self._gpow * h) % p
        start, g = self.start, self.g
        if start == 0 or q == 0:  # an empty grammar part may have no tree
            return g.prefix_fp(self.tree, q)
        if self._sh is None:  # P(start) and delta^-start
            self._sh = g.prefix_fp(self.tree, start)
            self._sinv = pow(self._dinv, start, p)
        return (g.prefix_fp(self.tree, start + q) - self._sh) * self._sinv % p

    def symbol_at(self, q: int) -> int:
        if q >= self.glen:
            return self._tail[self._toff + q - self.glen]
        if q != self._q:
            self._q, self._sym = q, self.g.symbol_at(self.tree, self.start + q)
        return self._sym

    def known(self, q: int, sym: int) -> None:
        """Take sym, symbol q of the tree part read elsewhere, as the last
        symbol read, so that symbol_at(q) does not read it again."""
        self._q, self._sym = q, sym

    def rebase(self, tree: _Node | None, start: int, length: int,
               tail: list) -> None:
        """Read tree[start:start+length) followed by tail (which the probe
        takes over); no tree is needed when length is 0."""
        self.tree = tree
        self.start = start
        self.glen = length
        self.length = length + len(tail)
        self._gh = self._sh = None
        self._q = -1
        # logical tail = _tail[_toff:]; _th holds rolling prefix hashes of
        # _tail from its absolute start, left unreduced mod p until read;
        # delta^-_toff undoes the dropped prefix
        self._tail = tail
        self._toff = 0
        if tail:
            cfg = self.cfg
            dpow, dinvpow = self._dpow, self._dinvpow
            while len(dpow) <= len(tail):
                dpow.append(dpow[-1] * cfg.delta % cfg.p)
                dinvpow.append(dinvpow[-1] * self._dinv % cfg.p)
            self._th = list(accumulate(map(mul, tail, dpow), initial=0))
        else:  # a trie insert's probe, which skips this set-up
            self._th = [0]

    def consume(self, k: int) -> None:
        """Drop the first k symbols (they were just parsed)."""
        self.length -= k
        self._gh = self._sh = None
        if k <= self.glen:  # the cached symbol keeps its place in the tree
            self._q -= k
            self.start += k
            self.glen -= k
            return
        self._q = -1
        self._toff += k - self.glen
        self.glen = 0
