"""Append-only balanced grammar over a growing symbol sequence.

The content is held as a forest of immutable height-balanced binary DAGs
(AVL trees) whose heights strictly decrease from left to right: leaves carry
single symbols, internal nodes concatenate their children.  A caller builds
trees with `leaf` and `concat` and appends one with `append`; appending a tree
again shares its nodes, so the structure is a straight-line grammar whose
size stays near z*log(n) while the content grows to n.  An append joins only
the trees no taller than the new piece, as in a binary counter, instead of
rebuilding the right spine of one tree.

Queries see one root: a chain of spine nodes (trees[i], next) over the
forest, refreshed in place after every append.  Spine nodes are ordinary
nodes that are never shared: callers append trees built from leaves, and a
copy of a range takes the trees under a spine node.  Every node caches length
and a composable fingerprint of its expansion, which gives logarithmic-time
prefix fingerprints and range extraction.

All ranges are 0-based half-open.  The `ops` counter tallies node visits and
node constructions; it is the deterministic work measure used by benchmarks.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .hashing import Fingerprint, HashConfig, fp_concat, fp_empty


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
        self._trees: list[_Node] = []  # AVL roots, heights strictly decreasing
        self._spine: list[_Node] = []  # _spine[i] = (_trees[i], _spine[i+1] or _trees[-1])
        self.root: _Node | None = None
        self.ops = 0

    @property
    def length(self) -> int:
        return self.root.length if self.root is not None else 0

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

    def concat(self, a: _Node | None, b: _Node | None) -> _Node | None:
        """The tree spelling a then b (None spells nothing); it shares their
        nodes, so a and b stay valid."""
        if a is None:
            return b
        if b is None:
            return a
        if abs(a.height - b.height) <= 1:
            return self._mk(a, b)
        if a.height > b.height:
            return self._bal(a.left, self.concat(a.right, b))
        return self._bal(self.concat(a, b.left), b.right)

    # -- appends ---------------------------------------------------------

    def _push(self, x: _Node) -> None:
        """Append the tree x to the forest, keeping heights strictly
        decreasing: fold the trees no taller than x, join x, then absorb
        trees the result has caught up with."""
        trees = self._trees
        acc = None
        while trees and trees[-1].height <= x.height:
            acc = self.concat(trees.pop(), acc)
        x = self.concat(acc, x)
        while trees and trees[-1].height <= x.height:
            x = self.concat(trees.pop(), x)
        trees.append(x)

    def _refresh(self) -> None:
        """Rebuild the spine over the forest bottom-up, reusing its nodes in
        place; each refreshed node counts as one op."""
        trees, spine = self._trees, self._spine
        k = len(trees)
        del spine[k - 1:]
        while len(spine) < k - 1:
            spine.append(_Node(None, None, None, 0, 0, 0, 1))
        p = self.cfg.p
        node = trees[-1]
        for i in range(k - 2, -1, -1):
            l = trees[i]
            s = spine[i]
            s.left = l
            s.right = node
            s.height = l.height + 1  # the spine below is no taller than l
            s.length = l.length + node.length
            s.hash = (l.hash + l.pow * node.hash) % p
            s.pow = l.pow * node.pow % p
            node = s
        self.ops += k - 1
        self.root = node

    def append(self, x: _Node) -> None:
        """Append the tree x, made by leaf or concat (never a spine node)."""
        self._push(x)
        self._refresh()

    def append_literal(self, sym: int) -> None:
        self.append(self.leaf(sym))

    def append_copy(self, start: int, end: int) -> None:
        """Append a copy of current content[start:end) (the streaming engine
        appends each phrase's tree instead)."""
        if not 0 <= start <= end <= self.length:
            raise ValueError(f"copy range [{start},{end}) outside content")
        if start == end:
            return
        pieces = self._cover(start, end)
        if end == self.length and pieces[-1] in self._spine:
            # a spine node is never shared: copy the trees under it
            pieces[-1:] = self._trees[self._spine.index(pieces[-1]):]
        for piece in pieces:
            self._push(piece)
        self._refresh()

    # -- queries ---------------------------------------------------------

    def _cover(self, start: int, end: int) -> list:
        """The maximal nodes whose expansions tile content[start:end), left
        to right (0 < end - start); only children overlapping it are visited."""
        out = []
        stack = [(self.root, 0)]
        while stack:
            node, off = stack.pop()
            self.ops += 1
            if start <= off and off + node.length <= end:
                out.append(node)
                continue
            mid = off + node.left.length
            if mid < end:
                stack.append((node.right, mid))
            if start < mid:
                stack.append((node.left, off))
        return out

    def _part(self, start: int, end: int):
        """(node, off): the topmost node whose children part content[start:end)
        (0 < end - start), or the node that is exactly that range; off is
        where the node's expansion starts."""
        node, off, ops = self.root, 0, 1
        while start > off or off + node.length > end:
            mid = off + node.left.length
            if end <= mid:
                node = node.left
            elif start >= mid:
                node, off = node.right, mid
            else:
                break
            ops += 1
        self.ops += ops
        return node, off

    def _suffix_fp(self, node: _Node, off: int, start: int):
        """(hash, pow) of content[start:off + node.length), node starting at
        off <= start: the left boundary path, whole right siblings prepended."""
        p = self.cfg.p
        h, pw, ops = 0, 1, 1
        while start > off:
            mid = off + node.left.length
            if start < mid:
                right = node.right
                h = (right.hash + right.pow * h) % p
                pw = pw * right.pow % p
                node = node.left
                ops += 2
            else:
                node, off = node.right, mid
                ops += 1
        self.ops += ops
        return (node.hash + node.pow * h) % p, pw * node.pow % p

    def substring_fp(self, start: int, end: int) -> Fingerprint:
        """Fingerprint of content[start:end) in one walk: down to the node
        where start and end part, then along both boundary paths."""
        if not 0 <= start <= end <= self.length:
            raise ValueError(f"range [{start},{end}) outside content")
        if start == end:
            return fp_empty()
        node, off = self._part(start, end)
        if end - start == node.length:
            return Fingerprint(node.hash, node.pow, node.length)
        p = self.cfg.p
        h, pw = self._suffix_fp(node.left, off, start)
        # the right boundary path, whole left siblings appended
        off += node.left.length
        node, ops = node.right, 1
        while off + node.length > end:
            left = node.left
            mid = off + left.length
            if mid < end:
                h = (h + pw * left.hash) % p
                pw = pw * left.pow % p
                node, off = node.right, mid
                ops += 2
            else:
                node = left
                ops += 1
        self.ops += ops
        return Fingerprint((h + pw * node.hash) % p, pw * node.pow % p, end - start)

    def symbol_at(self, pos: int) -> int:
        if not 0 <= pos < self.length:
            raise ValueError(f"position {pos} outside content")
        node, ops = self.root, 1
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

    def common_prefix(self, probe, start: int, max_len: int, lo: int = 0,
                      full: int | None = None) -> int:
        """Longest common prefix of the probe's string and
        content[start:start+max_len), the first lo symbols known to match;
        full, if given, is the hash of that whole range.

        One full-length fingerprint comparison, then, if it fails, one
        descent from the known prefix on, exact w.h.p.: at each node whose
        children part the unmatched rest of the range, the probe's
        fingerprint up to the middle decides which child holds the first
        mismatch.  The test compares it with the running hash up to the node's
        start plus the left child's hash; for a node that starts inside the
        known prefix, with the hash of content[start:node end) minus the
        whole right child instead.
        """
        hi = min(probe.length, max_len)
        if hi <= lo:
            return lo
        end = start + hi
        # equal lengths make equal pows: the hashes decide
        if full is None or hi < max_len:
            full = self.substring_fp(start, end).hash
        if probe.fp(hi).hash == full:
            return hi
        p = self.cfg.p
        h, pw, _ = probe.fp(lo)
        a = start + lo
        node, off = self._part(a, end)
        gh, _ = self._suffix_fp(node, off, a)
        gh = (h + pw * gh) % p
        ops = 0
        while node.sym is None:
            left = node.left
            mid = off + left.length
            ops += 1
            if a >= mid:
                node, off = node.right, mid
                continue
            if mid >= end:
                node = left
                continue
            ph, ppow, _ = probe.fp(mid - start)
            ops += 1
            if off < a:
                gh = (gh - ppow * node.right.hash) % p
                same = ph == gh
            else:
                same = ph == (h + pw * left.hash) % p
            if same:
                h, pw = ph, ppow
                node, off = node.right, mid
            else:
                node = left
        self.ops += ops
        return off - start

    def extract(self, start: int, end: int):
        """Lazily yield content[start:end], visiting O(log n) nodes per run."""
        if not 0 <= start <= end <= self.length:
            raise ValueError(f"range [{start},{end}) outside content")
        stack = [(self.root, 0)] if end > start else []
        while stack:
            node, off = stack.pop()
            if off >= end or off + node.length <= start:
                continue
            self.ops += 1
            if node.sym is not None:
                yield node.sym
            else:
                stack.append((node.right, off + node.left.length))
                stack.append((node.left, off))

    def to_symbols(self) -> tuple:
        return tuple(self.extract(0, self.length))

    # -- structure checks --------------------------------------------------

    def reachable_nodes(self) -> int:
        if self.root is None:
            return 0
        seen: set[_Node] = set()  # nodes hash by identity
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node.sym is None:
                stack.append(node.left)
                stack.append(node.right)
        return len(seen)

    def validate(self) -> None:
        """Recompute every cached field bottom-up and compare (test helper):
        AVL balance in every tree, strictly decreasing tree heights, the spine
        over the trees, and no spine node below a tree node."""
        p = self.cfg.p
        memo: dict[int, tuple] = {}
        spine_ids = {id(s) for s in self._spine}

        def fields(l: tuple, r: tuple) -> tuple:
            hl, ll, xl, pl = l
            hr, lr, xr, pr = r
            return max(hl, hr) + 1, ll + lr, (xl + pl * xr) % p, (pl * pr) % p

        def walk(node: _Node) -> tuple:
            got = memo.get(id(node))
            if got is not None:
                return got
            if node.sym is not None:
                got = (1, 1, node.sym % p, self.cfg.delta % p)
                assert node.hash == got[2] and node.pow == got[3]
            else:
                assert id(node.left) not in spine_ids, "spine node shared"
                assert id(node.right) not in spine_ids, "spine node shared"
                l, r = walk(node.left), walk(node.right)
                assert abs(l[0] - r[0]) <= 1, "balance violated"
                got = fields(l, r)
                assert (node.height, node.length, node.hash, node.pow) == got
            memo[id(node)] = got
            return got

        trees = self._trees
        heights = [walk(t)[0] for t in trees]
        assert all(a > b for a, b in zip(heights, heights[1:])), \
            "tree heights not strictly decreasing"
        assert len(self._spine) == max(len(trees) - 1, 0)
        node = trees[-1] if trees else None
        got = walk(node) if trees else None
        for t, s in zip(reversed(trees[:-1]), reversed(self._spine)):
            assert s.sym is None and s.left is t and s.right is node
            got = fields(walk(t), got)
            assert (s.height, s.length, s.hash, s.pow) == got
            node = s
        assert self.root is node


class Probe:
    """content[start:start+glen) of a grammar followed by a raw tail, as the
    length/fp/symbol_at probe that searches and LCPs read.

    The streaming engine's lookahead ("carry") is one: an occurrence in the
    parsed prefix of what the last search certified, plus freshly read
    symbols.  A trie insert reads its string through one with an empty tail.
    The last grammar symbol read is kept: insert re-reads, as the new leaf's
    key, the symbol that locate found no child for.
    """

    __slots__ = ("g", "cfg", "start", "glen", "length", "_gfp", "_q", "_sym",
                 "_tail", "_th", "_dpow", "_dinvpow", "_dinv", "_toff")

    def __init__(self, g: AvlGrammar, start: int = 0, length: int = 0):
        self.g = g
        self.cfg = cfg = g.cfg
        self._dinv = pow(cfg.delta, cfg.p - 2, cfg.p)
        # delta^i and delta^-i, grown to the longest tail seen
        self._dpow = [1]
        self._dinvpow = [1]
        self.rebase(start, length, [])

    def _tail_fp(self, t: int) -> Fingerprint:
        a = self._toff
        h = (self._th[a + t] - self._th[a]) * self._dinvpow[a] % self.cfg.p
        return Fingerprint(h, self._dpow[t], t)

    def fp(self, q: int) -> Fingerprint:
        if q <= self.glen:
            return self.g.substring_fp(self.start, self.start + q)
        tail_fp = self._tail_fp(q - self.glen)
        if self.glen == 0:
            return tail_fp
        if self._gfp is None:
            self._gfp = self.g.substring_fp(self.start, self.start + self.glen)
        return fp_concat(self.cfg, self._gfp, tail_fp)

    def symbol_at(self, q: int) -> int:
        if q >= self.glen:
            return self._tail[self._toff + q - self.glen]
        if q != self._q:
            self._q, self._sym = q, self.g.symbol_at(self.start + q)
        return self._sym

    def rebase(self, start: int, length: int, tail: list) -> None:
        """Read content[start:start+length) followed by tail (which the probe
        takes over)."""
        self.start = start
        self.glen = length
        self.length = length + len(tail)
        self._gfp: Fingerprint | None = None
        self._q = -1
        # logical tail = _tail[_toff:]; _th holds rolling prefix hashes of
        # _tail from its absolute start, left unreduced mod p until read;
        # delta^-_toff undoes the dropped prefix
        self._tail = tail
        self._toff = 0
        self._th = [0]
        if tail:  # none for a trie insert, which skips this set-up
            cfg = self.cfg
            dpow, dinvpow = self._dpow, self._dinvpow
            while len(dpow) <= len(tail):
                dpow.append(dpow[-1] * cfg.delta % cfg.p)
                dinvpow.append(dinvpow[-1] * self._dinv % cfg.p)
            self._th += accumulate(map(mul, tail, dpow))

    def consume(self, k: int) -> None:
        """Drop the first k symbols (they were just parsed and appended)."""
        self.length -= k
        self._gfp = None
        self._q = -1
        if k <= self.glen:
            self.start += k
            self.glen -= k
            return
        self._toff += k - self.glen
        self.glen = 0
