"""Append-only balanced grammar over a growing symbol sequence.

The content is held as an immutable height-balanced binary DAG: leaves carry
single symbols, internal nodes concatenate their children.  Appending a copy
of an existing range shares the old nodes, so the structure is a straight-line
grammar whose size stays near z*log(n) while the content grows to n.  Every
node caches length and a composable fingerprint of its expansion, which gives
logarithmic-time prefix fingerprints and range extraction.

All ranges are 0-based half-open.  The `ops` counter tallies node visits and
node constructions; it is the deterministic work measure used by benchmarks.
"""

from __future__ import annotations

from .hashing import Fingerprint, HashConfig, fp_empty


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
        self.root: _Node | None = None
        self.ops = 0

    @property
    def length(self) -> int:
        return self.root.length if self.root is not None else 0

    # -- node constructors ---------------------------------------------------

    def _leaf(self, sym: int) -> _Node:
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

    def _join(self, a: _Node | None, b: _Node | None) -> _Node | None:
        if a is None:
            return b
        if b is None:
            return a
        if abs(a.height - b.height) <= 1:
            return self._mk(a, b)
        if a.height > b.height:
            return self._bal(a.left, self._join(a.right, b))
        return self._bal(self._join(a, b.left), b.right)

    # -- appends ---------------------------------------------------------

    def append_literal(self, sym: int) -> None:
        self.root = self._join(self.root, self._leaf(sym))

    def append_copy(self, start: int, end: int) -> None:
        """Append a copy of current content[start:end]."""
        if not 0 <= start <= end <= self.length:
            raise ValueError(f"copy range [{start},{end}) outside content")
        if start == end:
            return
        acc: _Node | None = None
        for piece in self._cover(start, end):
            acc = self._join(acc, piece)
        self.root = self._join(self.root, acc)

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

    def substring_fp(self, start: int, end: int) -> Fingerprint:
        if not 0 <= start <= end <= self.length:
            raise ValueError(f"range [{start},{end}) outside content")
        if start == end:
            return fp_empty()
        p = self.cfg.p
        h, pw = 0, 1
        for node in self._cover(start, end):
            h = (h + pw * node.hash) % p
            pw = pw * node.pow % p
        return Fingerprint(h, pw, end - start)

    def symbol_at(self, pos: int) -> int:
        if not 0 <= pos < self.length:
            raise ValueError(f"position {pos} outside content")
        return self._cover(pos, pos + 1)[0].sym

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
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.sym is None:
                stack.append(node.left)
                stack.append(node.right)
        return len(seen)

    def validate(self) -> None:
        """Recompute every cached field bottom-up and compare (test helper)."""
        p = self.cfg.p
        memo: dict[int, tuple] = {}

        def walk(node: _Node) -> tuple:
            got = memo.get(id(node))
            if got is not None:
                return got
            if node.sym is not None:
                got = (1, 1, node.sym % p, self.cfg.delta % p)
                assert node.hash == got[2] and node.pow == got[3]
            else:
                hl, ll, xl, pl = walk(node.left)
                hr, lr, xr, pr = walk(node.right)
                assert abs(hl - hr) <= 1, "balance violated"
                got = (max(hl, hr) + 1, ll + lr, (xl + pl * xr) % p, (pl * pr) % p)
                assert (node.height, node.length, node.hash, node.pow) == got
            memo[id(node)] = got
            return got

        if self.root is not None:
            walk(self.root)
