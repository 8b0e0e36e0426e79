"""Quadratic-time parsers over an uncompressed text.

The dictionary is kept in a compacted trie whose edge labels point back into
the text.  Work counters model the uncompacted view: advancing one symbol
along an edge costs one edge traversal plus one symbol comparison, and a
failed probe or mid-edge mismatch costs one extra comparison.  Dictionary
updates re-descend from the root and are charged the same way, so the totals
reflect what a direct pointer-trie implementation would pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Literal, Parsing, Scheme, Text, greedy_parse

_CHUNK = 256


def _lcp(syms, a: int, b: int, limit: int) -> int:
    """Length of the longest common prefix of syms[a:a+limit], syms[b:b+limit].

    Compares chunk slices at C speed, dropping to a symbol loop only inside
    the chunk that mismatches, so the result is exact.
    """
    matched = 0
    while matched < limit:
        step = min(_CHUNK, limit - matched)
        if syms[a + matched:a + matched + step] == syms[b + matched:b + matched + step]:
            matched += step
            continue
        for off in range(matched, matched + step):
            if syms[a + off] != syms[b + off]:
                return off
        raise AssertionError("chunk mismatch without symbol mismatch")
    return limit


@dataclass
class StepStats:
    symbol_comparisons: int = 0
    edges_traversed: int = 0
    nodes_created: int = 0


@dataclass(frozen=True)
class PartTrace:
    """One dictionary lookup: where it started, what it cost, what it found."""

    pos: int
    search_cmp: int
    part_len: int


class _Node:
    __slots__ = ("start", "length", "depth", "children", "mark")

    def __init__(self, start: int, length: int, depth: int, mark):
        self.start = start
        self.length = length
        self.depth = depth
        self.children: dict = {}
        self.mark = mark


class CompactedTrie:
    """Compacted trie over substrings of one fixed symbol sequence.

    Marked nodes carry the dictionary payload for the string they spell.
    Marking is first-wins so earlier entries stay canonical.
    """

    def __init__(self, syms):
        self.syms = syms
        self.root = _Node(0, 0, 0, None)
        self.stats = StepStats()

    def _descend(self, cur: int, stop: int):
        """Charged walk from the root along syms[cur:stop).

        Returns (node, cur, child, l, marked): the walk stops at `node` with
        syms[cur:stop) unread, or, when a mismatch or `stop` falls inside
        the edge to `child`, `l` symbols down that edge (child is None
        otherwise).  `marked` is the deepest marked node passed, or None.
        """
        syms = self.syms
        stats = self.stats
        node = self.root
        marked = None
        while True:
            if node.mark is not None:
                marked = node
            if cur >= stop:
                return node, cur, None, 0, marked
            child = node.children.get(syms[cur])
            if child is None:
                stats.symbol_comparisons += 1
                return node, cur, None, 0, marked
            l = _lcp(syms, cur, child.start, min(child.length, stop - cur))
            stats.symbol_comparisons += l
            stats.edges_traversed += l
            if l < child.length:
                if cur + l < stop:
                    stats.symbol_comparisons += 1
                return node, cur, child, l, marked
            node = child
            cur += l

    def longest_marked(self, pos: int):
        """Longest marked prefix of syms[pos:]; returns (payload, length)."""
        marked = self._descend(pos, len(self.syms))[4]
        if marked is None:
            return None, 0
        return marked.mark, marked.depth

    def insert_letter(self, pos: int, payload) -> None:
        # A fresh letter has no trie entry starting with it yet, so this is
        # always a new root child.  Bookkeeping only, no charge.
        syms = self.syms
        assert syms[pos] not in self.root.children
        self.root.children[syms[pos]] = _Node(pos, 1, 1, payload)
        self.stats.nodes_created += 1

    def insert(self, start: int, end: int, payload) -> None:
        """Insert syms[start:end] as a marked string (first mark wins)."""
        node, cur, child, l, _ = self._descend(start, end)
        if child is not None:
            node = self._split(node, child, l)
            cur += l
        if cur < end:
            node.children[self.syms[cur]] = _Node(
                cur, end - cur, node.depth + (end - cur), payload)
            self.stats.nodes_created += 1
        elif node.mark is None:
            node.mark = payload

    def _split(self, parent: _Node, child: _Node, offset: int) -> _Node:
        # Cut child's edge after `offset` symbols; the new middle node takes
        # the upper half of the label.
        syms = self.syms
        mid = _Node(child.start, offset, parent.depth + offset, None)
        parent.children[syms[child.start]] = mid
        child.start += offset
        child.length -= offset
        mid.children[syms[child.start]] = child
        self.stats.nodes_created += 1
        return mid


@dataclass
class NaiveResult:
    parsing: Parsing
    stats: StepStats
    trace: list = field(default_factory=list)
    trie: CompactedTrie | None = None


def parse_naive(text: Text, scheme: Scheme, collect_trace: bool = False) -> NaiveResult:
    syms = text.symbols
    n = len(syms)
    trie = CompactedTrie(syms)
    stats = trie.stats
    trace: list = []

    def next_part(pos: int):
        if pos >= n:
            return None
        cmp_before = stats.symbol_comparisons
        payload, plen = trie.longest_marked(pos)
        if plen == 0:
            payload, plen = Literal(syms[pos]), 1
            trie.insert_letter(pos, payload)
        if collect_trace:
            trace.append(PartTrace(pos, stats.symbol_comparisons - cmp_before, plen))
        return payload, plen

    parsing = greedy_parse(scheme, next_part, trie.insert)
    return NaiveResult(parsing, stats, trace, trie)
