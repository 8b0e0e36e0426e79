"""Streaming parser with near-linear work on adversarial inputs.

The engine reads the input once, in blocks, and keeps three structures in
sync: a balanced grammar with one tree per dictionary phrase (a fresh
symbol's leaf, or one node over its two parts' trees, balanced when the
phrase is first cited), a fingerprint-indexed trie whose nodes read their
strings from those trees, and the unconsumed lookahead ("carry"), a prefix
of a phrase tree followed by fresh symbols.  Greedy matches are found by
fingerprint search instead of symbol-by-symbol descent, so each part costs
polylog work beyond the symbols read.  The parsed prefix itself is not kept.

The core is Monte-Carlo: fingerprint collisions can produce a wrong parsing
(never a crash).  `parse_las_vegas_detailed` re-reads the input and retries
with a fresh hash base until the parsing spells the input, at the cost of an
expected single extra pass.  It does not check greediness: at modulus 31,
LZMW on one 113-symbol text returns 42 phrases for the reference's 41 for
75 of seeds 0-299, a parsing that spells the input but strict verification
rejects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import islice

from .avlgrammar import AvlGrammar, Probe
from .hashing import MERSENNE61, HashConfig
from .model import Literal, Parsing, Scheme, greedy_parse, phrase_ends
from .ztrie import ZTrie


class BlockReader:
    """Sequential symbol source, delivering each symbol exactly once.

    The source is any iterable; its length is never asked for.  After d
    symbols a block is ceil(log2(d + 16))^2 long: 16 at first, and never
    longer than ceil(log2(n + 16))^2 on an input of n symbols.
    """

    def __init__(self, source):
        self._it = iter(source)
        self.delivered = 0
        self.blocks_read = 0

    def block_length(self) -> int:
        return math.ceil(math.log2(self.delivered + 16)) ** 2

    def read_block(self) -> list:
        """The next block; empty once the input is exhausted."""
        out = list(islice(self._it, self.block_length()))
        if out:
            self.delivered += len(out)
            self.blocks_read += 1
        return out


@dataclass(frozen=True)
class FastStats:
    symbols_read: int
    blocks_read: int
    searches: int
    parts: int
    grammar_ops: int
    trie_ops: int
    ma_ops: int
    trie_nodes: int
    grammar_nodes: int

    @property
    def ops(self) -> int:
        """Deterministic total work measure."""
        return self.symbols_read + self.grammar_ops + self.trie_ops + self.ma_ops


@dataclass(frozen=True)
class FastResult:
    parsing: Parsing
    stats: FastStats
    attempts: int = 1  # parses run by the Las-Vegas wrapper, the last one kept


class _Engine:
    def __init__(self, reader: BlockReader, cfg: HashConfig):
        self.reader = reader
        self.g = AvlGrammar(cfg)
        self.trie = ZTrie(self.g)
        self.carry = Probe(self.g)
        self.searches = 0
        self.parts = 0
        # payload -> the tree spelling it: a Literal, or the int that
        # add() entered a phrase (LZD) or a pair (LZMW) under
        self._trees: dict = {}
        # (tree, (node, lcp) of its search) of the last two parts, the ones
        # the phrase a later add() enters is made of
        self._last = (None, None)

    def next_part(self, pos: int):
        """Cut the next greedy part; None once the input is exhausted.

        Returns (part, length): part is Literal(sym) for a fresh symbol,
        else the marked node's payload, the int of the phrase (LZD) or of
        the pair p_j p_(j+1) (LZMW) it spells.  pos, where the part starts,
        is not needed: the engine names no string by its position.
        """
        carry = self.carry
        reader = self.reader
        trie = self.trie
        v, m = trie.locate(carry)
        while m == carry.length:
            # whole carry certified on a trie path: re-anchor it to that
            # node's tree, read more and go on from the same point
            block = reader.read_block()
            if not block:
                break
            carry.rebase(v.tree, 0, m, block)
            v, m = trie.locate(carry, at=(v, m))
            self.searches += 1
        if carry.length == 0:
            return None
        self.searches += 1
        w = trie.nearest_marked(v, m)
        trees = self._trees
        if w is None:
            # only a fresh symbol has no marked prefix (w.h.p.); were a
            # collision to hide a seen one, insert would just re-mark it
            part, plen = Literal(carry.symbol_at(0)), 1
            tree = trees[part] = self.g.leaf(part.symbol)
            trie.insert(tree, part, at=(trie.root, 0))
        else:
            part, plen = w.payload, w.depth
            tree = trees[part]
            if tree.sym is None and abs(tree.left.height - tree.right.height) > 1:
                # first citation of a lazy phrase: balance it, and point the
                # trie nodes that read the lazy root (w and the split nodes
                # just above it) at the balanced tree, so the root can go
                old, tree = tree, self.g.concat(tree.left, tree.right)
                trees[part] = tree
                while w.tree is old:
                    w.tree, w = tree, w.parent
        self._last = (self._last[1], (tree, (v, m)))
        carry.consume(plen)
        self.parts += 1
        return part, plen

    def add(self, start: int, end: int, ref) -> None:
        """Enter the phrase content[start:end), the last two parts, at the
        locus the first part's search found; the string searched starts with
        the phrase, under ref, its int.  Its tree is one node over the
        parts' trees, the rule X -> YZ.  Unless their heights differ by at most 1 that root is
        "lazy", not AVL: next_part balances it when the phrase is first cited
        as a part, and most phrases never are."""
        (a, locus), (b, _) = self._last
        tree = self._trees[ref] = self.g._mk(a, b)
        self.trie.insert(tree, ref, at=locus)

    def stats(self) -> FastStats:
        """The run's counters; this ends the engine.  grammar_nodes counts
        the nodes of the phrase trees, the whole grammar; the trie and carry
        are freed before that walk, so it does not set the run's peak memory."""
        trie = self.trie
        trie_ops, ma_ops = trie.ops, trie.ma_ops
        trie_nodes = trie.node_count
        trees = self._trees
        # a node's parent and up links close reference cycles with the
        # children dicts: cut them so that the trie goes now, not at the next
        # cyclic collection.  Every non-root node owns a table key (one whose
        # key a collision took is left to the collector)
        for u in trie.table.values():
            u.parent = u.up = None
        self.trie = self.carry = self._trees = self._last = trie = None
        return FastStats(
            symbols_read=self.reader.delivered,
            blocks_read=self.reader.blocks_read,
            searches=self.searches,
            parts=self.parts,
            grammar_ops=self.g.ops,
            trie_ops=trie_ops,
            ma_ops=ma_ops,
            trie_nodes=trie_nodes,
            grammar_nodes=self.g.reachable_nodes(trees.values()),
        )


def parse_fast(text, scheme: Scheme, cfg: HashConfig | None = None,
               seed: int = 0) -> FastResult:
    """Single-pass greedy parse of a model Text or any symbol iterable;
    Monte-Carlo correct."""
    if cfg is None:
        cfg = HashConfig.from_seed(seed)
    eng = _Engine(BlockReader(getattr(text, "symbols", text)), cfg)
    parsing = greedy_parse(scheme, eng.next_part, eng.add)
    return FastResult(parsing, eng.stats())


def parse_las_vegas_detailed(make_reader, scheme: Scheme, seed: int = 0,
                             p: int = MERSENNE61,
                             max_attempts: int = 64) -> FastResult:
    """Verified parse: rerun with fresh hash bases until the output expands
    back to the input.

    make_reader() must return a fresh iterable over the input symbols
    each call (two calls per attempt: one to parse, one to verify).
    """
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        cfg = HashConfig(p=p, delta=rng.randrange(1, p))
        res = parse_fast(make_reader(), scheme, cfg=cfg)
        if phrase_ends(tuple(make_reader()), res.parsing) is not None:
            return replace(res, attempts=attempt)
    raise RuntimeError(f"no verified parsing after {max_attempts} attempts")
