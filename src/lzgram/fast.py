"""Streaming parser with near-linear work on adversarial inputs.

The engine reads the input once, in blocks, and keeps three structures in
sync: an append-only balanced grammar holding the parsed prefix, a
fingerprint-indexed trie over the dictionary strings, and the unconsumed
lookahead ("carry").  Greedy matches are found by fingerprint search instead
of symbol-by-symbol descent, so each part costs polylog work beyond the
symbols read.

The core is Monte-Carlo: fingerprint collisions can produce a wrong parsing
(never a crash).  `parse_las_vegas` re-reads the input to verify the result
and retries with a fresh hash base until it is correct, making the output
deterministic-correct at the cost of an expected single extra pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import islice

from .avlgrammar import AvlGrammar
from .hashing import MERSENNE61, Fingerprint, HashConfig, fp_concat
from .model import Literal, Parsing, Scheme, greedy_parse, make_text, verify_parsing
from .ztrie import ZTrie


class BlockReader:
    """Sequential symbol source, delivering each symbol exactly once.

    Block length is max(16, ceil(log2 n)^2) when the total length is known.
    For unknown-length streams the block length follows a doubling estimate
    (twice the symbols delivered so far), so it settles within a constant
    factor of the known-length choice.
    """

    def __init__(self, source):
        try:
            self.known_length = len(source)
        except TypeError:
            self.known_length = None
        self._it = iter(source)
        self._peek: int | None = None
        self.delivered = 0
        self.blocks_read = 0

    def block_length(self) -> int:
        base = self.known_length
        if base is None:
            base = 2 * (self.delivered + 1)
        return max(16, math.ceil(math.log2(max(base, 2))) ** 2)

    def has_more(self) -> bool:
        if self._peek is not None:
            return True
        try:
            self._peek = next(self._it)
        except StopIteration:
            return False
        return True

    def read_block(self) -> list:
        want = self.block_length()
        out = [] if self._peek is None else [self._peek]
        self._peek = None
        out += islice(self._it, want - len(out))
        if out:
            self.delivered += len(out)
            self.blocks_read += 1
        return out


class _Carry:
    """The unconsumed lookahead, exposed as a fingerprint/symbol probe.

    Content is an interval of the already-parsed prefix (everything the last
    search certified to lie on a trie path) plus a raw tail of at most one
    block of freshly read symbols.  Prefix fingerprints compose the interval's
    grammar fingerprint with rolling hashes of the tail.
    """

    __slots__ = ("g", "cfg", "occ_start", "occ_len", "_occ_fp",
                 "_tail", "_th", "_tp", "_toff", "_tinv", "_dinv")

    def __init__(self, cfg: HashConfig, g: AvlGrammar):
        self.cfg = cfg
        self.g = g
        self._dinv = pow(cfg.delta, cfg.p - 2, cfg.p)
        self.rebase(0, 0, [])

    @property
    def length(self) -> int:
        return self.occ_len + len(self._tail) - self._toff

    def _tail_fp(self, t: int) -> Fingerprint:
        p = self.cfg.p
        a = self._toff
        return Fingerprint((self._th[a + t] - self._th[a]) * self._tinv % p,
                           self._tp[a + t] * self._tinv % p, t)

    def fp(self, q: int) -> Fingerprint:
        if q <= self.occ_len:
            return self.g.substring_fp(self.occ_start, self.occ_start + q)
        tail_fp = self._tail_fp(q - self.occ_len)
        if self.occ_len == 0:
            return tail_fp
        if self._occ_fp is None:
            self._occ_fp = self.g.substring_fp(self.occ_start,
                                               self.occ_start + self.occ_len)
        return fp_concat(self.cfg, self._occ_fp, tail_fp)

    def symbol_at(self, q: int) -> int:
        if q < self.occ_len:
            return self.g.symbol_at(self.occ_start + q)
        return self._tail[self._toff + q - self.occ_len]

    def rebase(self, start: int, length: int, block: list) -> None:
        """Replace the whole carry by content[start:start+length) followed
        by the freshly read block (which the carry takes over)."""
        self.occ_start = start
        self.occ_len = length
        self._occ_fp: Fingerprint | None = None
        # logical tail = _tail[_toff:]; _th/_tp are rolling prefix hashes of
        # _tail from its absolute start, _tinv = delta^-_toff undoes the
        # dropped prefix
        self._tail = block
        self._toff = 0
        self._tinv = 1
        p = self.cfg.p
        delta = self.cfg.delta
        th = self._th = [0]
        tp = self._tp = [1]
        h, pw = 0, 1
        for s in block:
            h = (h + pw * s) % p
            pw = pw * delta % p
            th.append(h)
            tp.append(pw)

    def consume(self, k: int) -> None:
        """Drop the first k symbols (they were just parsed and appended)."""
        if k <= self.occ_len:
            self.occ_start += k
            self.occ_len -= k
            self._occ_fp = None
            return
        self._toff += k - self.occ_len
        self._tinv = pow(self._dinv, self._toff, self.cfg.p)
        self.occ_len = 0
        self._occ_fp = None


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
        self.carry = _Carry(cfg, self.g)
        self.searches = 0
        self.parts = 0

    def next_part(self, pos: int):
        """Cut the next greedy part; None once the input is exhausted.

        Returns (part, length): part is Literal(sym) or the marked node's
        dictionary reference.  pos is where the part starts: the length of
        the parsed prefix, which the grammar holds.
        """
        carry = self.carry
        reader = self.reader
        trie = self.trie
        while True:
            if carry.length == 0 and not reader.has_more():
                return None
            v, m = trie.locate(carry)
            self.searches += 1
            if m == carry.length and reader.has_more():
                # whole carry certified on a trie path: re-anchor it to that
                # path's occurrence and read more
                carry.rebase(v.ell, m, reader.read_block())
                continue
            w = trie.nearest_marked(v, m)
            if w is None:
                # only a fresh symbol has no marked prefix (w.h.p.); were a
                # collision to hide a seen one, insert would just re-mark it
                sym = carry.symbol_at(0)
                self.g.append_literal(sym)
                trie.insert(pos, pos + 1, Literal(sym))
                part, plen = Literal(sym), 1
            else:
                part, plen = w.payload, w.depth
                self.g.append_copy(w.ell, w.ell + plen)
            carry.consume(plen)
            self.parts += 1
            return part, plen

    def stats(self) -> FastStats:
        return FastStats(
            symbols_read=self.reader.delivered,
            blocks_read=self.reader.blocks_read,
            searches=self.searches,
            parts=self.parts,
            grammar_ops=self.g.ops,
            trie_ops=self.trie.ops,
            ma_ops=self.trie.ma.ops,
            trie_nodes=self.trie.node_count(),
            grammar_nodes=self.g.reachable_nodes(),
        )


def parse_fast(text, scheme: Scheme, cfg: HashConfig | None = None,
               seed: int = 0) -> FastResult:
    """Single-pass greedy parse of a model Text or any symbol iterable;
    Monte-Carlo correct."""
    if cfg is None:
        cfg = HashConfig.from_seed(seed)
    eng = _Engine(BlockReader(getattr(text, "symbols", text)), cfg)
    parsing = greedy_parse(scheme, eng.next_part, eng.trie.insert)
    return FastResult(parsing, eng.stats())


def parse_las_vegas_detailed(make_reader, scheme: Scheme, seed: int = 0,
                             p: int = MERSENNE61,
                             max_attempts: int = 64) -> FastResult:
    """Verified parse: rerun with fresh hash bases until the output expands
    back to the input.

    make_reader() must return a fresh iterable over the input symbols each
    call (two calls per attempt: one to parse, one to verify).
    """
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        cfg = HashConfig(p=p, delta=rng.randrange(1, p))
        res = parse_fast(make_reader(), scheme, cfg=cfg)
        if verify_parsing(make_text(tuple(make_reader())), res.parsing):
            return replace(res, attempts=attempt)
    raise RuntimeError(f"no verified parsing after {max_attempts} attempts")


def parse_las_vegas(make_reader, scheme: Scheme, seed: int = 0,
                    p: int = MERSENNE61) -> Parsing:
    return parse_las_vegas_detailed(make_reader, scheme, seed, p).parsing
