"""Shared fixtures-by-import: worked examples, corpus, engine and grammar
helpers, and the parsing registry that enforces dictionary distinctness on
every parsing any test produces."""

from __future__ import annotations

import random
from functools import reduce

from lzgram import (
    AvlGrammar,
    BlockReader,
    HashConfig,
    Literal,
    Parsing,
    Scheme,
    Text,
    check_lzd_distinct,
    check_lzmw_pair_distinct,
    make_text,
)
from lzgram.avlgrammar import Probe
from lzgram.fast import _Engine
from lzgram.model import greedy_parse

# Worked example: a=0 b=1 $=2 over "abbaababaaba$".
EX1_SYMBOLS = (0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2)
EX1_TEXT = make_text(EX1_SYMBOLS, 3)

EX1_LZD = Parsing(Scheme.LZD, (
    (Literal(0), Literal(1)),
    (Literal(1), Literal(0)),
    (1, 1),
    (Literal(0), 1),
    (Literal(0), Literal(2)),
), 13)

EX1_LZMW = Parsing(Scheme.LZMW, (
    Literal(0),
    Literal(1),
    Literal(1),
    Literal(0),
    1,
    1,
    4,
    Literal(0),
    Literal(2),
), 13)


def fp_of(cfg: HashConfig, symbols) -> int:
    """Direct evaluation, linear time: the reference hash."""
    p = cfg.p
    h = 0
    pw = 1
    for s in symbols:
        h = (h + pw * s) % p
        pw = (pw * cfg.delta) % p
    return h


def random_text(rng: random.Random, n: int, sigma: int) -> Text:
    return make_text([rng.randrange(sigma) for _ in range(n)], sigma)


class CountingSource:
    """Unsized iterable that records how many symbols were pulled from it."""

    def __init__(self, syms):
        self.syms = tuple(syms)
        self.count = 0

    def __iter__(self):
        for s in self.syms:
            self.count += 1
            yield s


# Every parsing produced anywhere in the suite flows through here; the
# distinctness invariants are asserted at registration time, so a violation
# fails the test that produced the parsing, not a later audit.
PARSING_LOG: list[tuple[str, str, int]] = []


def register_parsing(origin: str, parsing: Parsing) -> Parsing:
    if parsing.scheme is Scheme.LZD:
        assert check_lzd_distinct(parsing), f"duplicate LZD phrase ({origin})"
    else:
        assert check_lzmw_pair_distinct(parsing), \
            f"duplicate LZMW pair string ({origin})"
    PARSING_LOG.append((origin, parsing.scheme.value, len(parsing)))
    return parsing


def engine_parse(syms, scheme, cfg):
    """Run the engine without stats(), which retires its trie."""
    eng = _Engine(BlockReader(syms), cfg)
    return eng, greedy_parse(scheme, eng.next_part, eng.add)


# (symbols_read, blocks_read, searches, parts, grammar_ops, trie_ops, ma_ops,
#  trie_nodes, grammar_nodes) of parse_fast(..., seed=0) on the slow
# families at k=8 and on a 1,200-symbol random text (test_fast_stats_pinned).
# The three op counters and grammar_nodes move whenever the engine's search
# paths or structures change; the other five fields are fixed by the parsing
# and the block reader.
PINNED_FAST_STATS = {
    "lzd-slow": (13123, 87, 905, 818, 17450, 2078, 72, 654, 1066),
    "lzmw-slow": (7870, 60, 707, 647, 13260, 1431, 48, 914, 1105),
    "random-lzd": (1200, 16, 498, 482, 2960, 1523, 32, 291, 261),
    "random-lzmw": (1200, 16, 454, 438, 4971, 1468, 43, 541, 463),
}


# Grammar helpers: besides phrase trees, as the engine builds them, tests
# build trees over whole texts and copy ranges of them.

def probe_on(g, tree, start, length):
    """A probe reading tree[start:start+length), with no tail."""
    probe = Probe(g)
    probe.rebase(tree, start, length, [])
    return probe


def tree_of(g, syms):
    """The tree spelling syms (at least one), concat folded over leaves."""
    return reduce(g.concat, map(g.leaf, syms))


def cover(g, tree, start, end):
    """The maximal nodes of tree whose expansions tile tree[start:end), left
    to right (0 < end - start); only children overlapping it are visited,
    each counted in g.ops."""
    out = []
    stack = [(tree, 0)]
    while stack:
        node, off = stack.pop()
        g.ops += 1
        if start <= off and off + node.length <= end:
            out.append(node)
            continue
        mid = off + node.left.length
        if mid < end:
            stack.append((node.right, mid))
        if start < mid:
            stack.append((node.left, off))
    return out


def copy_of(g, tree, start, end):
    """A tree spelling tree[start:end), built from the nodes that tile it."""
    return reduce(g.concat, cover(g, tree, start, end))


def extract(tree, start, end):
    """Lazily yield tree[start:end), visiting O(log n) nodes per run."""
    stack = [(tree, 0)] if end > start else []
    while stack:
        node, off = stack.pop()
        if off >= end or off + node.length <= start:
            continue
        if node.sym is not None:
            yield node.sym
        else:
            stack.append((node.right, off + node.left.length))
            stack.append((node.left, off))


def to_symbols(tree) -> tuple:
    return tuple(extract(tree, 0, tree.length))


def build_by_copies(rng, length, sigma=3):
    """Mostly range copies, a literal now and then: a deep, shared DAG.
    Returns the config, the grammar, the tree of the whole text, its shadow
    list and the (src, dst, length) copies."""
    cfg = HashConfig.from_seed(rng.randrange(1 << 30))
    g = AvlGrammar(cfg)
    sym = rng.randrange(sigma)
    root, model = g.leaf(sym), [sym]
    copies = []
    while len(model) < length:
        if len(model) < 2 or rng.random() < 0.1:
            sym = rng.randrange(sigma)
            root = g.concat(root, g.leaf(sym))
            model.append(sym)
            continue
        start = rng.randrange(len(model))
        end = rng.randrange(start + 1, len(model) + 1)
        end = min(end, start + length - len(model))
        copies.append((start, len(model), end - start))
        root = g.concat(root, copy_of(g, root, start, end))
        model.extend(model[start:end])
    return cfg, g, root, model, copies
