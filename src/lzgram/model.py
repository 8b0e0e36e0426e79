"""Core model: texts, parsings, the two dictionary schemes, and grammars.

The two schemes parse a text left to right into phrases:

* LZD: each phrase is the concatenation of two parts; every part is the
  longest prefix of the remaining text that is either an earlier phrase or an
  already-seen single symbol.  The final phrase may consist of one part only
  (input exhausted).
* LZMW: each phrase is the longest prefix of the remaining text that is
  either the concatenation of two adjacent earlier phrases p_j p_(j+1) with
  j <= i-2, or an already-seen single symbol.

A symbol counts as seen once it has been read; the symbol under the cursor is
always a legal one-symbol match (its first occurrence starts a part).

The reference parsers here are deliberately plain: one map from byte slices
of the text, packed once per parse at 1, 2 or 4 bytes per symbol (alphabet
bound <= 256, <= 65,536, above), to the LZD phrase or LZMW pair strings
entered so far.  A part is the longest of them that prefixes the rest of the
text, or else the symbol under the cursor.  They are the correctness oracle
for the trie-based and streaming parsers.
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain

MAX_SYMBOL = 1 << 32


class Scheme(Enum):
    LZD = "lzd"
    LZMW = "lzmw"


class GrammarError(ValueError):
    """Structural problem in a grammar or a parsing-to-grammar conversion."""


@dataclass(frozen=True)
class Text:
    """Immutable symbol sequence over [0, alphabet_bound)."""

    symbols: tuple[int, ...]
    alphabet_bound: int

    def __post_init__(self):
        if self.alphabet_bound < 1 or self.alphabet_bound > MAX_SYMBOL:
            raise ValueError("alphabet_bound out of range")
        syms, bound = self.symbols, self.alphabet_bound
        if syms and not (0 <= min(syms) and max(syms) < bound):
            bad = next(s for s in syms if not 0 <= s < bound)
            raise ValueError(f"symbol {bad} outside [0, {bound})")

    def __len__(self) -> int:
        return len(self.symbols)


def make_text(symbols, alphabet_bound: int | None = None) -> Text:
    syms = tuple(symbols)
    if alphabet_bound is None:
        alphabet_bound = (max(syms) + 1) if syms else 1
    return Text(syms, alphabet_bound)


@dataclass(frozen=True, slots=True)
class Literal:
    """A single-symbol dictionary reference."""

    symbol: int


@dataclass(frozen=True)
class Parsing:
    """A parsing is its rule list.  An LZD phrase is the tuple of its parts,
    (a, b), or (a,) for a final one-part phrase, each part a Literal or the
    1-based int of an earlier phrase.  An LZMW phrase is a Literal or the
    1-based int j of the dictionary string p_j p_(j+1)."""

    scheme: Scheme
    phrases: tuple
    source_length: int

    def __len__(self) -> int:
        return len(self.phrases)


# ---------------------------------------------------------------------------
# Reference parsers (the oracle).


class _Dictionary:
    """The phrase or pair strings a scheme has entered, in one map keyed by
    byte slices of a text.

    The text is packed once into `buf`, `w` bytes per symbol: `bytes` while
    its alphabet bound is at most 256, an `array` of "H" up to 65,536, else
    of "I".  Within one buffer every symbol has the same width, so two spans
    have equal keys iff they spell the same string.  A string that prefixes
    s[pos:] starts with s[pos], so each first symbol keeps the ascending
    lengths (in symbols) of the stored strings that start with it, and a
    lookup scans only those, longest first.  Every stored string has at
    least two symbols; a one-symbol part is the symbol under the cursor.
    """

    def __init__(self, text: Text):
        if text.alphabet_bound <= 256:
            self.buf, self.w = bytes(text.symbols), 1
        else:
            code = "H" if text.alphabet_bound <= 1 << 16 else "I"
            packed = array(code, text.symbols)
            assert code == "H" or packed.itemsize == 4  # MAX_SYMBOL is 2**32
            self.buf, self.w = packed.tobytes(), packed.itemsize
        self.refs: dict[bytes, object] = {}
        self.lengths_by_first: dict[int, list[int]] = {}  # each ascending

    def add(self, start: int, end: int, first: int, ref) -> None:
        """Store the text's span [start, end), whose first symbol is
        `first`, under ref."""
        key = self.buf[start * self.w:end * self.w]
        if key in self.refs:
            return  # first insertion wins (canonical ref)
        self.refs[key] = ref
        lengths = self.lengths_by_first.setdefault(first, [])
        if end - start not in lengths:
            insort(lengths, end - start)

    def longest_match(self, s: tuple, pos: int):
        """Longest stored string that prefixes s[pos:], or None.  s is a
        prefix of the packed text."""
        remaining = len(s) - pos
        buf, w, refs = self.buf, self.w, self.refs
        at = pos * w
        for length in reversed(self.lengths_by_first.get(s[pos], ())):
            if length <= remaining:
                ref = refs.get(buf[at:at + length * w])
                if ref is not None:
                    return ref, length
        return None

    def part(self, s: tuple, pos: int) -> tuple[Literal | int, int]:
        """The part at pos, as (ref, length): the longest stored string that
        prefixes s[pos:], else the symbol under the cursor."""
        return self.longest_match(s, pos) or (Literal(s[pos]), 1)


def lzd_parse_reference(text: Text) -> Parsing:
    s = text.symbols
    n = len(s)
    d = _Dictionary(text)
    phrases: list[tuple] = []
    pos = 0
    while pos < n:
        start = pos
        first, flen = d.part(s, pos)
        pos += flen
        if pos == n:
            phrases.append((first,))
            break
        second, slen = d.part(s, pos)
        pos += slen
        phrases.append((first, second))
        d.add(start, pos, s[start], len(phrases))
    return Parsing(Scheme.LZD, tuple(phrases), n)


def lzmw_parse_reference(text: Text) -> Parsing:
    s = text.symbols
    n = len(s)
    d = _Dictionary(text)
    prev = 0  # the previous phrase's start
    phrases: list[Literal | int] = []
    pos = 0
    while pos < n:
        phrase, plen = d.part(s, pos)
        phrases.append(phrase)
        if len(phrases) >= 2:
            # the pair (p_(i-1), p_i) becomes available to phrase i+1
            d.add(prev, pos + plen, s[prev], len(phrases) - 1)
        prev = pos
        pos += plen
    return Parsing(Scheme.LZMW, tuple(phrases), n)


def parse_reference(text: Text, scheme: Scheme) -> Parsing:
    if scheme is Scheme.LZD:
        return lzd_parse_reference(text)
    return lzmw_parse_reference(text)


# ---------------------------------------------------------------------------
# The greedy phrase loop of the trie-based and streaming parsers.


def greedy_parse(scheme: Scheme, next_part, add) -> Parsing:
    """Parse with the scheme's phrase rule over any dictionary structure.

    next_part(pos) cuts the longest dictionary part starting at pos and
    returns (part, length), or None at the end of the input; the part is a
    Literal for a fresh symbol, else the ref it was entered under.
    add(start, end, ref) enters the parsed [start, end) into the dictionary
    under ref: the int of the LZD phrase, or of the LZMW pair p_ref
    p_(ref+1).  The phrases are emitted in `Parsing`'s shapes: an LZD
    phrase is its part tuple, an LZMW phrase is its part.  The reference
    parsers above do not use this loop, so they stay an independent oracle.
    """
    phrases: list = []
    pos = 0
    if scheme is Scheme.LZD:
        while (got := next_part(pos)) is not None:
            first, flen = got
            start = pos
            pos += flen
            got = next_part(pos)
            if got is None:
                phrases.append((first,))
                break
            second, slen = got
            pos += slen
            phrases.append((first, second))
            add(start, pos, len(phrases))
    else:
        prev = 0  # start of the previous phrase
        while (got := next_part(pos)) is not None:
            phrase, plen = got
            phrases.append(phrase)
            if len(phrases) >= 2:
                # the pair (p_(i-1), p_i) becomes available to phrase i+1
                add(prev, pos + plen, len(phrases) - 1)
            prev = pos
            pos += plen
    return Parsing(scheme, tuple(phrases), pos)


# ---------------------------------------------------------------------------
# Expansion of parsings.


def _phrase_parts(parsing: Parsing):
    """The parts of every phrase, in order, as a 1- or 2-tuple: the rule
    format of `Grammar`.  An LZD phrase already is its parts; an LZMW pair
    reference j is the parts (j, j + 1).  Raises GrammarError on a phrase of
    the wrong shape, a part that is neither a Literal nor an int (a bool is
    not one), a Literal whose symbol is not an int, or a reference out of
    range."""
    phrases = parsing.phrases
    if parsing.scheme is Scheme.LZD:
        last = len(phrases)
        for i, ph in enumerate(phrases, start=1):
            if type(ph) is not tuple or not (
                    len(ph) == 2 or len(ph) == 1 and i == last):
                raise GrammarError(f"phrase {i}: bad LZD phrase {ph!r}")
            for part in ph:
                if not (isinstance(part, Literal) and type(part.symbol) is int
                        or type(part) is int and 1 <= part < i):
                    raise GrammarError(f"phrase {i}: bad part {part!r}")
            yield ph
    elif parsing.scheme is Scheme.LZMW:
        for i, ph in enumerate(phrases, start=1):
            if isinstance(ph, Literal) and type(ph.symbol) is int:
                yield (ph,)
            elif type(ph) is int and 1 <= ph <= i - 2:
                yield ph, ph + 1
            else:
                raise GrammarError(f"phrase {i}: bad phrase {ph!r}")
    else:
        raise GrammarError("unknown scheme")


def _fold(rules, leaf, join) -> dict:
    """Value of every rule, over (id, rhs) pairs with each id after the ids
    its rhs cites: join of the parts' values, leaf(symbol) for a Literal."""
    out: dict = {}
    for rid, rhs in rules:
        out[rid] = join([leaf(p.symbol) if isinstance(p, Literal) else out[p]
                         for p in rhs])
    return out


def _expand(rules) -> dict:
    """Expanded string of every rule (see _fold)."""
    return _fold(rules, lambda symbol: (symbol,),
                 lambda values: tuple(chain.from_iterable(values)))


def phrase_expansions(parsing: Parsing) -> list[tuple]:
    """Expanded string of every phrase, in order. Raises GrammarError on bad refs."""
    return list(_expand(enumerate(_phrase_parts(parsing), start=1)).values())


def phrase_lengths(parsing: Parsing) -> list[int]:
    """Expansion length of every phrase, without materializing anything.

    A malformed parsing can describe expansions exponentially longer than any
    source text; this measures them without building them.
    """
    rules = enumerate(_phrase_parts(parsing), start=1)
    return list(_fold(rules, lambda symbol: 1, sum).values())


def expand_parsing(parsing: Parsing) -> tuple:
    return tuple(chain.from_iterable(phrase_expansions(parsing)))


def phrase_ends(symbols: tuple, parsing: Parsing) -> list | None:
    """End offsets of the phrases if they spell exactly the symbols, else
    None (also for a malformed parsing).  Nothing is expanded: a cited
    phrase is compared with the symbols it was already found to spell."""
    n = len(symbols)
    if parsing.source_length != n:
        return None
    ends = [0]  # ends[j]: where phrase j ends (phrase 0 is empty)
    pos = 0
    try:
        for parts in _phrase_parts(parsing):
            for part in parts:
                if isinstance(part, Literal):
                    if pos == n or symbols[pos] != part.symbol:
                        return None
                    pos += 1
                else:
                    a, b = ends[part - 1], ends[part]
                    end = pos + b - a
                    # past the text the slice is short, so never equal
                    if symbols[pos:end] != symbols[a:b]:
                        return None
                    pos = end
            ends.append(pos)
    except GrammarError:
        return None
    return ends[1:] if pos == n else None


def verify_parsing(text: Text, parsing: Parsing, strict: bool = False) -> bool:
    """True iff the parsing expands to the text.

    In strict mode each phrase must also equal the greedy choice; since both
    schemes are deterministic this is checked against the reference parse.
    An LZD parsing must equal it: a one-symbol part is always a Literal, and
    a longer part can cite only the one non-final phrase that spells it.  An
    LZMW phrase may cite either of two adjacent equal pair strings, so there
    phrase end offsets are compared: both parsings spell the text, so equal
    ends mean equal phrases.
    """
    ends = phrase_ends(text.symbols, parsing)
    if ends is None:
        return False
    if strict:
        ref = parse_reference(text, parsing.scheme)
        if parsing.scheme is Scheme.LZD:
            return parsing.phrases == ref.phrases
        return ends == list(accumulate(phrase_lengths(ref)))
    return True


# ---------------------------------------------------------------------------
# Distinctness checks.


def check_lzd_distinct(parsing: Parsing) -> bool:
    """True iff all phrase expansions are pairwise distinct, except that a
    final one-part phrase may coincide with one earlier phrase.

    Without a terminating sentinel the input can end exactly where a
    dictionary string does; the truncated final phrase is then a copy by
    construction and is the only duplicate a greedy parse can produce.
    """
    if parsing.scheme is not Scheme.LZD:
        raise ValueError("expects an LZD parsing")
    exps = phrase_expansions(parsing)
    if parsing.phrases and len(parsing.phrases[-1]) == 1:
        exps = exps[:-1]
    return len(set(exps)) == len(exps)


def check_lzmw_pair_distinct(parsing: Parsing) -> bool:
    """True iff no adjacent-pair string repeats except at adjacent indices.

    The pair at index i (2-based, i in [2..z]) is p_(i-1) p_i.  Equal pair
    strings may occur only at indices i and i+1, and at most twice.
    """
    if parsing.scheme is not Scheme.LZMW:
        raise ValueError("expects an LZMW parsing")
    exps = phrase_expansions(parsing)
    where: dict[tuple, list[int]] = {}
    for i in range(2, len(exps) + 1):
        pair = exps[i - 2] + exps[i - 1]
        where.setdefault(pair, []).append(i)
    for positions in where.values():
        if len(positions) > 2:
            return False
        if len(positions) == 2 and positions[1] != positions[0] + 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Grammars.


@dataclass(frozen=True)
class Grammar:
    """Straight-line program: rule id -> right-hand side, a tuple of parts,
    each a Literal for a terminal or the id of a lower rule (hence acyclic).
    `start` is the axiom."""

    productions: dict[int, tuple]
    start: int

    def size(self) -> int:
        return sum(len(rhs) for rhs in self.productions.values())


def validate_grammar(g: Grammar) -> None:
    if g.start not in g.productions:
        raise GrammarError("start rule missing")
    for rid, rhs in g.productions.items():
        for part in rhs:
            if isinstance(part, Literal) and type(part.symbol) is int:
                continue
            if type(part) is not int:
                raise GrammarError(f"rule {rid}: bad part {part!r}")
            if part >= rid:
                raise GrammarError(f"rule {rid} references {part} (not lower)")
            if part not in g.productions:
                raise GrammarError(f"rule {rid} references missing {part}")


def expand_grammar(g: Grammar) -> tuple:
    """Expansion of the start rule; linear in the output plus shared parts."""
    validate_grammar(g)
    return _expand(sorted(g.productions.items()))[g.start]


def parsing_to_grammar(parsing: Parsing) -> Grammar:
    """One production per phrase, its parts, plus a start rule listing all
    phrases."""
    prods = dict(enumerate(_phrase_parts(parsing), start=1))
    z = len(prods)
    prods[z + 1] = tuple(range(1, z + 1))
    return Grammar(prods, z + 1)
