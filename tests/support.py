"""Shared fixtures-by-import: worked examples, corpus helpers, and the
parsing registry that enforces dictionary distinctness on every parsing
any test produces."""

from __future__ import annotations

import random

from lzgram import (
    AvlGrammar,
    HashConfig,
    Literal,
    LzdPhrase,
    PairIndex,
    Parsing,
    PhraseIndex,
    Scheme,
    Text,
    check_lzd_distinct,
    check_lzmw_pair_distinct,
    make_text,
)

# Worked example: a=0 b=1 $=2 over "abbaababaaba$".
EX1_SYMBOLS = (0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2)
EX1_TEXT = make_text(EX1_SYMBOLS, 3)

EX1_LZD = Parsing(Scheme.LZD, (
    LzdPhrase(Literal(0), Literal(1)),
    LzdPhrase(Literal(1), Literal(0)),
    LzdPhrase(PhraseIndex(1), PhraseIndex(1)),
    LzdPhrase(Literal(0), PhraseIndex(1)),
    LzdPhrase(Literal(0), Literal(2)),
), 13)

EX1_LZMW = Parsing(Scheme.LZMW, (
    Literal(0),
    Literal(1),
    Literal(1),
    Literal(0),
    PairIndex(1),
    PairIndex(1),
    PairIndex(4),
    Literal(0),
    Literal(2),
), 13)


def random_text(rng: random.Random, n: int, sigma: int) -> Text:
    return make_text([rng.randrange(sigma) for _ in range(n)], sigma)


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


def build_by_copies(rng, length, sigma=3):
    """Mostly interval copies, a literal now and then: a deep, shared DAG.
    Returns the grammar, its shadow list and the (src, dst, length) copies."""
    cfg = HashConfig.from_seed(rng.randrange(1 << 30))
    g = AvlGrammar(cfg)
    model: list[int] = []
    copies = []
    while len(model) < length:
        if len(model) < 2 or rng.random() < 0.1:
            sym = rng.randrange(sigma)
            g.append_literal(sym)
            model.append(sym)
            continue
        start = rng.randrange(len(model))
        end = rng.randrange(start + 1, len(model) + 1)
        end = min(end, start + length - len(model))
        copies.append((start, len(model), end - start))
        g.append_copy(start, end)
        model.extend(model[start:end])
    return cfg, g, model, copies
