"""Core model: reference parsers, expansion, verification, grammars."""

import random
import tracemalloc

import pytest

from lzgram import (
    GrammarError,
    Literal,
    Parsing,
    Scheme,
    check_lzd_distinct,
    check_lzmw_pair_distinct,
    expand_grammar,
    expand_parsing,
    lzd_parse_reference,
    lzmw_parse_reference,
    make_text,
    parse_reference,
    parsing_to_grammar,
    phrase_expansions,
    phrase_lengths,
    validate_grammar,
    verify_parsing,
)
from lzgram.adversarial import gen_lzd_slow, gen_lzmw_slow
from lzgram.cli import main
from lzgram.formats import dump_parsing, write_parsing_file, write_text_file
from lzgram.model import _Dictionary
from lzgram.naive import parse_naive

from support import EX1_LZD, EX1_LZMW, EX1_TEXT, random_text, register_parsing


def test_worked_example_lzd():
    parsing = lzd_parse_reference(EX1_TEXT)
    register_parsing("model.ex1.lzd", parsing)
    assert parsing == EX1_LZD
    assert expand_parsing(parsing) == EX1_TEXT.symbols


def test_worked_example_lzmw():
    parsing = lzmw_parse_reference(EX1_TEXT)
    register_parsing("model.ex1.lzmw", parsing)
    assert parsing == EX1_LZMW
    assert expand_parsing(parsing) == EX1_TEXT.symbols


def test_single_symbol_and_pair():
    ab = make_text([0, 1], 2)
    p = lzd_parse_reference(ab)
    assert p.phrases == ((Literal(0), Literal(1)),)
    q = lzmw_parse_reference(ab)
    assert q.phrases == (Literal(0), Literal(1))
    one = make_text([5], 6)
    assert lzd_parse_reference(one).phrases == ((Literal(5),),)
    assert lzmw_parse_reference(one).phrases == (Literal(5),)


def test_empty_text_parses_to_nothing():
    empty = make_text([], 1)
    for scheme in Scheme:
        p = parse_reference(empty, scheme)
        assert len(p) == 0 and p.source_length == 0
        assert verify_parsing(empty, p, strict=True)


def test_round_trip_random_texts():
    rng = random.Random(20260801)
    for _ in range(120):
        sigma = rng.choice([2, 4, 16, 256])
        t = random_text(rng, rng.randrange(1, 300), sigma)
        for scheme in Scheme:
            p = register_parsing("model.roundtrip", parse_reference(t, scheme))
            assert expand_parsing(p) == t.symbols
            assert verify_parsing(t, p, strict=True)
            assert len(p) <= len(t)


def _brute_longest_match(stored: dict, s: tuple, pos: int):
    best = None
    for string, ref in stored.items():
        if s[pos:pos + len(string)] == string and (
                best is None or len(string) > best[1]):
            best = ref, len(string)
    return best


def _alphabet(bound: int) -> tuple:
    """The symbols a test text over [0, bound) draws from: all of them up to
    256, else 0, bound - 1 and those of 1, 257 and 65,537 below the bound,
    which share their low byte."""
    if bound <= 256:
        return tuple(range(bound))
    return tuple(sorted({0, bound - 1} | {c for c in (1, 257, 65537) if c < bound}))


@pytest.mark.parametrize("sigma", [1, 2, 4, 256, 257, 65536, 65537, 1 << 32])
def test_longest_match_equals_brute_force(sigma):
    """The dictionary stores spans of one text; a string the test text does
    not hold is appended to a scratch copy of it and stored as a span of
    that copy, which lookups in the test text never reach."""
    rng = random.Random(7000 + sigma)
    alphabet = _alphabet(sigma)
    readded = 0
    for _ in range(40):
        n = rng.randrange(1, 120)
        s = tuple(rng.choice(alphabet) for _ in range(n))
        scratch = list(s)
        spans, stored = [], {}  # stored: the first ref of each string
        for i in range(rng.randrange(1, 60)):
            kind = rng.random()
            if kind < 0.2 and stored:  # again, under a new ref
                string = rng.choice(list(stored))
                readded += 1
            elif kind < 0.4:  # runs one symbol past the end of the text
                string = s[rng.randrange(n):] + (rng.choice(alphabet),)
            elif kind < 0.5:  # random, most likely nowhere in the text
                string = tuple(rng.choice(alphabet)
                               for _ in range(rng.randrange(1, 8)))
            else:
                a = rng.randrange(n)
                b = rng.randrange(a + 1, n + 1)
                spans.append((a, b, ("ref", i)))
                stored.setdefault(s[a:b], ("ref", i))
                continue
            # off the text, or a fresh copy of a stored string
            spans.append((len(scratch), len(scratch) + len(string), ("ref", i)))
            scratch.extend(string)
            stored.setdefault(string, ("ref", i))
        d = _Dictionary(make_text(scratch, sigma))
        for a, b, ref in spans:
            d.add(a, b, scratch[a], ref)
        for pos in range(n):
            assert d.longest_match(s, pos) == _brute_longest_match(stored, s, pos)
    assert readded > 0


@pytest.mark.parametrize("bound, width", [(256, 1), (257, 2), (65536, 2),
                                          (65537, 4), (1 << 32, 4)])
def test_reference_agrees_with_naive_at_width_boundaries(bound, width):
    """Either side of each packing width, texts holding 0, bound - 1 and
    the symbols that share a low byte parse as the naive parser does."""
    rng = random.Random(bound)
    alphabet = _alphabet(bound)
    for extra in (0, 50, 400):
        symbols = list(alphabet) + [rng.choice(alphabet) for _ in range(extra)]
        rng.shuffle(symbols)
        text = make_text(symbols, bound)
        assert _Dictionary(text).w == width
        for scheme in Scheme:
            ref = parse_reference(text, scheme)
            assert parse_naive(text, scheme).parsing == ref
            assert expand_parsing(ref) == text.symbols


def test_reference_and_strict_verify_at_k32(tmp_path):
    # the slow families' k=32 members (n = 2.2M and 3.9M): the oracle must
    # agree with naive there, and strict verification must be affordable
    text = gen_lzmw_slow(32)
    assert (parse_reference(text, Scheme.LZMW)
            == parse_naive(text, Scheme.LZMW).parsing)
    # an LZD parsing passes strict verification iff it equals the reference
    text = gen_lzd_slow(32)
    text_path, parsing_path = str(tmp_path / "t.sym"), str(tmp_path / "t.lzd")
    write_text_file(text_path, text)
    write_parsing_file(parsing_path, parse_naive(text, Scheme.LZD).parsing)
    assert main(["verify", "--scheme", "lzd", "--in", text_path,
                 "--parsing", parsing_path, "--strict"]) == 0


def test_verify_rejects_wrong_text():
    other = make_text([0] * 13, 3)
    assert not verify_parsing(other, EX1_LZD)
    shorter = make_text(EX1_TEXT.symbols[:-1], 3)
    assert not verify_parsing(shorter, EX1_LZD)


def test_strict_verify_rejects_non_greedy():
    # "aaaa": greedy LZD is (a,a) then the one-part phrase p1; covering the
    # same text with (a,a)(a,a) leaves a longer dictionary match unused.
    t = make_text([0, 0, 0, 0], 1)
    greedy = lzd_parse_reference(t)
    assert greedy.phrases == ((Literal(0), Literal(0)), (1,))
    assert verify_parsing(t, greedy, strict=True)
    lazy = Parsing(Scheme.LZD, ((Literal(0), Literal(0)),
                                (Literal(0), Literal(0))), 4)
    assert verify_parsing(t, lazy, strict=False)
    assert not verify_parsing(t, lazy, strict=True)


def test_verify_rejects_wrong_source_length():
    for parsing in (EX1_LZD, EX1_LZMW):
        assert verify_parsing(EX1_TEXT, parsing, strict=True)
        for n in (0, 5, 12, 14, 999):
            bad = Parsing(parsing.scheme, parsing.phrases, n)
            assert not verify_parsing(EX1_TEXT, bad)
            assert not verify_parsing(EX1_TEXT, bad, strict=True)


def test_strict_verify_accepts_either_equal_lzmw_pair():
    # Phrases 0|0|00|0|1|000: the reference cites pair 2 (p2 p3 = 0 00) for
    # phrase 6, and pair 3 (p3 p4 = 00 0) spells the same string.
    t = make_text([0, 0, 0, 0, 0, 1, 0, 0, 0], 2)
    ref = lzmw_parse_reference(t)
    assert ref.phrases[5] == 2
    alt = Parsing(Scheme.LZMW, ref.phrases[:5] + (3,), 9)
    assert alt != ref
    assert verify_parsing(t, alt, strict=True)


def test_verify_rejects_malformed_instead_of_raising():
    # Forward reference and out-of-range index must not escape as exceptions.
    bad_forward = Parsing(Scheme.LZD, ((1, Literal(0)),), 3)
    assert not verify_parsing(make_text([0, 0, 0], 1), bad_forward)
    bad_pair = Parsing(Scheme.LZMW, (Literal(0), Literal(1), 2), 4)
    assert not verify_parsing(make_text([0, 1, 1, 0], 2), bad_pair)


def test_phrase_lengths_guard_exponential_blowup():
    # Self-doubling chain: expansions grow as 2^i, lengths must not expand
    # anything to report that.
    phrases = [(Literal(0), Literal(0))]
    for i in range(1, 60):
        phrases.append((i, i))
    p = Parsing(Scheme.LZD, tuple(phrases), 42)
    lens = phrase_lengths(p)
    assert lens[0] == 2 and lens[-1] == 2 ** 60
    assert not verify_parsing(make_text([0] * 42, 1), p)
    # Converting to a grammar validates on lengths too: O(z), not O(2^60).
    assert parsing_to_grammar(p).size() == 180


def test_verify_expands_no_phrase():
    # lzd-slow cites long phrases many times over: expanding every phrase
    # takes megabytes here, comparing each with the text in place does not
    text = gen_lzd_slow(16)
    parsing = parse_naive(text, Scheme.LZD).parsing
    tracemalloc.start()
    try:
        assert verify_parsing(text, parsing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _corrupt(rng, parsing, sigma):
    """The parsing with one or two random phrase edits: a part or phrase
    replaced by a random reference (in range or not), a phrase dropped, or
    two neighbours swapped."""
    phrases = list(parsing.phrases)
    for _ in range(rng.randrange(1, 3)):
        if not phrases:
            break
        i = rng.randrange(len(phrases))
        kind = rng.randrange(4)
        if kind == 0:
            del phrases[i]
        elif kind == 1 and i + 1 < len(phrases):
            phrases[i], phrases[i + 1] = phrases[i + 1], phrases[i]
        elif parsing.scheme is Scheme.LZD:
            ref = rng.choice([Literal(rng.randrange(sigma + 1)),
                              rng.randrange(i + 2)])
            ph = phrases[i]
            if rng.random() < 0.5:
                phrases[i] = (ref, *ph[1:])
            else:  # or make it a one-part phrase
                phrases[i] = ph[:1] + rng.choice([(ref,), ()])
        else:
            phrases[i] = rng.choice([Literal(rng.randrange(sigma + 1)),
                                     rng.randrange(i + 1)])
    return Parsing(parsing.scheme, tuple(phrases), parsing.source_length)


def test_verify_agrees_with_expansion_on_corrupted_parsings():
    rng = random.Random(9091)
    verdicts = {True: 0, False: 0}
    for _ in range(1100):
        sigma = rng.choice([1, 2, 3, 16])
        t = random_text(rng, rng.randrange(1, 60), sigma)
        for scheme in Scheme:
            q = _corrupt(rng, parse_reference(t, scheme), sigma)
            try:
                # equal lengths first, so a blown-up parsing is not expanded
                want = (sum(phrase_lengths(q)) == len(t)
                        and expand_parsing(q) == t.symbols)
            except GrammarError:
                want = False
            assert verify_parsing(t, q) is want
            verdicts[want] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 1000


def test_phrase_ops_raise_on_malformed():
    with pytest.raises(GrammarError):
        phrase_expansions(Parsing(Scheme.LZD, ((3,),), 1))
    with pytest.raises(GrammarError):
        phrase_lengths(Parsing(Scheme.LZMW, (Literal(0), 1), 2))
    # One-part LZD phrase anywhere but the end is malformed.
    with pytest.raises(GrammarError):
        phrase_expansions(Parsing(Scheme.LZD,
                                  ((Literal(0),), (Literal(1), Literal(1))), 3))
    # a scheme's value in place of the Scheme
    with pytest.raises(GrammarError, match="unknown scheme"):
        phrase_lengths(Parsing("lzd", (), 0))


def _with_phrase(parsing, i, phrase):
    phrases = list(parsing.phrases)
    phrases[i] = phrase
    return Parsing(parsing.scheme, tuple(phrases), parsing.source_length)


# True == 1 == 1.0 and they hash alike, so `(Literal(0), True)` would pass
# strict LZD equality with the reference's `(Literal(0), 1)`; a part or an
# LZMW phrase is a Literal or exactly an int.  EX1's fourth LZD phrase is
# (L0, 1) and its fifth LZMW phrase is the pair 1.
_NOT_INTS = [True, 1.0, "1", None]


@pytest.mark.parametrize("parsing", [
    *(pytest.param(_with_phrase(EX1_LZD, 3, (Literal(0), bad)),
                   id=f"lzd-part-{bad!r}") for bad in _NOT_INTS),
    *(pytest.param(_with_phrase(EX1_LZMW, 4, bad),
                   id=f"lzmw-phrase-{bad!r}") for bad in _NOT_INTS),
    pytest.param(_with_phrase(EX1_LZD, 3, ()), id="lzd-empty"),
    pytest.param(_with_phrase(EX1_LZD, 3, (Literal(0), Literal(0), Literal(1))),
                 id="lzd-three-parts"),
    pytest.param(_with_phrase(EX1_LZD, 3, [Literal(0), 1]), id="lzd-list"),
    pytest.param(_with_phrase(EX1_LZD, 3, 1), id="lzd-bare-int"),
])
def test_malformed_phrase_shapes_rejected(parsing):
    for strict in (False, True):
        assert not verify_parsing(EX1_TEXT, parsing, strict=strict)
    with pytest.raises(GrammarError):
        phrase_expansions(parsing)
    with pytest.raises(GrammarError):
        parsing_to_grammar(parsing)
    with pytest.raises(TypeError):
        dump_parsing(parsing)


@pytest.mark.parametrize("symbol", [True, 1.0])
def test_literal_symbols_must_be_ints(symbol):
    # Literal(True) == Literal(1), so a Literal's symbol must be exactly an
    # int, as an index part must: else a parsing passes strict verification
    # and is written as a token that no reader accepts
    from lzgram import Grammar

    text = make_text([1, 0], 2)
    for parsing in (Parsing(Scheme.LZD, ((Literal(symbol), Literal(0)),), 2),
                    Parsing(Scheme.LZMW, (Literal(symbol), Literal(0)), 2)):
        for strict in (False, True):
            assert not verify_parsing(text, parsing, strict=strict)
        with pytest.raises(GrammarError):
            phrase_expansions(parsing)
        with pytest.raises(TypeError):
            dump_parsing(parsing)
    with pytest.raises(GrammarError):
        validate_grammar(Grammar({1: (Literal(symbol), Literal(0))}, 1))


def test_distinctness_checks():
    assert check_lzd_distinct(EX1_LZD)
    assert check_lzmw_pair_distinct(EX1_LZMW)
    dup = Parsing(Scheme.LZD, ((Literal(0), Literal(0)),
                               (Literal(0), Literal(0))), 4)
    assert not check_lzd_distinct(dup)
    # Pair strings (0,1) at non-adjacent indices violate the pair rule.
    bad = Parsing(Scheme.LZMW,
                  (Literal(0), Literal(1), Literal(2), Literal(0), Literal(1)),
                  5)
    assert not check_lzmw_pair_distinct(bad)
    # The pair string (0,0) at three indices, adjacent or not.
    zeros = Parsing(Scheme.LZMW, (Literal(0),) * 4, 4)
    assert not check_lzmw_pair_distinct(zeros)
    with pytest.raises(ValueError):
        check_lzd_distinct(EX1_LZMW)
    with pytest.raises(ValueError):
        check_lzmw_pair_distinct(EX1_LZD)


def test_parsing_to_grammar_round_trip():
    rng = random.Random(7)
    for scheme in Scheme:
        g = parsing_to_grammar(parse_reference(EX1_TEXT, scheme))
        validate_grammar(g)
        assert expand_grammar(g) == EX1_TEXT.symbols
    for _ in range(40):
        t = random_text(rng, rng.randrange(1, 200), rng.choice([2, 4, 16]))
        for scheme in Scheme:
            p = parse_reference(t, scheme)
            g = parsing_to_grammar(p)
            validate_grammar(g)
            assert expand_grammar(g) == t.symbols
            assert g.size() <= 3 * len(p) + len(set(t.symbols))


def test_parsing_to_grammar_shares_the_phrase_parts():
    # a rule's parts are a Literal or a lower rule id, as in the parsing
    L0, L1, L2 = Literal(0), Literal(1), Literal(2)
    assert parsing_to_grammar(EX1_LZD).productions == {
        1: (L0, L1), 2: (L1, L0), 3: (1, 1), 4: (L0, 1), 5: (L0, L2),
        6: (1, 2, 3, 4, 5)}
    g = parsing_to_grammar(EX1_LZMW)
    assert g.start == 10
    assert g.productions == {
        1: (L0,), 2: (L1,), 3: (L1,), 4: (L0,), 5: (1, 2), 6: (1, 2),
        7: (4, 5), 8: (L0,), 9: (L2,), 10: tuple(range(1, 10))}
    one_part_end = Parsing(Scheme.LZD, ((Literal(0),),), 1)
    assert parsing_to_grammar(one_part_end).productions == {1: (L0,), 2: (1,)}


@pytest.mark.parametrize("part", [[1], "1", 1.0, True, None, (1,)])
def test_grammar_rejects_foreign_parts(part):
    from lzgram import Grammar

    rules = dict(parsing_to_grammar(EX1_LZD).productions)
    rules[4] = (Literal(0), part)
    with pytest.raises(GrammarError):
        validate_grammar(Grammar(rules, 6))
    with pytest.raises(GrammarError):
        expand_grammar(Grammar(rules, 6))


def test_grammar_validation_errors():
    from lzgram import Grammar

    g = parsing_to_grammar(EX1_LZD)
    forward = dict(g.productions)
    forward[1] = (5,)
    with pytest.raises(GrammarError):
        validate_grammar(Grammar(forward, g.start))
    missing = dict(g.productions)
    del missing[g.start]
    with pytest.raises(GrammarError):
        validate_grammar(Grammar(missing, g.start))
    gap = Grammar({1: (Literal(0),), 3: (1, 2)}, 3)
    with pytest.raises(GrammarError, match="rule 3 references missing 2"):
        validate_grammar(gap)
