"""Hard-instance families and the binary-alphabet reduction.

Three kinds of deterministic constructions live here:

* approximation-ratio witnesses: strings over {a,b,c,d} whose parsings have
  quadratically many phrases while an explicit linear-size grammar produces
  the same string (one family per scheme);
* slow-parse strings that force the quadratic-time parsers into long futile
  dictionary probes, built from k*k distinct letters plus one-shot separator
  symbols, with a layout table locating the probe-heavy z blocks;
* a reduction mapping any text to a binary one whose parsing is the image of
  the original parsing after a fixed priming prefix.

Letters a,b,c,d map to symbols 0,1,2,3.  The slow families use
a_{i,j} -> (i-1)*k + (j-1) and allocate a fresh id >= k*k per separator
occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice

from .model import Grammar, Literal, Scheme, Text, make_text

_A, _B, _C, _D = 0, 1, 2, 3


class ParameterError(ValueError):
    """Generator parameter outside its documented domain."""


def _check_k(k: int, minimum: int) -> None:
    if not isinstance(k, int) or k < minimum or k & (k - 1) != 0:
        raise ParameterError(
            f"k must be a power of two >= {minimum}, got {k!r}")


# ---------------------------------------------------------------------------
# Approximation-ratio witnesses.


def _delta(i: int, k: int) -> list[int]:
    return [_A] * i + [_B, _B] + [_A] * (k - i)


def _approx_x(k: int) -> list[int]:
    x: list[int] = []
    for j in range(k - 1, k // 2, -1):
        x += _delta(k, k) + _delta(j, k)
    x += _delta(k, k) + [_A] * (k - 1)
    return x


def gen_lzmw_approx(k: int) -> Text:
    _check_k(k, 4)
    out: list[int] = []
    for i in range(k):
        out += [_B] + [_A] * i + [_A] + [_A] * i + [_B, _C]
        for j in range(1, i + 1):
            out += [_B] + [_A] * j
    for i in range(k + 1):
        out += _delta(i, k) + [_D]
    p = 1
    while p <= k // 2:
        out += [_C] + [_A] * (p - 1) + [_A] * p + [_A] * p
        p *= 2
    out += [_D, _C]
    out += _approx_x(k) * (k // 2)
    return make_text(out, 4)


def gen_lzd_approx(k: int) -> Text:
    _check_k(k, 4)
    out: list[int] = []
    for i in range(2, k + 1):
        out += [_A] * i + [_C] * i
    out += [_B, _B]
    for i in range(1, k):
        out += [_A] * i + [_B, _B]
    for i in range(k + 1):
        out += _delta(i, k) + [_D] * (i + 2)
    out += _approx_x(k) * (k // 2)
    return make_text(out, 4)


def _rule(rules: dict, rhs) -> int:
    """Add a production under the next rule id, len(rules) + 1; return it."""
    rid = len(rules) + 1
    rules[rid] = tuple(rhs)
    return rid


def _delta_x_rules(rules: dict, a_chain: list[int], k: int):
    """Rules for delta_0..delta_k and for x, as `_delta` and `_approx_x`
    spell them; returns (delta rule ids, x rule id)."""
    deltas = [_rule(rules, [a_chain[i], Literal(_B), Literal(_B), a_chain[k - i]])
              for i in range(k + 1)]
    x_rhs: list = []
    for j in range(k - 1, k // 2, -1):
        x_rhs += [deltas[k], deltas[j]]
    x_rhs += [deltas[k], a_chain[k - 1]]
    return deltas, _rule(rules, x_rhs)


def small_grammar_lzmw(k: int) -> Grammar:
    _check_k(k, 4)
    rules: dict[int, tuple] = {}
    a_chain = [_rule(rules, [])]
    for i in range(1, 2 * k + 1):
        a_chain.append(_rule(rules, [a_chain[i - 1], Literal(_A)]))
    b_chain = [_rule(rules, [Literal(_C)])]
    for i in range(1, 2 * k + 1):
        b_chain.append(_rule(rules, [b_chain[i - 1], Literal(_B), a_chain[i]]))
    gammas = [_rule(rules, [Literal(_B), a_chain[2 * i + 1], Literal(_B), b_chain[i]])
              for i in range(k)]
    deltas, x_rule = _delta_x_rules(rules, a_chain, k)
    s_rhs: list = list(gammas)
    for i in range(k + 1):
        s_rhs += [deltas[i], Literal(_D)]
    p = 1
    while p <= k // 2:
        s_rhs += [Literal(_C), a_chain[3 * p - 1]]
        p *= 2
    s_rhs += [Literal(_D), Literal(_C)]
    s_rhs += [x_rule] * (k // 2)
    return Grammar(rules, _rule(rules, s_rhs))


def small_grammar_lzd(k: int) -> Grammar:
    _check_k(k, 4)
    rules: dict[int, tuple] = {}
    a_chain = [_rule(rules, [])]
    c_chain = [_rule(rules, [])]
    d_chain = [_rule(rules, [])]
    for i in range(1, k + 3):
        a_chain.append(_rule(rules, [a_chain[i - 1], Literal(_A)]))
        c_chain.append(_rule(rules, [c_chain[i - 1], Literal(_C)]))
        d_chain.append(_rule(rules, [d_chain[i - 1], Literal(_D)]))
    deltas, x_rule = _delta_x_rules(rules, a_chain, k)
    s_rhs: list = []
    for i in range(2, k + 1):
        s_rhs += [a_chain[i], c_chain[i]]
    s_rhs += [Literal(_B), Literal(_B)]
    for i in range(1, k):
        s_rhs += [a_chain[i], Literal(_B), Literal(_B)]
    for i in range(k + 1):
        s_rhs += [deltas[i], d_chain[i + 2]]
    s_rhs += [x_rule] * (k // 2)
    return Grammar(rules, _rule(rules, s_rhs))


# ---------------------------------------------------------------------------
# Slow-parse families.


def _wcat(lo: int, hi: int, k: int) -> list[int]:
    # w_lo w_{lo+1} ... w_hi (empty when lo > hi); the letters are consecutive
    return list(range((lo - 1) * k, hi * k))


def _w(i: int, k: int) -> list[int]:
    # letters a_{i,1}..a_{i,k} with 1-based i
    return _wcat(i, i, k)


# The pieces below are shared by both slow families; each family's generator
# keeps only the blocks where the two constructions differ.


def _s_prime_pieces(k: int):
    """The priming pieces of s', in text order.  LZD writes them back to
    back; LZMW follows each piece with a fresh separator."""
    w_full = _wcat(1, k, k)
    for i in range(1, k + 1):
        for j in range(2, k + 1):
            yield _w(i, k)[:j]
    for i in range(1, k + 1):
        for j in range(k - 1, 1, -1):
            yield _w(i, k)[j - 1:]
    for t in range(k - 2, 0, -1):
        yield _wcat(t, k - 1, k)
    p = 1
    while p <= k:
        yield w_full * p
        p *= 2
    for j in range(2, k + 1):
        yield _w(k, k)[j - 1:] + w_full * k


def _u(i: int, j: int, k: int) -> list[int]:
    # w_k[j-1:] . w_1 ... w_{i-1} . w_i[:j]
    return _w(k, k)[j - 1:] + _wcat(1, i - 1, k) + _w(i, k)[:j]


def _v_stem(i: int, j: int, k: int) -> list[int]:
    # w_i[j-1:] . w_{i+1} ... w_{k-1}
    return _w(i, k)[j - 1:] + _wcat(i + 1, k - 1, k)


def _z(i: int, k: int) -> list[int]:
    # probe-heavy: w_i[1:] . w_{i+1}...w_k . (w_1...w_k)^(k-2) . w_1...w_i
    return _w(i, k)[1:] + _wcat(i + 1, k, k) + _wcat(1, k, k) * (k - 2) + _wcat(1, i, k)


# A slow family is one generator of its blocks, (label, piece) in text order;
# each call of `sep()` hands out a fresh separator id.  Its text and its
# layout are both read from that generator.
def _lzd_slow_blocks(k: int, sep):
    yield "s_prime", list(chain.from_iterable(_s_prime_pieces(k)))
    for i in range(1, k - 1):
        x: list[int] = []
        for j in range(2, k + 1):
            if i == 1 or j == k:
                x += _u(i, j, k)
            else:
                x += _u(i - 1, j, k) + _w(i - 1, k)[j:] + _u(i, j, k)
            x += [sep(), sep()]
        for j in range(2, k + 1):
            stem = _v_stem(i, j, k)
            x += stem + stem + _w(k, k)[:j - 1] + [sep(), sep()]
        yield f"x{i}", x
        yield f"z{i}", _z(i, k)
        yield f"sep{i}", [sep(), sep()]


def _lzmw_slow_blocks(k: int, sep):
    s_prime: list[int] = []
    for piece in _s_prime_pieces(k):
        s_prime += piece + [sep()]
    yield "s_prime", s_prime

    y: list[int] = []
    for j in range(2, k + 1):
        y += _w(k, k)[j - 1:] + _w(1, k) + [sep()]
        y += _u(2, j, k) + [sep()]
    yield "y", y

    for i in range(4, k - 1, 2):
        x: list[int] = []
        for j in range(2, k):
            x += _w(i - 2, k)[j:] + _w(i - 1, k)[:j] + [sep()]
            x += _w(i - 1, k)[j:] + _w(i, k)[:j] + [sep()]
        for j in range(2, k + 1):
            x += _u(i - 2, j, k) + _w(i - 2, k)[j:] + _w(i - 1, k)[:j] + [sep()]
        for j in range(2, k + 1):
            stem = _v_stem(i, j, k)
            x += stem + [sep()] + stem + _w(k, k)[:j - 1] + [sep()]
        yield f"x{i}", x
        yield f"z{i}", _z(i, k) + [sep()]


def _slow_text(blocks, k: int) -> Text:
    """The pieces joined; the bound is the first separator id not used."""
    _check_k(k, 8)
    seps = count(k * k)
    out: list[int] = []
    for _, piece in blocks(k, seps.__next__):
        out += piece
    return make_text(out, next(seps))


def _slow_layout(blocks, k: int) -> tuple:
    """Half-open (label, start, end) spans of the blocks, in text order."""
    _check_k(k, 8)
    spans: list[tuple[str, int, int]] = []
    end = 0
    for label, piece in blocks(k, count(k * k).__next__):
        spans.append((label, end, end + len(piece)))
        end += len(piece)
    return tuple(spans)


def gen_lzd_slow(k: int) -> Text:
    return _slow_text(_lzd_slow_blocks, k)


def gen_lzmw_slow(k: int) -> Text:
    return _slow_text(_lzmw_slow_blocks, k)


def lzd_slow_layout(k: int) -> tuple:
    return _slow_layout(_lzd_slow_blocks, k)


def lzmw_slow_layout(k: int) -> tuple:
    return _slow_layout(_lzmw_slow_blocks, k)


# ---------------------------------------------------------------------------
# Binary-alphabet reduction.


@dataclass(frozen=True)
class Morphism:
    ell: int
    table: dict
    prefix: tuple

    def image(self, symbols) -> tuple:
        out: list[int] = []
        for c in symbols:
            out += self.table[c]
        return tuple(out)


def _alpha_next(level: list[str]) -> list[str]:
    return sorted(x + y for x in level for y in level if x <= y)


def _beta_next(level: list[str]) -> list[str]:
    bad = level[-1] + level[0]
    return sorted(x + y for x in level for y in level if x + y != bad)


def _levels(next_level):
    """Levels of binary strings: ["0", "1"], then next_level of the last one."""
    level = ["0", "1"]
    while True:
        yield level
        level = next_level(level)


def _first_levels(next_level, min_size: int) -> list[list[str]]:
    """Levels up to the first one after ["0", "1"] with >= min_size strings."""
    levels: list[list[str]] = []
    for level in _levels(next_level):
        levels.append(level)
        if len(levels) >= 2 and len(level) >= min_size:
            return levels


def _sequence(levels, count: int) -> list[str]:
    out: list[str] = []
    for level in levels:  # stop before the next level is built
        out += level
        if len(out) >= count:
            return out[:count]


def alpha_sequence(count: int) -> list[str]:
    return _sequence(islice(_levels(_alpha_next), 1, None), count)


def beta_sequence(count: int) -> list[str]:
    return _sequence(_levels(_beta_next), count)


def beta_block(m: int) -> str:
    """The block b(beta_m): pairs beta_t beta_m for the level prefix, then beta_m."""
    if m < 1:
        raise ParameterError(f"block index must be >= 1, got {m!r}")
    seq = beta_sequence(m)
    beta_m = seq[m - 1]
    # first index of this level: the all-zeros string of the same length
    first = seq.index("0" * len(beta_m))
    parts = [seq[t] + beta_m for t in range(first, m - 1)]
    parts.append(beta_m)
    return "".join(parts)


def _bits(binary: str) -> tuple:
    return tuple(int(ch) for ch in binary)


def _lzd_priming(sigma: int):
    levels = _first_levels(_alpha_next, sigma)[1:]
    images = levels[-1][:sigma]
    return "".join(chain.from_iterable(levels[:-1])) + "".join(images), images


def _lzmw_priming(sigma: int):
    levels = _first_levels(_beta_next, sigma)
    big = len(levels) - 1          # smallest level >= 1 whose size reaches sigma
    seq = list(chain.from_iterable(levels))
    level_start = sum(len(lv) for lv in levels[:big - 1])  # 0-based index of 0^(2^(big-1))
    level_end = level_start + len(levels[big - 1])
    entered: dict[str, None] = {}
    stop = None
    for m in range(level_start, level_end):
        if m > level_start:
            entered.setdefault(seq[m - 1] + seq[level_start], None)
            for t in range(level_start, m):
                entered.setdefault(seq[t] + seq[m], None)
            for t in range(level_start + 1, m):
                entered.setdefault(seq[m] + seq[t], None)
            entered.setdefault(seq[m] + seq[m], None)
        if len(entered) >= sigma:
            stop = m
            break
    assert stop is not None, "level exhausted before reaching sigma members"
    forbidden = levels[big - 1][-1] + levels[big - 1][0]
    assert forbidden not in entered
    zeros = "0" * (2 ** big)
    assert zeros in entered
    prefix = "".join(beta_block(m) for m in range(1, stop + 2))  # 1-based blocks
    rest = sorted(img for img in entered if img != zeros)[:sigma - 1]
    return prefix, zeros, rest


def binary_reduce(text: Text, scheme: Scheme):
    """Map `text` to a binary string t . phi(text) whose parsing is the
    parsing of t followed by the phi-image of the parsing of text."""
    if len(text.symbols) == 0:
        raise ParameterError("cannot reduce an empty text")
    alphabet = sorted(set(text.symbols))
    sigma = len(alphabet)
    if scheme is Scheme.LZD:
        prefix, images = _lzd_priming(sigma)
        table = {sym: _bits(img) for sym, img in zip(alphabet, images)}
    else:
        prefix, zeros, rest = _lzmw_priming(sigma)
        first_sym = text.symbols[0]
        table = {first_sym: _bits(zeros)}
        others = [sym for sym in alphabet if sym != first_sym]
        for sym, img in zip(others, rest):
            table[sym] = _bits(img)
    ell = len(next(iter(table.values())))
    assert all(len(img) == ell for img in table.values())
    assert len(set(table.values())) == sigma
    morphism = Morphism(ell, table, _bits(prefix))
    out = list(morphism.prefix) + list(morphism.image(text.symbols))
    return make_text(out, 2), morphism


# CLI registry: family name -> (generator, natural scheme, minimum k).
FAMILIES = {
    "lzmw-approx": (gen_lzmw_approx, Scheme.LZMW, 4),
    "lzd-approx": (gen_lzd_approx, Scheme.LZD, 4),
    "lzd-slow": (gen_lzd_slow, Scheme.LZD, 8),
    "lzmw-slow": (gen_lzmw_slow, Scheme.LZMW, 8),
}
