"""On-disk formats.

Text files (".sym"): a header line `#sigma <N>` followed by ASCII decimal
symbol values separated by whitespace.  Texts over an alphabet bound <= 256
may instead be stored raw, one byte per symbol.  Both are read in chunks.

Parsing files: a header `LZD <z> <n>` or `LZMW <z> <n>`, then one phrase per
line, one token per part of the in-memory phrase.  Tokens are `L:<symbol>`
for a `Literal` and `P:<index>` for an int, the 1-based index of an earlier
phrase (LZD) or of a pair p_j p_(j+1) (LZMW).  An LZD line is the phrase's
part tuple, two tokens or one on a final one-part phrase; an LZMW line is
its one part.

Every number in either file is written without sign, `_` or leading zero,
and is read back only in that form, so a file that loads dumps back to the
same numbers, digit for digit and in order, but not to the same whitespace.
"""

from __future__ import annotations

import io
from functools import partial
from itertools import chain

from .model import Literal, Parsing, Scheme, Text

_CHUNK = 1 << 16  # bytes per read of a text file


class FormatError(ValueError):
    """Malformed input file."""


def _number(digits: str) -> int | None:
    """digits as an int, if written as this module writes numbers: decimal
    digits only (the file is ASCII), no sign, no `_` and no leading zero.
    Else None, also for more digits than `int()` reads."""
    if digits.isdigit() and (digits[0] != "0" or digits == "0"):
        try:
            return int(digits)
        except ValueError:  # past the interpreter's digit limit
            pass
    return None


# ---------------------------------------------------------------------------
# Symbol texts.


def dump_text(text: Text) -> bytes:
    syms = text.symbols
    # each distinct symbol is converted once, as an int: True writes 1, and
    # a symbol that is no int raises TypeError
    tokens = list(map({v: int.__repr__(v) for v in set(syms)}.__getitem__, syms))
    lines = [f"#sigma {text.alphabet_bound}"]
    lines += [" ".join(tokens[i:i + 64]) for i in range(0, len(tokens), 64)]
    return ("\n".join(lines) + "\n").encode("ascii")


class _Symbols(dict):
    """token -> int, each distinct token converted at its first occurrence:
    the first bad token in file order is named, equal symbols share an int."""

    def __missing__(self, tok: str) -> int:
        value = _number(tok)
        if value is None:
            raise FormatError(f"bad integer token {tok!r}")
        self[tok] = value
        return value


def _token_lists(chunks):
    """The tokens of an ASCII file read in chunks, one list per chunk.  A
    token cut by chunk boundaries is kept in pieces and joined once."""
    pos, cut = 0, []  # cut: the pieces of a token that may go on
    for chunk in chunks:
        try:
            s = chunk.decode("ascii")
        except UnicodeDecodeError as e:
            raise FormatError(
                f"not an ASCII symbol file: 'ascii' codec can't decode byte "
                f"0x{chunk[e.start]:02x} in position {pos + e.start}: "
                f"{e.reason}") from None
        pos += len(chunk)
        toks = s.split()  # str.split also separates on \x1c-\x1f
        if cut:
            if not s[0].isspace():  # the cut token goes on in this chunk
                cut.append(toks.pop(0))
            if toks or s[-1].isspace():  # ... and ends in it
                toks.insert(0, "".join(cut))
                cut = []
        if toks and not s[-1].isspace():
            cut = [toks.pop()]
        yield toks
    if cut:
        yield ["".join(cut)]


def _read_text(f, sym: bool | None = None) -> Text:
    """The `sym` (if sym) or raw text in file object f, read in chunks with no
    seek, so f may be a pipe; sym=None takes `sym` iff f starts `#sigma`."""
    head = b""
    while len(head) < len(b"#sigma") and (more := f.read(_CHUNK)):
        head += more
    chunks = filter(None, chain((head,), iter(partial(f.read, _CHUNK), b"")))
    if sym is None:
        sym = head.startswith(b"#sigma")
    if not sym:
        return Text(tuple(chain.from_iterable(chunks)), 256)
    tokens = chain.from_iterable(_token_lists(chunks))
    if next(tokens, None) != "#sigma":
        raise FormatError("missing '#sigma <N>' header")
    if (bound := next(tokens, None)) is None:
        raise FormatError("missing alphabet bound after #sigma")
    ints = _Symbols()
    bound = ints[bound]
    syms = tuple(map(ints.__getitem__, tokens))
    try:  # Text's own check names a symbol outside [0, bound)
        return Text(syms, bound)
    except ValueError as e:
        raise FormatError(str(e)) from None


def load_text(data: bytes) -> Text:
    return _read_text(io.BytesIO(data), sym=True)


def dump_text_raw(text: Text) -> bytes:
    if text.alphabet_bound > 256:
        raise FormatError("raw byte format requires alphabet_bound <= 256")
    data = bytes(text.symbols)
    if data.startswith(b"#sigma"):
        raise FormatError("a raw text starting with '#sigma' reads back as sym")
    return data


def load_text_raw(data: bytes) -> Text:
    return _read_text(io.BytesIO(data), sym=False)


def read_text_file(path: str) -> Text:
    """Load a `sym` text (it starts with `#sigma`), else raw bytes."""
    with open(path, "rb") as f:
        return _read_text(f)


def write_text_file(path: str, text: Text, format: str = "sym") -> None:
    if format == "sym":
        data = dump_text(text)
    elif format == "raw":
        data = dump_text_raw(text)
    else:
        raise ValueError(f"unknown text format {format!r}")
    with open(path, "wb") as f:
        f.write(data)


# ---------------------------------------------------------------------------
# Parsings.


def _part_token(part) -> str:
    if isinstance(part, Literal) and type(part.symbol) is int:
        return f"L:{part.symbol}"
    if type(part) is int:
        return f"P:{part}"
    raise TypeError(f"bad part {part!r}")


def dump_parsing(parsing: Parsing) -> bytes:
    lines = [f"{parsing.scheme.name} {len(parsing.phrases)} {parsing.source_length}"]
    if parsing.scheme is Scheme.LZD:
        for ph in parsing.phrases:
            if type(ph) is not tuple or len(ph) not in (1, 2):
                raise TypeError(f"bad LZD phrase {ph!r}")
            lines.append(" ".join(map(_part_token, ph)))
    else:
        lines.extend(map(_part_token, parsing.phrases))
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_token(tok: str):
    """A Literal for `L:<symbol>`, the int for `P:<index>` (1-based)."""
    kind, value = tok[:2], _number(tok[2:])
    if value is not None:
        if kind == "L:":
            return Literal(value)
        if kind == "P:" and value:
            return value
    raise FormatError(f"bad token {tok!r}")


def load_parsing(data: bytes) -> Parsing:
    try:
        s = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"not an ASCII parsing file: {e}") from None
    lines = [ln for ln in s.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty parsing file")
    head = lines[0].split()
    numbers = [_number(x) for x in head[1:]]
    if len(head) != 3 or head[0] not in ("LZD", "LZMW") or None in numbers:
        raise FormatError(f"bad header {lines[0]!r}")
    scheme = Scheme.LZD if head[0] == "LZD" else Scheme.LZMW
    z, n = numbers
    body = lines[1:]
    if len(body) != z:
        raise FormatError(f"header announces {z} phrases, file has {len(body)}")
    phrases: list = []
    if scheme is Scheme.LZD:
        for ln in body:
            toks = ln.split()
            if len(toks) not in (1, 2):
                raise FormatError(f"LZD phrase line needs 1 or 2 tokens: {ln!r}")
            phrases.append(tuple(map(_parse_token, toks)))
    else:
        for ln in body:
            toks = ln.split()
            if len(toks) != 1:
                raise FormatError(f"LZMW phrase line needs 1 token: {ln!r}")
            phrases.append(_parse_token(toks[0]))
    return Parsing(scheme, tuple(phrases), n)


def read_parsing_file(path: str) -> Parsing:
    with open(path, "rb") as f:
        return load_parsing(f.read())


def write_parsing_file(path: str, parsing: Parsing) -> None:
    with open(path, "wb") as f:
        f.write(dump_parsing(parsing))
