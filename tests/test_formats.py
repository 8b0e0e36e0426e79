"""Text and parsing file formats: round trips and rejection of bad input."""

import gc
import os
import random
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import lzgram
from lzgram import Literal, Parsing, Scheme, Text, make_text, parse_reference
from lzgram.adversarial import gen_lzd_slow
from lzgram.formats import (
    FormatError,
    dump_parsing,
    dump_text,
    dump_text_raw,
    load_parsing,
    load_text,
    load_text_raw,
    read_text_file,
    write_parsing_file,
    write_text_file,
)
from lzgram.formats import _CHUNK, _read_text, read_parsing_file

from support import EX1_LZD, EX1_LZMW, EX1_TEXT, random_text


def test_sym_round_trip():
    assert load_text(dump_text(EX1_TEXT)) == EX1_TEXT
    big = make_text(list(range(200)) * 2, 200)
    data = dump_text(big)
    assert data.startswith(b"#sigma 200\n")
    assert load_text(data) == big


def test_text_file_bytes_pinned():
    # the sym format, byte for byte: 64 symbols a line, one space apart
    syms = [0, 7, 255, 7] * 17 + [300, 0]
    assert dump_text(make_text(syms, 301)) == (
        b"#sigma 301\n" + b"0 7 255 7 " * 15 + b"0 7 255 7\n"
        + b"0 7 255 7 300 0\n")
    assert dump_text(make_text(syms[:64], 301)) == (
        b"#sigma 301\n" + b"0 7 255 7 " * 15 + b"0 7 255 7\n")
    assert dump_text(make_text([], 1)) == b"#sigma 1\n"
    assert dump_text(make_text([5], 6)) == b"#sigma 6\n5\n"


def test_dump_text_writes_int_symbols():
    # a bool symbol is written as the int it equals, so the file loads back
    # equal; a symbol that is no int is refused rather than written
    text = make_text([True, 0, 1], 2)
    assert dump_text(text) == b"#sigma 2\n1 0 1\n"
    assert load_text(dump_text(text)) == text
    with pytest.raises(TypeError):
        dump_text(make_text([1.0, 0], 2))


def test_raw_round_trip():
    t = make_text([0, 255, 7], 256)
    assert load_text_raw(dump_text_raw(t)) == t
    with pytest.raises(FormatError):
        dump_text_raw(make_text([300], 400))


def test_auto_detection(tmp_path):
    p = tmp_path / "t.sym"
    write_text_file(str(p), EX1_TEXT)
    assert read_text_file(str(p)) == EX1_TEXT
    r = tmp_path / "t.raw"
    small = make_text([1, 2, 3], 256)
    write_text_file(str(r), small, format="raw")
    assert read_text_file(str(r)) == small
    with pytest.raises(ValueError, match="unknown text format 'xyz'"):
        write_text_file(str(tmp_path / "t.xyz"), small, format="xyz")
    assert not (tmp_path / "t.xyz").exists()


def test_raw_file_reads_back_as_written(tmp_path):
    # a raw text whose bytes start like a sym header would read back as sym
    path = tmp_path / "t.raw"
    for data in (b"#sigm", b"x#sigma 1\n", b" #sigma 1\n", bytes(range(256))):
        text = make_text(data, 256)
        write_text_file(str(path), text, format="raw")
        assert read_text_file(str(path)) == text
    path.unlink()
    for data in (b"#sigma 1\n", b"#sigma"):
        with pytest.raises(FormatError):
            write_text_file(str(path), make_text(data, 256), format="raw")
        assert not path.exists()


@pytest.mark.parametrize("data", [
    b"",
    b"1 2 3",
    b"#sigma",
    b"#sigma two\n1",
    b"#sigma 4\n1 x 3",
    b"#sigma 4\n5",          # symbol outside bound
    b"\xff\xfe",
    b"#sigma 0\n",           # bound outside its range
    b"#sigma 4\n1 2 \x80",
])
def test_bad_text_files_rejected(data):
    with pytest.raises(FormatError) as whole:
        load_text(data)
    # read a few bytes at a time, the file fails alike
    with pytest.raises(FormatError) as chunked:
        _read_text(trickle(data, len(data)), sym=True)
    assert str(chunked.value) == str(whole.value)


def test_text_tokens():
    # str.split also separates on \x1c-\x1f, which bytes.split would not
    t = load_text(b"#sigma 400\n300\x1c300 7\x1f300")
    assert t.symbols == (300, 300, 7, 300)
    # each distinct token is converted once: equal symbols share one int
    assert t.symbols[0] is t.symbols[1] is t.symbols[3]
    with pytest.raises(FormatError, match="'z'"):  # the first bad token
        load_text(b"#sigma 4\n1 z y z y")


@pytest.mark.parametrize("header, body, bad", [
    ("1_0", "1 2", "1_0"), ("04", "1 2", "04"), ("+4", "1 2", "+4"),
    ("4", "0003", "0003"), ("4", "1 -0", "-0"), ("4", "1 +2 2_0", "+2"),
    ("4", "3 1_0 01", "1_0"),
    pytest.param("1" * 5000, "1", "1" * 5000, id="more-digits-than-int-reads"),
])
def test_non_canonical_text_numbers_rejected(header, body, bad):
    # the bound and the symbols follow the parsing files' rule for numbers,
    # so every number in a text that loads dumps back to its own digits; the
    # first bad number is named
    data = f"#sigma {header}\n{body}\n".encode()
    with pytest.raises(FormatError, match=re.escape(repr(bad))):
        load_text(data)
    with pytest.raises(FormatError, match=re.escape(repr(bad))):  # in pieces
        _read_text(trickle(data, len(data)), sym=True)
    for canonical in (b"#sigma 10\n1 2\n", b"#sigma 4\n0 3\n"):
        assert dump_text(load_text(canonical)) == canonical


def test_whitespace_between_tokens_is_not_kept():
    # numbers read back to their own digits and in their order; the
    # separators are the writers' own
    assert dump_text(load_text(b"#sigma 4\n1  2\t3\n")) == b"#sigma 4\n1 2 3\n"
    assert (dump_parsing(load_parsing(b"LZD 1 2\n\nL:0   L:1\r\n"))
            == b"LZD 1 2\nL:0 L:1\n")


# The reader reads a file in chunks; these drive it through a file double
# that hands out a few bytes a read, so that every header, token and
# separator is cut somewhere, and compare it with a whole-file split.

class TrickleFile:
    """A file double whose read(size) returns the next of `cuts` bytes, at
    most size, and size bytes once they run out: a short read is no end of
    file, as on a pipe.  It cannot seek."""

    def __init__(self, data: bytes, cuts=()):
        self.data, self.pos, self.cuts = data, 0, iter(cuts)

    def read(self, size: int) -> bytes:
        end = self.pos + min(size, next(self.cuts, size))
        piece, self.pos = self.data[self.pos:end], min(end, len(self.data))
        return piece


def trickle(data: bytes, seed: int) -> TrickleFile:
    """data, 1 to 7 bytes a read."""
    return TrickleFile(data, iter(partial(random.Random(seed).randint, 1, 7), None))


def split_text(data: bytes) -> Text:
    """The text in a good file, by a plain whole-file split."""
    if not data.startswith(b"#sigma"):
        return Text(tuple(data), 256)
    tokens = data.decode("ascii").split()
    return Text(tuple(map(int, tokens[2:])), int(tokens[1]))


def assert_reads(data: bytes, seed: int):
    want = split_text(data)
    for f in (trickle(data, seed), TrickleFile(data)):
        text = _read_text(f)
        assert text == want
        # equal symbols share one int
        assert len(set(map(id, text.symbols))) == len(set(text.symbols))
    load = load_text if data.startswith(b"#sigma") else load_text_raw
    assert load(data) == want


SYM_FILES = [
    dump_text(EX1_TEXT), dump_text(make_text(list(range(200)) * 2, 200)),
    dump_text(make_text([0, 7, 255, 7] * 17 + [300, 0], 301)),
    b"#sigma 1\n", b"#sigma 6\n5\n", b"#sigma 2\n1 0 1\n",
    b"#sigma 400\n300\x1c300 7\x1f300", b"#sigma 10\n1 2\n", b"#sigma 4\n0 3\n",
    b"#sigma 4\n1  2\t3\n",
]
SEPARATORS = [" ", "\n", "\r\n", "\t", "\x1c", "\x1d", "\x1e", "\x1f", " \n\t"]


def test_chunked_reads_equal_a_whole_file_split():
    for seed, data in enumerate(SYM_FILES):
        assert_reads(data, seed)
    rng = random.Random(2626)
    for seed in range(300):
        sigma = rng.choice([1, 2, 10, 300, 5000])
        syms = random_text(rng, rng.randrange(60), sigma).symbols
        sep = lambda: "".join(rng.choices(SEPARATORS, k=rng.randint(1, 2)))
        body = "".join(f"{sep()}{v}" for v in (sigma, *syms))
        assert_reads(f"#sigma{body}{rng.choice(['', sep()])}".encode(), seed)


def test_header_split_across_reads():
    data = b"#sigma 300\n299 7 299"
    for cuts in ([1] * 30, [3, 3, 3], [5, 2, 1, 9], [6, 1, 1, 1, 1, 30]):
        assert _read_text(TrickleFile(data, cuts)) == Text((299, 7, 299), 300)
        assert _read_text(TrickleFile(b"#s1", cuts)) == Text(tuple(b"#s1"), 256)


def test_texts_longer_than_a_chunk(tmp_path):
    rng = random.Random(7)
    raw = bytes([0] + [rng.randrange(256) for _ in range(_CHUNK + 999)])
    sym = dump_text(random_text(rng, _CHUNK // 2, 5000))
    path = tmp_path / "t"
    for seed, data in enumerate((raw, sym)):
        assert len(data) > _CHUNK
        assert_reads(data, seed)
        path.write_bytes(data)
        assert read_text_file(str(path)) == split_text(data)
    # one token over three chunks is joined from its pieces once, whole
    long = "7" * (3 * _CHUNK)
    with pytest.raises(FormatError) as e:
        load_text(f"#sigma 8\n1 {long} 2".encode())
    assert str(e.value) == f"bad integer token {long!r}"


def test_non_ascii_byte_is_named_at_its_file_offset():
    data = b"#sigma 4\n" + b"1 " * _CHUNK + b"2\xff 3\n"
    at = len(data) - 4
    message = (f"not an ASCII symbol file: 'ascii' codec can't decode byte 0xff"
               f" in position {at}: ordinal not in range(128)")
    for f in (trickle(data, 1), TrickleFile(data, [_CHUNK] * 3)):
        with pytest.raises(FormatError) as e:
            _read_text(f)
        assert str(e.value) == message
    # faults are met in file order: a bad token before it is the one named
    with pytest.raises(FormatError, match="'x'"):
        load_text(b"#sigma 4\n1 x " + data[9:])


def test_reading_a_slow_family_text_stays_small(tmp_path):
    # the reader holds a chunk, its tokens and the growing tuple, not the
    # whole file and a list of its tokens (18.6 MiB before chunked reads)
    path = tmp_path / "lzd-slow-16.sym"
    write_text_file(str(path), gen_lzd_slow(16))
    gc.collect()
    tracemalloc.start()
    try:
        text = read_text_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 233_083
    assert peak < 8 * 2**20


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_parse_reads_text_from_a_pipe(tmp_path):
    # the format is told from the first bytes read, with no seek back
    src = str(Path(lzgram.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    path = tmp_path / "t.sym"
    text = random_text(random.Random(5), 30_000, 300)
    write_text_file(str(path), text)
    assert path.stat().st_size > _CHUNK
    outputs = []
    for i, infile in enumerate((str(path), "/dev/stdin")):
        out = tmp_path / f"{i}.lzp"
        subprocess.run([sys.executable, "-m", "lzgram.cli", "parse", "--scheme",
                        "lzd", "--algo", "reference", "--in", infile, "--out",
                        str(out)], input=path.read_bytes(), env=env,
                       capture_output=True, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == dump_parsing(parse_reference(text, Scheme.LZD))


def test_parsing_round_trip():
    for parsing in (EX1_LZD, EX1_LZMW):
        data = dump_parsing(parsing)
        assert load_parsing(data) == parsing
    data = dump_parsing(EX1_LZD)
    assert data.splitlines()[0] == b"LZD 5 13"


def test_parsing_file_bytes_pinned():
    # the file format, byte for byte, whatever the in-memory phrase shape
    aaaa = parse_reference(make_text([0, 0, 0, 0], 1), Scheme.LZD)
    assert dump_parsing(EX1_LZD) == (
        b"LZD 5 13\nL:0 L:1\nL:1 L:0\nP:1 P:1\nL:0 P:1\nL:0 L:2\n")
    assert dump_parsing(EX1_LZMW) == (
        b"LZMW 9 13\nL:0\nL:1\nL:1\nL:0\nP:1\nP:1\nP:4\nL:0\nL:2\n")
    assert dump_parsing(aaaa) == b"LZD 2 4\nL:0 L:0\nP:1\n"  # one-part end
    for parsing in (EX1_LZD, EX1_LZMW, aaaa):
        assert load_parsing(dump_parsing(parsing)) == parsing


def test_one_part_final_phrase_round_trip():
    p = Parsing(Scheme.LZD, ((Literal(0), Literal(0)), (Literal(1),)), 3)
    assert load_parsing(dump_parsing(p)) == p


@pytest.mark.parametrize("data", [
    b"",
    b"NOPE 1 2\nL:0",
    b"LZD 2 13\nL:0 L:1",                # fewer lines than announced
    b"LZD 1 13\nL:0 L:1\nL:1 L:0",       # more lines than announced
    b"LZD 1 2\nL:0 L:1 L:2",             # three tokens on an LZD line
    b"LZMW 1 2\nL:0 L:1",                # two tokens on an LZMW line
    b"LZD 1 2\nQ:0 L:1",
    b"LZD 1 2\nL:x L:1",
    b"LZD 1 2\nP:0 L:1",                 # P indices are 1-based
    b"LZD x 2\nL:0 L:1",
    b"LZD 1 2\nL:\xe9 L:1",              # not ASCII
])
def test_bad_parsing_files_rejected(data):
    with pytest.raises(FormatError):
        load_parsing(data)


def test_overlong_token_rejected():
    # more digits than int() reads is a malformed file, not a crash
    with pytest.raises(FormatError):
        load_parsing(b"LZD 1 2\nL:" + b"1" * 5000 + b" L:1\n")


@pytest.mark.parametrize("data", [
    b"LZD 1 2\nL:1_0 P:+1\n",
    *(b"LZD 1 2\nL:0 " + token + b"\n" for token in (
        b"L:1_0", b"L:01", b"L:00", b"L:+1", b"L:-0", b"P:+1", b"P:01",
        b"P:1_0", b"P:00", b"L:", b"P:")),
])
def test_non_canonical_tokens_rejected(data):
    # a number is read back only as _part_token writes it, so every number
    # in a file that loads dumps back to its own digits
    with pytest.raises(FormatError):
        load_parsing(data)
    canonical = b"LZD 2 12\nL:0 L:10\nP:10\n"
    assert dump_parsing(load_parsing(canonical)) == canonical


@pytest.mark.parametrize("header", [
    b"LZD +1 1_3", b"LZD 01 2", b"LZD 1 02", b"LZD 1 -2", b"LZD 1 +2",
    b"LZMW +1 2", b"LZMW 1 0_2", b"LZMW 01 -0", b"LZD 1 " + b"1" * 5000,
])
def test_non_canonical_header_rejected(header):
    # the header's numbers follow the tokens' rule, so that they too dump
    # back to their own digits
    body = b"\nL:0 L:1\n" if header.startswith(b"LZD") else b"\nL:0\n"
    with pytest.raises(FormatError):
        load_parsing(header + body)
    for canonical in (b"LZD 1 13\nL:0 L:1\n", b"LZMW 1 2\nL:0\n"):
        assert dump_parsing(load_parsing(canonical)) == canonical


def test_parsing_file_io(tmp_path):
    path = tmp_path / "ex1.lzp"
    write_parsing_file(str(path), EX1_LZMW)
    assert read_parsing_file(str(path)) == EX1_LZMW
