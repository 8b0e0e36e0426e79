"""Text and parsing file formats: round trips and rejection of bad input."""

import re

import pytest

from lzgram import Literal, Parsing, Scheme, make_text, parse_reference
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
from lzgram.formats import read_parsing_file

from support import EX1_LZD, EX1_LZMW, EX1_TEXT


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
])
def test_bad_text_files_rejected(data):
    with pytest.raises(FormatError):
        load_text(data)


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
    # so every text that loads dumps back to its own bytes; the first bad
    # number is named
    with pytest.raises(FormatError, match=re.escape(repr(bad))):
        load_text(f"#sigma {header}\n{body}\n".encode())
    for canonical in (b"#sigma 10\n1 2\n", b"#sigma 4\n0 3\n"):
        assert dump_text(load_text(canonical)) == canonical


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
    # a number is read back only as _part_token writes it, so every file
    # that loads dumps back to its own bytes
    with pytest.raises(FormatError):
        load_parsing(data)
    canonical = b"LZD 2 12\nL:0 L:10\nP:10\n"
    assert dump_parsing(load_parsing(canonical)) == canonical


@pytest.mark.parametrize("header", [
    b"LZD +1 1_3", b"LZD 01 2", b"LZD 1 02", b"LZD 1 -2", b"LZD 1 +2",
    b"LZMW +1 2", b"LZMW 1 0_2", b"LZMW 01 -0", b"LZD 1 " + b"1" * 5000,
])
def test_non_canonical_header_rejected(header):
    # the header's numbers follow the tokens' rule, so that every file that
    # loads dumps back to its own bytes
    body = b"\nL:0 L:1\n" if header.startswith(b"LZD") else b"\nL:0\n"
    with pytest.raises(FormatError):
        load_parsing(header + body)
    for canonical in (b"LZD 1 13\nL:0 L:1\n", b"LZMW 1 2\nL:0\n"):
        assert dump_parsing(load_parsing(canonical)) == canonical


def test_parsing_file_io(tmp_path):
    path = tmp_path / "ex1.lzp"
    write_parsing_file(str(path), EX1_LZMW)
    assert read_parsing_file(str(path)) == EX1_LZMW
