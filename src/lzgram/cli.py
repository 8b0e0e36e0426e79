"""Command-line front end: gen, parse, verify, bench, fit.

Exit codes: 0 success / verification passed, 1 runtime failure (I/O,
verification mismatch, Las-Vegas exhaustion), 2 usage or malformed input.
`main` maps the library's exceptions to 1 and 2; any other exception is a
fault and keeps its traceback.  The fingerprint modulus can be overridden
with the LZGRAM_MODULUS environment variable, a prime in [3, 2^64), which
exists to make hash collisions observable at tiny moduli.
"""

from __future__ import annotations

import argparse
import os
import sys

from .adversarial import FAMILIES, ParameterError
from .bench import CSV_HEADER, PARSERS, fit_csv, run_bench
from .formats import (FormatError, read_parsing_file, read_text_file,
                      write_parsing_file, write_text_file)
from .hashing import MERSENNE61, HashConfig
from .model import Scheme, verify_parsing

MODULUS_ENV = "LZGRAM_MODULUS"


class UsageError(Exception):
    """A request only the command line refuses; it exits 2."""


def _modulus() -> int:
    raw = os.environ.get(MODULUS_ENV)
    if raw is None:
        return MERSENNE61
    try:
        return HashConfig(p=int(raw)).p
    except ValueError:
        raise UsageError(f"{MODULUS_ENV} must be a prime in [3, 2^64), "
                         f"got {raw!r}") from None


def _load(read, path: str, what: str):
    try:
        return read(path)
    except FormatError as e:
        raise UsageError(f"malformed {what} file {path}: {e}") from None


def _read_text(path: str):
    text = _load(read_text_file, path, "text")
    if len(text) == 0:
        raise UsageError(f"empty input: {path}")
    return text


def cmd_gen(args) -> int:
    gen, _, _ = FAMILIES[args.family]
    write_text_file(args.out, gen(args.k), format=args.format)
    return 0


def cmd_parse(args) -> int:
    text = _read_text(args.infile)
    scheme = Scheme(args.scheme)
    parsing, counters = PARSERS[args.algo](text, scheme, args.seed, _modulus())
    if args.out is not None:
        write_parsing_file(args.out, parsing)
    if args.stats:
        print(f"n={len(text)}")
        print(f"z={len(parsing)}")
        for key, value in counters.items():
            print(f"{key}={value}")
    return 0


def cmd_verify(args) -> int:
    text = _read_text(args.infile)
    parsing = _load(read_parsing_file, args.parsing, "parsing")
    scheme = Scheme(args.scheme)
    if parsing.scheme is not scheme:
        raise UsageError(f"parsing file is {parsing.scheme.value}, "
                         f"asked to verify as {scheme.value}")
    if verify_parsing(text, parsing, strict=args.strict):
        return 0
    print("verification FAILED", file=sys.stderr)
    return 1


def cmd_bench(args) -> int:
    scheme = Scheme(args.scheme) if args.scheme else None  # the family's own
    records = run_bench(args.family, args.algo, args.kmin, args.kmax,
                        seed=args.seed, scheme=scheme, p=_modulus())
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    with open(args.csv, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def cmd_fit(args) -> int:
    try:
        with open(args.csv, encoding="ascii") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise UsageError(f"malformed CSV {args.csv}: {e}") from None
    try:
        fit = fit_csv(lines, args.x, args.y)
    except ValueError as e:
        raise UsageError(str(e)) from None
    print(f"slope={fit.slope:.6f}")
    print(f"r2={fit.r2:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzgram",
        description="LZD/LZMW parsing, adversarial inputs, and growth fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write an adversarial family member")
    g.add_argument("--family", required=True, choices=sorted(FAMILIES))
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=("sym", "raw"), default="sym")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("parse", help="parse a text file")
    p.add_argument("--scheme", required=True, choices=("lzd", "lzmw"))
    p.add_argument("--algo", required=True, choices=PARSERS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_parse)

    v = sub.add_parser("verify", help="check a parsing against its text")
    v.add_argument("--scheme", required=True, choices=("lzd", "lzmw"))
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--parsing", required=True)
    v.add_argument("--strict", action="store_true",
                   help="also require greedy maximality of every part")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="counter/time growth across k")
    b.add_argument("--family", required=True, choices=sorted(FAMILIES))
    b.add_argument("--scheme", choices=("lzd", "lzmw"))
    b.add_argument("--algo", required=True, choices=PARSERS)
    b.add_argument("--kmin", type=int, required=True)
    b.add_argument("--kmax", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", required=True, help="output CSV path")
    b.set_defaults(func=cmd_bench)

    f = sub.add_parser("fit", help="log-log slope of one CSV column vs another")
    f.add_argument("--csv", required=True, help="input CSV path")
    f.add_argument("--x", default="n")
    f.add_argument("--y", required=True)
    f.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    # the library's only RuntimeError is the Las-Vegas exhaustion
    except (OSError, RuntimeError) as e:
        print(f"lzgram: {e}", file=sys.stderr)
        return 1
    except (UsageError, FormatError, ParameterError) as e:
        print(f"lzgram: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
