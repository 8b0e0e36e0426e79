"""Digest every parser's CLI output over a fixed set of texts.

For each case and each algorithm this runs `lzgram parse --stats --out F`
and then `lzgram verify --strict` on F, both in process through
`lzgram.cli.main`, and prints one line:

    <case> <algo> parse=<exit> stdout=<sha256[:16]> file=<sha256[:16]> verify=<exit>

The cases are the four generator families at every valid k <= 16 under their
own scheme, 400 seeded random texts (n < 3,000, sigma in {2, 3, 4, 8, 26,
256}) under both schemes, and 2,000-symbol texts at alphabet bounds 257,
65,536, 65,537 and 2^32 under both schemes: 818 cases in all.

lzgram is imported from PYTHONPATH, so two checkouts can be compared:

    PYTHONPATH=old/src python scripts/parse_digests.py > old.txt
    PYTHONPATH=new/src python scripts/parse_digests.py > new.txt
    diff old.txt new.txt

Identical outputs mean identical parsing files, `--stats` output and exit
codes for all four algorithms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile

from lzgram import Scheme, make_text
from lzgram.adversarial import FAMILIES, ParameterError
from lzgram.bench import PARSERS
from lzgram.cli import main
from lzgram.formats import write_text_file

SIGMAS = (2, 3, 4, 8, 26, 256)
BOUNDS = (257, 1 << 16, (1 << 16) + 1, 1 << 32)


def cases():
    """(name, text, scheme) for every case, in a fixed order."""
    for family, (gen, scheme, _) in sorted(FAMILIES.items()):
        for k in range(1, 17):
            try:
                text = gen(k)
            except ParameterError:
                continue
            yield f"{family}/k={k}", text, scheme
    for seed in range(400):
        rng = random.Random(seed)
        sigma = SIGMAS[seed % len(SIGMAS)]
        n = rng.randrange(1, 3000)
        text = make_text([rng.randrange(sigma) for _ in range(n)], sigma)
        for scheme in Scheme:
            yield f"random/seed={seed}/n={n}/sigma={sigma}", text, scheme
    for bound in BOUNDS:
        # the extreme symbols and neighbours that share their low byte
        alphabet = sorted({0, 255, 256, bound - 257, bound - 256, bound - 1})
        rng = random.Random(bound)
        text = make_text([rng.choice(alphabet) for _ in range(2000)], bound)
        for scheme in Scheme:
            yield f"bound={bound}", text, scheme


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run(argv) -> tuple[int, bytes]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        text_path = os.path.join(tmp, "t.sym")
        parsing_path = os.path.join(tmp, "t.parsing")
        for name, text, scheme in cases():
            write_text_file(text_path, text)
            for algo in PARSERS:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(parsing_path)
                code, stdout = run(["parse", "--scheme", scheme.value,
                                    "--algo", algo, "--in", text_path,
                                    "--stats", "--out", parsing_path])
                try:
                    with open(parsing_path, "rb") as f:
                        file_digest = digest(f.read())
                except FileNotFoundError:
                    file_digest = "-"
                verify, _ = run(["verify", "--scheme", scheme.value,
                                 "--in", text_path, "--parsing", parsing_path,
                                 "--strict"])
                print(f"{name}/{scheme.value} {algo} parse={code} "
                      f"stdout={digest(stdout)} file={file_digest} "
                      f"verify={verify}")


if __name__ == "__main__":
    main_digests()
