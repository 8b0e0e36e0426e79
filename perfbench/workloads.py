"""Benchmark workloads: inputs made from a seed, and why each one exists.

Every workload is a list of texts with the scheme to parse each under.  The
program under test only ever receives the generated texts; the seed stays on
this side.  Set-up also writes every text as a `sym` file, because the
slow-cli workload parses through `lzgram parse` and the output gate checks
reference parsings with `lzgram verify` on every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from lzgram.adversarial import gen_lzd_slow, gen_lzmw_slow
from lzgram.formats import write_text_file
from lzgram.model import Scheme, Text, make_text

SLOW_K = 16
MANY_SIGMAS = (2, 4, 16, 256)
MANY_PER_CLASS = 15
MANY_N_MIN, MANY_N_MAX = 64, 512

WHY = {
    "slow-cli": "lzd-slow and lzmw-slow at k=16 parsed by `lzgram parse`: few "
                "phrases over long copies, the paper's slow families",
    "random-many": "120 short random texts through the library: many short "
                   "phrases, per-call set-up and trie searches dominate",
}

# Loops in each speed reading (see speed.py).  The median of five smooths a
# reading taken every 50 ms during a long call at ~4 % extra time; calls of a
# few milliseconds, read only around each call, need readings that cost less.
CALIBRATION_LOOPS = {"slow-cli": 5, "random-many": 3}


@dataclass
class Input:
    name: str
    scheme: Scheme
    text: Text
    sigma: int  # distinct symbols, the trie bound's alphabet term
    path: str = ""


@dataclass
class Workload:
    name: str
    via_cli: bool
    inputs: list
    memory_probes: tuple  # indices of the inputs the tracemalloc pass parses
    repeat_s: float = 0.0  # a timed round repeats a call until its calls add up to this

    @property
    def symbols(self) -> int:
        return sum(len(inp.text) for inp in self.inputs)


def _input(name: str, scheme: Scheme, symbols, bound: int) -> Input:
    text = make_text(symbols, bound)
    return Input(name, scheme, text, len(set(text.symbols)))


def _relabel(text: Text, rng: random.Random) -> tuple:
    # LZD and LZMW parse by symbol equality, so a bijective relabelling keeps
    # the phrase structure and every counter, while the symbols depend on the
    # seed.  Symbols are shuffled only within classes of equal decimal length
    # and on one side of 257, CPython's cached small ints, so the file size
    # and the cost of reading and holding the text do not depend on the seed.
    bound = text.alphabet_bound
    edges = [0] + [e for e in (10, 100, 257, 10**3, 10**4, 10**5) if e < bound] + [bound]
    perm = []
    for lo, hi in zip(edges, edges[1:]):
        block = list(range(lo, hi))
        rng.shuffle(block)
        perm += block
    return tuple(perm[s] for s in text.symbols)


def _slow_cli(rng: random.Random) -> Workload:
    inputs = []
    for family, gen, scheme in (("lzmw-slow", gen_lzmw_slow, Scheme.LZMW),
                                ("lzd-slow", gen_lzd_slow, Scheme.LZD)):
        text = gen(SLOW_K)
        inputs.append(_input(f"{family}-{SLOW_K}", scheme,
                             _relabel(text, rng), text.alphabet_bound))
    # memory probe: lzmw-slow, the shorter text, as tracemalloc costs ~10x a parse.
    # A naive call takes ~0.1 s; repeating it gives its median a few samples
    # per round, as a round holds one ~1-2 s call of each other parser.
    return Workload("slow-cli", True, inputs, memory_probes=(0,), repeat_s=0.5)


def _random_many(rng: random.Random) -> Workload:
    # Lengths sit on a fixed log-spaced grid from MANY_N_MIN to MANY_N_MAX in
    # each (sigma, scheme) class; the seed draws the symbols and the order.
    # A fixed grid keeps the latency percentiles comparable across seeds.
    steps = MANY_PER_CLASS - 1
    ratio = MANY_N_MAX / MANY_N_MIN
    lengths = [round(MANY_N_MIN * ratio ** (j / steps)) for j in range(MANY_PER_CLASS)]
    specs = [(sigma, scheme, n) for sigma in MANY_SIGMAS
             for scheme in (Scheme.LZD, Scheme.LZMW) for n in lengths]
    rng.shuffle(specs)
    inputs = []
    for i, (sigma, scheme, n) in enumerate(specs):
        syms = [rng.randrange(sigma) for _ in range(n)]
        inputs.append(_input(f"rm-{i:03d}-s{sigma}-{scheme.value}-n{n}",
                             scheme, syms, sigma))
    # memory probes: the longest text of each (sigma, scheme) class; their
    # mean peak depends less on the draw than one text's peak does
    probes = tuple(i for i, (_, _, n) in enumerate(specs) if n == MANY_N_MAX)
    return Workload("random-many", False, inputs, memory_probes=probes)


BUILDERS = {"slow-cli": _slow_cli, "random-many": _random_many}


def set_up(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's inputs from the seed and write their files."""
    wl = BUILDERS[name](random.Random(f"{name}/{seed}"))
    for inp in wl.inputs:
        inp.path = f"{workdir}/{inp.name}.sym"
        write_text_file(inp.path, inp.text)
    return wl
