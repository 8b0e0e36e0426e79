#!/usr/bin/env python3
"""Benchmark of lzgram's four parsers: throughput, latency and peak memory.

Run from the repository root:

    python3 perfbench/run.py --workload slow-cli --seed 1 --seconds 30 --trace 0

One process, one thread.  Set-up generates the workload from the seed (21
times; `setup_s` is the median).  A warm-up round makes one discarded call per
parser and input.  With `--trace 0`, timed rounds follow until `--seconds` of
them have passed (at least two), then the tracemalloc pass over the
workload's memory probes, and the end-to-end metrics are printed.  Every
set-up and timed call is scaled to the reference speed of the calibration
loop in speed.py, read around it and every 50 ms during it; each parser's time
on an input is the median of its scaled calls.  With `--trace 1`, one untimed
round is followed by one round with every public entry point of the layers
wrapped in spans, and the per-layer metrics are printed.  Every round ends in
the output gate; any failed or wrong parse call, or a counter that differs
between rounds, makes the exit code 1.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--record FILE` also appends the full
record (environment, counter digest, phase times, sample counts) to FILE as
one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PARSERS = ("reference", "naive", "fast", "lasvegas")
MEMORY_PARSERS = ("naive", "fast", "lasvegas")
SETUP_REPEATS = 21
MIN_ROUNDS = 2
TIMERS = ("process-local timers only (time.perf_counter, tracemalloc); "
          "no system-wide tracing or profiling")

END_TO_END = (
    [("setup_s", "s")]
    + [(f"{p}_ksym_per_s", "ksym/s") for p in PARSERS]
    + [("lasvegas_p50_ms", "ms"), ("lasvegas_p90_ms", "ms")]
    + [(f"{p}_peak_mib", "MiB") for p in MEMORY_PARSERS]
)


@dataclasses.dataclass
class Outcome:
    wall: float
    scale: float = 1.0  # mean speed ratio of the readings around and during the call
    parsing: object = None  # Parsing from the library, None through the CLI
    data: bytes | None = None  # the parsing file `lzgram parse` wrote
    counters: dict | None = None
    error: str | None = None
    traced: float = 0.0  # time inside outermost spans, traced round only

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


class Bench:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.wl = None
        self.expected: dict[int, bytes] = {}
        self.counters: dict[tuple, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[tuple, list] = {}  # (parser, input) -> timed Outcomes
        self.timed_rounds = 0
        self.readings: list[float] = []  # every calibration reading, in seconds
        self._reading = None  # the last call's after-reading, reused as the next one's before
        self.read_during = False  # read the speed during calls too (timed rounds only)

    def _meter(self, before=None, during=False) -> speed.Meter:
        return speed.Meter(workloads.CALIBRATION_LOOPS[self.workload], before, during)

    # -- set-up --------------------------------------------------------------

    def set_up(self, repeats: int) -> tuple[float, float]:
        """Median set-up time, scaled and on the wall clock."""
        scaled, walls = [], []
        for _ in range(repeats):
            self.wl = None
            gc.collect()
            with self._meter(during=True) as m:
                self.wl = workloads.set_up(self.workload, self.seed, self.workdir)
            self.readings += m.fresh
            walls.append(m.wall)
            scaled.append(m.wall * m.scale)
        return statistics.median(scaled), statistics.median(walls)

    # -- one parse call --------------------------------------------------------

    def _out_path(self, parser: str, i: int) -> str:
        return f"{self.workdir}/{self.wl.inputs[i].name}.{parser}.lzp"

    def call(self, parser: str, i: int, tracer=None) -> Outcome:
        inp = self.wl.inputs[i]
        if self.wl.via_cli:
            argv = ["parse", "--scheme", inp.scheme.value, "--algo", parser,
                    "--in", inp.path, "--out", self._out_path(parser, i),
                    "--seed", str(self.seed), "--stats"]
            stdout = io.StringIO()
        root_before = tracer.root_time if tracer else 0.0
        gc.collect()
        error = res = None
        with self._meter(self._reading, self.read_during) as m:
            try:
                if self.wl.via_cli:
                    with contextlib.redirect_stdout(stdout):
                        rc = cli.main(argv)
                else:
                    res = LIBRARY[parser](inp, self.seed)
            except Exception:
                traceback.print_exc()
                error = "raised " + traceback.format_exc(limit=1).splitlines()[-1]
        self._reading = m.after
        self.readings += m.fresh
        out = Outcome(m.wall, m.scale, error=error)
        if error:
            return out
        if tracer:
            out.traced = tracer.root_time - root_before
        if self.wl.via_cli:
            if rc != 0:
                out.error = f"lzgram parse exited {rc}"
                return out
            out.data = Path(self._out_path(parser, i)).read_bytes()
            out.counters = {k: int(v) for k, v in
                            (line.split("=", 1) for line in stdout.getvalue().split())}
        else:
            out.parsing, stats = res
            out.counters = {"n": len(inp.text), "z": len(out.parsing), **stats}
        return out

    def _counter_problem(self, parser: str, i: int, counters: dict) -> str | None:
        first = self.counters.setdefault((parser, i), counters)
        if first != counters:
            return f"counters {counters} differ from the first call's {first}"
        return None

    # -- rounds and the output gate -------------------------------------------

    def round(self, r: int, where: str, tracer=None, repeat_s: float = 0.0) -> list:
        """One call per parser and input, repeated until the parser's calls
        on the input add up to repeat_s.  Each input's calls are gated before
        the next input starts (so garbage collection before a call scans only
        one input's outputs).  Parser order rotates with r and the input
        index.  Returns the outcomes without their parsings."""
        outcomes = []
        for i, inp in enumerate(self.wl.inputs):
            k = (r + i) % len(PARSERS)
            calls = {}
            self._reading = None
            for parser in PARSERS[k:] + PARSERS[:k]:
                if tracer:
                    tracer.call = parser
                outs = [self.call(parser, i, tracer)]
                while sum(o.wall for o in outs) < repeat_s and outs[-1].error is None:
                    outs.append(self.call(parser, i, tracer))
                calls[parser] = outs
            if tracer:
                tracer.call = "gate"
            self.gate(i, calls, where)
            for parser, outs in calls.items():
                for out in outs:
                    out.parsing = out.data = None
                    outcomes.append((parser, i, out))
        if tracer:
            tracer.call = None
        return outcomes

    def _verify_reference(self, i: int, out: Outcome) -> bytes | None:
        """Write (library) and `lzgram verify` the reference parsing."""
        inp = self.wl.inputs[i]
        path = self._out_path("reference", i)
        if out.parsing is not None:
            formats.write_parsing_file(path, out.parsing)
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["verify", "--scheme", inp.scheme.value,
                           "--in", inp.path, "--parsing", path])
        if rc != 0:
            return None
        return Path(path).read_bytes()

    def gate(self, i: int, calls: dict, where: str) -> None:
        """The last reference parsing must pass `lzgram verify`, and every
        parsing must be byte-equal to the first verified reference parsing."""
        inp = self.wl.inputs[i]
        last_ref = calls["reference"][-1]
        verified = None if last_ref.error else self._verify_reference(i, last_ref)
        if verified is not None:
            self.expected.setdefault(i, verified)
        for parser in PARSERS:
            for out in calls[parser]:
                self.attempted += 1
                problem = out.error
                if problem is None:
                    problem = self._counter_problem(parser, i, out.counters)
                if problem is None and out is last_ref and verified is None:
                    problem = "lzgram verify rejected the reference parsing"
                if problem is None:
                    data = out.data if out.parsing is None else formats.dump_parsing(out.parsing)
                    if data != self.expected.get(i):
                        problem = "parsing differs from the verified reference"
                if problem:
                    self.failures.append(f"{where}: {parser} on {inp.name}: {problem}")

    # -- the passes ------------------------------------------------------------

    def timed(self, seconds: float) -> None:
        """Timed rounds until `seconds` of them have passed, at least
        MIN_ROUNDS."""
        spent = 0.0
        r = 1
        self.read_during = True
        while r <= MIN_ROUNDS or spent < seconds:
            t0 = perf_counter()
            for parser, i, out in self.round(r, f"timed round {r}",
                                             repeat_s=self.wl.repeat_s):
                self.samples.setdefault((parser, i), []).append(out)
            spent += perf_counter() - t0
            self.timed_rounds = r
            r += 1
        self.read_during = False

    def median_time(self, parser: str, i: int, scaled: bool = True) -> float:
        return statistics.median(o.scaled if scaled else o.wall
                                 for o in self.samples[(parser, i)])

    def memory(self, parser: str) -> float:
        """Mean tracemalloc peak, in MiB, of one library parse of each memory
        probe."""
        return statistics.mean(self._peak(parser, i) for i in self.wl.memory_probes)

    def _peak(self, parser: str, i: int) -> float:
        inp = self.wl.inputs[i]
        gc.collect()
        tracemalloc.start()
        try:
            parsing, stats = LIBRARY[parser](inp, self.seed)
        except Exception:
            traceback.print_exc()
            parsing = None
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        self.attempted += 1
        if parsing is None:
            problem = "raised"
        else:
            problem = self._counter_problem(
                parser, i, {"n": len(inp.text), "z": len(parsing), **stats})
            if problem is None and formats.dump_parsing(parsing) != self.expected.get(i):
                problem = "parsing differs from the verified reference"
        if problem:
            self.failures.append(f"memory pass: {parser} on {inp.name}: {problem}")
        return peak

    def counters_digest(self) -> str:
        rows = sorted((p, self.wl.inputs[i].name, sorted(c.items()))
                      for (p, i), c in self.counters.items())
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# -- library calls, one per parser: (parsing, stats as a flat dict) -----------

def _reference(inp, seed):
    return model.parse_reference(inp.text, inp.scheme), {}


def _naive(inp, seed):
    res = naive.parse_naive(inp.text, inp.scheme)
    return res.parsing, dataclasses.asdict(res.stats)


def _fast(inp, seed):
    res = fast.parse_fast(inp.text, inp.scheme, seed=seed)
    return res.parsing, dataclasses.asdict(res.stats)


def _lasvegas(inp, seed):
    syms = inp.text.symbols
    res = fast.parse_las_vegas_detailed(lambda: syms, inp.scheme, seed=seed)
    return res.parsing, {"attempts": res.attempts, **dataclasses.asdict(res.stats)}


LIBRARY = {"reference": _reference, "naive": _naive, "fast": _fast,
           "lasvegas": _lasvegas}


# -- metrics ---------------------------------------------------------------

def end_to_end(bench: Bench, setup_s: float, peaks: dict, scaled: bool = True) -> dict:
    values = {"setup_s": setup_s}
    inputs = range(len(bench.wl.inputs))
    for p in PARSERS:
        t = sum(bench.median_time(p, i, scaled) for i in inputs)
        values[f"{p}_ksym_per_s"] = bench.wl.symbols / t / 1e3
    latencies_ms = [bench.median_time("lasvegas", i, scaled) * 1e3 for i in inputs]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    values["lasvegas_p50_ms"] = deciles[4]
    values["lasvegas_p90_ms"] = deciles[8]
    for p in MEMORY_PARSERS:
        values[f"{p}_peak_mib"] = peaks[p]
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _sum(bench: Bench, parser: str, key: str) -> int:
    # a parser that failed on an input has no counters there; the gate has
    # already counted the failure
    return sum(bench.counters.get((parser, i), {}).get(key, 0)
               for i in range(len(bench.wl.inputs)))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(bench: Bench, tracer, untraced: list, traced: list) -> dict:
    out = {}
    for name, (count, _, self_time) in tracer.totals().items():
        out[f"{name}.self_s"] = (self_time, "s")
        out[f"{name}.calls"] = (count, "count")

    def fs(key):
        return _sum(bench, "fast", key)

    zlog = bound = 0.0
    for i, inp in enumerate(bench.wl.inputs):
        z = bench.counters.get(("fast", i), {}).get("z", 0)
        zlog += z * math.log2(len(inp.text))
        bound += 2 * z + inp.sigma + 1
    ops = fs("symbols_read") + fs("grammar_ops") + fs("trie_ops") + fs("ma_ops")
    attempts = _sum(bench, "lasvegas", "attempts")
    edges = _sum(bench, "naive", "edges_traversed")
    out.update({
        "avlgrammar.ops": (fs("grammar_ops"), "count"),
        "avlgrammar.nodes": (fs("grammar_nodes"), "count"),
        "avlgrammar.nodes_per_zlog2n": (_ratio(fs("grammar_nodes"), zlog), "ratio"),
        "fast.symbols_read": (fs("symbols_read"), "count"),
        "fast.blocks_read": (fs("blocks_read"), "count"),
        "fast.searches": (fs("searches"), "count"),
        "fast.parts": (fs("parts"), "count"),
        "fast.parts_per_search": (_ratio(fs("parts"), fs("searches")), "ratio"),
        "fast.ops_per_sym": (_ratio(ops, fs("symbols_read")), "ratio"),
        "ztrie.ops": (fs("trie_ops"), "count"),
        "ztrie.ma_ops": (fs("ma_ops"), "count"),
        "ztrie.nodes": (fs("trie_nodes"), "count"),
        "ztrie.nodes_per_bound": (_ratio(fs("trie_nodes"), bound), "ratio"),
        "lasvegas.attempts": (attempts, "count"),
        "lasvegas.verified_per_attempt": (_ratio(len(bench.wl.inputs), attempts), "ratio"),
        "naive.symbol_comparisons": (_sum(bench, "naive", "symbol_comparisons"), "count"),
        "naive.edges_traversed": (edges, "count"),
        "naive.nodes_created": (_sum(bench, "naive", "nodes_created"), "count"),
        "naive.edges_per_sym": (_ratio(edges, bench.wl.symbols), "ratio"),
    })
    wall_untraced = sum(o.wall for _, _, o in untraced)
    wall_traced = sum(o.wall for _, _, o in traced)
    out["trace.overhead"] = (wall_traced / wall_untraced, "ratio")
    out["trace.unattributed_s"] = (sum(o.wall - o.traced for _, _, o in traced), "s")
    return out


# -- environment -------------------------------------------------------------

def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _commit(),
        "timers": TIMERS,
    }


# -- entry point -------------------------------------------------------------

def run(args, workdir: str) -> tuple[dict, dict, Bench]:
    bench = Bench(args.workload, args.seed, workdir)
    phases = {}
    clock = perf_counter()

    def phase(name):
        nonlocal clock
        now = perf_counter()
        phases[name] = now - clock
        clock = now

    setup_s, setup_wall = bench.set_up(SETUP_REPEATS if args.trace == 0 else 1)
    phase("set-up")
    wl = bench.wl
    print(f"workload {wl.name}: {len(wl.inputs)} inputs, {wl.symbols} symbols, "
          f"{'lzgram parse via cli.main' if wl.via_cli else 'library API'}; "
          f"memory probes {', '.join(wl.inputs[i].name for i in wl.memory_probes)}")
    print(f"why: {workloads.WHY[wl.name]}")
    bench.round(0, "warm-up round")
    phase("warm-up")
    extra = {}
    if args.trace == 0:
        bench.timed(args.seconds)
        phase("timed rounds")
        peaks = {parser: bench.memory(parser) for parser in MEMORY_PARSERS}
        phase("memory pass")
        metrics = end_to_end(bench, setup_s, peaks)
        wall = end_to_end(bench, setup_wall, peaks, scaled=False)
        extra = {"timed_rounds": bench.timed_rounds,
                 "timed_calls": {p: sum(len(bench.samples[(p, i)])
                                        for i in range(len(wl.inputs)))
                                 for p in PARSERS},
                 "lasvegas_latency_samples": len(wl.inputs),
                 "wall_clock_metrics": {name: value for name, (value, unit) in wall.items()
                                        if unit != "MiB"}}
    else:
        untraced = bench.round(1, "untraced round")
        phase("untraced")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = bench.round(2, "traced round", tracer)
        finally:
            tracer.restore()
        phase("traced")
        for name in tracer.missing:
            print(f"trace: entry point {name} is missing; its span reads zero")
        metrics = per_layer(bench, tracer, untraced, traced)
        extra = {"missing_entry_points": tracer.missing,
                 "self_s_by_call": tracer.self_by_call()}
        for call, spans in extra["self_s_by_call"].items():
            print(f"self time in {call} calls: " +
                  ", ".join(f"{name} {t:.3f} s" for name, t in spans.items()))
    extra["speed"] = {"ref_s": speed.REF_S, "readings": len(bench.readings),
                      "median_reading_s": statistics.median(bench.readings),
                      "min_reading_s": min(bench.readings)}
    extra["error_rate"] = len(bench.failures) / bench.attempted
    extra["phase_s"] = phases
    extra["counters_sha256_16"] = bench.counters_digest()
    return metrics, extra, bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("slow-cli", "random-many"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full record to this file as one JSON line")
    args = ap.parse_args(argv)

    if not (SRC / "lzgram" / "__init__.py").is_file():
        print(f"perfbench: no lzgram sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    os.environ.pop("LZGRAM_MODULUS", None)
    global cli, fast, formats, model, naive, speed, tracing, workloads
    from lzgram import cli, fast, formats, model, naive
    import speed
    import tracing
    import workloads

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment(args)
    print("environment: " + json.dumps(env))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        metrics, extra, bench = run(args, workdir)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in bench.failures:
        print("FAILED " + line)
    print(f"error_rate = {extra['error_rate']:.6g} ({len(bench.failures)} of "
          f"{bench.attempted} parse calls); counters sha256/16 {extra['counters_sha256_16']}")
    if args.trace == 0:
        print(f"timed rounds {extra['timed_rounds']}; timed calls {extra['timed_calls']}; "
              f"lasvegas latency samples {extra['lasvegas_latency_samples']}")
        print("wall clock, unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in extra["wall_clock_metrics"].items()))
    sp = extra["speed"]
    print(f"machine speed: calibration loop median {sp['median_reading_s'] * 1e3:.4f} ms, "
          f"fastest {sp['min_reading_s'] * 1e3:.4f} ms, reference {sp['ref_s'] * 1e3:.4f} ms "
          f"({sp['readings']} readings)")
    print("phase seconds: " + ", ".join(f"{k} {v:.1f}" for k, v in extra["phase_s"].items()))
    correct = not bench.failures
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": len(bench.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"environment": env, **result, **extra}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
