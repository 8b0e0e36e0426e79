"""Benchmark cells over the generator families, CSV rows, log-log fits."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from .adversarial import FAMILIES, ParameterError
from .fast import parse_fast, parse_las_vegas_detailed
from .hashing import MERSENNE61, HashConfig
from .model import Scheme, parse_reference
from .naive import parse_naive

CSV_HEADER = "family,scheme,algo,k,n,z,cmp,edges,nanos,seed"

@dataclass(frozen=True)
class BenchRecord:
    family: str
    scheme: str
    algo: str
    k: int
    n: int
    z: int
    symbol_comparisons: int  # 0 unless algo == "naive"
    edges_traversed: int     # 0 unless algo == "naive"
    wall_nanos: int          # informative only, machine-dependent
    seed: int

    def csv_row(self) -> str:
        return (f"{self.family},{self.scheme},{self.algo},{self.k},{self.n},"
                f"{self.z},{self.symbol_comparisons},{self.edges_traversed},"
                f"{self.wall_nanos},{self.seed}")


def _reference(text, scheme: Scheme, seed: int, p: int):
    return parse_reference(text, scheme), {}


def _naive(text, scheme: Scheme, seed: int, p: int):
    res = parse_naive(text, scheme)
    return res.parsing, asdict(res.stats)


def _fast(text, scheme: Scheme, seed: int, p: int):
    res = parse_fast(text, scheme, cfg=HashConfig.from_seed(seed, p))
    return res.parsing, asdict(res.stats)


def _lasvegas(text, scheme: Scheme, seed: int, p: int):
    res = parse_las_vegas_detailed(lambda: text.symbols, scheme, seed=seed, p=p)
    return res.parsing, {"attempts": res.attempts, **asdict(res.stats)}


# Algorithm name -> parse(text, scheme, seed, p) returning (parsing, counters),
# counters being a flat name -> int dict in the order `parse --stats` prints.
PARSERS = {
    "reference": _reference,
    "naive": _naive,
    "fast": _fast,
    "lasvegas": _lasvegas,
}


def run_cell(family: str, algo: str, k: int, seed: int = 0,
             scheme: Scheme | None = None, p: int = MERSENNE61) -> BenchRecord:
    gen, natural_scheme, _ = FAMILIES[family]
    if scheme is None:
        scheme = natural_scheme
    text = gen(k)
    t0 = time.perf_counter_ns()
    parsing, counters = PARSERS[algo](text, scheme, seed, p)
    nanos = time.perf_counter_ns() - t0
    return BenchRecord(family, scheme.value, algo, k, len(text), len(parsing),
                       counters.get("symbol_comparisons", 0),
                       counters.get("edges_traversed", 0), nanos, seed)


def run_bench(family: str, algo: str, kmin: int, kmax: int, seed: int = 0,
              scheme: Scheme | None = None, p: int = MERSENNE61) -> list[BenchRecord]:
    """One record per k = kmin, 2*kmin, ..., kmax."""
    if kmin > kmax:
        raise ParameterError("kmin must not exceed kmax")
    records = []
    k = kmin
    while k <= kmax:
        records.append(run_cell(family, algo, k, seed, scheme, p))
        k *= 2
    return records


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    r2: float


def fit_exponent(points) -> ExponentFit:
    """Least-squares slope of log(y) vs log(x) over >= 3 points.

    A constant y column fits slope 0 exactly (even when the constant is 0,
    where logs are undefined).
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ys = [y for _, y in pts]
    if min(ys) == max(ys):
        return ExponentFit(0.0, 1.0)
    xs = [x for x, _ in pts]
    if min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("values must be positive for a log-log fit")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("x values must vary")
    slope = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx
    ss_res = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(lx, ly))
    ss_tot = sum((y - my) ** 2 for y in ly)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope, r2)


def parse_csv(lines) -> list[dict]:
    """Rows of a bench CSV as dicts keyed by the fixed header's columns."""
    it = iter(lines)
    try:
        header = next(it).strip()
    except StopIteration:
        raise ValueError("empty CSV") from None
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    cols = header.split(",")
    out = []
    for line in it:
        line = line.strip()
        if not line:
            continue
        vals = line.split(",")
        if len(vals) != len(cols):
            raise ValueError(f"bad CSV row {line!r}")
        out.append(dict(zip(cols, vals)))
    return out


def fit_csv(lines, x_col: str, y_col: str) -> ExponentFit:
    rows = parse_csv(lines)
    try:
        pts = [(float(r[x_col]), float(r[y_col])) for r in rows]
    except KeyError as e:
        raise ValueError(f"no such column {e.args[0]!r}") from None
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise ValueError(f"non-finite value in column {x_col!r} or {y_col!r}")
    return fit_exponent(pts)
