"""Benchmark records, CSV round trip, log-log exponent fitting."""

import pytest

from lzgram import CSV_HEADER, fit_exponent, run_bench
from lzgram.adversarial import ParameterError
from lzgram.bench import fit_csv, parse_csv, run_cell


def test_run_bench_rows():
    records = run_bench("lzd-approx", "naive", 4, 16)
    assert [r.k for r in records] == [4, 8, 16]
    ns = [r.n for r in records]
    assert ns == sorted(ns) and ns[0] < ns[-1]
    for r in records:
        assert r.family == "lzd-approx"
        assert r.scheme == "lzd"
        assert r.algo == "naive"
        assert r.z >= 1
        assert r.symbol_comparisons > 0 and r.edges_traversed > 0
        assert r.wall_nanos > 0


def test_run_bench_rejects_kmin_above_kmax():
    with pytest.raises(ParameterError, match="kmin must not exceed kmax"):
        run_bench("lzd-approx", "naive", 16, 4)


def test_non_naive_counters_are_zero():
    for algo in ("reference", "fast", "lasvegas"):
        rec = run_cell("lzmw-approx", algo, 4)
        assert rec.symbol_comparisons == 0
        assert rec.edges_traversed == 0
        assert rec.z >= 1


def test_csv_row_shape():
    rec = run_cell("lzd-approx", "naive", 4, seed=3)
    row = rec.csv_row()
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "lzd-approx"
    assert fields[1] == "lzd"
    assert fields[2] == "naive"
    assert fields[3] == "4"
    assert fields[-1] == "3"
    parsed = parse_csv([CSV_HEADER, row])
    assert parsed[0]["n"] == str(rec.n) and parsed[0]["z"] == str(rec.z)


def test_fit_exact_square():
    pts = [(n, n * n) for n in (10, 20, 40, 80, 160)]
    fit = fit_exponent(pts)
    assert abs(fit.slope - 2.0) < 1e-9
    assert fit.r2 > 1 - 1e-12


def test_fit_constant_column():
    assert fit_exponent([(10, 5), (20, 5), (40, 5)]).slope == 0.0
    zero = fit_exponent([(10, 0), (20, 0), (40, 0)])
    assert zero.slope == 0.0 and zero.r2 == 1.0
    # distinct ys whose logs round to one float are constant on the log scale
    flat = fit_exponent([(10, 1e15), (20, 1e15 + 1), (40, 1e15 + 2)])
    assert flat.slope == 0.0 and flat.r2 == 1.0


def test_fit_rejects_bad_points():
    with pytest.raises(ValueError):
        fit_exponent([(10, 100), (20, 400)])  # too few
    with pytest.raises(ValueError):
        fit_exponent([(10, 0), (20, 5), (40, 9)])  # mixed zero
    with pytest.raises(ValueError):
        fit_exponent([(10, 1), (10, 2), (10, 3)])  # constant x
    with pytest.raises(ValueError):
        fit_exponent([(-1, 1), (2, 2), (4, 4)])


def test_fit_csv():
    lines = [CSV_HEADER]
    for rec in run_bench("lzd-slow", "naive", 8, 32):
        lines.append(rec.csv_row())
    fit = fit_csv(lines, "n", "edges")
    assert 1.15 <= fit.slope <= 1.35
    with pytest.raises(ValueError):
        fit_csv(lines, "n", "bogus")
    with pytest.raises(ValueError):
        parse_csv(["wrong,header", "1,2"])
    assert parse_csv(lines[:2] + [" \n"] + lines[2:]) == parse_csv(lines)
    with pytest.raises(ValueError, match="bad CSV row '1,2'"):
        parse_csv([CSV_HEADER, "1,2"])
    with pytest.raises(ValueError):
        fit_csv(lines[:3], "n", "edges")  # only two data rows
