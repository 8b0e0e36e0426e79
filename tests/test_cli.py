"""Command-line conformance: exit codes, formats, determinism, env override."""

from pathlib import Path

import pytest

from lzgram import CSV_HEADER, Scheme
from lzgram.bench import PARSERS
from lzgram.cli import main
from lzgram.formats import load_parsing, write_text_file

from support import EX1_TEXT, register_parsing

ALGOS = ("reference", "naive", "fast", "lasvegas")

STEP_STATS = ["symbol_comparisons", "edges_traversed", "nodes_created"]
FAST_STATS = ["symbols_read", "blocks_read", "searches", "parts", "grammar_ops",
              "trie_ops", "ma_ops", "trie_nodes", "grammar_nodes"]


def write_ex1(tmp_path):
    path = tmp_path / "ex1.sym"
    write_text_file(str(path), EX1_TEXT, format="sym")
    return str(path)


def test_pipeline_gen_parse_verify(tmp_path):
    text = str(tmp_path / "t.sym")
    parsing = str(tmp_path / "t.lzd")
    assert main(["gen", "--family", "lzd-approx", "--k", "8",
                 "--out", text]) == 0
    assert main(["parse", "--scheme", "lzd", "--algo", "fast",
                 "--in", text, "--out", parsing]) == 0
    assert main(["verify", "--scheme", "lzd", "--in", text,
                 "--parsing", parsing]) == 0
    assert main(["verify", "--scheme", "lzd", "--in", text,
                 "--parsing", parsing, "--strict"]) == 0
    register_parsing("cli-pipeline", load_parsing(Path(parsing).read_bytes()))


def test_gen_rejects_bad_k(tmp_path, capsys):
    out = str(tmp_path / "x.sym")
    assert main(["gen", "--family", "lzd-slow", "--k", "6",
                 "--out", out]) == 2
    assert "k must be" in capsys.readouterr().err


def test_parse_missing_file(tmp_path):
    assert main(["parse", "--scheme", "lzd", "--algo", "reference",
                 "--in", str(tmp_path / "nope.sym")]) == 1


def test_parse_empty_input(tmp_path):
    empty = tmp_path / "empty.sym"
    empty.write_bytes(b"")
    assert main(["parse", "--scheme", "lzmw", "--algo", "reference",
                 "--in", str(empty)]) == 2


def test_all_algos_agree_on_example(tmp_path, capsys):
    text = write_ex1(tmp_path)
    outputs = []
    for algo in ALGOS:
        out = tmp_path / f"{algo}.parsing"
        assert main(["parse", "--scheme", "lzmw", "--algo", algo,
                     "--in", text, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    parsing = load_parsing(outputs[0])
    assert parsing.scheme is Scheme.LZMW and len(parsing.phrases) == 9
    register_parsing("cli-ex1", parsing)
    capsys.readouterr()


def test_parse_stats_output(tmp_path, capsys):
    text = write_ex1(tmp_path)
    assert main(["parse", "--scheme", "lzd", "--algo", "fast",
                 "--in", text, "--stats"]) == 0
    out = capsys.readouterr().out
    keys = dict(line.split("=") for line in out.split() if "=" in line)
    assert keys["n"] == "13" and keys["z"] == "5"
    assert "symbols_read" in keys and keys["symbols_read"] == "13"
    assert main(["parse", "--scheme", "lzd", "--algo", "naive",
                 "--in", text, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "symbol_comparisons=" in out and "edges_traversed=" in out


@pytest.mark.parametrize("algo,counters", [
    ("reference", []),
    ("naive", STEP_STATS),
    ("fast", FAST_STATS),
    ("lasvegas", ["attempts"] + FAST_STATS),
])
def test_parse_stats_keys_pinned(tmp_path, capsys, algo, counters):
    text = write_ex1(tmp_path)
    for scheme in ("lzd", "lzmw"):
        assert main(["parse", "--scheme", scheme, "--algo", algo,
                     "--in", text, "--stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in lines] == ["n", "z"] + counters
        assert lines[0] == "n=13"


def test_verify_detects_mismatch(tmp_path, capsys):
    text = write_ex1(tmp_path)
    bad = tmp_path / "bad.parsing"
    # header-consistent parsing that stops short of the text
    bad.write_bytes(b"LZD 2 13\nL:0 L:1\nL:1 L:0\n")
    assert main(["verify", "--scheme", "lzd", "--in", text,
                 "--parsing", str(bad)]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_verify_rejects_wrong_source_length(tmp_path, capsys):
    text = write_ex1(tmp_path)
    bad = tmp_path / "bad.parsing"
    # the worked example's greedy parsing under a wrong header length
    bad.write_bytes(b"LZD 5 999\nL:0 L:1\nL:1 L:0\nP:1 P:1\nL:0 P:1\nL:0 L:2\n")
    for strict in ([], ["--strict"]):
        assert main(["verify", "--scheme", "lzd", "--in", text,
                     "--parsing", str(bad)] + strict) == 1
        assert "FAILED" in capsys.readouterr().err


def test_verify_non_canonical_parsing_exits_2(tmp_path, capsys):
    # the worked example's greedy parsing with one number not written in
    # canonical form: it spells the same parsing, but is not a parsing file
    text = write_ex1(tmp_path)
    good = b"LZD 5 13\nL:0 L:1\nL:1 L:0\nP:1 P:1\nL:0 P:1\nL:0 L:2\n"
    path = tmp_path / "ex1.parsing"
    for old, new in ((b"L:0 L:1", b"L:00 L:1"), (b"P:1 P:1", b"P:+1 P:1"),
                     (b"L:2", b"L:0_2")):
        path.write_bytes(good.replace(old, new))
        for strict in ([], ["--strict"]):
            assert main(["verify", "--scheme", "lzd", "--in", text,
                         "--parsing", str(path)] + strict) == 2
            assert "bad token" in capsys.readouterr().err
    path.write_bytes(good)
    assert main(["verify", "--scheme", "lzd", "--in", text,
                 "--parsing", str(path), "--strict"]) == 0


def test_verify_non_canonical_header_exits_2(tmp_path, capsys):
    text = write_ex1(tmp_path)
    good = b"LZD 5 13\nL:0 L:1\nL:1 L:0\nP:1 P:1\nL:0 P:1\nL:0 L:2\n"
    path = tmp_path / "ex1.parsing"
    for header in (b"LZD +5 1_3", b"LZD 05 13", b"LZD 5 +13"):
        path.write_bytes(good.replace(b"LZD 5 13", header))
        for strict in ([], ["--strict"]):
            assert main(["verify", "--scheme", "lzd", "--in", text,
                         "--parsing", str(path)] + strict) == 2
            assert "bad header" in capsys.readouterr().err


def test_non_canonical_text_exits_2(tmp_path, capsys):
    # a text file number not written in canonical form is a malformed file
    good = tmp_path / "good.parsing"
    good.write_bytes(b"LZD 1 2\nL:1 L:2\n")
    path = tmp_path / "t.sym"
    for data in (b"#sigma 1_0\n1 2\n", b"#sigma 04\n1 2\n",
                 b"#sigma 4\n1 02\n"):
        path.write_bytes(data)
        assert main(["parse", "--scheme", "lzd", "--algo", "fast",
                     "--in", str(path)]) == 2
        assert "bad integer token" in capsys.readouterr().err
        assert main(["verify", "--scheme", "lzd", "--in", str(path),
                     "--parsing", str(good)]) == 2
        assert "bad integer token" in capsys.readouterr().err
    path.write_bytes(b"#sigma 4\n1 2\n")
    assert main(["verify", "--scheme", "lzd", "--in", str(path),
                 "--parsing", str(good), "--strict"]) == 0


def test_gen_raw_over_256_symbols_exits_2(tmp_path, capsys):
    out = tmp_path / "x.raw"
    assert main(["gen", "--family", "lzd-slow", "--k", "16", "--out", str(out),
                 "--format", "raw"]) == 2
    assert capsys.readouterr().err.startswith("lzgram:")
    assert not out.exists()


def test_verify_scheme_mismatch(tmp_path, capsys):
    text = write_ex1(tmp_path)
    parsing = str(tmp_path / "p.lzmw"); capsys.readouterr()
    assert main(["parse", "--scheme", "lzmw", "--algo", "reference",
                 "--in", text, "--out", parsing]) == 0
    assert main(["verify", "--scheme", "lzd", "--in", text,
                 "--parsing", parsing]) == 2


def test_bench_and_fit(tmp_path, capsys):
    csv = str(tmp_path / "bench.csv")
    assert main(["bench", "--family", "lzd-slow", "--algo", "naive",
                 "--kmin", "8", "--kmax", "32", "--csv", csv]) == 0
    lines = Path(csv).read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 4
    capsys.readouterr()
    assert main(["fit", "--csv", csv, "--y", "edges"]) == 0
    out = capsys.readouterr().out
    slope = float(out.split("slope=")[1].split()[0])
    assert 1.15 <= slope <= 1.35


def test_fit_too_few_rows(tmp_path, capsys):
    csv = tmp_path / "short.csv"
    assert main(["bench", "--family", "lzmw-approx", "--algo", "reference",
                 "--kmin", "4", "--kmax", "8", "--csv", str(csv)]) == 0
    assert main(["fit", "--csv", str(csv), "--y", "n"]) == 2
    capsys.readouterr()


def test_fit_missing_csv(tmp_path):
    assert main(["fit", "--csv", str(tmp_path / "no.csv"), "--y", "n"]) == 1


def write_fit_csv(path, rows):
    """A bench CSV of (n, z) rows; the other columns are constant."""
    body = [f"lzd-slow,lzd,naive,{k},{n},{z},1,1,1,0"
            for k, (n, z) in enumerate(rows)]
    path.write_text("\n".join([CSV_HEADER] + body) + "\n")
    return str(path)


def test_fit_undecodable_csv_is_malformed_input(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    write_fit_csv(csv, [(10, 3), (20, 5), (40, 9)])
    csv.write_bytes(csv.read_bytes() + b"\xff\n")
    assert main(["fit", "--csv", str(csv), "--y", "z"]) == 2
    assert "malformed CSV" in capsys.readouterr().err


def test_fit_nan_value_is_malformed_input(tmp_path, capsys):
    csv = write_fit_csv(tmp_path / "nan.csv", [(10, 3), (20, "nan"), (40, 9)])
    assert main(["fit", "--csv", csv, "--y", "z"]) == 2
    assert "slope" not in capsys.readouterr().out


def test_fit_infinite_value_is_malformed_input(tmp_path, capsys):
    csv = write_fit_csv(tmp_path / "inf.csv", [(10, 3), ("inf", 5), (40, 9)])
    assert main(["fit", "--csv", csv, "--y", "z"]) == 2
    assert "slope" not in capsys.readouterr().out


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.sym"
    b = tmp_path / "b.sym"
    for out in (a, b):
        assert main(["gen", "--family", "lzmw-approx", "--k", "4",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    body = [ln for ln in a.read_text().splitlines() if not ln.startswith("#")]
    assert body[0].startswith("1 0 1 2")


def test_parse_deterministic_with_seed(tmp_path):
    text = str(tmp_path / "t.sym")
    assert main(["gen", "--family", "lzmw-slow", "--k", "8",
                 "--out", text]) == 0
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["parse", "--scheme", "lzmw", "--algo", "lasvegas",
                     "--in", text, "--out", str(out), "--seed", "11"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_modulus_env_override(tmp_path, monkeypatch, capsys):
    text = write_ex1(tmp_path)
    monkeypatch.setenv("LZGRAM_MODULUS", "251")
    assert main(["parse", "--scheme", "lzd", "--algo", "lasvegas",
                 "--in", text]) == 0
    for bad in ("abc", "2", "-5", "1000", "1000000000000000000"):
        monkeypatch.setenv("LZGRAM_MODULUS", bad)
        assert main(["parse", "--scheme", "lzd", "--algo", "lasvegas",
                     "--in", text]) == 2
    capsys.readouterr()


def test_lasvegas_exhaustion_exits_1(tmp_path, monkeypatch, capsys):
    # with p=3 no hash base separates the example's strings, so every
    # attempt fails verification
    text = write_ex1(tmp_path)
    monkeypatch.setenv("LZGRAM_MODULUS", "3")
    assert main(["parse", "--scheme", "lzd", "--algo", "lasvegas",
                 "--in", text]) == 1
    assert capsys.readouterr().err.startswith("lzgram: no verified parsing")
    assert main(["bench", "--family", "lzd-approx", "--algo", "lasvegas",
                 "--kmin", "4", "--kmax", "4",
                 "--csv", str(tmp_path / "b.csv")]) == 1
    assert capsys.readouterr().err.startswith("lzgram: no verified parsing")


def test_unknown_arguments_exit_2(capsys):
    assert main(["parse", "--scheme", "lzd"]) == 2  # missing required
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


GOOD_EX1_PARSING = b"LZD 5 13\nL:0 L:1\nL:1 L:0\nP:1 P:1\nL:0 P:1\nL:0 L:2\n"
BENCH = ["bench", "--family", "lzd-slow", "--algo", "naive"]


@pytest.mark.parametrize("argv,code,err", [
    (BENCH + ["--kmin", "16", "--kmax", "8", "--csv", "{tmp}/b.csv"],
     2, "kmin must not exceed kmax"),
    (BENCH + ["--kmin", "6", "--kmax", "8", "--csv", "{tmp}/b.csv"],
     2, "k must be"),
    (["gen", "--family", "lzd-slow", "--k", "8", "--out", "{tmp}/no/t.sym"],
     1, "{tmp}/no/t.sym"),
    (["parse", "--scheme", "lzd", "--algo", "reference", "--in", "{ex1}",
      "--out", "{tmp}/no/p.lzd"], 1, "{tmp}/no/p.lzd"),
    (BENCH + ["--kmin", "8", "--kmax", "8", "--csv", "{tmp}/no/b.csv"],
     1, "{tmp}/no/b.csv"),
    (["parse", "--scheme", "lzd", "--algo", "reference", "--in", "{tmp}"],
     1, "{tmp}"),
    (["verify", "--scheme", "lzd", "--in", "{ex1}",
      "--parsing", "{tmp}/none.lzd"], 1, "{tmp}/none.lzd"),
    (["verify", "--scheme", "lzd", "--in", "{tmp}/none.sym",
      "--parsing", "{tmp}/ex1.lzd"], 1, "{tmp}/none.sym"),
    (["fit", "--csv", "{tmp}/header.csv", "--y", "z"],
     2, "unexpected CSV header"),
    (["fit", "--csv", "{tmp}/ok.csv", "--y", "nosuch"],
     2, "no such column 'nosuch'"),
    (["fit", "--csv", "{tmp}/empty.csv", "--y", "z"], 2, "empty CSV"),
    (["fit", "--csv", "{tmp}/row.csv", "--y", "z"], 2, "bad CSV row '8,10,3'"),
])
def test_failure_exit_codes(tmp_path, capsys, argv, code, err):
    # each failure names its cause, and I/O failures the file they hit
    ex1 = write_ex1(tmp_path)
    (tmp_path / "ex1.lzd").write_bytes(GOOD_EX1_PARSING)
    (tmp_path / "header.csv").write_text("k,n,z\n8,10,3\n16,20,5\n32,40,9\n")
    write_fit_csv(tmp_path / "ok.csv", [(10, 3), (20, 5), (40, 9)])
    (tmp_path / "empty.csv").write_bytes(b"")
    (tmp_path / "row.csv").write_text(CSV_HEADER + "\n8,10,3\n")
    fill = {"tmp": str(tmp_path), "ex1": ex1}
    assert main([a.format(**fill) for a in argv]) == code
    stderr = capsys.readouterr().err
    assert stderr.startswith("lzgram: ") and err.format(**fill) in stderr
    assert not (tmp_path / "no").exists()


def test_faults_are_not_exit_codes(tmp_path, monkeypatch):
    # an exception outside the two exit-code classes is a fault: it keeps
    # its traceback instead of becoming a usage or runtime exit code
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setitem(PARSERS, "reference", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["parse", "--scheme", "lzd", "--algo", "reference",
              "--in", write_ex1(tmp_path)])
