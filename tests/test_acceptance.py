"""Acceptance suite: eight contract criteria, one reported line each.

Each test prints a single `ACCEPTANCE <n> <what>: PASS|FAIL` line on the
real terminal (bypassing capture) and then asserts.  Tolerances and frozen
constants were calibrated against the reference parser before being pinned
here; they are not tuned to the implementations under test.
"""

import math
import random
import time

from lzgram import (
    Scheme,
    make_text,
    parse_fast,
    parse_las_vegas_detailed,
    parse_naive,
    parse_reference,
)
from lzgram.adversarial import (
    FAMILIES,
    alpha_sequence,
    beta_block,
    beta_sequence,
    binary_reduce,
    gen_lzd_slow,
    lzd_slow_layout,
    lzmw_slow_layout,
    small_grammar_lzd,
    small_grammar_lzmw,
)
from lzgram.bench import fit_exponent, run_bench
from lzgram.model import (
    check_lzd_distinct,
    check_lzmw_pair_distinct,
    expand_grammar,
    phrase_expansions,
)

from support import (
    CountingSource,
    EX1_LZD,
    EX1_LZMW,
    EX1_TEXT,
    PARSING_LOG,
    random_text,
    register_parsing,
)

# attempts of every full-width-modulus Las-Vegas run in this module;
# criterion 7 asserts none of them retried
LV_DEFAULT_ATTEMPTS: list = []


def _report(capsys, num: int, ok: bool, what: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {what}: {'PASS' if ok else 'FAIL'}")


def _bits(binary: str) -> list:
    return [int(ch) for ch in binary]


def test_criterion_1_worked_example(capsys):
    """All four parsers reproduce the worked example exactly, in under 1 s."""
    t0 = time.perf_counter()
    ok = True
    for scheme, want in ((Scheme.LZD, EX1_LZD), (Scheme.LZMW, EX1_LZMW)):
        got = {
            "reference": parse_reference(EX1_TEXT, scheme),
            "naive": parse_naive(EX1_TEXT, scheme).parsing,
            "fast": parse_fast(EX1_TEXT, scheme).parsing,
        }
        lv = parse_las_vegas_detailed(lambda: EX1_TEXT.symbols, scheme)
        LV_DEFAULT_ATTEMPTS.append(lv.attempts)
        got["lasvegas"] = lv.parsing
        for origin, parsing in got.items():
            register_parsing(f"c1-{origin}", parsing)
            ok = ok and parsing == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(capsys, 1, ok,
            f"worked example, four parsers, both schemes ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_parser_agreement(capsys):
    """Naive and verified parsers agree with the reference on a large
    random corpus and on every adversarial family member."""
    rng = random.Random(20260817)
    mismatches = []
    texts = 0
    for i in range(1000):
        sigma = rng.choice((2, 4, 16, 256))
        if i % 50 == 0:
            n = rng.randrange(5000, 10001)  # force large-n coverage
        else:
            n = max(1, round(math.exp(rng.uniform(0.0, math.log(10000.0)))))
        text = random_text(rng, n, sigma)
        scheme = Scheme.LZD if i % 2 == 0 else Scheme.LZMW
        ref = parse_reference(text, scheme)
        nv = parse_naive(text, scheme).parsing
        lv = parse_las_vegas_detailed(lambda: text.symbols, scheme, seed=i)
        LV_DEFAULT_ATTEMPTS.append(lv.attempts)
        register_parsing("c2-naive", nv)
        register_parsing("c2-lv", lv.parsing)
        if nv != ref:
            mismatches.append(("naive", i, n, sigma))
        if lv.parsing != ref:
            mismatches.append(("lasvegas", i, n, sigma))
        texts += 1
    members = 0
    for fam, ks in (("lzd-approx", (4, 8, 16)), ("lzmw-approx", (4, 8, 16)),
                    ("lzd-slow", (8, 16)), ("lzmw-slow", (8, 16))):
        gen, scheme, _ = FAMILIES[fam]
        for k in ks:
            text = gen(k)
            ref = parse_reference(text, scheme)
            nv = parse_naive(text, scheme).parsing
            lv = parse_las_vegas_detailed(lambda: text.symbols, scheme, seed=k)
            LV_DEFAULT_ATTEMPTS.append(lv.attempts)
            register_parsing(f"c2-{fam}-naive", nv)
            register_parsing(f"c2-{fam}-lv", lv.parsing)
            if nv != ref or lv.parsing != ref:
                mismatches.append((fam, k))
            members += 1
    ok = not mismatches
    _report(capsys, 2, ok,
            f"parser agreement on {texts} random texts + {members} family members")
    assert ok, mismatches[:5]


FROZEN_Z = {
    "lzd-approx": {4: 24, 8: 56, 16: 144, 32: 416, 64: 1344},
    "lzmw-approx": {4: 46, 8: 101, 16: 256, 32: 755, 64: 2518},
}
WITNESS_SIZES = {
    "lzd-approx": {4: 89, 8: 163, 16: 311},
    "lzmw-approx": {4: 103, 8: 195, 16: 377},
}


def test_criterion_3_approximation_gap(capsys):
    """Phrase counts of the hard families grow faster per size doubling
    than the linear-size witness grammars, and the witnesses are exact.

    Thresholds: every doubling ratio >= 2.15 and strictly increasing,
    reaching >= 3.2 by k=64, while witness size at most 2.5x per doubling.
    """
    failures = []
    for fam in ("lzd-approx", "lzmw-approx"):
        gen, scheme, _ = FAMILIES[fam]
        z = {}
        for k in (4, 8, 16, 32, 64):
            res = parse_naive(gen(k), scheme)
            register_parsing(f"c3-{fam}-{k}", res.parsing)
            z[k] = len(res.parsing.phrases)
        if z != FROZEN_Z[fam]:
            failures.append(f"{fam} phrase counts {z}")
        ratios = [z[2 * k] / z[k] for k in (4, 8, 16, 32)]
        if min(ratios) < 2.15:
            failures.append(f"{fam} doubling ratio below 2.15: {ratios}")
        if not all(a < b for a, b in zip(ratios, ratios[1:])):
            failures.append(f"{fam} ratios not strictly increasing: {ratios}")
        if ratios[-1] < 3.2:
            failures.append(f"{fam} final ratio {ratios[-1]:.3f} < 3.2")
        build = small_grammar_lzd if fam == "lzd-approx" else small_grammar_lzmw
        sizes = {}
        for k in (4, 8, 16):
            g = build(k)
            if expand_grammar(g) != gen(k).symbols:
                failures.append(f"{fam} witness k={k} expands wrongly")
            sizes[k] = g.size()
        if sizes != WITNESS_SIZES[fam]:
            failures.append(f"{fam} witness sizes {sizes}")
        for k in (4, 8):
            if sizes[2 * k] / sizes[k] > 2.5:
                failures.append(f"{fam} witness growth {sizes[2*k]/sizes[k]:.2f}")
    ok = not failures
    _report(capsys, 3, ok,
            "phrase growth outpaces linear-size witness grammars")
    assert ok, "; ".join(failures)


def test_criterion_4_naive_superlinear_growth(capsys):
    """Naive-parser work on the slow families grows superlinearly with a
    fitted edge exponent in [1.15, 1.35], concentrated in the z-blocks."""
    failures = []
    slopes = {}
    for fam in ("lzd-slow", "lzmw-slow"):
        records = run_bench(fam, "naive", 8, 32)
        fit = fit_exponent([(r.n, r.edges_traversed) for r in records])
        slopes[fam] = fit.slope
        if not 1.15 <= fit.slope <= 1.35:
            failures.append(
                f"{fam} edge exponent {fit.slope:.4f} outside [1.15, 1.35]")
    k = 8
    for fam, layout_fn in (("lzd-slow", lzd_slow_layout),
                           ("lzmw-slow", lzmw_slow_layout)):
        gen, scheme, _ = FAMILIES[fam]
        res = parse_naive(gen(k), scheme, collect_trace=True)
        register_parsing(f"c4-{fam}", res.parsing)
        zblocks = [(lab, s, e) for lab, s, e in layout_fn(k)
                   if lab.startswith("z")]
        per = {lab: 0 for lab, _, _ in zblocks}
        outside = 0
        for t in res.trace:
            if t.search_cmp - t.part_len < 2 * k * k:
                continue
            for lab, s, e in zblocks:
                if s <= t.pos < e:
                    per[lab] += 1
                    break
            else:
                outside += 1
        if outside:
            failures.append(f"{fam} {outside} hot parts outside z-blocks")
        if min(per.values()) < 5:
            failures.append(f"{fam} z-block hot-part counts {per}")
    ok = not failures
    _report(capsys, 4, ok,
            f"naive edge exponents lzd {slopes['lzd-slow']:.4f}, "
            f"lzmw {slopes['lzmw-slow']:.4f} vs [1.15, 1.35]")
    assert ok, "; ".join(failures)


def test_criterion_5_structural_reductions(capsys):
    """Structural parse properties: forced head runs, block splitting,
    and exactness of the binary alphabet reduction."""
    failures = []

    # (a) the parse of a1..am . w starts with the am-run, any binary tail
    rng = random.Random(4242)
    for trial in range(100):
        m = rng.randrange(1, 41)
        alphas = alpha_sequence(m)
        w = [rng.randrange(2) for _ in range(rng.randrange(1, 65))]
        syms = [b for a in alphas for b in _bits(a)] + w
        parsing = parse_reference(make_text(syms, 2), Scheme.LZD)
        register_parsing("c5-head-run", parsing)
        exps = phrase_expansions(parsing)
        if [list(e) for e in exps[:m]] != [_bits(a) for a in alphas]:
            failures.append(f"head run broken at trial {trial} (m={m})")
            break

    # (b) each block b(beta_i) splits into phrases of length |beta_i|
    for m in range(1, 21):
        blocks = [beta_block(i) for i in range(1, m + 1)]
        syms = [b for blk in blocks for b in _bits(blk)]
        parsing = parse_reference(make_text(syms, 2), Scheme.LZMW)
        register_parsing("c5-block-split", parsing)
        exps = phrase_expansions(parsing)
        betas = beta_sequence(m)
        pos, idx, good = 0, 0, True
        for i, blk in enumerate(blocks):
            end = pos + len(blk)
            while good and pos < end:
                if idx >= len(exps) or len(exps[idx]) != len(betas[i]):
                    good = False
                pos += len(exps[idx]) if idx < len(exps) else end
                idx += 1
            good = good and pos == end
        if not good:
            failures.append(f"block split broken at m={m}")
            break

    # (c) parse(t . phi(s)) = parse(t) ++ phi(parse(s)), exactly
    rng = random.Random(5050)
    for trial in range(200):
        sigma = rng.randrange(2, 7)
        n = rng.randrange(1, 200)
        text = random_text(rng, n, sigma)
        for scheme in (Scheme.LZD, Scheme.LZMW):
            inner = parse_reference(text, scheme)
            reduced, phi = binary_reduce(text, scheme)
            whole = parse_reference(reduced, scheme)
            register_parsing("c5-reduction", whole)
            head = parse_reference(make_text(phi.prefix, 2), scheme)
            hz = len(head.phrases)
            wexp = phrase_expansions(whole)
            if (list(wexp[:hz]) != list(phrase_expansions(head))
                    or list(wexp[hz:]) != [phi.image(e)
                                           for e in phrase_expansions(inner)]):
                failures.append(f"reduction broken at trial {trial}")
                break
    ok = not failures
    _report(capsys, 5, ok,
            "head runs, block splitting, binary-reduction decomposition")
    assert ok, "; ".join(failures)


def test_criterion_6_fast_engine_bounds(capsys):
    """The single-pass engine reads each symbol once, keeps its structures
    within the phrase-count budget, and its work grows subquadratically
    (fitted ops exponent <= 1.1) where the naive parser exceeds 1.15."""
    failures = []
    fast_pts = []
    naive_pts = []
    for k in (8, 16, 32):
        text = gen_lzd_slow(k)
        n = len(text.symbols)
        src = CountingSource(text.symbols)
        res = parse_fast(src, Scheme.LZD)
        register_parsing(f"c6-fast-{k}", res.parsing)
        st = res.stats
        z = len(res.parsing.phrases)
        sigma = len(set(text.symbols))
        if st.symbols_read != n or src.count != n:
            failures.append(f"k={k} read {st.symbols_read}/{src.count} of {n}")
        if st.trie_nodes > 2 * z + sigma + 1:
            failures.append(f"k={k} trie nodes {st.trie_nodes} > {2*z+sigma+1}")
        if st.grammar_nodes > 6 * z * math.log2(n):
            failures.append(f"k={k} grammar nodes {st.grammar_nodes}")
        fast_pts.append((n, st.ops))
        naive_pts.append((n, parse_naive(text, Scheme.LZD).stats.edges_traversed))
    fast_fit = fit_exponent(fast_pts)
    naive_fit = fit_exponent(naive_pts)
    if fast_fit.slope > 1.1:
        failures.append(f"fast ops exponent {fast_fit.slope:.4f} > 1.1")
    if naive_fit.slope < 1.15:
        failures.append(f"naive baseline exponent {naive_fit.slope:.4f} < 1.15")
    ok = not failures
    _report(capsys, 6, ok,
            f"single pass, node budgets, ops exponent {fast_fit.slope:.4f} "
            f"vs naive {naive_fit.slope:.4f}")
    assert ok, "; ".join(failures)


def test_criterion_7_las_vegas_verification(capsys):
    """With a tiny modulus the verified parser retries until correct; with
    the full-width modulus it never needs a second attempt."""
    failures = []
    rng = random.Random(7007)
    inputs = []
    retried = 0
    for trial in range(100):
        n = rng.randrange(20, 150)
        sigma = rng.choice([2, 3, 4])
        syms = tuple(rng.randrange(sigma) for _ in range(n))
        scheme = Scheme.LZD if trial % 2 == 0 else Scheme.LZMW
        inputs.append((syms, scheme))
        res = parse_las_vegas_detailed(lambda: syms, scheme, seed=trial,
                                       p=251, max_attempts=512)
        register_parsing("c7-small-p", res.parsing)
        if res.parsing != parse_reference(make_text(syms), scheme):
            failures.append(f"small-p mismatch at trial {trial}")
        retried += res.attempts > 1
    if retried == 0:
        failures.append("small modulus never retried; collisions not exercised")
    for trial, (syms, scheme) in enumerate(inputs):
        res = parse_las_vegas_detailed(lambda: syms, scheme, seed=trial)
        LV_DEFAULT_ATTEMPTS.append(res.attempts)
        if res.parsing != parse_reference(make_text(syms), scheme):
            failures.append(f"default-p mismatch at trial {trial}")
    if any(a != 1 for a in LV_DEFAULT_ATTEMPTS):
        failures.append(
            f"full-width modulus retried: {max(LV_DEFAULT_ATTEMPTS)} attempts")
    ok = not failures
    _report(capsys, 7, ok,
            f"small modulus retried {retried}/100 then verified; full-width "
            f"modulus clean across {len(LV_DEFAULT_ATTEMPTS)} runs")
    assert ok, "; ".join(failures)


def test_criterion_8_dictionary_distinctness(capsys):
    """Every parsing produced anywhere in the suite satisfied its scheme's
    dictionary-distinctness invariant (checked at registration time), and
    fresh parses keep satisfying it."""
    fresh_bad = 0
    rng = random.Random(808)
    for _ in range(60):
        text = random_text(rng, rng.randrange(1, 700), rng.choice([2, 3, 8]))
        for scheme in (Scheme.LZD, Scheme.LZMW):
            for parsing in (parse_reference(text, scheme),
                            parse_naive(text, scheme).parsing,
                            parse_fast(text, scheme).parsing):
                good = (check_lzd_distinct(parsing)
                        if scheme is Scheme.LZD
                        else check_lzmw_pair_distinct(parsing))
                if good:
                    register_parsing("c8-fresh", parsing)
                else:
                    fresh_bad += 1
    count = len(PARSING_LOG)
    schemes = {s for _, s, _ in PARSING_LOG}
    ok = fresh_bad == 0 and count > 0 and schemes == {"lzd", "lzmw"}
    _report(capsys, 8, ok,
            f"distinctness invariant held for all {count} registered parsings")
    assert ok, f"fresh violations: {fresh_bad}, log size {count}, schemes {schemes}"
