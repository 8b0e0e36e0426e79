"""The package's public namespace, pinned: a removal or an addition shows up
as a diff of this list."""

import types

import lzgram

PUBLIC = [
    "AvlGrammar", "BlockReader", "CSV_HEADER", "Grammar", "GrammarError",
    "HashConfig", "Literal", "MERSENNE61", "Parsing", "Scheme", "Text",
    "check_lzd_distinct",
    "check_lzmw_pair_distinct", "expand_grammar", "expand_parsing",
    "fit_exponent", "lzd_parse_reference", "lzmw_parse_reference", "make_text",
    "parse_fast", "parse_las_vegas_detailed", "parse_naive",
    "parse_reference", "parsing_to_grammar", "phrase_expansions",
    "phrase_lengths", "run_bench", "validate_grammar", "verify_parsing",
]


def test_public_names_pinned():
    # submodules are attributes only once something imports them: skip them
    names = sorted(n for n, v in vars(lzgram).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
