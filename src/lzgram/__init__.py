"""LZD/LZMW grammar-compression toolkit."""

from .model import (
    Scheme,
    Text,
    make_text,
    Literal,
    Parsing,
    Grammar,
    GrammarError,
    lzd_parse_reference,
    lzmw_parse_reference,
    parse_reference,
    phrase_expansions,
    phrase_lengths,
    expand_parsing,
    verify_parsing,
    check_lzd_distinct,
    check_lzmw_pair_distinct,
    parsing_to_grammar,
    expand_grammar,
    validate_grammar,
)
from .hashing import HashConfig, MERSENNE61
from .naive import parse_naive
from .avlgrammar import AvlGrammar
from .fast import (
    BlockReader,
    parse_fast,
    parse_las_vegas_detailed,
)
from .bench import CSV_HEADER, fit_exponent, run_bench
