"""Text substrate: tokenization, distances, Refine keys, phonetic codes."""

from .distance import (
    damerau_levenshtein,
    damerau_levenshtein_within,
    damerau_similarity,
    dice_coefficient,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    ngram_jaccard,
)
from .fingerprint import fingerprint, ngram_fingerprint
from .phonetic import metaphone, soundex
from .tokenize import (
    ngrams,
    normalize_name,
    split_identifier,
    strip_accents,
    words,
)

__all__ = [
    "damerau_levenshtein",
    "damerau_levenshtein_within",
    "damerau_similarity",
    "dice_coefficient",
    "fingerprint",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_similarity",
    "metaphone",
    "ngram_fingerprint",
    "ngram_jaccard",
    "ngrams",
    "normalize_name",
    "soundex",
    "split_identifier",
    "strip_accents",
    "words",
]
