"""Keyword (inverted) index."""

from repro.index.inverted import InvertedIndex, build_index
from repro.index.tokenizer import normalize_term, tokenize

__all__ = ["InvertedIndex", "build_index", "tokenize", "normalize_term"]
