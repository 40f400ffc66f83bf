"""Text-processing substrate: tokenisation, tagging, vectorisation, graphs.

This subpackage stands in for the NLP toolchain (TreeTagger, sklearn
vectorisers, BioTex's preprocessing) the paper builds on.  Everything is
pure Python + numpy/scipy, deterministic, and language-aware for
English, French, and Spanish — the three languages the paper targets.
"""

from repro.text.cooccurrence import CooccurrenceGraphBuilder
from repro.text.ngrams import extract_ngrams, extract_pattern_phrases
from repro.text.patterns import TermPatternMatcher, default_patterns
from repro.text.postag import LexiconTagger, TaggedToken
from repro.text.sentences import split_sentences
from repro.text.stemming import stem, PorterStemmer
from repro.text.stopwords import stopwords_for
from repro.text.tokenizer import tokenize, tokenize_lower
from repro.text.vectorize import BowVectorizer, TfidfVectorizer
from repro.text.vocabulary import Vocabulary

__all__ = [
    "CooccurrenceGraphBuilder",
    "extract_ngrams",
    "extract_pattern_phrases",
    "TermPatternMatcher",
    "default_patterns",
    "LexiconTagger",
    "TaggedToken",
    "split_sentences",
    "stem",
    "PorterStemmer",
    "stopwords_for",
    "tokenize",
    "tokenize_lower",
    "BowVectorizer",
    "TfidfVectorizer",
    "Vocabulary",
]
