"""Pattern-filtered phrase extraction.

Step I harvests multi-word candidate terms from text, keeping only the
sequences whose tag string matches a known biomedical term pattern (as
BioTex does).  :func:`extract_pattern_phrases` is that filter over one
tagged sentence; the harvest fold of :mod:`repro.extraction.candidates`
finds the same windows on arrays, and ``tests/test_harvest_oracle.py``
compares the two.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.text.postag import TaggedToken
from repro.text.patterns import TermPatternMatcher


def extract_pattern_phrases(
    tagged: Sequence[TaggedToken],
    matcher: TermPatternMatcher,
) -> list[tuple[tuple[str, ...], float]]:
    """Return (phrase, pattern weight) for tag windows matching ``matcher``.

    Phrases are lower-cased token tuples.  A window is every contiguous
    span of length ``matcher.min_length .. matcher.max_length``.
    """
    out: list[tuple[tuple[str, ...], float]] = []
    n = len(tagged)
    for length in range(matcher.min_length, matcher.max_length + 1):
        for i in range(n - length + 1):
            window = tagged[i : i + length]
            weight = matcher.weight([t.tag for t in window])
            if weight is None:
                continue
            phrase = tuple(t.text.lower() for t in window)
            out.append((phrase, weight))
    return out
