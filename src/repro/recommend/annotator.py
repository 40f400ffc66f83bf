"""The annotator: match input text or an indexed corpus to one ontology.

Two input shapes, one output shape:

* **Text** — a token sequence walked once through the registration's
  :class:`~repro.recommend.trie.LabelTrie` (O(tokens x longest label),
  independent of the ontology's label count).
* **Corpus** — a :class:`~repro.corpus.index.CorpusIndex` (in memory
  or mmap) queried per label through its postings
  (:meth:`~repro.corpus.index.CorpusIndex.phrase_occurrences`), so
  annotating a registered corpus never re-scans documents.

Both produce an :class:`AnnotationResult` with identical semantics: at
any single start position the longest matching label wins, overlapping
matches from different starts all count, and the covered-position set
is exact (not an occurrence-count approximation), so set-recommendation
coverage unions are honest about overlap between ontologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.corpus.index import CorpusIndex
from repro.recommend.registry import RegisteredOntology
from repro.text.tokenizer import tokenize_lower


@dataclass(frozen=True)
class LabelMatch:
    """One matched label, aggregated over its occurrences."""

    label: str
    n_tokens: int
    occurrences: int
    preferred: bool
    concept_ids: tuple[str, ...]


@dataclass(frozen=True)
class AnnotationResult:
    """Everything the criterion scorers need about one (ontology, input).

    ``covered`` holds exact ``(document ordinal, token position)``
    pairs (ordinal 0 for plain text), so coverage — including the union
    coverage of ontology sets — is computed on positions, never on
    occurrence counts that double-count overlaps.
    """

    ontology: str
    n_tokens: int
    matches: tuple[LabelMatch, ...]
    covered: frozenset[tuple[int, int]]

    @property
    def n_matches(self) -> int:
        """Total matched occurrences across labels."""
        return sum(match.occurrences for match in self.matches)

    def concept_ids(self) -> tuple[str, ...]:
        """Distinct matched concept ids, sorted (deterministic)."""
        out: set[str] = set()
        for match in self.matches:
            out.update(match.concept_ids)
        return tuple(sorted(out))

    def covered_fraction(self) -> float:
        """Fraction of input tokens inside at least one match."""
        if not self.n_tokens:
            return 0.0
        return len(self.covered) / self.n_tokens


class Annotator:
    """Annotate inputs against one :class:`RegisteredOntology`."""

    def __init__(self, registered: RegisteredOntology) -> None:
        self.registered = registered

    def annotate_text(self, text: str) -> AnnotationResult:
        """Annotate raw text (tokenised with the project tokenizer)."""
        return self.annotate_tokens(tokenize_lower(text))

    def annotate_tokens(self, tokens: Sequence[str]) -> AnnotationResult:
        """Annotate an already-tokenised (lower-cased) token sequence."""
        found = self.registered.trie.longest_matches(tokens)
        occurrences: dict[str, list[tuple[int, int]]] = {}
        for start, _span, label in found:
            occurrences.setdefault(label, []).append((0, start))
        return self._result(len(tokens), occurrences)

    def annotate_index(self, index: CorpusIndex) -> AnnotationResult:
        """Annotate an indexed corpus through its postings.

        Queries the index once per registered label; at each start
        position the longest matching label wins, matching the trie
        path's semantics exactly.
        """
        best: dict[tuple[int, int], tuple[int, str]] = {}
        for label, info in self.registered.labels.items():
            for occurrence in index.phrase_occurrences(label):
                incumbent = best.get(occurrence)
                if incumbent is None or info.n_tokens > incumbent[0]:
                    best[occurrence] = (info.n_tokens, label)
        occurrences: dict[str, list[tuple[int, int]]] = {}
        for (ordinal, start), (_, label) in sorted(best.items()):
            occurrences.setdefault(label, []).append((ordinal, start))
        return self._result(index.n_tokens(), occurrences)

    def _result(
        self,
        n_tokens: int,
        occurrences: dict[str, list[tuple[int, int]]],
    ) -> AnnotationResult:
        labels = self.registered.labels
        matches = tuple(
            LabelMatch(
                label=label,
                n_tokens=labels[label].n_tokens,
                occurrences=len(starts),
                preferred=labels[label].preferred,
                concept_ids=labels[label].concept_ids,
            )
            for label, starts in sorted(occurrences.items())
        )
        covered = frozenset(
            (ordinal, start + offset)
            for label, starts in occurrences.items()
            for ordinal, start in starts
            for offset in range(labels[label].n_tokens)
        )
        return AnnotationResult(
            ontology=self.registered.name,
            n_tokens=n_tokens,
            matches=matches,
            covered=covered,
        )
