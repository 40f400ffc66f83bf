"""Relation typing — the paper's stated future work, implemented.

"A perspective of this work is to extract the type of relations.  This
could be performed with the linguistic patterns (e.g. the verbs used
between two terms) and the associated contexts."

Given a candidate term and a proposed position, this module classifies
the *paradigmatic relation type* between them — ``synonym``,
``hyperonym`` (the position is a father), ``hyponym`` (the position is a
son), or ``related`` — from two complementary signals:

1. **lexico-syntactic patterns** between co-mentions in the corpus
   (Hearst-style: "X is a Y", "Y such as X", "X, also called Y", and the
   verbs linking the two terms);
2. **distributional evidence**: context-vector cosine (synonyms are
   near-duplicates) and context-breadth asymmetry (a hyperonym's context
   distribution is broader than its hyponym's).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

from repro.corpus.corpus import Corpus
from repro.corpus.index import CorpusIndex
from repro.errors import LinkageError
from repro.linkage.context import TermContextIndex
from repro.ontology.model import normalize_term

#: The relation types this classifier can emit.
RELATION_TYPES = ("synonym", "hyperonym", "hyponym", "related")

# Hearst-style patterns; {a} is the candidate, {b} the position.  Each
# maps to the relation of b to a ("b is a hyperonym of a", ...).
_PATTERNS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("is", "a"), "hyperonym"),
    (("is", "an"), "hyperonym"),
    (("is", "a", "type", "of"), "hyperonym"),
    (("is", "a", "kind", "of"), "hyperonym"),
    (("is", "a", "form", "of"), "hyperonym"),
    (("such", "as"), "hyponym"),
    (("including",), "hyponym"),
    (("especially",), "hyponym"),
    (("for", "example",), "hyponym"),
    (("also", "called"), "synonym"),
    (("also", "known", "as"), "synonym"),
    (("known", "as"), "synonym"),
    (("or",), "synonym"),
)


@dataclass(frozen=True)
class TypedRelation:
    """A typed link between the candidate term and one position.

    Attributes
    ----------
    candidate / position:
        The two (normalised) terms.
    relation:
        One of :data:`RELATION_TYPES` — the type of ``position``
        relative to ``candidate`` (``hyperonym`` = proposed father).
    confidence:
        Heuristic confidence in [0, 1].
    pattern_votes:
        Counts of pattern matches per relation type (evidence trail).
    cosine:
        Context cosine between the two terms.
    """

    candidate: str
    position: str
    relation: str
    confidence: float
    pattern_votes: dict[str, int]
    cosine: float


def _match_between(between: Sequence[str]) -> str | None:
    """Relation voted by the tokens strictly between two term mentions."""
    joined = tuple(between)
    for pattern, relation in _PATTERNS:
        if joined[: len(pattern)] == pattern or joined[-len(pattern) :] == pattern:
            return relation
    return None


def collect_pattern_votes(
    corpus: Corpus,
    candidate: str,
    position: str,
    *,
    max_gap: int = 6,
    index: CorpusIndex | None = None,
) -> Counter:
    """Count Hearst-style pattern matches between co-mentions.

    Locates every occurrence of both terms through the corpus's
    positional index, pairs co-mentions at most ``max_gap`` tokens apart,
    and matches the infix against the pattern inventory.  Direction
    matters: "A is a B" votes hyperonym(B), while "B is a A" (candidate
    second) votes the inverse, hyponym(B).
    """
    a = tuple(normalize_term(candidate).split())
    b = tuple(normalize_term(position).split())
    votes: Counter = Counter()
    inverse = {"hyperonym": "hyponym", "hyponym": "hyperonym", "synonym": "synonym"}
    if not a or not b:
        return votes
    index = index if index is not None else corpus.index()
    occurrences_a: dict[int, list[int]] = {}
    for ordinal, start in index.phrase_occurrences(a):
        occurrences_a.setdefault(ordinal, []).append(start)
    occurrences_b: dict[int, list[int]] = {}
    for ordinal, start in index.phrase_occurrences(b):
        occurrences_b.setdefault(ordinal, []).append(start)
    for ordinal, positions_a in occurrences_a.items():
        positions_b = occurrences_b.get(ordinal)
        if positions_b is None:
            continue
        tokens = index.document_tokens(ordinal)
        for i in positions_a:
            for j in positions_b:
                if j > i and j - (i + len(a)) <= max_gap:
                    relation = _match_between(tokens[i + len(a) : j])
                    if relation:
                        votes[relation] += 1
                elif i > j and i - (j + len(b)) <= max_gap:
                    relation = _match_between(tokens[j + len(b) : i])
                    if relation:
                        votes[inverse[relation]] += 1
    return votes


class RelationTyper:
    """Classify the relation type between a candidate and its positions.

    Parameters
    ----------
    corpus:
        The context source.
    synonym_cosine:
        Cosine above which, absent pattern evidence, the pair is typed
        ``synonym`` (near-duplicate contexts).
    breadth_margin:
        Relative context-count asymmetry required to call the direction
        of a hyperonym/hyponym pair distributionally.
    corpus_index:
        Optional prebuilt :class:`~repro.corpus.index.CorpusIndex`
        shared by context retrieval and pattern voting (defaults to the
        corpus's cached index).
    """

    def __init__(
        self,
        corpus: Corpus,
        *,
        synonym_cosine: float = 0.8,
        breadth_margin: float = 1.5,
        window: int = 10,
        corpus_index: CorpusIndex | None = None,
    ) -> None:
        if not 0.0 < synonym_cosine <= 1.0:
            raise LinkageError("synonym_cosine must be in (0, 1]")
        if breadth_margin < 1.0:
            raise LinkageError("breadth_margin must be >= 1")
        self.corpus = corpus
        self.synonym_cosine = synonym_cosine
        self.breadth_margin = breadth_margin
        self.window = window
        self._corpus_index = corpus_index

    def type_relation(
        self,
        candidate: str,
        position: str,
        *,
        index: TermContextIndex | None = None,
    ) -> TypedRelation:
        """Type the relation of ``position`` relative to ``candidate``.

        Pattern votes win when present; otherwise distributional evidence
        decides: very high cosine ⇒ synonym; a clearly broader position
        context ⇒ hyperonym; clearly narrower ⇒ hyponym; else related.
        """
        candidate = normalize_term(candidate)
        position = normalize_term(position)
        if index is None:
            index = TermContextIndex(
                self.corpus, window=self.window, index=self._corpus_index
            )
            index.build([candidate, position])
        cosine = index.cosine(candidate, position)
        votes = collect_pattern_votes(
            self.corpus, candidate, position, index=self._corpus_index
        )

        if votes:
            relation, count = votes.most_common(1)[0]
            total = sum(votes.values())
            confidence = 0.5 + 0.5 * count / total
        elif cosine >= self.synonym_cosine:
            relation, confidence = "synonym", min(1.0, cosine)
        else:
            n_candidate = max(index.n_contexts(candidate), 1)
            n_position = max(index.n_contexts(position), 1)
            if n_position / n_candidate >= self.breadth_margin:
                relation, confidence = "hyperonym", 0.5
            elif n_candidate / n_position >= self.breadth_margin:
                relation, confidence = "hyponym", 0.5
            else:
                relation, confidence = "related", 0.4
        return TypedRelation(
            candidate=candidate,
            position=position,
            relation=relation,
            confidence=float(confidence),
            pattern_votes=dict(votes),
            cosine=float(cosine),
        )

    def type_propositions(
        self, candidate: str, positions: Sequence[str]
    ) -> list[TypedRelation]:
        """Type every position of a proposition list with a shared index."""
        candidate = normalize_term(candidate)
        terms = [candidate] + [normalize_term(p) for p in positions]
        index = TermContextIndex(self.corpus, window=self.window)
        index.build(terms)
        return [
            self.type_relation(candidate, position, index=index)
            for position in positions
        ]
