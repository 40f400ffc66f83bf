"""Extraction evaluation: precision@k against a reference terminology.

The IRJ-2016 companion paper compares measures by the precision of their
top-k lists against UMLS: a proposed candidate counts as correct when it
is a known term.  Here the reference is the generated ontology, whose
term set is known exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ExtractionError
from repro.extraction.extractor import RankedTerm
from repro.ontology.model import Ontology, normalize_term


def reference_terms_from_ontology(ontology: Ontology) -> set[str]:
    """Every (normalised) term string of ``ontology`` as the gold set."""
    return set(ontology.terms())


def precision_curve(
    ranked: Sequence[RankedTerm],
    reference: Iterable[str],
    ks: Sequence[int] = (10, 50, 100, 200),
) -> dict[int, float]:
    """Precision@k for several cutoffs at once (each k >= 1)."""
    reference_set = {normalize_term(t) for t in reference}
    out = {}
    for k in ks:
        if k < 1:
            # ranked[:k] would slice Python's way: empty, or minus a tail.
            raise ExtractionError(f"k must be >= 1, got {k}")
        top = ranked[:k]
        hits = sum(1 for t in top if normalize_term(t.term) in reference_set)
        out[k] = hits / len(top) if top else 0.0
    return out
