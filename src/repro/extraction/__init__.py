"""Step I — BioTex-style biomedical term extraction.

The paper's Step I runs BIOTEX, the authors' term-extraction application,
which implements the measures of their companion paper [4] (Lossio-Ventura
et al., IRJ 2016): pattern-filtered candidates ranked by C-value, TF-IDF,
Okapi BM25, the fusion measures F-TFIDF-C and F-OCapi, the flagship
LIDF-value, and the graph-based TeRGraph.  This subpackage implements all
of them over the :mod:`repro.text` substrate.
"""

from repro.extraction.candidates import ExtractionContext, harvest_candidates
from repro.extraction.evaluation import reference_terms_from_ontology
from repro.extraction.extractor import BioTexExtractor, RankedTerm
from repro.extraction.measures import MEASURE_NAMES, compute_measure

__all__ = [
    "BioTexExtractor",
    "ExtractionContext",
    "MEASURE_NAMES",
    "RankedTerm",
    "compute_measure",
    "harvest_candidates",
    "reference_terms_from_ontology",
]
