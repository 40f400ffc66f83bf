"""Ontology substrate: MeSH/UMLS-like terminologies, generators, statistics.

The paper enriches MeSH and motivates its design with UMLS statistics
(Table 1).  Neither resource ships with this offline reproduction, so this
subpackage provides a faithful data model plus synthetic generators whose
polysemy profile is calibrated to the numbers the paper publishes (see
DESIGN.md §1 for the substitution argument).
"""

from repro.ontology.generator import GeneratorSpec, OntologyGenerator
from repro.ontology.io import (
    ontology_from_json,
    ontology_from_obo,
    ontology_to_json,
    ontology_to_obo,
    read_ontology_json,
    write_ontology_json,
)
from repro.ontology.mesh import assign_tree_numbers, make_eye_fragment
from repro.ontology.model import Concept, Ontology
from repro.ontology.snapshot import held_out_terms, snapshot_before
from repro.ontology.stats import PolysemyStatistics, polysemy_histogram
from repro.ontology.umls import (
    PolysemyProfile,
    SyntheticMetathesaurus,
    paper_profiles,
)

__all__ = [
    "Concept",
    "GeneratorSpec",
    "Ontology",
    "OntologyGenerator",
    "PolysemyProfile",
    "PolysemyStatistics",
    "SyntheticMetathesaurus",
    "assign_tree_numbers",
    "held_out_terms",
    "make_eye_fragment",
    "ontology_from_json",
    "ontology_from_obo",
    "ontology_to_json",
    "ontology_to_obo",
    "paper_profiles",
    "polysemy_histogram",
    "read_ontology_json",
    "snapshot_before",
    "write_ontology_json",
]
