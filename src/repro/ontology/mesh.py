"""MeSH-flavoured ontologies.

Adds the MeSH-specific dressing to a generated ontology — tree numbers
assigned along the hierarchy (:func:`assign_tree_numbers`) — and
hand-builds the small *real* MeSH fragment around "corneal injuries"
that the paper uses as its running example (Table 3).
"""

from __future__ import annotations

from repro.ontology.model import Concept, Ontology


def assign_tree_numbers(ontology: Ontology) -> None:
    """Assign MeSH-style tree numbers along every father → son path.

    Roots get ``C01``, ``C02``...; each son appends a zero-padded sibling
    index (``C01.045.112``).  Concepts reachable by several paths get one
    tree number per path, like real MeSH descriptors.
    """
    for concept in ontology:
        concept.tree_numbers = []
    counters: dict[str, int] = {}

    def visit(cid: str, prefix: str) -> None:
        concept = ontology.concept(cid)
        concept.tree_numbers.append(prefix)
        for son in ontology.sons(cid):
            counters[prefix] = counters.get(prefix, 0) + 1
            visit(son, f"{prefix}.{counters[prefix]:03d}")

    for root_idx, root in enumerate(ontology.roots(), start=1):
        visit(root, f"C{root_idx:02d}")


def make_eye_fragment() -> Ontology:
    """The real MeSH fragment around "corneal injuries" (paper Table 3).

    Encodes the descriptors, entry terms (synonyms), and hierarchy the
    paper cites: *corneal injuries* (added to MeSH between 2009 and 2015,
    synonyms corneal injury / corneal damage / corneal trauma, fathers
    corneal diseases and eye injuries) plus the surrounding terms that
    appear among the paper's top-10 propositions (chemical burns, corneal
    ulcer, amniotic membrane, re-epithelialization, wound).
    """
    onto = Ontology("mesh-eye-fragment")
    onto.add_concept(Concept("D005128", "eye diseases", year_added=1963))
    onto.add_concept(
        Concept("D014947", "wounds and injuries", synonyms=["wound", "injuries"],
                year_added=1963)
    )
    onto.add_concept(
        Concept("D003316", "corneal diseases", synonyms=["cornea disease"],
                year_added=1966),
        fathers=["D005128"],
    )
    onto.add_concept(
        Concept("D005131", "eye injuries", synonyms=["ocular injuries"],
                year_added=1966),
        fathers=["D005128", "D014947"],
    )
    onto.add_concept(
        Concept(
            "D065306",
            "corneal injuries",
            synonyms=["corneal injury", "corneal damage", "corneal trauma"],
            year_added=2014,
        ),
        fathers=["D003316", "D005131"],
    )
    onto.add_concept(
        Concept("D003320", "corneal ulcer", synonyms=["ulcerative keratitis"],
                year_added=1966),
        fathers=["D003316"],
    )
    onto.add_concept(
        Concept("D002057", "chemical burns", synonyms=["burns chemical"],
                year_added=1966),
        fathers=["D014947"],
    )
    onto.add_concept(
        Concept("D000650", "amniotic membrane", synonyms=["amnion"],
                year_added=1966),
    )
    onto.add_concept(
        Concept(
            "D055545",
            "re-epithelialization",
            synonyms=["wound re-epithelialization"],
            year_added=2008,
        ),
        fathers=["D014947"],
    )
    onto.add_concept(
        Concept("D006082", "eye burns", synonyms=["ocular burns"], year_added=1966),
        fathers=["D005131"],
    )
    onto.add_concept(
        Concept("D007634", "keratitis", synonyms=["corneal inflammation"],
                year_added=1966),
        fathers=["D003316"],
    )
    assign_tree_numbers(onto)
    onto.validate()
    return onto
