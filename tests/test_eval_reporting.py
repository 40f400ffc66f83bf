"""Tests for repro.eval.reporting (paper-vs-measured rendering)."""

import pytest

from repro.eval.experiments import (
    SenseNumberResult,
    Table3Result,
)
from repro.eval.reporting import (
    render_polysemy_detection,
    render_sense_number,
    render_table3,
    render_table4,
)
from repro.linkage.evaluation import LinkageEvaluation, TermLinkageOutcome
from repro.linkage.linker import Proposition


class TestRenderSenseNumber:
    def make_result(self, fk=0.93, ek=0.9):
        result = SenseNumberResult(n_entities=10, k_distribution={2: 9, 3: 1})
        result.accuracies = {
            ("rb", "bow", "fk"): fk,
            ("rb", "bow", "ek"): ek,
        }
        return result

    def test_headline_contains_paper_number(self):
        text = render_sense_number(self.make_result())
        assert "0.931" in text
        assert "0.930" in text

    def test_tie_flagged(self):
        text = render_sense_number(self.make_result(fk=0.9, ek=0.9))
        assert "(tied)" in text
        assert "ek, fk" in text

    def test_single_winner_not_flagged(self):
        text = render_sense_number(self.make_result())
        assert "(tied)" not in text


class TestRenderTable3:
    def test_flags_and_summary(self):
        propositions = [
            Proposition(rank=1, term="corneal injury", concept_ids=("D",),
                        cosine=0.9),
            Proposition(rank=2, term="noise term", concept_ids=("X",),
                        cosine=0.5),
        ]
        result = Table3Result(propositions=propositions,
                              gold={"corneal injury"})
        text = render_table3(result)
        assert "corneal injury" in text
        assert "paper 5, measured 1" in text


class TestRenderTable4:
    def test_rows_for_all_ks(self):
        outcome = TermLinkageOutcome(
            term="t", concept_id="C",
            propositions=[Proposition(1, "gold term", ("C",), 0.8)],
            gold={"gold term"},
        )
        evaluation = LinkageEvaluation(outcomes=[outcome])
        text = render_table4(evaluation)
        for k in (1, 2, 5, 10):
            assert f"Top {k}" in text
        assert "1.000" in text
        assert "0.333" in text  # the paper column


class TestRenderOthers:
    def test_polysemy_detection_sorted(self):
        text = render_polysemy_detection({"forest": 0.99, "svm": 0.91})
        lines = text.splitlines()
        forest_line = next(i for i, l in enumerate(lines) if "forest" in l)
        svm_line = next(i for i, l in enumerate(lines) if "svm" in l)
        assert forest_line < svm_line
        assert "0.98" in text  # paper headline
