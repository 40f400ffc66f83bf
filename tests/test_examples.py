"""Smoke tests: every example must run end to end (at reduced sizes)."""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    for name in list(sys.modules):
        if name in {
            "quickstart",
            "corneal_injuries",
            "sense_induction_demo",
            "polysemy_screening",
            "term_extraction_biotex",
            "enrich_mesh_snapshot",
            "index_reuse",
            "streaming_enrichment",
            "continuous_enrichment",
            "persistent_cache",
            "cache_service",
            "large_corpus",
            "recommend",
            "reproduce_paper",
        }:
            del sys.modules[name]


def run_example(name: str, capsys, **kwargs) -> str:
    module = importlib.import_module(name)
    module.main(**kwargs)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys, n_concepts=15,
                          docs_per_concept=4)
        assert "Enrichment report" in out

    def test_corneal_injuries(self, capsys):
        out = run_example("corneal_injuries", capsys, docs_per_concept=8)
        assert "corneal injuries" in out
        assert "cosine" in out

    def test_sense_induction_demo(self, capsys):
        out = run_example("sense_induction_demo", capsys, n_entities=3,
                          contexts_per_sense=12)
        assert "true k" in out
        assert "sense 0" in out

    def test_polysemy_screening(self, capsys):
        out = run_example("polysemy_screening", capsys, n_entities=30)
        assert "F-measure" in out
        assert "confusion" in out.lower()

    def test_term_extraction_biotex(self, capsys):
        out = run_example("term_extraction_biotex", capsys, n_concepts=20,
                          docs_per_concept=3)
        assert "lidf_value" in out
        assert "Top 10 candidates" in out

    def test_enrich_mesh_snapshot(self, capsys):
        out = run_example("enrich_mesh_snapshot", capsys, n_concepts=40,
                          docs_per_concept=3)
        assert "2009 snapshot" in out
        assert "Top 10" in out

    def test_index_reuse(self, capsys):
        out = run_example("index_reuse", capsys, n_concepts=15,
                          docs_per_concept=4)
        assert "Indexed" in out
        assert "screening" in out
        assert "index=" in out

    def test_streaming_enrichment(self, capsys):
        out = run_example("streaming_enrichment", capsys, n_concepts=15,
                          docs_per_concept=3)
        assert "index patched in place: True" in out
        assert "re-enrich" in out

    def test_continuous_enrichment(self, capsys):
        out = run_example("continuous_enrichment", capsys, n_concepts=15,
                          docs_per_concept=3)
        assert "changed-posting terms recomputed: 0" in out
        assert "0 misses" in out
        assert "replayed diffs reconstruct the live report: True" in out

    def test_persistent_cache(self, capsys):
        out = run_example("persistent_cache", capsys, n_concepts=15,
                          docs_per_concept=4)
        assert "identical reports: True" in out
        assert "vectors served from disk" in out

    def test_large_corpus(self, capsys):
        out = run_example("large_corpus", capsys, n_concepts=15,
                          docs_per_concept=4)
        assert "mmap reopen" in out
        assert "1 stored generation(s)" in out
        assert "identical reports: True" in out

    def test_cache_service(self, capsys):
        out = run_example("cache_service", capsys, n_concepts=15,
                          docs_per_concept=4)
        assert "vectors served over HTTP" in out
        assert "degraded to misses" in out
        assert "served deployment round trip OK" in out

    def test_recommend(self, capsys):
        out = run_example("recommend", capsys, n_concepts=15,
                          docs_per_concept=3)
        assert "winner: full" in out
        assert "full ontology wins on detail+specialization: True" in out
        assert "flat adds no coverage: True" in out

    def test_reproduce_paper(self, capsys):
        out = run_example("reproduce_paper", capsys)
        for header in (
            "E1 — Table 1: polysemy statistics",
            "E2 — §3(i): number-of-senses prediction",
            'E3 — Table 3: positioning "corneal injuries"',
            "E4 — Table 4: linkage precision",
            "E5 — §2(II): polysemy detection F-measure",
        ):
            assert header in out
