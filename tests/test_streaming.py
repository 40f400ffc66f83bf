"""Streaming delta enrichment (`repro.workflow.streaming`).

The acceptance shape of the continuous-enrichment path: a document
delta recomputes only terms whose postings changed (everything else is
served warm from the feature cache, proven by the report's own cache
counters), and the emitted diff composes with the prior report to equal
a from-scratch run over the grown corpus.
"""

import json
from unittest import mock

import pytest

from repro.corpus.document import Document
from repro.errors import CorpusError, ValidationError
from repro.polysemy.cache_store import DiskCacheStore
from repro.scenarios import make_enrichment_scenario
from repro.text.postag import LexiconTagger
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.report import EnrichmentReport, TermReport
from repro.workflow.streaming import ReportDiff, StreamingEnricher

SCENARIO = dict(seed=0, n_concepts=20, docs_per_concept=4)


def fresh_scenario():
    return make_enrichment_scenario(**SCENARIO)


def structural(report) -> str:
    """A report's diffable shape: drop the runtime measurements."""
    document = report.to_dict()
    document.pop("timings")
    document.pop("cache")
    return json.dumps(document, sort_keys=True)


def unrelated_document(doc_id="stream-quiet"):
    """A document whose tokens match no known term (pure padding)."""
    return Document(
        doc_id, [["zzqx", "wwvk", "ggph", "zzqx"], ["wwvk", "ggph"]]
    )


def mentioning_document(term, doc_id="stream-loud"):
    """A document that perturbs ``term``'s postings several times."""
    words = term.split()
    return Document(
        doc_id,
        [words + ["zzqx"] + words, ["wwvk"] + words + ["ggph"]],
    )


@pytest.fixture(scope="module")
def story():
    """One full streaming run: baseline, a quiet delta, a loud delta.

    Module-scoped because every step re-runs the pipeline; the tests
    below each assert one property of the shared run.
    """
    scenario = fresh_scenario()
    streamer = StreamingEnricher(
        scenario.ontology, scenario.corpus, pos_lexicon=scenario.pos_lexicon
    )
    baseline = streamer.baseline()
    target_term = sorted(scenario.ontology.terms())[0]
    with mock.patch.object(
        LexiconTagger, "tag", autospec=True, side_effect=LexiconTagger.tag
    ) as tag:
        quiet = streamer.add_documents([unrelated_document()])
    loud = streamer.add_documents([mentioning_document(target_term)])
    return {
        "streamer": streamer,
        "baseline": baseline,
        "quiet": quiet,
        "quiet_tagged": [list(call.args[1]) for call in tag.call_args_list],
        "loud": loud,
        "target_term": target_term,
    }


class TestDeltaRecomputation:
    def test_quiet_delta_recomputes_nothing(self, story):
        """No known term's postings changed ⇒ every vector comes warm."""
        quiet = story["quiet"]
        assert quiet.changed_terms == []
        assert quiet.n_recomputed == 0
        assert quiet.cache["misses"] == 0
        assert quiet.cache["hits"] > 0

    def test_quiet_delta_tags_only_its_own_sentences(self, story):
        """Step I reads the arriving text once, never the corpus again.

        One ``tag`` call per sentence of the new document: a delta's
        cost follows what arrived, not the corpus it joins.
        """
        assert story["quiet_tagged"] == unrelated_document().sentences

    def test_loud_delta_recomputes_only_the_mentioned_term(self, story):
        """Exactly the perturbed term misses; the rest stay warm."""
        loud = story["loud"]
        assert story["target_term"] in loud.changed_terms
        assert loud.cache["misses"] > 0
        # At most two key families (detection + training) per changed
        # term can miss; everything untouched must hit.
        assert loud.cache["misses"] <= 2 * len(loud.changed_terms)
        assert loud.cache["hits"] > 0

    def test_fingerprint_provenance_chains(self, story):
        streamer, quiet, loud = (
            story["streamer"], story["quiet"], story["loud"],
        )
        assert quiet.fingerprint == loud.base_fingerprint
        assert loud.fingerprint == streamer.fingerprint
        assert quiet.base_fingerprint != quiet.fingerprint
        assert streamer.deltas == [quiet, loud]

    def test_delta_documents_are_recorded(self, story):
        assert story["quiet"].documents == ["stream-quiet"]
        assert story["loud"].documents == ["stream-loud"]


class TestDiffComposition:
    def test_diffs_compose_to_the_from_scratch_report(self, story):
        """diff2.apply(diff1.apply(base)) == a cold run over everything."""
        composed = story["loud"].apply(
            story["quiet"].apply(story["baseline"])
        )
        scenario = fresh_scenario()
        corpus = scenario.corpus
        corpus.add(unrelated_document())
        corpus.add(mentioning_document(story["target_term"]))
        scratch = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(corpus)
        assert structural(composed) == structural(scratch)
        assert structural(story["streamer"].report) == structural(scratch)

    def test_diff_partitions_the_new_report(self, story):
        loud = story["loud"]
        accounted = (
            {report.term for report in loud.added}
            | {report.term for report in loud.rescored}
            | set(loud.unchanged)
        )
        assert accounted == set(loud.term_order)
        for term in loud.dropped:
            assert term not in loud.term_order

    def test_diff_document_is_json_safe(self, story):
        document = story["loud"].to_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["n_recomputed"] == story["loud"].n_recomputed


class TestDeltaValidation:
    def test_empty_batch_is_rejected(self, story):
        with pytest.raises(ValidationError, match="at least one"):
            story["streamer"].add_documents([])

    def test_duplicate_ids_leave_no_trace(self, story):
        streamer = story["streamer"]
        before_docs = streamer.corpus.n_documents()
        before_fp = streamer.fingerprint
        before_deltas = len(streamer.deltas)
        with pytest.raises(CorpusError, match="in batch"):
            streamer.add_documents(
                [unrelated_document("twin"), unrelated_document("twin")]
            )
        with pytest.raises(CorpusError, match="already in corpus"):
            streamer.add_documents([unrelated_document("stream-quiet")])
        assert streamer.corpus.n_documents() == before_docs
        assert streamer.fingerprint == before_fp
        assert len(streamer.deltas) == before_deltas


class TestDiskBackedDeltas:
    def test_disk_cache_stays_warm_across_a_delta(self, tmp_path):
        """A quiet delta writes nothing; a loud one only its misses."""
        scenario = fresh_scenario()
        cache_dir = tmp_path / "cache"
        enricher = OntologyEnricher(
            scenario.ontology,
            config=EnrichmentConfig(cache_dir=str(cache_dir)),
            pos_lexicon=scenario.pos_lexicon,
        )
        streamer = StreamingEnricher(
            scenario.ontology, scenario.corpus, enricher=enricher
        )
        streamer.baseline()

        def layout():
            info = DiskCacheStore(cache_dir).describe()
            return info["entries"], info["n_generations"]

        entries, generations = layout()
        quiet = streamer.add_documents([unrelated_document()])
        assert quiet.cache["misses"] == 0
        assert quiet.cache["hits"] > 0
        assert layout() == (entries, generations)
        target = sorted(scenario.ontology.terms())[0]
        loud = streamer.add_documents([mentioning_document(target)])
        assert loud.cache["misses"] > 0
        grown, after = layout()
        assert entries < grown <= entries + loud.cache["misses"]
        assert after == generations


class TestIndexDirDeltas:
    def test_deltas_write_no_index_generation(self, tmp_path, monkeypatch):
        """Deltas grow the store-opened index in memory: no generation
        is written and nothing goes back through the store."""
        from repro.corpus.corpus import Corpus
        from repro.corpus.index_store import IndexStore, MmapCorpusIndex

        scenario = fresh_scenario()
        documents = list(scenario.corpus)
        index_dir = tmp_path / "index"
        enricher = OntologyEnricher(
            scenario.ontology,
            config=EnrichmentConfig(index_dir=str(index_dir)),
            pos_lexicon=scenario.pos_lexicon,
        )
        streamer = StreamingEnricher(
            scenario.ontology, Corpus(documents[:-3]), enricher=enricher
        )
        streamer.baseline()
        opened = streamer.corpus.index()
        assert isinstance(opened, MmapCorpusIndex)
        generations = IndexStore(index_dir).fingerprints()
        assert len(generations) == 1

        def refuse(store, documents):
            raise AssertionError("a delta went back to the index store")

        monkeypatch.setattr(IndexStore, "load_or_build", refuse)
        for document in documents[-3:]:
            streamer.add_documents([document])
        assert streamer.corpus.index() is opened
        assert IndexStore(index_dir).fingerprints() == generations
        fresh = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(Corpus(documents))
        assert structural(streamer.report) == structural(fresh)


class TestReportDiffUnit:
    def make_row(self, term, score=1.0, rank=1):
        return TermReport(term=term, extraction_score=score, extraction_rank=rank)

    def test_apply_reorders_and_patches(self):
        base = EnrichmentReport(
            terms=[self.make_row("alpha"), self.make_row("beta")]
        )
        diff = ReportDiff(
            base_fingerprint="fp0",
            fingerprint="fp1",
            added=[self.make_row("gamma")],
            rescored=[self.make_row("alpha", score=2.0)],
            dropped=["beta"],
            unchanged=[],
            term_order=["gamma", "alpha"],
        )
        composed = diff.apply(base)
        assert [row.term for row in composed.terms] == ["gamma", "alpha"]
        assert composed.terms[1].extraction_score == 2.0

    def test_apply_rejects_a_drop_the_base_never_had(self):
        diff = ReportDiff(
            base_fingerprint="fp0", fingerprint="fp1", dropped=["ghost"]
        )
        with pytest.raises(ValidationError, match="never had"):
            diff.apply(EnrichmentReport())

    def test_apply_rejects_the_wrong_base(self):
        diff = ReportDiff(
            base_fingerprint="fp0",
            fingerprint="fp1",
            unchanged=["alpha"],
            term_order=["alpha"],
        )
        with pytest.raises(ValidationError, match="wrong base"):
            diff.apply(EnrichmentReport())


def test_streamer_rejects_duplicate_against_empty_corpus_index():
    """The duplicate check must not require a prior baseline run."""
    scenario = fresh_scenario()
    streamer = StreamingEnricher(
        scenario.ontology, scenario.corpus, pos_lexicon=scenario.pos_lexicon
    )
    existing = scenario.corpus[0].doc_id
    with pytest.raises(CorpusError, match="already in corpus"):
        streamer.add_documents([Document(existing, [["x"]])])
