"""A reused OntologyEnricher reports exactly what a fresh one would.

The enricher keeps state across ``enrich`` calls: the fitted detector
(bound to the corpus fingerprint it was fitted on), the Step III memo
and the Step IV context space.  These tests pin that reuse is invisible
in the report, and that the kept state does what it is kept for: a warm
re-run induces nothing, a delta re-induces only what changed, verdicts
come in one batch and a remembered index store is not reopened.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.corpus.index_store import IndexStore
from repro.errors import ValidationError
from repro.polysemy.cache_store import DiskCacheStore
from repro.polysemy.dataset import PolysemyDataset
from repro.polysemy.detector import PolysemyDetector
from repro.scenarios import make_enrichment_scenario
from repro.senses.induction import SenseInducer
from repro.workflow.config import FITTABLE_CLASSIFIERS, EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.streaming import StreamingEnricher


def comparable(report) -> dict:
    """``to_dict()`` minus the run-time measurements."""
    return {
        k: v for k, v in report.to_dict().items() if k not in ("timings", "cache")
    }


@pytest.fixture(scope="module")
def scenario():
    return make_enrichment_scenario(seed=4, n_concepts=20, docs_per_concept=4)


@pytest.fixture()
def induced(monkeypatch):
    """Record the (term, verdict, contexts) key of every induce call."""
    calls = []
    original = SenseInducer.induce

    def recording(inducer, term, contexts, *, polysemic=True, k=None):
        calls.append((term, polysemic, tuple(tuple(c) for c in contexts)))
        return original(inducer, term, contexts, polysemic=polysemic, k=k)

    monkeypatch.setattr(SenseInducer, "induce", recording)
    return calls


class TestTrainingBoundToCorpus:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grown_corpus_retrains(self, seed):
        # One enricher run again after in-place growth must not report
        # with the detector fitted on the smaller corpus.
        scenario = make_enrichment_scenario(
            seed=seed, n_concepts=60, docs_per_concept=6
        )
        documents = list(scenario.corpus)
        half = len(documents) // 2
        corpus = Corpus(documents[:half])
        enricher = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        )
        enricher.enrich(corpus)
        for document in documents[half:]:
            corpus.add(document)
        reused = enricher.enrich(corpus)
        fresh = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(Corpus(documents))
        assert comparable(reused) == comparable(fresh)

    def test_grown_corpus_featurises_only_the_mentioned_terms(self, scenario):
        # Step II keys derive from a term's own windows, so a kept
        # enricher run again after corpus.add misses only on the terms
        # the added document mentions (once for training, once for
        # detection at most), not on every term.
        documents = list(scenario.corpus)
        corpus = Corpus(documents)
        enricher = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        )
        first = enricher.enrich(corpus)
        arrival = Document("late-1", documents[9].sentences)
        universe = {row.term for row in first.terms} | set(
            scenario.ontology.terms()
        )
        records = CorpusIndex([arrival]).occurrence_records(
            universe, window=enricher.feature_extractor.window
        )
        mentioned = [term for term in universe if records.get(term)]
        assert mentioned
        corpus.add(arrival)
        grown = enricher.enrich(corpus)
        assert 0 < grown.cache["misses"] <= 2 * len(mentioned)
        assert grown.cache["hits"] > 0
        fresh = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(Corpus([*documents, arrival]))
        assert comparable(grown) == comparable(fresh)

    def test_unchanged_corpus_fits_once(self, scenario, monkeypatch):
        fits = []
        original = PolysemyDetector.fit

        def counting(detector, dataset):
            fits.append(dataset.n_samples)
            return original(detector, dataset)

        monkeypatch.setattr(PolysemyDetector, "fit", counting)
        enricher = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        )
        first = enricher.enrich(scenario.corpus)
        second = enricher.enrich(scenario.corpus)
        assert len(fits) == 1
        assert first.detector_trained and second.detector_trained
        assert comparable(first) == comparable(second)

    def test_unchanged_training_set_skips_the_refit(self, scenario, monkeypatch):
        # A padding document touches no term, so the training set is
        # byte-identical and the seeded fit would be too; an abstract
        # mentioning ontology terms changes it and refits once.
        fits = []
        original = PolysemyDetector.fit

        def counting(detector, dataset):
            fits.append(dataset.n_samples)
            return original(detector, dataset)

        monkeypatch.setattr(PolysemyDetector, "fit", counting)
        documents = list(scenario.corpus)
        streamer = StreamingEnricher(
            scenario.ontology, Corpus(documents), pos_lexicon=scenario.pos_lexicon
        )
        streamer.baseline()
        padding = Document("pad-1", [["zzqx", "wwvk", "ggph", "zzqx"]])
        mention = Document("late-1", documents[9].sentences)
        for arrival, refits in ((padding, 0), (mention, 1)):
            del fits[:]
            diff = streamer.add_documents([arrival])
            assert len(fits) == refits
            assert bool(diff.changed_terms) == bool(refits)
            documents.append(arrival)
            fresh = OntologyEnricher(
                scenario.ontology, pos_lexicon=scenario.pos_lexicon
            ).enrich(Corpus(documents))
            assert comparable(streamer.report) == comparable(fresh)

    def test_invalidate_training_is_gone(self):
        assert not hasattr(OntologyEnricher, "invalidate_training")


class TestSenseMemo:
    def test_warm_rerun_induces_nothing(self, scenario, induced):
        enricher = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        )
        first = enricher.enrich(scenario.corpus)
        assert induced, "the cold run induces every examined candidate"
        del induced[:]
        second = enricher.enrich(scenario.corpus)
        assert induced == []
        assert comparable(second) == comparable(first)

    def test_delta_induces_only_changed_pairs(self, scenario, induced):
        documents = list(scenario.corpus)
        streamer = StreamingEnricher(
            scenario.ontology,
            Corpus(documents),
            pos_lexicon=scenario.pos_lexicon,
        )
        examined = [
            row.term for row in streamer.baseline().terms if row.senses
        ]
        # Repeating a document that mentions an examined candidate
        # changes the contexts of the terms it mentions, and only theirs.
        source = next(
            doc
            for doc in documents
            if f" {examined[0]} " in f" {' '.join(doc.tokens())} "
        )
        arrival = Document("late-1", source.sentences)
        before = set(induced)
        del induced[:]
        streamer.add_documents([arrival])
        during = list(induced)
        del induced[:]
        fresh = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(Corpus([*documents, arrival]))
        after = set(induced)
        assert comparable(streamer.report) == comparable(fresh)
        assert after & before, "some pairs must be unchanged by the delta"
        assert after - before, "some pairs must change"
        assert sorted(during) == sorted(after - before)

    def test_memo_keeps_only_the_last_run(self, scenario):
        enricher = OntologyEnricher(
            scenario.ontology,
            config=EnrichmentConfig(n_candidates=8),
            pos_lexicon=scenario.pos_lexicon,
        )
        enricher.enrich(scenario.corpus)
        enricher.enrich(Corpus(list(scenario.corpus)[:40]))
        report = enricher.enrich(Corpus(list(scenario.corpus)[:40]))
        examined = [row for row in report.terms if row.senses is not None]
        assert len(enricher._senses) == len(examined)


def _tied_rows():
    """Rows the hypothesis test once drew: 13 identical rows under both
    labels, so tied distances pick the kNN neighbours, and the batched
    matmul rounded those ties otherwise than one-row matmuls did."""
    pool = np.ones((3, 23))
    pool[0, 0] = pool[1, 4] = 0.0
    picks = [0, 0, 1, 0, 0] + [2] * 13
    labels = [0] * 6 + [1, 1] + [0] * 9 + [1]
    return pool, picks, labels, np.zeros((1, 23)), 0


def _datasets():
    """A pool of rows and picks from it (the training rows), labels with
    both classes, query rows, and a noise seed.

    A small pool repeats rows under both labels, so tied distances pick
    the neighbours.  Values lie on a grid of 0.1 steps, so no two
    distinct values are adjacent floats (on which the CART split
    threshold rounds onto the upper value and its grow never ends).
    """
    grid = st.integers(-40, 40).map(lambda tenths: tenths / 10)

    def draw(n: int):
        return st.tuples(
            hnp.arrays(
                np.float64, st.tuples(st.integers(1, n), st.just(23)), elements=grid
            ),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda y: 0 < sum(y) < len(y)
            ),
            hnp.arrays(
                np.float64, st.tuples(st.integers(1, 20), st.just(23)), elements=grid
            ),
            st.integers(0, 2**16),
        )

    return st.integers(6, 30).flatmap(draw)


class TestBatchVerdicts:
    @pytest.mark.parametrize("name", FITTABLE_CLASSIFIERS)
    @settings(max_examples=20, deadline=None)
    @given(drawn=_datasets())
    @example(drawn=_tied_rows())
    def test_batch_labels_equal_per_row_labels(self, name, drawn):
        pool, picks, y, queries, noise_seed = drawn
        X = pool[np.asarray(picks) % len(pool)]
        dataset = PolysemyDataset(
            X=X,
            y=np.asarray(y),
            terms=tuple(f"t{i}" for i in range(len(y))),
            feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        )
        detector = PolysemyDetector(name, seed=0).fit(dataset)
        # Training rows, noised training rows and drawn rows.
        rng = np.random.default_rng(noise_seed)
        rows = np.vstack(
            [X, X + rng.normal(scale=0.1, size=X.shape), queries]
        )
        batch = detector.predict_features(rows)
        single = [detector.predict_features(row[None, :])[0] for row in rows]
        assert batch.tolist() == single

    def test_detect_predicts_once_per_run(self, scenario, monkeypatch):
        calls = []
        original = PolysemyDetector.predict_features

        def counting(detector, X):
            calls.append(X.shape[0])
            return original(detector, X)

        monkeypatch.setattr(PolysemyDetector, "predict_features", counting)
        report = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(scenario.corpus)
        examined = [row for row in report.terms if row.polysemic is not None]
        assert calls == [len(examined)]


class TestAdoptedIndexReuse:
    def test_second_enrich_reopens_nothing(self, scenario, tmp_path, monkeypatch):
        opened = []
        original = IndexStore.load_or_build

        def counting(store, documents):
            opened.append(store.directory)
            return original(store, documents)

        monkeypatch.setattr(IndexStore, "load_or_build", counting)
        corpus = Corpus(list(scenario.corpus))
        config = EnrichmentConfig(index_dir=str(tmp_path / "index"))
        enricher = OntologyEnricher(
            scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
        )
        first = enricher.enrich(corpus)
        assert len(opened) == 1
        second = OntologyEnricher(
            scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
        ).enrich(corpus)
        assert len(opened) == 1
        assert comparable(second) == comparable(first)

    def test_growth_still_persists_through_the_store(self, scenario, tmp_path):
        documents = list(scenario.corpus)
        corpus = Corpus(documents[:-1])
        config = EnrichmentConfig(index_dir=str(tmp_path / "index"))
        enricher = OntologyEnricher(
            scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
        )
        enricher.enrich(corpus)
        store = IndexStore(tmp_path / "index")
        assert len(store.fingerprints()) == 1
        corpus.add(documents[-1])
        grown = enricher.enrich(corpus)
        assert len(store.fingerprints()) == 2
        assert corpus.index().fingerprint() in store.fingerprints()
        fresh = OntologyEnricher(
            scenario.ontology, pos_lexicon=scenario.pos_lexicon
        ).enrich(Corpus(documents))
        assert comparable(grown) == comparable(fresh)


class TestCacheStoreArgument:
    def test_shared_handle_backs_the_cache(self, scenario, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        config = EnrichmentConfig(cache_dir=str(tmp_path / "cache"))
        enricher = OntologyEnricher(
            scenario.ontology,
            config=config,
            pos_lexicon=scenario.pos_lexicon,
            cache_store=store,
        )
        assert enricher.feature_cache.backing_store is store

    @pytest.mark.parametrize(
        "config_kwargs",
        [{}, {"cache_dir": "elsewhere"}, {"cache_max_bytes": 1 << 20}],
    )
    def test_mismatched_handle_is_rejected(
        self, scenario, tmp_path, config_kwargs
    ):
        store = DiskCacheStore(tmp_path / "cache")
        if "cache_max_bytes" in config_kwargs:
            config_kwargs["cache_dir"] = str(tmp_path / "cache")
        with pytest.raises(ValidationError, match="cache_store"):
            OntologyEnricher(
                scenario.ontology,
                config=EnrichmentConfig(**config_kwargs),
                cache_store=store,
            )
