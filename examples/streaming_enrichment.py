"""Streaming enrichment: grow the corpus without rebuilding the index.

Production corpora are document streams, not snapshots: abstracts keep
arriving after the first enrichment run.  ``Corpus.add`` patches the
cached positional index in place (O(new tokens) via
:meth:`~repro.corpus.index.CorpusIndex.add_documents`) instead of
discarding it, and the index fingerprint advances exactly as a fresh
build would compute it, so the index build cost is never paid twice.
Step II cache keys derive from each term's own windows, so only the
terms the new documents mention are featurised again.

This example enriches a corpus, streams in a batch of new documents,
and re-enriches: the second run's ``index`` stage shows no rebuild, and
the report reflects the grown corpus.  The enricher sees the corpus
fingerprint move and refits its detector, so the second report equals
a fresh enricher's.

Run:  python examples/streaming_enrichment.py
"""

from repro.corpus.document import Document
from repro.scenarios import make_enrichment_scenario
from repro.workflow import EnrichmentConfig, OntologyEnricher


def print_run(label: str, report, index) -> None:
    timings = ", ".join(
        f"{stage}={seconds:.3f}s" for stage, seconds in report.timings.items()
    )
    print(f"  {label}: {index.n_documents()} documents indexed")
    print(f"    timings: {timings}")
    print(f"    examined {report.n_candidates} candidates, "
          f"{len(report.completed_terms())} completed")


def main(n_concepts: int = 25, docs_per_concept: int = 5) -> None:
    scenario = make_enrichment_scenario(
        seed=9,
        n_concepts=n_concepts,
        docs_per_concept=docs_per_concept,
        polysemy_histogram={2: 3},
    )
    corpus = scenario.corpus
    config = EnrichmentConfig(n_candidates=5, min_contexts=3)
    enricher = OntologyEnricher(
        scenario.ontology, config=config, pos_lexicon=scenario.pos_lexicon
    )

    print("First enrichment over the initial corpus:")
    first = enricher.enrich(corpus)
    index = corpus.index()
    print_run("initial", first, index)

    # A later batch of documents arrives.  Reusing another scenario seed
    # stands in for freshly fetched abstracts.
    arriving = make_enrichment_scenario(
        seed=13, n_concepts=n_concepts, docs_per_concept=1
    ).corpus
    for i, doc in enumerate(arriving):
        corpus.add(Document(f"stream-{i}", doc.sentences))

    patched = corpus.index() is index
    print(f"\nStreamed in {arriving.n_documents()} documents "
          f"(index patched in place: {patched})")

    print("\nSecond enrichment over the grown corpus:")
    second = enricher.enrich(corpus)
    print_run("re-enrich", second, corpus.index())
    if second.cache:
        print(f"    feature cache after the stream: {second.cache} "
              "(misses are the terms whose windows the stream changed)")
    assert patched, "corpus.add must extend the cached index, not drop it"


if __name__ == "__main__":
    main()
