"""Continuous enrichment: documents arrive, deltas come back.

`streaming_enrichment.py` showed that the *index* absorbs new documents
in O(new tokens).  This example closes the loop on the *pipeline*:
:class:`~repro.workflow.streaming.StreamingEnricher` keeps the baseline
report, and each call to ``add_documents`` runs a **delta
re-enrichment** — only terms whose postings actually changed are
re-featurised; every other term keeps its windows, hence its Step II
cache key, and is served warm, as the diff's own cache counters prove.

Each delta emits a :class:`~repro.workflow.streaming.ReportDiff` (terms
added / dropped / re-scored, with fingerprint provenance) that composes
with the prior report: ``diff.apply(base)`` reconstructs exactly what a
from-scratch run over the grown corpus would report.

The same loop runs as a daemon: ``repro serve --watch name=DIR`` (or
``POST /scenarios/<name>/documents``) feeds the stream, and
``repro watch`` tails the diffs.

Run:  python examples/continuous_enrichment.py
"""

from repro.corpus.document import Document
from repro.scenarios import make_enrichment_scenario
from repro.workflow import StreamingEnricher


def print_delta(label: str, diff) -> None:
    print(f"  {label}: delta over {diff.documents}")
    print(f"    changed-posting terms recomputed: {diff.n_recomputed}")
    print(f"    report rows: +{len(diff.added)} added, "
          f"{len(diff.rescored)} re-scored, {len(diff.dropped)} dropped")
    print(f"    feature cache: {diff.cache['hits']} warm hits, "
          f"{diff.cache['misses']} misses "
          f"({diff.timings['delta_total']:.3f}s)")


def main(n_concepts: int = 25, docs_per_concept: int = 5) -> None:
    scenario = make_enrichment_scenario(
        seed=9,
        n_concepts=n_concepts,
        docs_per_concept=docs_per_concept,
        polysemy_histogram={2: 3},
    )
    streamer = StreamingEnricher(
        scenario.ontology, scenario.corpus, pos_lexicon=scenario.pos_lexicon
    )

    baseline = streamer.baseline()
    print(f"Baseline over {scenario.corpus.n_documents()} documents: "
          f"{len(baseline.terms)} report rows")

    # A quiet arrival: its tokens touch no known term, so no vector is
    # recomputed — the whole delta is served from the warm cache.
    quiet = streamer.add_documents(
        [Document("arrival-quiet", [["zzqx", "wwvk", "ggph", "zzqx"]])]
    )
    print_delta("quiet", quiet)

    # A loud arrival mentions a known term, so exactly that term's
    # postings change and only its vectors are re-featurised.
    term = sorted(scenario.ontology.terms())[0]
    loud = streamer.add_documents(
        [Document("arrival-loud", [term.split() + ["zzqx"] + term.split()])]
    )
    print_delta("loud", loud)
    print(f"    perturbed term: {loud.changed_terms}")

    # Diffs compose: replaying them onto the baseline reconstructs the
    # streamer's current report, fingerprint provenance intact.
    replayed = loud.apply(quiet.apply(baseline))
    same = [r.term for r in replayed.terms] == [
        r.term for r in streamer.report.terms
    ]
    print(f"\nreplayed diffs reconstruct the live report: {same}")
    print(f"fingerprint chain: {quiet.base_fingerprint[:8]} -> "
          f"{quiet.fingerprint[:8]} -> {loud.fingerprint[:8]}")
    assert quiet.n_recomputed == 0, "a quiet arrival must recompute nothing"
    assert same, "diff replay must reconstruct the live report"


if __name__ == "__main__":
    main()
