"""Incremental index benchmark: stream cost vs. rebuild cost.

The claim of the incremental index work is measured here and recorded
in ``BENCH_incremental_index.json``: appending one document through
``add_documents`` is at least an order of magnitude cheaper than the
full rebuild ``Corpus.add`` used to force (it is O(new tokens), not
O(total tokens)), and lands on the fresh build's answers and
fingerprint.
"""

import time

from benchmarks.conftest import emit_bench_json, print_paper_vs_measured, run_once
from repro.corpus.index import CorpusIndex
from repro.scenarios import make_enrichment_scenario


def query_all(index, terms) -> list[int]:
    return [index.term_frequency(term) for term in terms]


def run_measurements(n_concepts: int, docs_per_concept: int, seed: int):
    scenario = make_enrichment_scenario(
        seed=seed,
        n_concepts=n_concepts,
        docs_per_concept=docs_per_concept,
    )
    documents = list(scenario.corpus)
    terms = scenario.ontology.terms()
    base, last = documents[:-1], documents[-1]

    # Full rebuild: what adding one document used to cost.
    rebuild_at = time.perf_counter()
    full = CorpusIndex(documents)
    rebuild_seconds = time.perf_counter() - rebuild_at

    # Incremental: index the base once, then patch in the last document.
    incremental = CorpusIndex(base)
    add_at = time.perf_counter()
    incremental.add_documents([last])
    add_seconds = time.perf_counter() - add_at
    assert incremental.fingerprint() == full.fingerprint(), \
        "incremental update must reproduce the fresh build's fingerprint"
    assert query_all(incremental, terms) == query_all(full, terms), \
        "incremental update must answer like the fresh build"

    return {
        "n_documents": len(documents),
        "n_tokens": full.n_tokens(),
        "n_terms": len(terms),
        "rebuild_seconds": rebuild_seconds,
        "add_one_doc_seconds": add_seconds,
    }


def test_incremental_vs_rebuild(benchmark, scale):
    n_concepts = 80 if scale == "paper" else 40
    result = run_once(
        benchmark,
        run_measurements,
        n_concepts=n_concepts,
        docs_per_concept=6,
        seed=17,
    )
    speedup = result["rebuild_seconds"] / max(
        result["add_one_doc_seconds"], 1e-9
    )
    print_paper_vs_measured(
        "Incremental index "
        f"({result['n_documents']} docs, {result['n_tokens']:,} tokens)",
        [
            ("full rebuild (s)", "-", f"{result['rebuild_seconds']:.4f}"),
            ("add one doc (s)", "-", f"{result['add_one_doc_seconds']:.4f}"),
            ("add-vs-rebuild speedup", "-", f"{speedup:.0f}x"),
        ],
    )
    emit_bench_json(
        "incremental_index", {**result, "add_vs_rebuild_speedup": speedup}
    )

    # The whole point: streaming a document must not cost a rebuild.
    assert speedup >= 10.0, (
        f"add_documents is only {speedup:.1f}x cheaper than a rebuild"
    )
