"""Streaming delta enrichment benchmark: per-delta cost vs. a cold run.

The continuous-enrichment claim measured here and recorded in
``BENCH_streaming.json``: once a corpus has a baseline report, feeding
one new document through
:meth:`repro.workflow.streaming.StreamingEnricher.add_documents` is far
cheaper than re-running the whole pipeline cold, because only terms
whose postings changed are re-featurised (the rest come warm from the
carried-forward feature cache — the report's own counters prove it).
"""

import time

from benchmarks.conftest import emit_bench_json, print_paper_vs_measured, run_once
from repro.corpus.document import Document
from repro.scenarios import make_enrichment_scenario
from repro.workflow.pipeline import OntologyEnricher
from repro.workflow.streaming import StreamingEnricher


def delta_document(position: int) -> Document:
    """A padding document: perturbs no known term's postings."""
    return Document(
        f"stream-{position}",
        [["zzqx", "wwvk", "ggph", "zzqx"], ["wwvk", "ggph", "zzqx"]],
    )


def run_measurements(n_concepts: int, docs_per_concept: int, seed: int,
                     n_deltas: int):
    scenario = make_enrichment_scenario(
        seed=seed,
        n_concepts=n_concepts,
        docs_per_concept=docs_per_concept,
        polysemy_histogram={2: 3},
    )
    streamer = StreamingEnricher(
        scenario.ontology, scenario.corpus, pos_lexicon=scenario.pos_lexicon
    )

    cold_at = time.perf_counter()
    streamer.baseline()
    cold_seconds = time.perf_counter() - cold_at

    delta_seconds = []
    warm_hits = 0
    recomputed = 0
    for position in range(n_deltas):
        diff = streamer.add_documents([delta_document(position)])
        delta_seconds.append(diff.timings["delta_total"])
        warm_hits += diff.cache.get("hits", 0)
        recomputed += diff.n_recomputed
    assert warm_hits > 0, "deltas never hit the warm cache"
    assert recomputed == 0, "padding documents must not perturb any term"

    # Reference: what each of those updates would cost from scratch.
    scratch = make_enrichment_scenario(
        seed=seed,
        n_concepts=n_concepts,
        docs_per_concept=docs_per_concept,
        polysemy_histogram={2: 3},
    )
    for position in range(n_deltas):
        scratch.corpus.add(delta_document(position))
    scratch_at = time.perf_counter()
    OntologyEnricher(
        scratch.ontology, pos_lexicon=scratch.pos_lexicon
    ).enrich(scratch.corpus)
    scratch_seconds = time.perf_counter() - scratch_at

    return {
        "n_documents": scenario.corpus.n_documents(),
        "n_deltas": n_deltas,
        "cold_run_seconds": cold_seconds,
        "from_scratch_seconds": scratch_seconds,
        "delta_seconds_each": delta_seconds,
        "delta_seconds_mean": sum(delta_seconds) / len(delta_seconds),
        "delta_warm_hits": warm_hits,
        "delta_terms_recomputed": recomputed,
    }


def test_delta_vs_full_rerun(benchmark, scale):
    n_concepts = 40 if scale == "paper" else 20
    result = run_once(
        benchmark,
        run_measurements,
        n_concepts=n_concepts,
        docs_per_concept=4,
        seed=3,
        n_deltas=3,
    )
    speedup = result["from_scratch_seconds"] / max(
        result["delta_seconds_mean"], 1e-9
    )
    print_paper_vs_measured(
        "Streaming delta enrichment "
        f"({result['n_documents']} docs, {result['n_deltas']} deltas)",
        [
            ("cold baseline (s)", "-", f"{result['cold_run_seconds']:.3f}"),
            ("from-scratch rerun (s)", "-",
             f"{result['from_scratch_seconds']:.3f}"),
            ("mean delta (s)", "-", f"{result['delta_seconds_mean']:.3f}"),
            ("delta-vs-rerun speedup", "-", f"{speedup:.1f}x"),
            ("warm cache hits", "-", result["delta_warm_hits"]),
            ("terms recomputed", "-", result["delta_terms_recomputed"]),
        ],
    )
    emit_bench_json(
        "streaming", {**result, "delta_vs_rerun_speedup": speedup}
    )

    # The whole point: a delta must cost well under a full re-run.
    assert speedup >= 1.5, (
        f"a delta is only {speedup:.2f}x cheaper than a from-scratch run"
    )
