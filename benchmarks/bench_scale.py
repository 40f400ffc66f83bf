"""Corpus-scale benchmark: mmap reopen and numpy Louvain.

Two claims of the scale work are measured on a synthetic
tiny-document corpus and recorded in ``BENCH_scale.json``:

* reopening a persisted :class:`~repro.corpus.index_store.IndexStore`
  generation via mmap is at least an order of magnitude faster than
  rebuilding the index from the documents;
* the numpy-batched Louvain local-move sweep is at least 3x faster
  than the plain-list sweep on a dense graph, with bit-identical
  labels.

``REPRO_BENCH_SCALE=small`` (default) keeps the corpus at tens of
thousands of documents; ``paper`` runs the full 100k+ document corpus
the roadmap called for.
"""

import json
import tempfile
import time

import numpy as np

from benchmarks.conftest import (
    BENCH_OUTPUT_DIR,
    emit_bench_json,
    print_paper_vs_measured,
    run_once,
)
from repro.clustering.louvain import CSRGraph, louvain_labels
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.corpus.index_store import IndexStore

#: Synthetic corpus shape: abstracts-as-titles — many tiny documents.
VOCABULARY = 5_000
TOKENS_PER_DOC = (10, 15)


def emit_scale_section(section: str, payload: dict) -> None:
    """Merge one leg's numbers into the shared ``BENCH_scale.json``."""
    path = BENCH_OUTPUT_DIR / "BENCH_scale.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.pop("scale", None)  # re-stamped by emit_bench_json
    record[section] = payload
    emit_bench_json("scale", record)


def synthetic_documents(n_docs: int, seed: int) -> list[Document]:
    """``n_docs`` single-sentence documents of 10-15 vocabulary terms."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"term{i:05d}" for i in range(VOCABULARY)])
    lengths = rng.integers(
        TOKENS_PER_DOC[0], TOKENS_PER_DOC[1] + 1, size=n_docs
    )
    token_ids = rng.integers(0, VOCABULARY, size=int(lengths.sum()))
    documents, offset = [], 0
    for i, length in enumerate(lengths.tolist()):
        tokens = vocab[token_ids[offset:offset + length]].tolist()
        offset += length
        documents.append(Document(f"doc-{i:07d}", [tokens]))
    return documents


def run_index_measurements(n_docs: int, seed: int) -> dict:
    documents = synthetic_documents(n_docs, seed=seed)

    # What every run used to pay: a from-scratch in-memory build.
    rebuild_at = time.perf_counter()
    rebuilt = CorpusIndex(documents)
    rebuild_seconds = time.perf_counter() - rebuild_at

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as root:
        store = IndexStore(f"{root}/store")
        cold_at = time.perf_counter()
        built = store.load_or_build(documents)
        cold_seconds = time.perf_counter() - cold_at
        assert built.fingerprint() == rebuilt.fingerprint()

        # Warm path: fingerprint the documents, mmap-open the arrays.
        reopen_at = time.perf_counter()
        reopened = store.load_or_build(documents)
        reopen_seconds = time.perf_counter() - reopen_at
        assert reopened.fingerprint() == rebuilt.fingerprint()

    return {
        "n_documents": n_docs,
        "n_tokens": rebuilt.n_tokens(),
        "rebuild_seconds": rebuild_seconds,
        "build_and_persist_seconds": cold_seconds,
        "mmap_reopen_seconds": reopen_seconds,
    }


def dense_graph(n_nodes: int, avg_degree: int, seed: int) -> CSRGraph:
    """An Erdős-Rényi graph with float weights in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n_nodes, k=1)
    mask = rng.random(rows.size) < avg_degree / n_nodes
    rows, cols = rows[mask], cols[mask]
    weights = rng.random(rows.size) + 0.5
    return CSRGraph.from_edges(n_nodes, rows, cols, weights)


def run_louvain_measurements(n_nodes: int, avg_degree: int, seed: int) -> dict:
    graph = dense_graph(n_nodes, avg_degree, seed=seed)

    def sweep(vectorize: bool) -> tuple[np.ndarray, float]:
        best = float("inf")
        labels = None
        for __ in range(3):  # min-of-3: one number, less scheduler noise
            started = time.perf_counter()
            labels = louvain_labels(graph, seed=0, vectorize=vectorize)
            best = min(best, time.perf_counter() - started)
        return labels, best

    list_labels, list_seconds = sweep(vectorize=False)
    numpy_labels, numpy_seconds = sweep(vectorize=True)
    assert np.array_equal(numpy_labels, list_labels), (
        "vectorized Louvain sweep changed the labelling"
    )
    return {
        "n_nodes": n_nodes,
        "n_edges": int(graph.indices.size // 2),
        "n_communities": int(list_labels.max()) + 1,
        "list_sweep_seconds": list_seconds,
        "numpy_sweep_seconds": numpy_seconds,
    }


def test_index_scale(benchmark, scale):
    n_docs = 120_000 if scale == "paper" else 30_000
    result = run_once(
        benchmark,
        run_index_measurements,
        n_docs=n_docs,
        seed=23,
    )
    reopen_speedup = result["rebuild_seconds"] / max(
        result["mmap_reopen_seconds"], 1e-9
    )
    print_paper_vs_measured(
        f"On-disk index at scale ({result['n_documents']:,} docs, "
        f"{result['n_tokens']:,} tokens)",
        [
            ("in-memory rebuild (s)", "-",
             f"{result['rebuild_seconds']:.3f}"),
            ("build + persist (s)", "-",
             f"{result['build_and_persist_seconds']:.3f}"),
            ("mmap reopen (s)", "-", f"{result['mmap_reopen_seconds']:.3f}"),
            ("reopen-vs-rebuild speedup", "-", f"{reopen_speedup:.0f}x"),
        ],
    )
    emit_scale_section(
        "index", {**result, "reopen_vs_rebuild_speedup": reopen_speedup}
    )

    # The whole point: a reopen must not cost a rebuild.
    assert reopen_speedup >= 10.0, (
        f"mmap reopen is only {reopen_speedup:.1f}x faster than a rebuild"
    )


def test_louvain_scale(benchmark, scale):
    n_nodes = 2_000 if scale == "paper" else 1_000
    avg_degree = 1_200 if scale == "paper" else 800
    result = run_once(
        benchmark,
        run_louvain_measurements,
        n_nodes=n_nodes,
        avg_degree=avg_degree,
        seed=29,
    )
    speedup = result["list_sweep_seconds"] / max(
        result["numpy_sweep_seconds"], 1e-9
    )
    print_paper_vs_measured(
        f"Vectorized Louvain sweep ({result['n_nodes']:,} nodes, "
        f"{result['n_edges']:,} edges)",
        [
            ("plain-list sweep (s)", "-",
             f"{result['list_sweep_seconds']:.3f}"),
            ("numpy sweep (s)", "-", f"{result['numpy_sweep_seconds']:.3f}"),
            ("speedup", "-", f"{speedup:.2f}x"),
            ("communities", "-", result["n_communities"]),
        ],
    )
    emit_scale_section(
        "louvain", {**result, "numpy_vs_list_speedup": speedup}
    )

    assert speedup >= 3.0, (
        f"numpy Louvain sweep is only {speedup:.2f}x faster"
    )
