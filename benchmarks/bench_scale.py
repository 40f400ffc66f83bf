"""Corpus-scale benchmark: mmap reopen against a rebuild.

One claim of the scale work is measured on a synthetic tiny-document
corpus and recorded in ``BENCH_scale.json``: reopening a persisted
:class:`~repro.corpus.index_store.IndexStore` generation via mmap is at
least an order of magnitude faster than rebuilding the index from the
documents.

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

