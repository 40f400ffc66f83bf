"""Concurrency stress: threads + processes hammering one cache_dir.

The disk store's contract under contention: flock-serialised appends
mean no entry is ever lost or torn, every reader sees byte-identical
vectors (or a clean miss while a write is in flight), and the
observable state (entry count, disk-hit counter) moves monotonically.
"""

import threading
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.polysemy.cache_store import DiskCacheStore
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher

N_THREAD_WORKERS = 4
N_PROCESS_WORKERS = 2
TERMS_PER_WORKER = 10
RESULT_TIMEOUT = 120  # seconds; a deadlock fails the test, not the run


def expected_vector(term: str) -> np.ndarray:
    """The one true vector for ``term`` — any other bytes are corruption."""
    return np.random.default_rng(zlib.crc32(term.encode())).normal(size=23)


def term_universe() -> list[str]:
    total = (N_THREAD_WORKERS + N_PROCESS_WORKERS) * TERMS_PER_WORKER
    return [f"term {i}" for i in range(total)]


def hammer(store: DiskCacheStore, mine: list[str]) -> int:
    """Write my slice, then read the whole universe; count corruptions."""
    bad = 0
    for term in mine:
        store.put(("fp", term, "cfg"), expected_vector(term))
    for term in term_universe():
        got = store.get(("fp", term, "cfg"))
        # None is legal (that term's writer may not have run yet);
        # wrong bytes never are.
        if got is not None and got.tobytes() != expected_vector(term).tobytes():
            bad += 1
    return bad


def process_worker(cache_dir: str, start: int) -> int:
    """Pool-process entry: a private handle on the shared directory."""
    store = DiskCacheStore(cache_dir)
    mine = term_universe()[start : start + TERMS_PER_WORKER]
    return hammer(store, mine)


class TestDiskStoreUnderContention:
    def test_threads_and_processes_share_one_directory(self, tmp_path):
        universe = term_universe()
        shared = DiskCacheStore(tmp_path)  # one handle shared by threads
        observed: list[tuple[int, int]] = []
        stop = threading.Event()

        def observe():
            while not stop.is_set():
                stats = shared.stats()
                observed.append((stats["disk_hits"], len(shared)))
                stop.wait(0.002)

        observer = threading.Thread(target=observe)
        observer.start()
        try:
            with (
                ThreadPoolExecutor(N_THREAD_WORKERS) as threads,
                ProcessPoolExecutor(N_PROCESS_WORKERS) as processes,
            ):
                thread_futures = [
                    threads.submit(
                        hammer,
                        shared,
                        universe[
                            i * TERMS_PER_WORKER : (i + 1) * TERMS_PER_WORKER
                        ],
                    )
                    for i in range(N_THREAD_WORKERS)
                ]
                process_futures = [
                    processes.submit(
                        process_worker,
                        str(tmp_path),
                        (N_THREAD_WORKERS + j) * TERMS_PER_WORKER,
                    )
                    for j in range(N_PROCESS_WORKERS)
                ]
                corruptions = sum(
                    f.result(timeout=RESULT_TIMEOUT)
                    for f in thread_futures + process_futures
                )
        finally:
            stop.set()
            observer.join(timeout=RESULT_TIMEOUT)
        assert corruptions == 0

        # No lost and no duplicated entries: a fresh handle sees exactly
        # one byte-identical vector per written term.
        fresh = DiskCacheStore(tmp_path)
        assert len(fresh) == len(universe)
        for term in universe:
            got = fresh.get(("fp", term, "cfg"))
            assert got is not None, f"lost entry: {term}"
            assert got.tobytes() == expected_vector(term).tobytes()
        assert fresh.stats()["disk_hits"] == len(universe)
        # The shared handle's sizes took in the other processes' writes.
        assert len(shared) == len(universe)
        assert (
            shared.stats()["store_bytes"]
            == DiskCacheStore(tmp_path).describe()["store_bytes"]
        )

        # Monotonically consistent stats: neither the hit counter nor
        # the entry count ever moved backwards while hammering.
        for (hits_a, len_a), (hits_b, len_b) in zip(observed, observed[1:]):
            assert hits_b >= hits_a
            assert len_b >= len_a

    def test_concurrent_enrichers_on_one_cache_dir(self, tmp_path):
        """Two full pipelines sharing a store race to identical reports."""
        scenario = make_enrichment_scenario(
            seed=5, n_concepts=20, docs_per_concept=4,
            polysemy_histogram={2: 3},
        )

        def enrich_once():
            config = EnrichmentConfig(
                n_candidates=6, cache_dir=str(tmp_path)
            )
            enricher = OntologyEnricher(
                scenario.ontology, config=config,
                pos_lexicon=scenario.pos_lexicon,
            )
            report = enricher.enrich(scenario.corpus)
            return [
                (
                    t.term, t.polysemic, t.n_senses, t.skipped_reason,
                    [(p.rank, p.term, p.cosine) for p in t.propositions],
                )
                for t in report.terms
            ]

        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(enrich_once) for _ in range(2)]
            first, second = (
                f.result(timeout=RESULT_TIMEOUT * 2) for f in futures
            )
        assert first == second

        # The shared store is coherent afterwards: a third, warm run
        # featurises nothing.
        config = EnrichmentConfig(n_candidates=6, cache_dir=str(tmp_path))
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        report = enricher.enrich(scenario.corpus)
        assert report.cache["misses"] == 0
        assert report.cache["hits"] > 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
