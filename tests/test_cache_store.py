"""DiskCacheStore behaviour: layout, sharing, eviction, corruption, wiring."""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.polysemy import cache_store
from repro.polysemy.cache import FeatureCache
from repro.polysemy.cache_store import (
    CacheStore,
    DiskCacheStore,
    MemoryCacheStore,
)
from repro.scenarios import make_enrichment_scenario
from repro.workflow.config import EnrichmentConfig
from repro.workflow.pipeline import OntologyEnricher


SRC = Path(__file__).resolve().parents[1] / "src"


def key(term: str, context: str = "context-digest", spec: str = "spec-digest"):
    return FeatureCache.key(context, term, spec)


def vector(seed: int, n: int = 23) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n)


@pytest.fixture()
def small_shards(monkeypatch):
    """Shards rotate at 256 bytes: two of the tests' 184-byte vectors each."""
    monkeypatch.setattr(cache_store, "DEFAULT_SHARD_MAX_BYTES", 256)


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, tmp_path):
        assert isinstance(MemoryCacheStore(), CacheStore)
        assert isinstance(DiskCacheStore(tmp_path), CacheStore)

    def test_invalid_sizes_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="max_bytes"):
            DiskCacheStore(tmp_path, max_bytes=0)


class TestDiskRoundTrip:
    def test_miss_put_get(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        assert store.get(key("heart attack")) is None
        vec = vector(0)
        store.put(key("heart attack"), vec)
        np.testing.assert_array_equal(store.get(key("heart attack")), vec)
        assert len(store) == 1

    def test_fresh_handle_reads_from_disk(self, tmp_path):
        vec = vector(1)
        DiskCacheStore(tmp_path).put(key("term"), vec)
        reopened = DiskCacheStore(tmp_path)
        got = reopened.get(key("term"))
        np.testing.assert_array_equal(got, vec)
        assert got.dtype == vec.dtype
        assert reopened.stats()["disk_hits"] == 1
        # Second read is served from the in-process memo.
        reopened.get(key("term"))
        assert reopened.stats()["disk_hits"] == 1

    def test_last_write_wins(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(key("term"), vector(0))
        store.put(key("term"), vector(1))
        np.testing.assert_array_equal(store.get(key("term")), vector(1))
        assert len(store) == 1
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(reopened.get(key("term")), vector(1))

    def test_concurrent_writer_is_picked_up_without_reopen(self, tmp_path):
        reader = DiskCacheStore(tmp_path)
        assert reader.get(key("term")) is None
        writer = DiskCacheStore(tmp_path)  # simulates another process
        writer.put(key("term"), vector(2))
        np.testing.assert_array_equal(reader.get(key("term")), vector(2))

    def test_clear_empties_disk_and_counters(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(key("term"), vector(4))
        store.clear()
        assert len(store) == 0
        assert store.get(key("term")) is None
        assert store.stats() == {
            "disk_hits": 0,
            "evictions": 0,
            "entries": 0,
            "store_bytes": 0,
        }


class TestFingerprintGenerations:
    def test_fingerprints_never_collide(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(key("t", context="c1", spec="f1"), vector(0))
        assert store.get(key("t", context="c2", spec="f1")) is None
        assert store.get(key("t", context="c1", spec="f2")) is None
        assert store.get(key("t2", context="c1", spec="f1")) is None
        assert store.get(key("t", context="c1", spec="f1")) is not None

    def test_each_spec_digest_gets_its_own_directory(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(key("t", context="c1"), vector(0))
        store.put(key("t", context="c2"), vector(1))
        store.put(key("t", spec="other-spec"), vector(2))
        generations = sorted(p for p in tmp_path.iterdir() if p.is_dir())
        assert len(generations) == 2
        assert len(store) == 3
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(
            reopened.get(key("t", context="c2")), vector(1)
        )

    def test_corpus_keyed_generation_is_never_opened(self, tmp_path):
        # A generation of the older layout: a 20-character name and
        # index lines without a context digest.
        old = tmp_path / "0123456789abcdef0123"
        old.mkdir()
        blob = vector(0).tobytes()
        (old / "shard-000000.bin").write_bytes(blob)
        (old / "index.jsonl").write_text(
            json.dumps(
                {
                    "term": "t", "shard": 0, "offset": 0,
                    "length": len(blob), "dtype": "<f8", "shape": [23],
                    "crc": zlib.crc32(blob),
                }
            )
            + "\n"
        )
        store = DiskCacheStore(tmp_path, max_bytes=2_000)
        assert store.get(key("t")) is None
        assert len(store) == 0
        # Under a cap it is the first eviction victim.
        for i in range(8):
            store.put(key(f"new {i}"), vector(i))
        assert not old.exists()


class TestShardingAndEviction:
    def test_shards_rotate_at_the_size_cap(self, tmp_path, small_shards):
        store = DiskCacheStore(tmp_path)
        assert store.describe()["shard_max_bytes"] == 256
        for i in range(8):
            store.put(key(f"term {i}"), vector(i))
        generation = next(p for p in tmp_path.iterdir() if p.is_dir())
        shards = sorted(generation.glob("shard-*.bin"))
        assert len(shards) > 1
        for i in range(8):  # every entry still readable across shards
            np.testing.assert_array_equal(
                store.get(key(f"term {i}")), vector(i)
            )

    def test_size_cap_evicts_oldest_entries_first(self, tmp_path):
        # Under a 2,000-byte cap a shard rotates at 2_000 // 8 bytes.
        store = DiskCacheStore(tmp_path, max_bytes=2_000)
        assert store.describe()["shard_max_bytes"] == 250
        for i in range(30):
            store.put(key(f"term {i}"), vector(i))
        stats = store.stats()
        assert stats["evictions"] > 0
        assert stats["store_bytes"] <= 2_000
        # The most recent write always survives; the very first is gone.
        np.testing.assert_array_equal(store.get(key("term 29")), vector(29))
        assert store.get(key("term 0")) is None

    def test_stale_generations_evicted_before_active_entries(self, tmp_path):
        store = DiskCacheStore(tmp_path, max_bytes=6_000)
        for i in range(12):
            store.put(key(f"old {i}", spec="old-spec"), vector(i))
        old_count = len(store)
        assert old_count == 12
        # Writing a new generation past the cap drops the stale one
        # wholesale, not the entries just written.
        for i in range(12):
            store.put(key(f"new {i}", spec="new-spec"), vector(100 + i))
        assert store.get(key("new 11", spec="new-spec")) is not None
        assert store.get(key("old 0", spec="old-spec")) is None
        assert store.stats()["evictions"] >= old_count

    def test_reads_keep_a_generation_alive(self, tmp_path):
        import time

        store = DiskCacheStore(tmp_path, max_bytes=7_000)
        for i in range(8):
            store.put(key(f"read {i}", spec="read-spec"), vector(i))
        time.sleep(0.02)
        for i in range(8):
            store.put(key(f"idle {i}", spec="idle-spec"), vector(50 + i))
        time.sleep(0.02)
        # A warm, read-only run touches the first generation: LRU is
        # by *use*, so the unread one must be the eviction victim.
        reader = DiskCacheStore(tmp_path, max_bytes=7_000)
        assert reader.get(key("read 0", spec="read-spec")) is not None
        time.sleep(0.02)
        writer = DiskCacheStore(tmp_path, max_bytes=7_000)
        for i in range(12):
            writer.put(key(f"new {i}", spec="new-spec"), vector(100 + i))
        survivor = DiskCacheStore(tmp_path)
        assert survivor.get(key("idle 0", spec="idle-spec")) is None
        assert survivor.get(key("read 0", spec="read-spec")) is not None

    def test_eviction_survives_a_reopen(self, tmp_path):
        store = DiskCacheStore(tmp_path, max_bytes=2_000)
        for i in range(30):
            store.put(key(f"term {i}"), vector(i))
        reopened = DiskCacheStore(tmp_path)
        assert len(reopened) == len(store)
        np.testing.assert_array_equal(
            reopened.get(key("term 29")), vector(29)
        )

    def test_rapid_generation_turnover_never_evicts_the_current(
        self, tmp_path
    ):
        # Settings churn (say, an ablation sweep over the extractor):
        # generations turn over rapidly under a tight cap.  The
        # generation currently being written must never be the victim —
        # only older generations drain.
        store = DiskCacheStore(tmp_path, max_bytes=4_000)
        for setting in range(10):
            spec = f"setting-{setting}"
            for i in range(6):
                store.put(key(f"t{i}", spec=spec), vector(i))
                assert store.get(key("t0", spec=spec)) is not None
            for i in range(6):  # the whole current setting stays warm
                assert store.get(key(f"t{i}", spec=spec)) is not None
        assert store.stats()["evictions"] > 0
        assert store.get(key("t0", spec="setting-0")) is None

    def test_long_lived_handle_restamps_its_hot_generation(
        self, tmp_path, monkeypatch
    ):
        import time

        # Regression: the recency stamp used to be written once per
        # handle, so a daemon that wrote its generation at boot and
        # then only *read* it for hours aged into the first LRU victim.
        # Reads must re-stamp once the touch interval elapses.
        monkeypatch.setattr(cache_store, "TOUCH_INTERVAL_SECONDS", 0.0)
        daemon = DiskCacheStore(tmp_path, max_bytes=7_000)
        for i in range(8):
            daemon.put(key(f"hot {i}", spec="hot-spec"), vector(i))
        time.sleep(0.02)
        other = DiskCacheStore(tmp_path, max_bytes=7_000)
        for i in range(8):
            other.put(key(f"idle {i}", spec="idle-spec"), vector(50 + i))
        time.sleep(0.02)
        # Long after its writes, the daemon handle reads its hot
        # generation again: that read must refresh the stamp.
        assert daemon.get(key("hot 0", spec="hot-spec")) is not None
        time.sleep(0.02)
        writer = DiskCacheStore(tmp_path, max_bytes=7_000)
        for i in range(12):
            writer.put(key(f"new {i}", spec="new-spec"), vector(100 + i))
        survivor = DiskCacheStore(tmp_path)
        assert survivor.get(key("idle 0", spec="idle-spec")) is None
        assert survivor.get(key("hot 0", spec="hot-spec")) is not None


class TestIncrementalSnapshot:
    """``len()`` and ``store_bytes`` parse only what changed."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        """Every index parse: full files and appended bytes alike."""
        calls = []
        parse_index = DiskCacheStore._parse_index
        iter_records = DiskCacheStore._iter_records

        def spy_parse_index(store, path):
            calls.append(path)
            return parse_index(store, path)

        def spy_iter_records(cls, data):
            calls.append(data)
            return iter_records(data)

        monkeypatch.setattr(DiskCacheStore, "_parse_index", spy_parse_index)
        monkeypatch.setattr(
            DiskCacheStore, "_iter_records", classmethod(spy_iter_records)
        )
        return calls

    @staticmethod
    def snapshot(store):
        return len(store), store.stats()["store_bytes"]

    @staticmethod
    def full_walk(path):
        """A fresh handle's full walk of every generation."""
        described = DiskCacheStore(path).describe()
        return described["entries"], described["store_bytes"]

    def fill(self, store, prefix, n, specs=("s0", "s1", "s2")):
        for i in range(n):
            spec = specs[i % len(specs)]
            store.put(key(f"{prefix} {i}", spec=spec), vector(i))

    def test_unchanged_store_parses_nothing(self, tmp_path, parses):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 6)
        self.fill(DiskCacheStore(tmp_path), "other", 4, specs=("s2", "s3"))
        first = self.snapshot(store)
        assert first == self.full_walk(tmp_path)
        del parses[:]
        assert self.snapshot(store) == first
        assert parses == []

    def test_own_writes_are_never_reparsed(self, tmp_path, parses):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 3)
        self.snapshot(store)
        del parses[:]
        self.fill(store, "more", 5, specs=("s0", "s4"))
        del parses[:]
        sizes = self.snapshot(store)
        assert parses == []
        assert sizes == self.full_walk(tmp_path)

    @staticmethod
    def forbid_system_calls(monkeypatch):
        def system_call(*args, **kwargs):
            raise AssertionError("measuring the sizes made a system call")

        import os

        for name in ("scandir", "stat", "open", "fstat", "listdir"):
            monkeypatch.setattr(os, name, system_call)

    def test_unchanged_sizes_cost_no_system_call(self, tmp_path, monkeypatch):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 6)
        self.fill(DiskCacheStore(tmp_path), "other", 4, specs=("s2", "s3"))
        cache = FeatureCache(store)
        first = self.snapshot(store)
        assert first == self.full_walk(tmp_path)
        self.forbid_system_calls(monkeypatch)
        assert self.snapshot(store) == first
        stats = cache.stats
        assert (stats["entries"], stats["store_bytes"]) == first

    def test_own_writes_keep_the_sizes_without_a_system_call(
        self, tmp_path, monkeypatch
    ):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 3)
        self.snapshot(store)
        self.fill(store, "more", 5, specs=("s0", "s4"))
        # An overwrite adds bytes but no entry.
        store.put(key("own 0", spec="s0"), vector(99))
        expected = self.full_walk(tmp_path)
        self.forbid_system_calls(monkeypatch)
        assert self.snapshot(store) == expected

    def test_a_writer_killed_mid_write_is_measured(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 3)
        self.snapshot(store)
        # Another process dies in the middle of a put: its blob is
        # written and its index line torn.
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from repro.polysemy.cache_store import DiskCacheStore\n"
            "def die(self, generation, blob):\n"
            "    with open(generation.shard_path(0), 'ab') as fh:\n"
            "        fh.write(blob)\n"
            "    with open(generation.index_path, 'ab') as fh:\n"
            "        fh.write(b'{\"term\": \"kil')\n"
            "    os._exit(3)\n"
            "DiskCacheStore._append_blob = die\n"
            "DiskCacheStore(sys.argv[1]).put(\n"
            "    ('context', 'killed', 's0'), np.zeros(5))\n"
        )
        died = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=False,
        )
        assert died.returncode == 3
        assert self.snapshot(store) == self.full_walk(tmp_path)
        self.fill(store, "after", 2)
        assert self.snapshot(store) == self.full_walk(tmp_path)

    def test_another_handles_appends_parse_only_the_new_bytes(
        self, tmp_path, parses
    ):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 6)
        self.snapshot(store)
        other = DiskCacheStore(tmp_path)
        self.fill(other, "other", 4, specs=("s1", "s5"))
        del parses[:]
        sizes = self.snapshot(store)
        assert b"".join(parses).count(b"\n") == 4
        assert sizes == self.full_walk(tmp_path)

    def test_another_handles_evictions(self, tmp_path, small_shards):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 12)
        self.snapshot(store)
        # Stale generations go first, then the active one's old shards.
        evicting = DiskCacheStore(tmp_path, max_bytes=3_000)
        self.fill(evicting, "new", 12, specs=("s9",))
        assert evicting.stats()["evictions"] > 0
        assert self.snapshot(store) == self.full_walk(tmp_path)

    def test_another_handles_clear_and_rewrite(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        self.fill(store, "own", 3)
        self.snapshot(store)
        other = DiskCacheStore(tmp_path)
        other.clear()
        assert self.snapshot(store) == (0, 0)
        self.fill(other, "own", 9)
        self.snapshot(store)
        # Cleared and rewritten between two snapshots: each new index
        # (which may reuse the old one's inode) is one line longer than
        # the three lines parsed from the old one.
        other.clear()
        self.fill(other, "rewritten " + "x" * 400, 3)
        assert self.snapshot(store) == self.full_walk(tmp_path) == (3, ANY)

    def test_counters_touch_no_filesystem(self, tmp_path, monkeypatch):
        store = DiskCacheStore(tmp_path)
        cache = FeatureCache(store)
        cache.store_many([(key("term"), vector(0))])
        cache.lookup_many([key("term")])

        def no_filesystem(*args, **kwargs):
            raise AssertionError("counters() touched the filesystem")

        import os

        monkeypatch.setattr(os, "scandir", no_filesystem)
        monkeypatch.setattr(os, "stat", no_filesystem)
        assert cache.counters() == {
            "hits": 1,
            "misses": 0,
            "disk_hits": 0,
            "evictions": 0,
            "remote_hits": 0,
            "remote_errors": 0,
        }


class TestCorruptionTolerance:
    def put_two(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.put(key("first"), vector(0))
        store.put(key("second"), vector(1))
        return store

    def generation_dir(self, tmp_path):
        return next(p for p in tmp_path.iterdir() if p.is_dir())

    def test_truncated_shard_is_a_miss_not_a_crash(self, tmp_path):
        self.put_two(tmp_path)
        shard = next(self.generation_dir(tmp_path).glob("shard-*.bin"))
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(reopened.get(key("first")), vector(0))
        assert reopened.get(key("second")) is None

    def test_flipped_byte_fails_the_crc_check(self, tmp_path):
        self.put_two(tmp_path)
        shard = next(self.generation_dir(tmp_path).glob("shard-*.bin"))
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF
        shard.write_bytes(bytes(data))
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(reopened.get(key("first")), vector(0))
        assert reopened.get(key("second")) is None

    def test_garbage_index_lines_are_skipped(self, tmp_path):
        self.put_two(tmp_path)
        index = self.generation_dir(tmp_path) / "index.jsonl"
        lines = index.read_bytes().splitlines(keepends=True)
        index.write_bytes(
            b"not json at all\n" + lines[0] + b'{"term": 3}\n' + lines[1]
        )
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(reopened.get(key("first")), vector(0))
        np.testing.assert_array_equal(reopened.get(key("second")), vector(1))
        assert len(reopened) == 2

    def test_index_line_without_context_digest_is_skipped(self, tmp_path):
        self.put_two(tmp_path)
        index = self.generation_dir(tmp_path) / "index.jsonl"
        first, second = index.read_bytes().splitlines(keepends=True)
        record = json.loads(second)
        del record["context"]
        index.write_bytes(first + json.dumps(record).encode() + b"\n")
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(reopened.get(key("first")), vector(0))
        assert reopened.get(key("second")) is None
        assert len(reopened) == 1

    def test_torn_trailing_index_line_is_ignored(self, tmp_path):
        self.put_two(tmp_path)
        index = self.generation_dir(tmp_path) / "index.jsonl"
        data = index.read_bytes()
        index.write_bytes(data[:-10])  # writer died mid-append
        reopened = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(reopened.get(key("first")), vector(0))
        assert reopened.get(key("second")) is None

    def test_next_put_is_not_glued_onto_a_torn_index_tail(self, tmp_path):
        # A writer killed mid-append leaves a torn trailing line; the
        # next successful put must still be durable for fresh readers.
        self.put_two(tmp_path)
        index = self.generation_dir(tmp_path) / "index.jsonl"
        index.write_bytes(index.read_bytes()[:-10])  # torn, no newline
        writer = DiskCacheStore(tmp_path)
        writer.put(key("third"), vector(2))
        fresh = DiskCacheStore(tmp_path)
        np.testing.assert_array_equal(fresh.get(key("first")), vector(0))
        np.testing.assert_array_equal(fresh.get(key("third")), vector(2))
        assert fresh.get(key("second")) is None  # the torn entry itself

    def test_put_survives_a_concurrent_eviction_of_its_generation(
        self, tmp_path
    ):
        import shutil

        store = DiskCacheStore(tmp_path)
        store.put(key("first"), vector(0))
        # Another process's LRU eviction drops the whole generation
        # between two of our writes.
        shutil.rmtree(self.generation_dir(tmp_path))
        store.put(key("second"), vector(1))  # must not raise
        fresh = DiskCacheStore(tmp_path)
        assert fresh.get(key("first")) is None
        np.testing.assert_array_equal(fresh.get(key("second")), vector(1))

    def test_missing_shard_file_is_a_miss(self, tmp_path):
        store = self.put_two(tmp_path)
        for shard in self.generation_dir(tmp_path).glob("shard-*.bin"):
            shard.unlink()
        reopened = DiskCacheStore(tmp_path)
        assert reopened.get(key("first")) is None
        assert reopened.get(key("second")) is None
        # The handle that wrote them still serves from its memo.
        np.testing.assert_array_equal(store.get(key("first")), vector(0))


class TestConfigWiring:
    def test_cache_max_bytes_requires_cache_dir(self):
        with pytest.raises(ValidationError, match="cache_max_bytes"):
            EnrichmentConfig(cache_max_bytes=1_000_000)

    def test_cache_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValidationError, match="cache_max_bytes"):
            EnrichmentConfig(cache_dir=str(tmp_path), cache_max_bytes=0)


class TestWorkflowPersistence:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_enrichment_scenario(
            seed=5, n_concepts=25, docs_per_concept=5,
            polysemy_histogram={2: 4},
        )

    def run(self, scenario, cache_dir, **kwargs):
        config = EnrichmentConfig(
            n_candidates=8, cache_dir=str(cache_dir), **kwargs
        )
        enricher = OntologyEnricher(
            scenario.ontology, config=config,
            pos_lexicon=scenario.pos_lexicon,
        )
        return enricher.enrich(scenario.corpus)

    @staticmethod
    def outcome(report):
        return [
            (
                t.term, t.polysemic, t.n_senses, t.skipped_reason,
                [(p.rank, p.term, p.cosine) for p in t.propositions],
            )
            for t in report.terms
        ]

    def test_warm_run_from_a_fresh_enricher(self, scenario, tmp_path):
        cold = self.run(scenario, tmp_path)
        assert cold.cache["misses"] > 0
        assert cold.cache["disk_hits"] == 0
        assert cold.cache["store_bytes"] > 0
        warm = self.run(scenario, tmp_path)  # brand-new enricher
        assert warm.cache["misses"] == 0
        assert warm.cache["hits"] == cold.cache["misses"]
        assert warm.cache["disk_hits"] == warm.cache["hits"]
        assert self.outcome(warm) == self.outcome(cold)

    def test_capped_store_still_produces_identical_reports(
        self, scenario, tmp_path
    ):
        cold = self.run(scenario, tmp_path)
        capped_dir = tmp_path / "capped"
        capped = self.run(
            scenario, capped_dir, cache_max_bytes=4_096
        )
        assert self.outcome(capped) == self.outcome(cold)
        assert capped.cache["store_bytes"] <= 4_096 + 2_048
