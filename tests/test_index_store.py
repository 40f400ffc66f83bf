"""On-disk corpus index store: mmap parity, corruption, legacy layouts.

The tentpole contract of :mod:`repro.corpus.index_store`:

* an :class:`MmapCorpusIndex` reopened from a persisted generation is
  byte-identical to the in-memory :class:`CorpusIndex` it came from —
  every query method AND the content fingerprint chain — and grows
  like it, in memory, leaving the generation untouched;
* any corruption — truncation, flipped bytes, a torn manifest, version
  skew, a missing file — makes :meth:`IndexStore.open` raise and
  :meth:`IndexStore.load_or_build` degrade to a clean rebuild: never a
  wrong answer;
* so does a ``kind: "sharded"`` generation older releases wrote: it
  never opens, and the next build replaces it with a single one.
"""

import json
import random

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Document
from repro.corpus.index import CorpusIndex
from repro.corpus.index_store import (
    IndexStore,
    IndexStoreError,
    MmapCorpusIndex,
)
from repro.errors import CorpusError
from test_corpus_index import (
    assert_full_parity,
    random_documents,
    random_terms,
)


def build_store(tmp_path, docs):
    store = IndexStore(tmp_path / "store")
    index = CorpusIndex(docs)
    store.save(index)
    return store, index


def write_sharded_generation(store, docs):
    """Hand-write the ``kind: "sharded"`` layout older releases saved.

    A top-level manifest naming ``shard-NNNN`` subdirectories, keyed by
    the whole-corpus fingerprint; returns that fingerprint.
    """
    fingerprint = CorpusIndex(docs).fingerprint()
    generation = store.path_for(fingerprint)
    (generation / "shard-0000").mkdir(parents=True)
    (generation / "shard-0000" / "manifest.json").write_text("{}\n")
    manifest = {
        "version": 1,
        "kind": "sharded",
        "fingerprint": fingerprint,
        "n_documents": len(docs),
        "n_tokens": sum(doc.n_tokens() for doc in docs),
        "shards": ["shard-0000"],
    }
    (generation / "manifest.json").write_text(json.dumps(manifest))
    return fingerprint


class TestMmapParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_generation_full_parity(self, tmp_path, seed):
        rng = random.Random(seed)
        docs = random_documents(rng, n_docs=11)
        store, reference = build_store(tmp_path, docs)
        opened = store.open(reference.fingerprint())
        assert isinstance(opened, MmapCorpusIndex)
        assert_full_parity(opened, reference, random_terms(rng))

    def test_empty_corpus_round_trips(self, tmp_path):
        store, reference = build_store(tmp_path, [])
        opened = store.open(reference.fingerprint())
        assert opened.n_documents() == 0
        assert opened.fingerprint() == reference.fingerprint()
        assert opened.term_frequency("a") == 0

    def test_opened_index_grows_in_memory(self, tmp_path):
        rng = random.Random(0)
        docs = random_documents(rng, n_docs=12)
        store, reference = build_store(tmp_path, docs[:7])
        generation = store.path_for(reference.fingerprint())
        files = {p.name: p.read_bytes() for p in generation.iterdir()}
        opened = store.open(reference.fingerprint())
        opened.add_documents([])  # an empty add changes nothing
        assert opened.fingerprint() == reference.fingerprint()
        opened.add_documents(docs[7:])
        terms = random_terms(rng)
        assert_full_parity(opened, CorpusIndex(docs), terms)
        # Growth wrote nothing: the generation is byte for byte as saved.
        assert {p.name: p.read_bytes() for p in generation.iterdir()} == files
        assert store.fingerprints() == [reference.fingerprint()]
        # A grown index persists like any other, and reopens equal.
        store.save(opened)
        assert_full_parity(store.open(opened.fingerprint()), opened, terms)


def _one_array_file(generation):
    """Some persisted payload file of a generation (not the manifest)."""
    candidates = sorted(
        p for p in generation.rglob("*")
        if p.is_file() and p.name != "manifest.json" and p.stat().st_size > 0
    )
    assert candidates
    return candidates[0]


class TestCorruption:
    @pytest.fixture()
    def stored(self, tmp_path):
        docs = random_documents(random.Random(1), n_docs=8)
        store, reference = build_store(tmp_path, docs)
        return store, reference, docs

    def test_truncated_file_fails_verification(self, stored):
        store, reference, _ = stored
        target = _one_array_file(store.path_for(reference.fingerprint()))
        with open(target, "r+b") as fh:
            fh.truncate(max(0, target.stat().st_size - 7))
        with pytest.raises(IndexStoreError):
            store.open(reference.fingerprint())

    def test_flipped_byte_fails_crc(self, stored):
        store, reference, _ = stored
        target = _one_array_file(store.path_for(reference.fingerprint()))
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(IndexStoreError):
            store.open(reference.fingerprint())

    def test_missing_manifest_is_corrupt(self, stored):
        store, reference, _ = stored
        (store.path_for(reference.fingerprint()) / "manifest.json").unlink()
        with pytest.raises(IndexStoreError):
            store.open(reference.fingerprint())

    def test_torn_manifest_is_corrupt(self, stored):
        store, reference, _ = stored
        manifest = store.path_for(reference.fingerprint()) / "manifest.json"
        manifest.write_text(manifest.read_text()[: manifest.stat().st_size // 2])
        with pytest.raises(IndexStoreError):
            store.open(reference.fingerprint())

    def test_version_skew_is_corrupt(self, stored):
        store, reference, _ = stored
        manifest = store.path_for(reference.fingerprint()) / "manifest.json"
        manifest.write_text(
            manifest.read_text().replace('"version": 1', '"version": 999')
        )
        with pytest.raises(IndexStoreError):
            store.open(reference.fingerprint())

    def test_missing_file_is_corrupt(self, stored):
        store, reference, _ = stored
        _one_array_file(store.path_for(reference.fingerprint())).unlink()
        with pytest.raises(IndexStoreError):
            store.open(reference.fingerprint())

    def test_unknown_fingerprint_misses(self, stored):
        store, _, _ = stored
        with pytest.raises(IndexStoreError, match="no stored index"):
            store.open("0" * 40)

    def test_load_or_build_rebuilds_after_corruption(self, stored):
        store, reference, docs = stored
        rng = random.Random(2)
        target = _one_array_file(store.path_for(reference.fingerprint()))
        blob = bytearray(target.read_bytes())
        blob[0] ^= 0xFF
        target.write_bytes(bytes(blob))
        rebuilt = store.load_or_build(docs)
        assert isinstance(rebuilt, MmapCorpusIndex)
        assert_full_parity(rebuilt, reference, random_terms(rng))
        # The replaced generation is clean again.
        assert_full_parity(
            store.open(reference.fingerprint()), reference, random_terms(rng)
        )

    def test_unwritable_store_degrades_to_in_memory(
        self, tmp_path, monkeypatch
    ):
        docs = random_documents(random.Random(4))
        reference = CorpusIndex(docs)
        store = IndexStore(tmp_path / "store")

        def refuse(index):
            raise OSError("disk full")

        monkeypatch.setattr(store, "save", refuse)
        index = store.load_or_build(docs)
        # No generation could be written, but the answer is served.
        assert not isinstance(index, MmapCorpusIndex)
        assert_full_parity(index, reference, random_terms(random.Random(4)))
        assert store.fingerprints() == []


class TestLoadOrBuild:
    def test_miss_builds_and_persists(self, tmp_path):
        docs = random_documents(random.Random(8))
        store = IndexStore(tmp_path / "store")
        assert store.fingerprints() == []
        index = store.load_or_build(docs)
        assert isinstance(index, MmapCorpusIndex)
        assert store.fingerprints() == [index.fingerprint()]

    def test_hit_reopens_same_generation(self, tmp_path):
        docs = random_documents(random.Random(8))
        store = IndexStore(tmp_path / "store")
        first = store.load_or_build(docs)
        marker = store.path_for(first.fingerprint()) / "manifest.json"
        mtime = marker.stat().st_mtime_ns
        second = store.load_or_build(docs)
        assert isinstance(second, MmapCorpusIndex)
        assert marker.stat().st_mtime_ns == mtime  # untouched, not rebuilt
        assert second.fingerprint() == first.fingerprint()

    def test_corpus_object_is_accepted(self, tmp_path):
        docs = random_documents(random.Random(8))
        corpus = Corpus(docs)
        store = IndexStore(tmp_path / "store")
        index = store.load_or_build(corpus)
        assert index.fingerprint() == CorpusIndex(docs).fingerprint()

    def test_describe_reports_generations(self, tmp_path):
        docs = random_documents(random.Random(8))
        store = IndexStore(tmp_path / "store")
        built = store.load_or_build(docs)
        info = store.describe()
        assert info["n_generations"] == 1
        (generation,) = info["generations"]
        assert generation["fingerprint"] == built.fingerprint()
        assert generation["kind"] == "single"
        assert generation["n_documents"] == len(docs)
        assert generation["bytes"] > 0
        # A corrupt generation is reported, not hidden.
        manifest = store.path_for(built.fingerprint()) / "manifest.json"
        manifest.write_text("{not json")
        info = store.describe()
        assert info["generations"][0]["kind"] == "corrupt"


class TestCorpusAdoption:
    def test_adopt_index_caches_the_handle(self, tmp_path):
        docs = random_documents(random.Random(12))
        corpus = Corpus(docs)
        store = IndexStore(tmp_path / "store")
        opened = store.load_or_build(corpus)
        corpus.adopt_index(opened)
        assert corpus.index() is opened

    def test_adopt_rejects_mismatched_index(self, tmp_path):
        docs = random_documents(random.Random(12))
        store = IndexStore(tmp_path / "store")
        opened = store.load_or_build(docs)
        with pytest.raises(CorpusError, match="documents"):
            Corpus(docs[:-1]).adopt_index(opened)

    def test_add_after_adoption_grows_the_adopted_index(self, tmp_path):
        # Growing a corpus past its adopted store-opened index grows that
        # very index in memory: no rebuild, no new generation.
        docs = random_documents(random.Random(12))
        corpus = Corpus(docs)
        store = IndexStore(tmp_path / "store")
        opened = store.load_or_build(corpus)
        corpus.adopt_index(opened, store=store)
        before = store.fingerprints()
        corpus.add(Document("late", [["new", "tokens"]]))
        assert corpus.index() is opened
        assert_full_parity(
            opened, CorpusIndex(list(corpus)), random_terms(random.Random(12))
        )
        assert store.fingerprints() == before

    def test_adoption_remembers_the_given_store(self, tmp_path):
        docs = random_documents(random.Random(13))
        store = IndexStore(tmp_path / "store")
        opened = store.open(store.save(CorpusIndex(docs)).name)
        corpus = Corpus(docs)
        corpus.adopt_index(opened)
        assert corpus.index_store is None
        corpus.adopt_index(opened, store=store)
        assert corpus.index_store is store


class TestLegacyShardedGenerations:
    """Older releases also wrote ``kind: "sharded"`` generations.

    Such a generation must fail closed: it never opens, ``describe``
    flags it for replacement, and ``load_or_build`` rebuilds a single
    generation under the same fingerprint in its place.
    """

    def test_open_refuses_a_sharded_generation(self, tmp_path):
        docs = random_documents(random.Random(15))
        store = IndexStore(tmp_path / "store")
        fingerprint = write_sharded_generation(store, docs)
        with pytest.raises(IndexStoreError, match="'sharded'"):
            store.open(fingerprint)

    def test_load_or_build_replaces_it_with_a_single_generation(
        self, tmp_path
    ):
        rng = random.Random(16)
        docs = random_documents(rng)
        store = IndexStore(tmp_path / "store")
        fingerprint = write_sharded_generation(store, docs)
        rebuilt = store.load_or_build(docs)
        assert isinstance(rebuilt, MmapCorpusIndex)
        assert_full_parity(rebuilt, CorpusIndex(docs), random_terms(rng))
        generation = store.path_for(fingerprint)
        assert store.fingerprints() == [fingerprint]
        assert not (generation / "shard-0000").exists()
        manifest = json.loads((generation / "manifest.json").read_text())
        assert manifest["kind"] == "single"
        assert isinstance(store.open(fingerprint), MmapCorpusIndex)

    def test_describe_flags_it_for_replacement(self, tmp_path):
        docs = random_documents(random.Random(17))
        store = IndexStore(tmp_path / "store")
        write_sharded_generation(store, docs)
        (generation,) = store.describe()["generations"]
        assert generation["kind"] == "corrupt"
        assert "'sharded'" in generation["error"]
        assert generation["bytes"] > 0

    def test_single_generations_keep_the_version_one_layout(self, tmp_path):
        # Generations written before sharding was removed must still
        # reopen, so the single layout and its version stay as they were.
        docs = random_documents(random.Random(18))
        store, reference = build_store(tmp_path, docs)
        generation = store.path_for(reference.fingerprint())
        manifest = json.loads((generation / "manifest.json").read_text())
        assert (manifest["version"], manifest["kind"]) == (1, "single")


#: Pairs whose fingerprint links used to be equal: a link reads the id
#: up to a NUL and the tokens between U+001F separators, so the second
#: document of each pair spelled the first one's link.
AMBIGUOUS_PAIRS = {
    "token-separator": (
        Document("d1", [["corneal", "injury", "heals"]]),
        Document("d1", [["corneal\x1finjury", "heals"]]),
    ),
    "id-separator": (
        Document("d1", [["corneal\x00injury"]]),
        Document("d1\x00corneal", [["injury"]]),
    ),
}

#: Every shape of document the chain rejects.
AMBIGUOUS = {
    **{name: pair[1] for name, pair in AMBIGUOUS_PAIRS.items()},
    "empty-token": Document("d2", [["corneal", ""]]),
    "only-token-empty": Document("d2", [[""]]),
}


class TestAmbiguousDocuments:
    """Documents the fingerprint chain cannot tell apart are rejected."""

    @pytest.mark.parametrize("name", sorted(AMBIGUOUS_PAIRS))
    def test_store_never_reopens_another_corpus(self, tmp_path, name):
        valid, ambiguous = AMBIGUOUS_PAIRS[name]
        store = IndexStore(tmp_path / "store")
        assert store.load_or_build([valid]).n_documents() == 1
        with pytest.raises(CorpusError):
            store.load_or_build([ambiguous])
        with pytest.raises(CorpusError):
            CorpusIndex([ambiguous])

    @pytest.mark.parametrize("name", sorted(AMBIGUOUS))
    def test_corpus_add_rejects_before_appending(self, name):
        corpus = Corpus([Document("a", [["wound", "heals"]])])
        index = corpus.index()
        fingerprint = index.fingerprint()
        with pytest.raises(CorpusError):
            corpus.add(AMBIGUOUS[name])
        assert len(corpus) == 1
        assert corpus.index() is index
        assert index.fingerprint() == fingerprint

    @pytest.mark.parametrize("name", sorted(AMBIGUOUS))
    def test_add_documents_stays_all_or_nothing(self, name):
        index = CorpusIndex([Document("a", [["wound", "heals"]])])
        fingerprint = index.fingerprint()
        with pytest.raises(CorpusError):
            index.add_documents(
                [Document("b", [["corneal", "injury"]]), AMBIGUOUS[name]]
            )
        assert index.n_documents() == 1
        assert index.fingerprint() == fingerprint
        assert index.term_frequency("corneal injury") == 0

    def test_documents_without_tokens_are_accepted(self):
        index = CorpusIndex([Document("e1", []), Document("e2", [[]])])
        assert index.n_documents() == 2
        assert index.n_tokens() == 0
