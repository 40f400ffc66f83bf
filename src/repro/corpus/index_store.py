"""Memory-mapped on-disk persistence of the positional corpus index.

A :class:`~repro.corpus.index.CorpusIndex` over a PubMed-scale corpus
is expensive to build (pure-Python postings construction).  This module
makes the index a build-once artefact, the Aber-OWL deployment shape:
persist it as flat numpy arrays plus a CRC-carrying manifest, then
reopen it in O(1) through ``mmap`` as an :class:`MmapCorpusIndex` that
answers the **full query surface** of :class:`CorpusIndex`
byte-identically — in a later run, a fresh process, or the service.

Disk layout
-----------
One *generation* directory per corpus fingerprint (so corpus changes
invalidate by construction)::

    index_dir/
      <fingerprint>/              # the 40-hex corpus fingerprint
        manifest.json             # kind, counts, per-file size + CRC-32
        tokens.bin                # sorted vocabulary, utf-8 concatenated
        token_offsets.npy         # int64 (V+1) offsets into tokens.bin
        postings_offsets.npy      # int64 (V+1) postings range per token
        postings_docs.npy         # int32 (P) doc ordinal per posting
        postings_positions.npy    # int32 (P) token position per posting
        doc_ids.bin               # doc ids, utf-8 concatenated
        doc_id_offsets.npy        # int64 (D+1)
        doc_token_ids.npy         # int32 (N) vocabulary id per token
        doc_token_offsets.npy     # int64 (D+1) doc ranges

Every generation is ``kind: "single"``.  A generation of any other kind
(older releases also wrote ``kind: "sharded"`` ones) does not open; a
build replaces it like any other unreadable generation.

Durability discipline mirrors :class:`DiskCacheStore`: generations are
written to a temp directory and atomically renamed into place, every
file's size and CRC-32 are recorded in the manifest and validated on
open, and *any* corruption (truncated array, flipped bytes, torn
manifest, missing file) surfaces as :class:`IndexStoreError` — which
:meth:`IndexStore.load_or_build` degrades to a clean in-memory rebuild,
never a wrong answer.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import zlib
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.corpus.index import CorpusIndex, fingerprint_documents
from repro.errors import CorpusError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.document import Document

#: Bump when the on-disk layout changes; mismatches are treated as
#: corruption (clean rebuild), never a partial read.
STORE_VERSION = 1

_MANIFEST_NAME = "manifest.json"

#: Array/blob files of one single-index generation, in manifest order.
_ARRAY_FILES = (
    "tokens.bin",
    "token_offsets.npy",
    "postings_offsets.npy",
    "postings_docs.npy",
    "postings_positions.npy",
    "doc_ids.bin",
    "doc_id_offsets.npy",
    "doc_token_ids.npy",
    "doc_token_offsets.npy",
)

#: Decoded per-document token lists kept hot per mmap handle (strings
#: are shared with the decoded vocabulary, so the cache costs list
#: overhead only).
_DOC_CACHE_SIZE = 4096


class IndexStoreError(CorpusError):
    """A stored index could not be read back (missing/corrupt/stale)."""


def _crc32_of(path: Path) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


# -- persisting a built index ------------------------------------------------


def _save_single(index: CorpusIndex, directory: Path) -> None:
    """Write one in-memory :class:`CorpusIndex` as a generation dir."""
    directory.mkdir(parents=True, exist_ok=True)
    vocabulary = sorted(index._postings)
    token_ids = {token: i for i, token in enumerate(vocabulary)}

    token_blob = bytearray()
    token_offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
    for i, token in enumerate(vocabulary):
        token_blob.extend(token.encode("utf-8"))
        token_offsets[i + 1] = len(token_blob)

    postings_offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
    total_postings = sum(len(index._postings[t]) for t in vocabulary)
    postings_docs = np.empty(total_postings, dtype=np.int32)
    postings_positions = np.empty(total_postings, dtype=np.int32)
    cursor = 0
    for i, token in enumerate(vocabulary):
        postings = index._postings[token]
        end = cursor + len(postings)
        if postings:
            arr = np.asarray(postings, dtype=np.int64)
            postings_docs[cursor:end] = arr[:, 0]
            postings_positions[cursor:end] = arr[:, 1]
        postings_offsets[i + 1] = end
        cursor = end

    doc_id_blob = bytearray()
    doc_id_offsets = np.zeros(index.n_documents() + 1, dtype=np.int64)
    for i, doc_id in enumerate(index._doc_ids):
        doc_id_blob.extend(doc_id.encode("utf-8"))
        doc_id_offsets[i + 1] = len(doc_id_blob)

    doc_token_offsets = np.zeros(index.n_documents() + 1, dtype=np.int64)
    doc_token_ids = np.empty(index.n_tokens(), dtype=np.int32)
    cursor = 0
    for i, tokens in enumerate(index._doc_tokens):
        for token in tokens:
            doc_token_ids[cursor] = token_ids[token]
            cursor += 1
        doc_token_offsets[i + 1] = cursor

    (directory / "tokens.bin").write_bytes(bytes(token_blob))
    (directory / "doc_ids.bin").write_bytes(bytes(doc_id_blob))
    np.save(directory / "token_offsets.npy", token_offsets)
    np.save(directory / "postings_offsets.npy", postings_offsets)
    np.save(directory / "postings_docs.npy", postings_docs)
    np.save(directory / "postings_positions.npy", postings_positions)
    np.save(directory / "doc_id_offsets.npy", doc_id_offsets)
    np.save(directory / "doc_token_ids.npy", doc_token_ids)
    np.save(directory / "doc_token_offsets.npy", doc_token_offsets)

    manifest = {
        "version": STORE_VERSION,
        "kind": "single",
        "fingerprint": index.fingerprint(),
        "n_documents": index.n_documents(),
        "n_tokens": index.n_tokens(),
        "vocabulary_size": index.vocabulary_size(),
        "files": {
            name: {
                "bytes": (directory / name).stat().st_size,
                "crc32": _crc32_of(directory / name),
            }
            for name in _ARRAY_FILES
        },
    }
    # The manifest lands last: a crash mid-save leaves a directory that
    # fails to open (no manifest), never one that half-answers.
    (directory / _MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _read_manifest(directory: Path) -> dict:
    path = directory / _MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise IndexStoreError(
            f"unreadable index manifest at {path}: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise IndexStoreError(f"malformed index manifest at {path}")
    if manifest.get("version") != STORE_VERSION:
        raise IndexStoreError(
            f"index store version mismatch at {directory} "
            f"(got {manifest.get('version')!r}, want {STORE_VERSION})"
        )
    if manifest.get("kind") != "single":
        raise IndexStoreError(
            f"{directory} holds a {manifest.get('kind')!r} index, "
            "expected a single generation"
        )
    return manifest


def _verify_files(directory: Path, manifest: dict, *, verify_crc: bool) -> None:
    files = manifest.get("files")
    if not isinstance(files, dict) or set(files) != set(_ARRAY_FILES):
        raise IndexStoreError(f"malformed file table at {directory}")
    for name, record in files.items():
        path = directory / name
        try:
            size = path.stat().st_size
        except OSError:
            raise IndexStoreError(f"missing index file {path}") from None
        if size != record.get("bytes"):
            raise IndexStoreError(
                f"truncated index file {path} "
                f"({size} bytes, manifest says {record.get('bytes')})"
            )
        if verify_crc and _crc32_of(path) != record.get("crc32"):
            raise IndexStoreError(f"CRC mismatch in index file {path}")


# -- the mmap-backed read path ----------------------------------------------


class _MmapPostings:
    """Dict-like postings view over the mmapped arrays.

    Implements exactly the mapping surface :class:`CorpusIndex`'s query
    methods use (``get`` returning a ``[(ordinal, position), ...]``
    list, ``len`` for the vocabulary size, iteration over token
    strings), so the inherited algorithms run unchanged.
    """

    def __init__(self, owner: "MmapCorpusIndex") -> None:
        self._owner = owner

    def get(self, token: str, default=None):
        token_id = self._owner._token_id(token)
        if token_id is None:
            return default
        start, end = self._owner._postings_range(token_id)
        if start == end:
            return default if default is not None else []
        return list(
            zip(
                self._owner._postings_docs[start:end].tolist(),
                self._owner._postings_positions[start:end].tolist(),
                strict=True,
            )
        )

    def __contains__(self, token: str) -> bool:
        return self._owner._token_id(token) is not None

    def __len__(self) -> int:
        return self._owner.vocabulary_size()

    def __iter__(self):
        return iter(self._owner._vocabulary())


class _MmapDocTokens:
    """Sequence view: ``[ordinal] -> list[str]`` decoded lazily.

    Decoded documents are kept in a small LRU so repeated window
    extraction around hot documents does not re-decode; the token
    strings themselves are shared with the decoded vocabulary.
    """

    def __init__(self, owner: "MmapCorpusIndex") -> None:
        self._owner = owner
        self._cache: dict[int, list[str]] = {}

    def __getitem__(self, ordinal: int) -> list[str]:
        cached = self._cache.get(ordinal)
        if cached is not None:
            return cached
        owner = self._owner
        start = int(owner._doc_token_offsets[ordinal])
        end = int(owner._doc_token_offsets[ordinal + 1])
        vocabulary = owner._vocabulary()
        tokens = [
            vocabulary[i]
            for i in owner._doc_token_ids[start:end].tolist()
        ]
        if len(self._cache) >= _DOC_CACHE_SIZE:
            self._cache.pop(next(iter(self._cache)))
        self._cache[ordinal] = tokens
        return tokens

    def __len__(self) -> int:
        return self._owner.n_documents()

    def __iter__(self):
        for ordinal in range(len(self)):
            yield self[ordinal]


class _MmapDocIds:
    """Sequence view: ``[ordinal] -> doc_id`` decoded per access."""

    def __init__(self, owner: "MmapCorpusIndex") -> None:
        self._owner = owner

    def __getitem__(self, ordinal: int) -> str:
        owner = self._owner
        start = int(owner._doc_id_offsets[ordinal])
        end = int(owner._doc_id_offsets[ordinal + 1])
        return bytes(owner._doc_id_blob[start:end]).decode("utf-8")

    def __len__(self) -> int:
        return self._owner.n_documents()

    def __iter__(self):
        for ordinal in range(len(self)):
            yield self[ordinal]


class _MmapOrdinals:
    """``doc_id in index._ordinals`` support, built lazily on first use."""

    def __init__(self, owner: "MmapCorpusIndex") -> None:
        self._owner = owner
        self._mapping: dict[str, int] | None = None

    def _resolve(self) -> dict[str, int]:
        if self._mapping is None:
            self._mapping = {
                doc_id: ordinal
                for ordinal, doc_id in enumerate(self._owner._doc_ids)
            }
        return self._mapping

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._resolve()

    def __getitem__(self, doc_id: str) -> int:
        return self._resolve()[doc_id]

    def __len__(self) -> int:
        return self._owner.n_documents()


class MmapCorpusIndex(CorpusIndex):
    """A read-only :class:`CorpusIndex` served straight off the store.

    Opening costs O(1): the numpy arrays are memory-mapped, nothing is
    decoded until a query touches it.  Every query method answers
    byte-identically to the in-memory index the generation was saved
    from — the inherited :class:`CorpusIndex` algorithms run unchanged
    over lazy dict/sequence views of the arrays.

    The index is immutable: :meth:`add_documents` raises
    :class:`~repro.errors.CorpusError` (grow the corpus through an
    in-memory index, then re-persist).
    """

    def __init__(self, directory: str | Path, *, verify: bool = True) -> None:
        directory = Path(directory)
        manifest = _read_manifest(directory)
        _verify_files(directory, manifest, verify_crc=verify)
        self._dir = directory
        self._manifest = manifest
        try:
            self._open_arrays()
        except (OSError, ValueError) as exc:
            raise IndexStoreError(
                f"cannot map index arrays at {directory}: {exc}"
            ) from None
        self._fingerprint = str(manifest["fingerprint"])
        self._n_tokens = int(manifest["n_tokens"])
        self._postings = _MmapPostings(self)
        self._doc_tokens = _MmapDocTokens(self)
        self._doc_ids = _MmapDocIds(self)
        self._ordinals = _MmapOrdinals(self)
        self._vocab_cache: list[str] | None = None
        self._doc_lengths: dict[str, int] | None = None

    def _open_arrays(self) -> None:
        load = lambda name: np.load(  # noqa: E731 - local shorthand
            self._dir / name, mmap_mode="r"
        )
        self._token_offsets = load("token_offsets.npy")
        self._postings_offsets = load("postings_offsets.npy")
        self._postings_docs = load("postings_docs.npy")
        self._postings_positions = load("postings_positions.npy")
        self._doc_id_offsets = load("doc_id_offsets.npy")
        self._doc_token_ids = load("doc_token_ids.npy")
        self._doc_token_offsets = load("doc_token_offsets.npy")
        self._token_blob = np.memmap(
            self._dir / "tokens.bin", dtype=np.uint8, mode="r"
        ) if (self._dir / "tokens.bin").stat().st_size else np.empty(
            0, dtype=np.uint8
        )
        self._doc_id_blob = np.memmap(
            self._dir / "doc_ids.bin", dtype=np.uint8, mode="r"
        ) if (self._dir / "doc_ids.bin").stat().st_size else np.empty(
            0, dtype=np.uint8
        )

    # -- vocabulary plumbing ----------------------------------------------

    def _vocabulary(self) -> list[str]:
        """The sorted vocabulary, decoded once per handle on first use."""
        if self._vocab_cache is None:
            blob = bytes(self._token_blob)
            offsets = self._token_offsets.tolist()
            self._vocab_cache = [
                blob[offsets[i] : offsets[i + 1]].decode("utf-8")
                for i in range(len(offsets) - 1)
            ]
        return self._vocab_cache

    def _token_id(self, token: str) -> int | None:
        """Binary search of the sorted vocabulary; None when unseen."""
        if self._vocab_cache is not None:
            # Once the vocabulary is decoded, bisect the string list.
            import bisect

            i = bisect.bisect_left(self._vocab_cache, token)
            if i < len(self._vocab_cache) and self._vocab_cache[i] == token:
                return i
            return None
        needle = token.encode("utf-8")
        offsets = self._token_offsets
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            start, end = int(offsets[mid]), int(offsets[mid + 1])
            candidate = bytes(self._token_blob[start:end])
            if candidate < needle:
                lo = mid + 1
            else:
                hi = mid
        if lo >= len(offsets) - 1:
            return None
        start, end = int(offsets[lo]), int(offsets[lo + 1])
        if bytes(self._token_blob[start:end]) != needle:
            return None
        return lo

    def _postings_range(self, token_id: int) -> tuple[int, int]:
        return (
            int(self._postings_offsets[token_id]),
            int(self._postings_offsets[token_id + 1]),
        )

    # -- overrides where the inherited implementation assumes lists --------

    @property
    def directory(self) -> Path:
        """The generation directory this handle maps."""
        return self._dir

    def add_documents(self, documents: "Iterable[Document]") -> None:
        if not list(documents):  # an empty add is a no-op, as in-memory
            return
        raise CorpusError(
            "mmap-backed corpus index is read-only; rebuild and re-persist "
            "through IndexStore.load_or_build to grow it"
        )

    def n_documents(self) -> int:
        return int(self._manifest["n_documents"])

    def vocabulary_size(self) -> int:
        return int(self._manifest["vocabulary_size"])

    def doc_lengths(self) -> dict[str, int]:
        if self._doc_lengths is None:
            lengths = np.diff(self._doc_token_offsets).tolist()
            self._doc_lengths = dict(zip(iter(self._doc_ids), lengths, strict=True))
        return self._doc_lengths

    def token_documents(self) -> list[list[str]]:
        return [self._doc_tokens[i] for i in range(self.n_documents())]


# -- the store ----------------------------------------------------------------


class IndexStore:
    """Fingerprint-keyed generations of persisted corpus indexes.

    Parameters
    ----------
    directory:
        Root of the store.  Each persisted index lives in a
        subdirectory named by its corpus fingerprint; saves write to a
        temp directory and atomically rename, so readers never observe
        a half-written generation under its final name.

    Example
    -------
    >>> import tempfile
    >>> from repro.corpus.corpus import Corpus
    >>> from repro.corpus.document import Document
    >>> corpus = Corpus([Document("d", [["wound", "heals"]])])
    >>> store = IndexStore(tempfile.mkdtemp())
    >>> opened = store.load_or_build(corpus)
    >>> opened.term_frequency("wound")
    1
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, fingerprint: str) -> Path:
        """The generation directory a fingerprint maps to."""
        return self.directory / fingerprint

    def fingerprints(self) -> list[str]:
        """Fingerprints with a (possibly corrupt) generation present."""
        return sorted(
            entry.name
            for entry in self.directory.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def describe(self) -> dict:
        """Layout summary of every stored generation (``repro index``)."""
        generations = []
        for fingerprint in self.fingerprints():
            path = self.path_for(fingerprint)
            record: dict = {"fingerprint": fingerprint}
            try:
                manifest = _read_manifest(path)
            except IndexStoreError as exc:
                record.update({"kind": "corrupt", "error": str(exc)})
            else:
                record.update(
                    {
                        "kind": manifest["kind"],
                        "n_documents": manifest["n_documents"],
                        "n_tokens": manifest["n_tokens"],
                    }
                )
            record["bytes"] = sum(
                p.stat().st_size for p in path.rglob("*") if p.is_file()
            )
            generations.append(record)
        return {
            "index_dir": str(self.directory),
            "n_generations": len(generations),
            "store_bytes": sum(g["bytes"] for g in generations),
            "generations": generations,
        }

    # -- persisting --------------------------------------------------------

    def save(self, index: CorpusIndex) -> Path:
        """Persist a built in-memory index; returns its generation dir.

        The write is atomic at the generation level: arrays land in a
        temp sibling first and are renamed into place, replacing any
        previous (possibly corrupt) generation of the same fingerprint.
        """
        if isinstance(index, MmapCorpusIndex):
            raise CorpusError(
                "refusing to re-persist an mmap handle; save the in-memory "
                "index it came from"
            )
        final = self.path_for(index.fingerprint())
        staging = Path(
            tempfile.mkdtemp(
                prefix=f".tmp-{index.fingerprint()[:8]}-", dir=self.directory
            )
        )
        try:
            _save_single(index, staging)
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final

    # -- reopening ---------------------------------------------------------

    def open(self, fingerprint: str, *, verify: bool = True) -> MmapCorpusIndex:
        """Mmap-reopen the generation for ``fingerprint`` in O(1).

        Raises :class:`IndexStoreError` for a missing, truncated,
        CRC-mismatched, version-skewed, or non-single generation —
        callers either surface it or degrade to a rebuild
        (:meth:`load_or_build` does the latter).
        """
        path = self.path_for(fingerprint)
        if not path.is_dir():
            raise IndexStoreError(f"no stored index for {fingerprint}")
        manifest = _read_manifest(path)
        if manifest.get("fingerprint") != fingerprint:
            raise IndexStoreError(
                f"fingerprint mismatch at {path}: manifest says "
                f"{manifest.get('fingerprint')!r}"
            )
        return MmapCorpusIndex(path, verify=verify)

    def load_or_build(self, documents: "Iterable[Document]") -> CorpusIndex:
        """Open the store's index for ``documents``, building on a miss.

        The document stream is fingerprinted (C-speed hashing, far
        cheaper than a build) and the matching generation mmap-opened.
        A missing or unreadable generation — truncation, CRC mismatch,
        version skew, torn manifest, a kind this version does not read —
        degrades to a clean rebuild that then replaces the generation,
        mirroring :class:`~repro.polysemy.cache_store.DiskCacheStore`'s
        corruption-is-a-miss discipline: never a wrong answer.
        """
        documents = list(documents)
        fingerprint = fingerprint_documents(documents)
        with contextlib.suppress(IndexStoreError):
            return self.open(fingerprint)
        index = CorpusIndex(documents)
        try:
            self.save(index)
            return self.open(fingerprint, verify=False)
        except (OSError, IndexStoreError):
            # A store that cannot be written or immediately re-read
            # must not cost the run; serve the in-memory build.
            return index


def store_for_index(index: CorpusIndex) -> IndexStore | None:
    """The :class:`IndexStore` a mmap-backed index was opened from.

    Returns ``None`` for in-memory indexes (there is no store to route
    rebuilds through).  :meth:`repro.corpus.corpus.Corpus.adopt_index`
    uses this so that growing a corpus past its read-only mmap index
    rebuilds *through the store* — persisting the new generation — rather
    than silently degrading to an unpersisted in-RAM rebuild.
    """
    if isinstance(index, MmapCorpusIndex):
        return IndexStore(index.directory.parent)
    return None
