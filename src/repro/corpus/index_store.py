"""Memory-mapped on-disk persistence of the positional corpus index.

A :class:`~repro.corpus.index.CorpusIndex` over a PubMed-scale corpus
costs a full pass over every token to build.  This module makes the
index a build-once artefact, the Aber-OWL deployment shape: persist its
columns as flat numpy arrays plus a CRC-carrying manifest, then reopen
them in O(1) through ``mmap`` as an :class:`MmapCorpusIndex` — in a
later run, a fresh process, or the service.  That is the same index
class over the same columns; only where the arrays live differs, so
every query answers byte-identically, and an opened index grows in
memory like a built one.  Growth never writes to the store: a grown
corpus persists only when :meth:`IndexStore.load_or_build` (or
:meth:`IndexStore.save`) is given it.

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

from repro.corpus.index import Columns, CorpusIndex, Strings, fingerprint_documents
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


# -- persisting an index ----------------------------------------------------


def _blob(strings: list[str]) -> tuple[bytes, np.ndarray]:
    """``strings`` utf-8 concatenated, and the int64 offsets bounding each."""
    encoded = [string.encode("utf-8") for string in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)),
        out=offsets[1:],
    )
    return b"".join(encoded), offsets


def _save_single(index: CorpusIndex, directory: Path) -> None:
    """Write ``index``'s columns as a generation dir.

    The layout orders the vocabulary: a token's id is its rank in the
    sorted vocabulary, and the postings runs follow in that order.
    """
    directory.mkdir(parents=True, exist_ok=True)
    columns = index.columns()
    n_vocab = len(columns.postings_offsets) - 1
    n_docs = len(columns.doc_offsets) - 1
    vocabulary = columns.vocabulary.items()[:n_vocab]
    by_rank = np.array(
        sorted(range(n_vocab), key=vocabulary.__getitem__), dtype=np.int64
    )
    rank = np.empty(n_vocab, dtype=np.int32)
    rank[by_rank] = np.arange(n_vocab, dtype=np.int32)
    counts = np.diff(columns.postings_offsets)[by_rank]
    postings_offsets = np.zeros(n_vocab + 1, dtype=np.int64)
    np.cumsum(counts, out=postings_offsets[1:])
    runs = np.repeat(columns.postings_offsets[by_rank] - postings_offsets[:-1], counts)
    runs += np.arange(len(runs))
    token_blob, token_offsets = _blob([vocabulary[i] for i in by_rank.tolist()])
    doc_id_blob, doc_id_offsets = _blob(columns.doc_ids.items()[:n_docs])

    (directory / "tokens.bin").write_bytes(token_blob)
    (directory / "doc_ids.bin").write_bytes(doc_id_blob)
    np.save(directory / "token_offsets.npy", token_offsets)
    np.save(directory / "postings_offsets.npy", postings_offsets)
    np.save(directory / "postings_docs.npy", columns.postings_docs[runs])
    np.save(directory / "postings_positions.npy", columns.postings_positions[runs])
    np.save(directory / "doc_id_offsets.npy", doc_id_offsets)
    np.save(directory / "doc_token_ids.npy", rank[columns.token_ids])
    np.save(directory / "doc_token_offsets.npy", columns.doc_offsets)

    manifest = {
        "version": STORE_VERSION,
        "kind": "single",
        "fingerprint": columns.fingerprint,
        "n_documents": n_docs,
        "n_tokens": len(columns.token_ids),
        "vocabulary_size": n_vocab,
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


def _map_columns(directory: Path, manifest: dict) -> Columns:
    """The columns of a verified generation, memory-mapped."""

    def load(name: str) -> np.ndarray:
        return np.load(directory / name, mmap_mode="r")

    def strings(blob_name: str, offsets_name: str) -> Strings:
        path = directory / blob_name
        blob = np.memmap(path, dtype=np.uint8, mode="r") if path.stat().st_size else b""
        return Strings(blob=blob, offsets=load(offsets_name))

    return Columns(
        fingerprint=str(manifest["fingerprint"]),
        doc_ids=strings("doc_ids.bin", "doc_id_offsets.npy"),
        doc_offsets=load("doc_token_offsets.npy"),
        token_ids=load("doc_token_ids.npy"),
        vocabulary=strings("tokens.bin", "token_offsets.npy"),
        postings_offsets=load("postings_offsets.npy"),
        postings_docs=load("postings_docs.npy"),
        postings_positions=load("postings_positions.npy"),
    )


class MmapCorpusIndex(CorpusIndex):
    """A :class:`CorpusIndex` whose columns map one store generation.

    Opening costs O(1): the arrays are memory-mapped, and the vocabulary
    and document ids decode on first use.  Queries run the inherited
    code over the mapped columns, so every answer is byte-identical to
    the index the generation was saved from.  It grows like any index:
    growth builds the new columns in RAM and leaves the generation's
    files as they were; :attr:`directory` keeps naming the generation
    the index was opened from.
    """

    # perfbench's tracer wraps ``MmapCorpusIndex.add_documents`` through
    # this class's own namespace; the alias keeps that name resolvable,
    # and its calls are wrapped once, not twice.
    add_documents = CorpusIndex.add_documents

    def __init__(self, directory: str | Path, *, verify: bool = True) -> None:
        directory = Path(directory)
        manifest = _read_manifest(directory)
        _verify_files(directory, manifest, verify_crc=verify)
        super().__init__()
        try:
            self._state = _map_columns(directory, manifest)
        except (OSError, ValueError) as exc:
            raise IndexStoreError(
                f"cannot map index arrays at {directory}: {exc}"
            ) from None
        #: The generation directory this index was opened from.
        self.directory = directory


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
        """Persist ``index`` (built, opened or grown); returns its generation dir.

        The write is atomic at the generation level: arrays land in a
        temp sibling first and are renamed into place, replacing any
        previous (possibly corrupt) generation of the same fingerprint.
        """
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
