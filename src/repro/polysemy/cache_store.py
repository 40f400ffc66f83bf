"""Pluggable backing stores for the feature cache (memory and disk).

:class:`~repro.polysemy.cache.FeatureCache` memoises Step II feature
vectors under ``(context digest, term, spec digest)`` keys, but where
those vectors *live* is a storage decision: an in-memory dict serves one
enricher in one process, while the paper's re-run-heavy workflow (the
same corpus enriched again and again as the ontology grows, and again
as abstracts arrive) wants entries that survive the process and are
shared between CLI invocations, repeated runs, and the service.  This
module separates the two concerns behind the :class:`CacheStore`
protocol:

* :class:`MemoryCacheStore` — the historical dict, still the default;
* :class:`DiskCacheStore` — a durable, cross-process store.

Disk layout
-----------
One *generation* directory per spec digest (the extractor settings),
named by a hash of it::

    cache_dir/
      <generation>/          # sha256(spec digest)[:24]
        .lock                # flock target serialising writers
        .last_used           # mtime stamp for LRU generation eviction
        index.jsonl          # one JSON line per entry (last write wins)
        shard-000000.bin     # packed vector bytes, appended in order
        shard-000001.bin     # rotated once a shard passes its size cap

Within a generation, a vector is stored by appending its raw bytes to
the newest shard file and appending one index line (``term``,
``context`` digest, shard number, byte offset/length, dtype, shape,
CRC-32); a line without a context digest is malformed and skipped.
Appends are cheap, never rewrite existing bytes, and are serialised
across processes with ``flock`` on the generation's lock file.

Keys derive from a vector's own inputs, so invalidation is by
construction: a term whose windows changed reads and writes a new
entry, other settings read and write another generation, and a corpus
that grows keeps every other entry live.  Generations of the older
corpus-keyed layout (20-character names whose lines carry no context
digest) are never opened again and age out by LRU.

Reads take no lock: the index is re-parsed incrementally when it grows,
torn trailing lines are skipped until complete, and every blob is
validated by length and CRC-32 before it is returned — a truncated or
corrupted entry is a *miss*, never a crash or a wrong vector.

The sizes (``len(store)``, ``store_bytes``) cost no system call while
nothing changed.  ``cache_dir/.changes`` holds a counter, mapped into
every handle's memory, that a store adds one to under ``flock`` as it
starts and as it finishes each write, eviction or clear.  A handle
keeps the sizes it measured while the counter reads what it read before
measuring them, and adds its own writes to them as it makes them (when
no other store changed anything since).  Otherwise it measures again:
one directory scan plus one ``stat`` per generation, walking only
generations whose index changed and parsing only the index bytes
appended since the last measure.  A change made by anything but a
store (a hand-deleted shard) shows in the sizes after the next change
another store makes.

``max_bytes`` caps the whole store, evicted in two steps.  Least
recently *used* generations go first (whole directories; reads and
writes refresh a generation's recency stamp, re-stamped at most every
:data:`TOUCH_INTERVAL_SECONDS` so a long-lived daemon's hot generation
never ages into a victim); the generation being written is never a
victim.  Then the oldest shard files of that generation go (their index
entries are dropped atomically via rewrite-and-rename); the newest
shard is never evicted.  Entries are written once, so an old shard can
hold vectors still in use: dropping it costs clean misses that the next
run stores again.  Writers are resilient to the cross-process eviction
race — a generation directory another store dropped mid-write is
recreated and the write retried.  Counters (``disk_hits``,
``evictions``, ``store_bytes``) surface through
:meth:`DiskCacheStore.stats` and, via the cache, in
:attr:`repro.workflow.report.EnrichmentReport.cache`.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import threading
import time
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ValidationError

try:  # pragma: no cover - always present on the POSIX CI/dev targets
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: no inter-process lock
    fcntl = None

#: A fully-qualified cache key: (context digest, term, spec digest).
CacheKey = tuple[str, str, str]

#: Default rotation size of one shard file (4 MiB).
DEFAULT_SHARD_MAX_BYTES = 4 << 20

_INDEX_NAME = "index.jsonl"
_LOCK_NAME = ".lock"
_STAMP_NAME = ".last_used"

#: Seconds between LRU re-stamps of a generation a handle keeps using.
#: A long-lived process (the streaming daemon) reads its hot generation
#: for hours; stamping once per handle would let that generation age
#: into the first eviction victim, while stamping every read would cost
#: one write per lookup.  An interval keeps the stamp at most this
#: stale — far fresher than any generation worth evicting.
TOUCH_INTERVAL_SECONDS = 60.0

#: Index bytes remembered from just before the parsed offset.  Every
#: index line is longer, so after a write they are the tail of the
#: write's own line; a refresh that finds other bytes there knows the
#: index was cleared and rewritten under a reused inode.
_TAIL_BYTES = 32


@runtime_checkable
class CacheStore(Protocol):
    """Storage backend contract of :class:`~repro.polysemy.cache.FeatureCache`.

    Implementations map :data:`CacheKey` to ``np.ndarray`` and report
    backend-level counters through :meth:`stats`; hit/miss accounting
    stays in the cache itself.
    """

    def get(self, key: CacheKey) -> np.ndarray | None:
        """The stored vector for ``key``, or None."""

    def put(self, key: CacheKey, vector: np.ndarray) -> None:
        """Store ``vector`` under ``key`` (overwrites silently)."""

    def __len__(self) -> int:
        """Number of distinct entries currently retrievable."""

    def clear(self) -> None:
        """Drop every entry and reset the backend counters."""

    def counters(self) -> dict[str, int]:
        """Backend event counters — at least ``{"disk_hits",
        "evictions"}``; served backends add ``remote_hits`` /
        ``remote_errors`` (see
        :class:`repro.service.client.RemoteCacheStore`).  No sizes, so
        no filesystem or network access."""

    def stats(self) -> dict[str, int]:
        """:meth:`counters` plus the absolute sizes, ``entries`` (as
        ``len``) and ``store_bytes``, measured together."""


class MemoryCacheStore:
    """The default backend: a plain in-process dict (no persistence).

    Thread safety is provided by the owning
    :class:`~repro.polysemy.cache.FeatureCache`'s lock.
    """

    def __init__(self) -> None:
        self._entries: dict[CacheKey, np.ndarray] = {}

    def get(self, key: CacheKey) -> np.ndarray | None:
        return self._entries.get(key)

    def put(self, key: CacheKey, vector: np.ndarray) -> None:
        self._entries[key] = vector

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def counters(self) -> dict[str, int]:
        return {"disk_hits": 0, "evictions": 0}

    def stats(self) -> dict[str, int]:
        return {
            **self.counters(),
            "entries": len(self._entries),
            "store_bytes": sum(v.nbytes for v in self._entries.values()),
        }


@dataclass
class _Generation:
    """In-process view of one on-disk generation directory."""

    path: Path
    #: (term, context digest) -> (shard, offset, length, dtype str,
    #: shape, crc32)
    entries: dict[tuple[str, str], tuple] = field(default_factory=dict)
    #: Vectors already decoded in this process (no re-read, no disk_hit).
    memo: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    #: How many bytes of index.jsonl have been parsed so far, the inode
    #: they were parsed from (a rewritten index is a new file) and the
    #: last :data:`_TAIL_BYTES` of them.
    index_offset: int = 0
    index_ino: int | None = None
    index_tail: bytes = b""
    #: Bytes of the whole directory, walked while the index had
    #: ``bytes_key`` = (inode, size); every write appends to the index
    #: and shard eviction rewrites it, so an unchanged key means
    #: unchanged bytes.
    bytes: int | None = None
    bytes_key: tuple[int, int] | None = None
    #: Monotonic time of this handle's last LRU recency re-stamp
    #: (0.0 = never; see :data:`TOUCH_INTERVAL_SECONDS`).
    last_touch: float = 0.0
    #: ``index_path`` as a string, for the per-snapshot ``stat``.
    index_file: str = field(init=False)

    def __post_init__(self) -> None:
        self.index_file = os.path.join(self.path, _INDEX_NAME)

    @property
    def index_path(self) -> Path:
        return self.path / _INDEX_NAME

    @property
    def lock_path(self) -> Path:
        return self.path / _LOCK_NAME

    def shard_path(self, number: int) -> Path:
        return self.path / f"shard-{number:06d}.bin"


@contextmanager
def _flocked(path: Path):
    """Exclusive inter-process lock on ``path`` (no-op without fcntl)."""
    if fcntl is None:  # pragma: no cover - Windows
        yield
        return
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _generation_name(spec_digest: str) -> str:
    # 24 characters, where the corpus-keyed layout used 20, so no
    # generation of that layout is ever opened again.
    return hashlib.sha256(spec_digest.encode("utf-8")).hexdigest()[:24]


class DiskCacheStore:
    """Durable, cross-process :class:`CacheStore` (see the module docs).

    Parameters
    ----------
    cache_dir:
        Root directory of the store (created on demand).  Safe to share
        between threads, processes, and independent runs.
    max_bytes:
        Optional size cap on everything under ``cache_dir``; exceeding
        it triggers the LRU eviction described in the module docs.  The
        newest shard of the active generation is never evicted, so the
        cap is best-effort when a single shard outgrows it.
        A shard file rotates at 4 MiB (``DEFAULT_SHARD_MAX_BYTES``),
        or at ``max_bytes / 8`` under a smaller cap, so shard-level
        eviction stays fine-grained enough to honour it.

    Example
    -------
    >>> import tempfile
    >>> store = DiskCacheStore(tempfile.mkdtemp())
    >>> key = ("context-digest", "heart attack", "spec-digest")
    >>> store.get(key) is None
    True
    >>> store.put(key, np.arange(3.0))
    >>> DiskCacheStore(store.cache_dir).get(key).tolist()  # new process
    [0.0, 1.0, 2.0]
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        shard_max_bytes = DEFAULT_SHARD_MAX_BYTES
        if max_bytes is not None:
            shard_max_bytes = min(shard_max_bytes, max(1, max_bytes // 8))
        self._dir = Path(cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._max_bytes = max_bytes
        self._shard_max_bytes = shard_max_bytes
        self._lock = threading.RLock()
        self._generations: dict[str, _Generation] = {}
        self._disk_hits = 0
        self._evictions = 0
        # Running size estimate so the eviction check is O(1) per put;
        # seeded (and re-synced at every eviction event) by a real
        # walk.  Concurrent writers make it drift low, so the cap is
        # best-effort between walks.
        self._size_estimate: int | None = None
        # (entries, store_bytes) as of change count ``_sizes_seen``.
        self._sizes: tuple[int, int] | None = None
        self._sizes_seen: int | None = None
        # The shared change counter (8 bytes, little-endian), mapped by
        # the first measure or change; a handle that only describes the
        # store never makes it.
        self._changes_path = self._dir / ".changes"
        self._changes: mmap.mmap | None = None

    @property
    def cache_dir(self) -> Path:
        """Root directory of the store."""
        return self._dir

    @property
    def max_bytes(self) -> int | None:
        """The configured size cap (None = unbounded)."""
        return self._max_bytes

    # -- CacheStore protocol ----------------------------------------------

    def get(self, key: CacheKey) -> np.ndarray | None:
        context, term, spec = key
        entry_key = (term, context)
        with self._lock:
            generation = self._generation(spec, create=False)
            if generation is None:
                return None
            vector = generation.memo.get(entry_key)
            if vector is not None:
                # Memo hits keep the generation alive too: a long-lived
                # daemon serves almost everything from the memo, and
                # skipping the (interval-gated) stamp here would age its
                # hot generation into the first LRU eviction victim.
                self._touch(generation)
                return vector
            self._refresh_index(generation)
            entry = generation.entries.get(entry_key)
            if entry is None:
                return None
            vector = self._read_entry(generation, entry)
            if vector is None:
                # Truncated/corrupt/evicted payload: a miss, never a
                # wrong vector.  Drop the dangling index entry locally.
                generation.entries.pop(entry_key, None)
                self._sizes = None
                return None
            self._disk_hits += 1
            generation.memo[entry_key] = vector
            # Reads keep a generation alive too: refresh the LRU stamp
            # so warm read-only runs are not the first eviction victims.
            self._touch(generation)
            return vector

    def put(self, key: CacheKey, vector: np.ndarray) -> None:
        context, term, spec = key
        vector = np.asarray(vector)
        if not vector.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d to 1-d, but 0-d is
            # always contiguous so this branch preserves shapes.
            vector = np.ascontiguousarray(vector)
        blob = vector.tobytes()
        with self._lock:
            generation = self._generation(spec, create=True)
            with self._changing() as added:
                for attempt in (0, 1):
                    try:
                        added += self._write_entry(
                            generation, term, context, vector, blob
                        )
                        break
                    except FileNotFoundError:
                        # Another store's eviction dropped our
                        # generation directory mid-write; recreate it
                        # and retry once (the refresh inside notices the
                        # vanished index and resets this handle's stale
                        # state).
                        if attempt:
                            raise
                        generation.path.mkdir(parents=True, exist_ok=True)
            if self._max_bytes is not None and self._size_estimate is not None:
                self._size_estimate += added[1]
            self._maybe_evict(generation)

    def _write_entry(
        self, generation: _Generation, term: str, context: str,
        vector: np.ndarray, blob: bytes,
    ) -> tuple[int, int]:
        """Append one entry under the generation's flock; the entries
        (0 for an overwrite) and bytes it added."""
        with _flocked(generation.lock_path):
            # Catch up with concurrent writers first so our own index
            # append lands after everything already on disk.
            self._refresh_index(generation)
            new = (term, context) not in generation.entries
            shard_no, offset = self._append_blob(generation, blob)
            record = {
                "term": term,
                "context": context,
                "shard": shard_no,
                "offset": offset,
                "length": len(blob),
                "dtype": vector.dtype.str,
                "shape": list(vector.shape),
                "crc": zlib.crc32(blob),
            }
            payload = (json.dumps(record, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            # A writer killed mid-append can leave a torn tail with no
            # newline; gluing our record onto it would lose the entry
            # for every future reader.  Start a fresh line instead (the
            # torn fragment becomes one malformed line, skipped on
            # parse).
            index_size = 0
            torn_tail = False
            # Missing or empty index: nothing to repair.
            with suppress(OSError), open(generation.index_path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn_tail = fh.read(1) != b"\n"
                index_size = fh.tell()
            if torn_tail:
                payload = b"\n" + payload
            with open(generation.index_path, "ab") as fh:
                fh.write(payload)
                generation.index_ino = os.fstat(fh.fileno()).st_ino
            # We refreshed under the lock, so everything before our
            # append is parsed (or a torn fragment we just neutralised)
            # and everything we wrote is applied directly below.
            generation.index_offset = index_size + len(payload)
            generation.index_tail = payload[-_TAIL_BYTES:]
            generation.entries[term, context] = (
                shard_no,
                offset,
                len(blob),
                vector.dtype.str,
                tuple(vector.shape),
                record["crc"],
            )
            generation.memo[term, context] = vector
            self._touch(generation)
            return int(new), len(blob) + len(payload)

    def __len__(self) -> int:
        return self._measured()[0]

    def clear(self) -> None:
        with self._lock, self._changing():
            for child in self._dir.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                elif child != self._changes_path:
                    # The counter stays: other handles have it mapped.
                    child.unlink(missing_ok=True)
            self._generations.clear()
            self._disk_hits = 0
            self._evictions = 0
            self._size_estimate = 0

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {"disk_hits": self._disk_hits, "evictions": self._evictions}

    def stats(self) -> dict[str, int]:
        with self._lock:
            entries, store_bytes = self._measured()
            return {**self.counters(), "entries": entries, "store_bytes": store_bytes}

    def describe(self) -> dict:
        """The store's on-disk layout (``repro cache-info``'s payload).

        Walks ``cache_dir`` and reports, per generation: entry count,
        shard-file count, byte usage, and the LRU recency stamp.
        ``eviction_order`` lists generation names least recently used
        first — the order :meth:`put`-triggered eviction would claim
        them.  ``disk_hits``/``evictions`` are this handle's session
        counters (a fresh CLI handle reports 0).
        """
        with self._lock:
            generations = []
            for child in self._generation_dirs():
                index = self._parse_index(child / _INDEX_NAME)
                shard_files = sorted(child.glob("shard-*.bin"))
                generations.append(
                    {
                        "name": child.name,
                        "entries": len(index),
                        "shards": len(shard_files),
                        "bytes": self._dir_bytes(child),
                        "last_used": self._last_used(child),
                    }
                )
            return {
                "cache_dir": str(self._dir),
                "max_bytes": self._max_bytes,
                "shard_max_bytes": self._shard_max_bytes,
                "entries": sum(g["entries"] for g in generations),
                "store_bytes": sum(g["bytes"] for g in generations),
                "n_generations": len(generations),
                "generations": generations,
                "eviction_order": [
                    g["name"]
                    for g in sorted(
                        generations, key=lambda g: g["last_used"]
                    )
                ],
                "disk_hits": self._disk_hits,
                "evictions": self._evictions,
            }

    # -- generation bookkeeping -------------------------------------------

    def _generation(self, spec: str, *, create: bool) -> _Generation | None:
        name = _generation_name(spec)
        generation = self._generations.get(name)
        if generation is None:
            path = self._dir / name
            if not path.is_dir():
                if not create:
                    return None
                path.mkdir(parents=True, exist_ok=True)
            generation = _Generation(path)
            self._generations[name] = generation
        return generation

    # -- sizes ------------------------------------------------------------

    def _counter(self) -> mmap.mmap | None:
        """The shared change counter, mapped on first use (None when it
        cannot be: no ``fcntl``, or a directory this process cannot
        write)."""
        if self._changes is not None or fcntl is None:
            return self._changes
        try:
            fd = os.open(self._changes_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return None
        try:
            # Growing a file to the size it has already is a no-op, so
            # two handles creating the counter at once both keep it.
            if os.fstat(fd).st_size < 8:
                os.ftruncate(fd, 8)
            self._changes = mmap.mmap(fd, 8)
        except (OSError, ValueError):
            pass
        finally:
            os.close(fd)
        return self._changes

    def _bump(self) -> int | None:
        """Add one to the shared change counter; its value before, or
        None without a counter."""
        counter = self._counter()
        if counter is None:
            return None
        try:
            with _flocked(self._changes_path):
                value = int.from_bytes(counter[:8], "little")
                counter[:8] = (value + 1).to_bytes(8, "little")
        except OSError:
            return None  # the root went away under us
        return value

    @contextmanager
    def _changing(self):
        """Bracket one change on disk with bumps of the change counter.

        Yields a list the change extends with the ``(entries, bytes)``
        it added.  When it does and no other store changed anything
        since the kept sizes were measured, they grow by that much and
        hold while the counter reads what this change's two bumps left
        (another store's change in between moves it past that).
        Otherwise (an eviction, a clear, a failed write) they are
        measured again at the next read.  A writer killed mid-change
        has made the first bump, so every handle measures what it left.
        """
        started = self._bump()
        added: list[int] = []
        try:
            yield added
        finally:
            self._bump()
            if (
                added
                and self._sizes is not None
                and started is not None
                and started == self._sizes_seen
            ):
                entries, store_bytes = self._sizes
                self._sizes = (entries + added[0], store_bytes + added[1])
                self._sizes_seen = started + 2
            else:
                self._sizes = None

    def _measured(self) -> tuple[int, int]:
        """``(entries, store_bytes)``: the kept sizes while the change
        counter reads what it did when they were measured (no system
        call), else a fresh :meth:`_snapshot`."""
        with self._lock:
            counter = self._counter()
            seen = None if counter is None else int.from_bytes(counter[:8], "little")
            if self._sizes is None or seen is None or seen != self._sizes_seen:
                # The counter is read before measuring: a change that
                # lands during the walk moves it, so the next read
                # measures again.
                self._sizes = self._snapshot()
                self._sizes_seen = seen
            return self._sizes

    def _snapshot(self) -> tuple[int, int]:
        """``(entries, store_bytes)`` over every generation on disk.

        One ``os.scandir`` of the root and one ``stat`` of each
        generation's index while nothing changed.  A grown index is
        parsed from where the last parse stopped; a generation whose
        index changed has its directory re-walked for bytes.  Views of
        generations gone from disk are dropped.
        """
        with self._lock:
            try:
                with os.scandir(self._dir) as listing:
                    names = [entry.name for entry in listing if entry.is_dir()]
            except OSError:
                names = []
            for name in self._generations.keys() - set(names):
                del self._generations[name]
            entries = total = 0
            for name in names:
                generation = self._generations.get(name)
                if generation is None:
                    generation = _Generation(self._dir / name)
                    self._generations[name] = generation
                stat = self._refresh_index(generation)
                key = None if stat is None else (stat.st_ino, stat.st_size)
                if generation.bytes is None or key != generation.bytes_key:
                    generation.bytes = self._dir_bytes(generation.path)
                    generation.bytes_key = key
                entries += len(generation.entries)
                total += generation.bytes
            return entries, total

    def _generation_dirs(self) -> list[Path]:
        if not self._dir.is_dir():
            return []
        return sorted(child for child in self._dir.iterdir() if child.is_dir())

    # -- recency ----------------------------------------------------------

    def _touch(self, generation: _Generation) -> None:
        """Refresh the LRU recency stamp.

        Re-stamped at most once per :data:`TOUCH_INTERVAL_SECONDS` per
        handle: often enough that a generation a long-running process
        keeps reading or writing (the daemon's *current* one) can never
        age into an LRU eviction victim, rare enough that warm lookups
        stay write-free.
        """
        now = time.monotonic()
        if (
            generation.last_touch
            and now - generation.last_touch < TOUCH_INTERVAL_SECONDS
        ):
            return
        try:
            (generation.path / _STAMP_NAME).write_bytes(b"")
        except OSError:
            return  # generation evicted under us: stays unstamped
        generation.last_touch = now

    # -- index parsing ------------------------------------------------------

    @staticmethod
    def _decode_record(
        record: dict,
    ) -> tuple[tuple[str, str], tuple] | None:
        """Validate one parsed index line into ``((term, context), entry)``."""
        try:
            term = record["term"]
            context = record["context"]
            entry = (
                int(record["shard"]),
                int(record["offset"]),
                int(record["length"]),
                str(record["dtype"]),
                tuple(int(n) for n in record["shape"]),
                int(record["crc"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
        if not isinstance(term, str) or not isinstance(context, str):
            return None
        return (term, context), entry

    @classmethod
    def _iter_records(cls, data: bytes):
        """Yield ``((term, context), entry)`` from index bytes, skipping
        malformed lines (corruption tolerance) — the one parser both the
        full and the incremental index readers share."""
        for raw in data.split(b"\n"):
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue
            decoded = cls._decode_record(record)
            if decoded is not None:
                yield decoded

    def _parse_index(self, index_path: Path) -> dict[tuple[str, str], tuple]:
        """Full parse of an index file (malformed lines skipped)."""
        try:
            data = index_path.read_bytes()
        except OSError:
            return {}
        return dict(self._iter_records(data))

    def _refresh_index(self, generation: _Generation) -> os.stat_result | None:
        """Absorb index lines appended since the last parse.

        Returns the index's ``stat`` (None when it is missing).  The
        index only ever grows under normal operation.  Shard eviction
        replaces it with a new file (another inode); :meth:`clear` and
        generation eviction delete it, and a rewrite may reuse the inode
        but not the bytes before the parsed offset.  Either forces a
        from-scratch reload here.
        """
        try:
            stat = os.stat(generation.index_file)
        except OSError:
            if generation.index_offset:
                # The directory was evicted under us: the recency stamp
                # went with it, so the next use must re-stamp.
                self._forget(generation)
            return None
        if (
            stat.st_ino != generation.index_ino
            or stat.st_size < generation.index_offset
        ):
            self._forget(generation)
            generation.index_ino = stat.st_ino
        if stat.st_size == generation.index_offset:
            return stat
        tail = generation.index_tail
        try:
            with open(generation.index_file, "rb") as fh:
                fh.seek(generation.index_offset - len(tail))
                data = fh.read()
        except OSError:
            return stat
        if not data.startswith(tail):
            self._forget(generation)
            return self._refresh_index(generation)
        data = data[len(tail) :]
        # Only consume complete lines; a torn trailing line (a writer
        # mid-append in another process) is retried on the next refresh.
        end = data.rfind(b"\n")
        if end < 0:
            return stat
        consumed = data[: end + 1]
        generation.index_offset += len(consumed)
        generation.index_tail = (tail + consumed)[-_TAIL_BYTES:]
        for entry_key, entry in self._iter_records(consumed):
            if generation.entries.get(entry_key) != entry:
                # Another writer superseded the entry: decoded bytes in
                # the memo may be stale, drop them.
                generation.memo.pop(entry_key, None)
            generation.entries[entry_key] = entry
        return stat

    @staticmethod
    def _forget(generation: _Generation) -> None:
        """Drop a generation view's parsed state (its index is new)."""
        generation.entries.clear()
        generation.memo.clear()
        generation.index_offset = 0
        generation.index_tail = b""
        generation.last_touch = 0.0

    # -- blob I/O -----------------------------------------------------------

    def _append_blob(
        self, generation: _Generation, blob: bytes
    ) -> tuple[int, int]:
        """Append ``blob`` to the newest shard (rotating when full)."""
        numbers = self._shard_numbers(generation)
        shard_no = numbers[-1] if numbers else 0
        path = generation.shard_path(shard_no)
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if size > 0 and size >= self._shard_max_bytes:
            shard_no += 1
            path = generation.shard_path(shard_no)
            size = 0
        with open(path, "ab") as fh:
            fh.write(blob)
        return shard_no, size

    @staticmethod
    def _shard_numbers(generation: _Generation) -> list[int]:
        numbers = []
        for path in generation.path.glob("shard-*.bin"):
            try:
                numbers.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(numbers)

    def _read_entry(
        self, generation: _Generation, entry: tuple
    ) -> np.ndarray | None:
        shard_no, offset, length, dtype_str, shape, crc = entry
        try:
            dtype = np.dtype(dtype_str)
        except TypeError:
            return None
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if expected != length or length < 0:
            return None
        try:
            with open(generation.shard_path(shard_no), "rb") as fh:
                fh.seek(offset)
                blob = fh.read(length)
        except OSError:
            return None
        if len(blob) != length or zlib.crc32(blob) != crc:
            return None
        try:
            return np.frombuffer(blob, dtype=dtype).reshape(shape)
        except ValueError:
            return None

    # -- size accounting + eviction ----------------------------------------

    @staticmethod
    def _dir_bytes(path: Path) -> int:
        total = 0
        try:
            children = list(path.iterdir())
        except OSError:
            return 0
        for child in children:
            try:
                total += child.stat().st_size
            except OSError:
                continue
        return total

    def _store_bytes(self) -> int:
        return sum(self._dir_bytes(d) for d in self._generation_dirs())

    def _last_used(self, path: Path) -> float:
        try:
            return (path / _STAMP_NAME).stat().st_mtime
        except OSError:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

    def _maybe_evict(self, active: _Generation) -> None:
        if self._max_bytes is None:
            return
        # O(1) fast path: the running estimate says we are under the
        # cap.  Only when it trips (or is unseeded) do we pay a real
        # walk, which also re-syncs the estimate.
        if (
            self._size_estimate is not None
            and self._size_estimate <= self._max_bytes
        ):
            return
        total = self._store_bytes()
        self._size_estimate = total
        if total <= self._max_bytes:
            return
        with self._changing():
            self._evict(active, total)

    def _evict(self, active: _Generation, total: int) -> None:
        """Evict until the store's ``total`` bytes fit the cap."""
        # 1. Whole stale generations, least recently used first (reads
        #    and writes both refresh the stamp).  The active generation
        #    (the one just written) is never a victim.
        victims = sorted(
            (d for d in self._generation_dirs() if d != active.path),
            key=self._last_used,
        )
        for victim in victims:
            if total <= self._max_bytes:
                break
            self._evictions += len(self._parse_index(victim / _INDEX_NAME))
            victim_bytes = self._dir_bytes(victim)
            shutil.rmtree(victim, ignore_errors=True)
            self._generations.pop(victim.name, None)
            total -= victim_bytes
        if total <= self._max_bytes:
            self._size_estimate = total
            return
        # 2. Oldest shards of the active generation (append order is
        #    write-recency order, so this is LRU-by-write; entries are
        #    written once, so an old shard may still hold vectors in
        #    use, and dropping it costs clean misses).  The newest shard
        #    always survives, keeping the cap best-effort.
        with _flocked(active.lock_path):
            self._refresh_index(active)
            numbers = self._shard_numbers(active)
            while len(numbers) > 1 and total > self._max_bytes:
                shard_no = numbers.pop(0)
                dropped = [
                    entry_key
                    for entry_key, entry in active.entries.items()
                    if entry[0] == shard_no
                ]
                for entry_key in dropped:
                    del active.entries[entry_key]
                    active.memo.pop(entry_key, None)
                self._evictions += len(dropped)
                shard_file = active.shard_path(shard_no)
                with suppress(OSError):
                    total -= shard_file.stat().st_size
                shard_file.unlink(missing_ok=True)
                try:
                    old_index_bytes = active.index_path.stat().st_size
                except OSError:
                    old_index_bytes = 0
                total -= old_index_bytes - self._rewrite_index(active)
        self._size_estimate = max(total, 0)

    def _rewrite_index(self, generation: _Generation) -> int:
        """Atomically replace the index with the surviving entries;
        returns its new size in bytes."""
        lines = []
        for (term, context), entry in generation.entries.items():
            shard_no, offset, length, dtype_str, shape, crc = entry
            lines.append(
                json.dumps(
                    {
                        "term": term,
                        "context": context,
                        "shard": shard_no,
                        "offset": offset,
                        "length": length,
                        "dtype": dtype_str,
                        "shape": list(shape),
                        "crc": crc,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        payload = "".join(lines).encode("utf-8")
        tmp_path = generation.index_path.with_suffix(".jsonl.tmp")
        tmp_path.write_bytes(payload)
        os.replace(tmp_path, generation.index_path)
        generation.index_offset = len(payload)
        generation.index_tail = payload[-_TAIL_BYTES:]
        with suppress(OSError):
            generation.index_ino = generation.index_path.stat().st_ino
        return len(payload)
