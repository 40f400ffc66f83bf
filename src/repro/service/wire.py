"""Wire format shared by the cache service and its clients.

The service speaks two payload kinds:

* **JSON** for everything structural (stats, job submission/status,
  cache layout) — small, human-debuggable with ``curl``;
* **binary frames** for the feature vectors themselves, on the one
  vector route, ``/vectors/batch``.  A vector travels as its
  C-contiguous buffer bytes with its dtype, shape and CRC-32 beside it
  in the frame, mirroring the
  :class:`~repro.polysemy.cache_store.DiskCacheStore` shard record so
  nothing is re-encoded on the hot path (no JSON/base64 blow-up).

Frames
------
A warm pipeline run needs *hundreds* of vectors, so a frame packs N
keyed vectors into **one** HTTP body:

* a **key frame** (:func:`encode_key_batch`) is the lookup request —
  ``RBK1 | u32 count | (u32 keylen | keybytes)*`` where each key is its
  URL-encoded :func:`encode_key` string, so arbitrary unicode terms
  round-trip;
* a **vector frame** (:func:`encode_vector_batch`) carries the answers
  (and PUT payloads) — ``RBV1 | u32 count`` then per entry the key, a
  present/miss flag, and for present entries dtype, shape, raw vector
  bytes, and a CRC-32.  A miss travels in-band as a flag-0 entry.

Cache keys (context digest, term, spec digest; see
:mod:`repro.polysemy.cache`) are encoded as URL query strings.  The
parameters keep their historical names: ``corpus`` carries the context
digest and ``config`` the spec digest.

Decoding is all-or-nothing, as defensive as disk reads: both frames
travel as one TCP body, so a CRC or structural failure anywhere means
the body cannot be trusted — the decoder returns ``None`` and the
caller degrades every key in the frame to a clean miss (one counted
failure, never a crash, a wrong vector or a half-applied batch).
:data:`MAX_BATCH_ITEMS` bounds the entry count on both sides so an
oversized frame is rejected before any allocation is sized from
attacker-controlled lengths.
"""

from __future__ import annotations

import struct
import zlib
from urllib.parse import parse_qs, urlencode

import numpy as np

from repro.polysemy.cache_store import CacheKey


def encode_key(key: CacheKey) -> str:
    """URL query string naming one cache entry (a frame's key bytes)."""
    context, term, spec = key
    return urlencode({"corpus": context, "term": term, "config": spec})


def decode_key(query: str) -> CacheKey | None:
    """Parse :func:`encode_key`'s query string back (None if incomplete)."""
    params = parse_qs(query, keep_blank_values=True)
    try:
        return (
            params["corpus"][0],
            params["term"][0],
            params["config"][0],
        )
    except KeyError:
        return None


# -- framing ----------------------------------------------------------------

#: Magic prefix of a key frame (batch lookup request body).
KEY_BATCH_MAGIC = b"RBK1"
#: Magic prefix of a vector frame (lookup response / PUT body).
VECTOR_BATCH_MAGIC = b"RBV1"
#: Hard cap on entries per frame, enforced by encoder and decoder alike
#: (a confused or hostile client cannot make the server size anything
#: from an unbounded declared count).
MAX_BATCH_ITEMS = 4096

_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


class _FrameReader:
    """Bounds-checked cursor over a frame body; raises ValueError when
    the frame lies about its own lengths (the decoders' single failure
    funnel)."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._offset + n > len(self._data):
            raise ValueError("frame truncated")
        chunk = self._data[self._offset : self._offset + n]
        self._offset += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def exhausted(self) -> bool:
        return self._offset == len(self._data)


def encode_key_batch(keys: list[CacheKey]) -> bytes:
    """One key frame holding every key, order preserved."""
    if len(keys) > MAX_BATCH_ITEMS:
        raise ValueError(
            f"batch of {len(keys)} keys exceeds MAX_BATCH_ITEMS "
            f"({MAX_BATCH_ITEMS})"
        )
    parts = [KEY_BATCH_MAGIC, _U32.pack(len(keys))]
    for key in keys:
        raw = encode_key(key).encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_key_batch(data: bytes) -> list[CacheKey] | None:
    """The keys of a key frame, or None for any malformation."""
    reader = _FrameReader(data)
    try:
        if reader.take(4) != KEY_BATCH_MAGIC:
            return None
        count = reader.u32()
        if count > MAX_BATCH_ITEMS:
            return None
        keys: list[CacheKey] = []
        for _ in range(count):
            raw = reader.take(reader.u32())
            key = decode_key(raw.decode("utf-8"))
            if key is None:
                return None
            keys.append(key)
        if not reader.exhausted():
            return None  # trailing garbage: distrust the whole frame
        return keys
    except (ValueError, UnicodeDecodeError):
        return None


def encode_vector_batch(
    entries: list[tuple[CacheKey, np.ndarray | None]],
) -> bytes:
    """One vector frame: ``(key, vector-or-None)`` per entry, in order.

    ``None`` marks an in-band miss.
    """
    if len(entries) > MAX_BATCH_ITEMS:
        raise ValueError(
            f"batch of {len(entries)} entries exceeds MAX_BATCH_ITEMS "
            f"({MAX_BATCH_ITEMS})"
        )
    parts = [VECTOR_BATCH_MAGIC, _U32.pack(len(entries))]
    for key, vector in entries:
        raw_key = encode_key(key).encode("utf-8")
        parts.append(_U32.pack(len(raw_key)))
        parts.append(raw_key)
        if vector is None:
            parts.append(_U8.pack(0))
            continue
        vector = np.asarray(vector)
        if not vector.flags["C_CONTIGUOUS"]:
            vector = np.ascontiguousarray(vector)
        body = vector.tobytes()
        dtype_raw = vector.dtype.str.encode("ascii")
        parts.append(_U8.pack(1))
        parts.append(_U8.pack(len(dtype_raw)))
        parts.append(dtype_raw)
        parts.append(_U8.pack(vector.ndim))
        for dim in vector.shape:
            parts.append(_U32.pack(dim))
        parts.append(_U32.pack(len(body)))
        parts.append(body)
        parts.append(_U32.pack(zlib.crc32(body)))
    return b"".join(parts)


def decode_vector_batch(
    data: bytes,
) -> list[tuple[CacheKey, np.ndarray | None]] | None:
    """The entries of a vector frame, or None for any malformation.

    All-or-nothing: a bad magic, a lying length, an unknown dtype, or a
    CRC mismatch *anywhere* distrusts the entire frame (it travelled as
    one body) and returns None — the caller counts one failure and
    treats every key as a clean miss.
    """
    reader = _FrameReader(data)
    try:
        if reader.take(4) != VECTOR_BATCH_MAGIC:
            return None
        count = reader.u32()
        if count > MAX_BATCH_ITEMS:
            return None
        entries: list[tuple[CacheKey, np.ndarray | None]] = []
        for _ in range(count):
            raw_key = reader.take(reader.u32())
            key = decode_key(raw_key.decode("utf-8"))
            if key is None:
                return None
            if reader.u8() == 0:
                entries.append((key, None))
                continue
            dtype = np.dtype(reader.take(reader.u8()).decode("ascii"))
            shape = tuple(reader.u32() for _ in range(reader.u8()))
            body = reader.take(reader.u32())
            crc = reader.u32()
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if expected != len(body) or zlib.crc32(body) != crc:
                return None
            entries.append(
                (key, np.frombuffer(body, dtype=dtype).reshape(shape))
            )
        if not reader.exhausted():
            return None
        return entries
    except (ValueError, TypeError, UnicodeDecodeError):
        return None
