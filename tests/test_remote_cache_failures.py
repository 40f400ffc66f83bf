"""RemoteCacheStore failure modes: every network fault is a clean miss.

The contract under test (see :mod:`repro.service.client`): the pipeline
must never block on — or crash because of — the cache service.  Server
down, a mid-response disconnect, a malformed payload, and a timeout all
make ``get`` return None (and ``put`` drop silently), increment
``remote_errors``, and raise nothing.  Fault injection uses raw
listening sockets speaking just enough HTTP to misbehave on purpose.
"""

import contextlib
import socket
import struct
import threading

import numpy as np
import pytest

from repro.polysemy.cache import FeatureCache
from repro.service.client import RemoteCacheStore
from repro.service.wire import (
    KEY_BATCH_MAGIC,
    MAX_BATCH_ITEMS,
    VECTOR_BATCH_MAGIC,
    encode_vector,
    encode_vector_batch,
)


def key(term="heart attack"):
    return FeatureCache.key("corpus-fp", term, "config-fp")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class FaultyServer:
    """A one-connection-at-a-time server with a scripted response.

    ``respond(connection, request_head)`` decides the fault (the head
    lets path-sensitive scripts answer the batch route and its per-key
    fallback differently); the server accepts connections until closed,
    so clients that retry on a fresh connection still hit the same
    behaviour.
    """

    def __init__(self, respond) -> None:
        self._respond = respond
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._listener.getsockname()[1]}"

    def _serve(self) -> None:
        while not self._closing:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            try:
                # Read the request head so the client finishes sending.
                connection.settimeout(2.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = connection.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                self._respond(connection, data)
            except OSError:
                pass
            finally:
                try:
                    connection.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._closing = True
        # close() alone does not wake a thread blocked in accept();
        # shutdown() does, so the join below returns at once.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        self._thread.join(timeout=2.0)
        assert not self._thread.is_alive(), "fault server thread leaked"


def assert_clean_miss(store: RemoteCacheStore, *, errors_at_least=1):
    """get() misses, put() swallows, counters record the failures."""
    assert store.get(key()) is None
    store.put(key(), np.arange(4.0))  # must not raise either
    stats = store.stats()
    assert stats["remote_hits"] == 0
    assert stats["remote_errors"] >= errors_at_least
    return stats


class TestServerDown:
    def test_connection_refused_counts_errors_per_operation(self):
        port = free_port()  # bound then released: nothing listens here
        store = RemoteCacheStore(f"http://127.0.0.1:{port}", timeout=0.5)
        stats = assert_clean_miss(store)
        # One error for the get, one for the put — nothing sticky.
        assert stats["remote_errors"] == 2
        assert len(store) == 0  # stats polling fails soft too

    def test_feature_cache_over_a_dead_service_counts_misses(self):
        port = free_port()
        cache = FeatureCache(
            store=RemoteCacheStore(f"http://127.0.0.1:{port}", timeout=0.5)
        )
        assert cache.lookup(key()) is None
        cache.store(key(), np.arange(3.0))
        stats = cache.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert stats["remote_errors"] >= 2


class TestMidResponseDisconnect:
    def test_truncated_body_is_a_miss(self):
        headers, body = encode_vector(np.arange(32.0))

        def respond(connection, request_head):
            head = (
                "HTTP/1.1 200 OK\r\n"
                f"X-Repro-Dtype: {headers['X-Repro-Dtype']}\r\n"
                f"X-Repro-Shape: {headers['X-Repro-Shape']}\r\n"
                f"X-Repro-Crc: {headers['X-Repro-Crc']}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            # Promise the full vector, deliver a fragment, vanish.
            connection.sendall(head.encode() + body[: len(body) // 3])

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            assert_clean_miss(store)
        finally:
            server.close()

    def test_disconnect_before_any_response(self):
        def respond(connection, request_head):
            pass  # close immediately after reading the request

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            assert_clean_miss(store)
        finally:
            server.close()


class TestMalformedPayload:
    @staticmethod
    def _serve_response(raw: bytes):
        def respond(connection, request_head):
            connection.sendall(raw)

        return FaultyServer(respond)

    def test_wrong_crc_is_a_miss(self):
        headers, body = encode_vector(np.arange(8.0))
        raw = (
            "HTTP/1.1 200 OK\r\n"
            f"X-Repro-Dtype: {headers['X-Repro-Dtype']}\r\n"
            f"X-Repro-Shape: {headers['X-Repro-Shape']}\r\n"
            "X-Repro-Crc: 1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        server = self._serve_response(raw)
        try:
            assert_clean_miss(RemoteCacheStore(server.url, timeout=1.0))
        finally:
            server.close()

    def test_missing_vector_headers_is_a_miss(self):
        body = b"\x00" * 24
        raw = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        server = self._serve_response(raw)
        try:
            assert_clean_miss(RemoteCacheStore(server.url, timeout=1.0))
        finally:
            server.close()

    def test_garbage_bytes_are_a_miss(self):
        server = self._serve_response(b"NOT HTTP AT ALL\r\n\r\n")
        try:
            assert_clean_miss(RemoteCacheStore(server.url, timeout=1.0))
        finally:
            server.close()


class TestTimeout:
    def test_stalled_server_is_a_miss_within_the_timeout(self):
        stall = threading.Event()

        def respond(connection, request_head):
            stall.wait(5.0)  # hold the response hostage past the timeout

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=0.3)
            assert store.get(key()) is None
            assert store.stats()["remote_errors"] == 1
        finally:
            stall.set()
            server.close()


def batch_keys(n=6):
    return [key(f"term-{i}") for i in range(n)]


def assert_batch_clean_miss(store, *, keys_requested=6, errors_at_least=1):
    """get_many misses every key, put_many swallows, errors counted."""
    assert store.get_many(batch_keys(keys_requested)) == {}
    store.put_many(
        [(k, np.arange(4.0)) for k in batch_keys(keys_requested)]
    )  # must not raise either
    stats = store.stats()
    assert stats["remote_hits"] == 0
    assert stats["remote_errors"] >= errors_at_least
    return stats


class TestBatchRouteFaults:
    """The batch protocol under fire: every fault degrades to per-key
    clean misses and bumps ``remote_errors`` — one count per failed
    round trip, never a crash or a half-applied batch."""

    def test_mid_batch_disconnect_is_clean_misses(self):
        frame = encode_vector_batch(
            [(k, np.arange(8.0)) for k in batch_keys()]
        )

        def respond(connection, request_head):
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/octet-stream\r\n"
                f"Content-Length: {len(frame)}\r\n\r\n"
            )
            # Promise a full vector frame, deliver a third, vanish.
            connection.sendall(head.encode() + frame[: len(frame) // 3])

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0, batch_size=4)
            # 6 keys in chunks of 4: one failed round trip per chunk.
            stats = assert_batch_clean_miss(store, errors_at_least=2)
            assert stats["remote_errors"] == 4  # 2 get chunks + 2 put
        finally:
            server.close()

    def test_truncated_frame_inside_a_complete_body_is_clean_misses(self):
        # The HTTP body arrives whole, but the frame inside lies about
        # its lengths — the all-or-nothing decoder must reject it.
        frame = encode_vector_batch(
            [(k, np.arange(8.0)) for k in batch_keys()]
        )
        torn = frame[: len(frame) - 7]

        def respond(connection, request_head):
            head = (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Length: {len(torn)}\r\n\r\n"
            )
            connection.sendall(head.encode() + torn)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0, batch_size=8)
            assert_batch_clean_miss(store)
        finally:
            server.close()

    def test_oversized_frame_from_server_is_clean_misses(self):
        # A frame declaring more entries than MAX_BATCH_ITEMS must be
        # rejected before any allocation is sized from it.
        bogus = VECTOR_BATCH_MAGIC + struct.pack(
            "<I", MAX_BATCH_ITEMS + 1
        )

        def respond(connection, request_head):
            head = (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Length: {len(bogus)}\r\n\r\n"
            )
            connection.sendall(head.encode() + bogus)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0, batch_size=4)
            assert_batch_clean_miss(store)
        finally:
            server.close()

    def test_server_rejects_oversized_frames_with_400(self, tmp_path):
        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(DiskCacheStore(tmp_path), port=0)
        server.start()
        try:
            import http.client

            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=5.0
            )
            for method, magic in (
                ("POST", KEY_BATCH_MAGIC),
                ("PUT", VECTOR_BATCH_MAGIC),
            ):
                bogus = magic + struct.pack("<I", MAX_BATCH_ITEMS + 1)
                connection.request(
                    method, "/vectors/batch", body=bogus,
                    headers={"Content-Type": "application/octet-stream"},
                )
                response = connection.getresponse()
                body = response.read()
                assert response.status == 400
                assert b"malformed" in body
            # The rejection stored nothing.
            assert len(server.service.store) == 0
            connection.close()
        finally:
            server.stop()

    def test_duplicate_keys_in_one_batch(self, tmp_path):
        """Duplicates are legal: the response answers every occurrence,
        duplicate PUTs resolve last-wins, and nothing double-counts
        into an error."""
        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(DiskCacheStore(tmp_path), port=0)
        server.start()
        try:
            store = RemoteCacheStore(server.url, timeout=5.0, batch_size=8)
            duplicated = key("dup")
            store.put_many(
                [
                    (duplicated, np.zeros(3)),
                    (key("other"), np.full(3, 7.0)),
                    (duplicated, np.ones(3)),  # last wins
                ]
            )
            found = store.get_many([duplicated, key("other"), duplicated])
            np.testing.assert_array_equal(found[duplicated], np.ones(3))
            np.testing.assert_array_equal(
                found[key("other")], np.full(3, 7.0)
            )
            assert store.stats()["remote_errors"] == 0
        finally:
            server.stop()

    def test_duplicate_keys_in_a_scripted_response_frame(self):
        # A confused server answering the same key twice must not
        # crash the client; the later entry wins, no error counted.
        frame = encode_vector_batch(
            [(key("dup"), np.zeros(2)), (key("dup"), np.ones(2))]
        )

        def respond(connection, request_head):
            head = (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Length: {len(frame)}\r\n\r\n"
            )
            connection.sendall(head.encode() + frame)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0, batch_size=8)
            found = store.get_many([key("dup")])
            np.testing.assert_array_equal(found[key("dup")], np.ones(2))
            assert store.stats()["remote_errors"] == 0
        finally:
            server.close()

    def test_pre_batch_server_flips_to_per_key_fallback(self):
        """An unmarked 404 on the batch route means an old deployment:
        the store falls back to per-key requests — transparently, and
        without counting the probe as a failure."""
        batch_probes = []

        def respond(connection, request_head):
            request_line = request_head.split(b"\r\n", 1)[0]
            if b"/vectors/batch" in request_line:
                batch_probes.append(request_line)
                payload = b'{"error": "not found"}'
                head = (
                    "HTTP/1.1 404 Not Found\r\n"  # no X-Repro-Miss
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                )
                connection.sendall(head.encode() + payload)
            elif b"PUT /cache/vector" in request_line:
                connection.sendall(
                    b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"
                )
            else:  # per-key GET: an honest marked miss
                payload = b'{"error": "miss"}'
                head = (
                    "HTTP/1.1 404 Not Found\r\n"
                    "X-Repro-Miss: 1\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                )
                connection.sendall(head.encode() + payload)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0, batch_size=4)
            assert store.get_many(batch_keys(3)) == {}
            store.put_many([(k, np.arange(2.0)) for k in batch_keys(3)])
            # Old-server probes are a deployment state, not a failure.
            assert store.stats()["remote_errors"] == 0
            # The flip is remembered: later bulk calls go straight to
            # per-key requests without re-probing the batch route.
            assert store.get_many(batch_keys(2)) == {}
            assert len(batch_probes) == 1
        finally:
            server.close()


class TestChannelTeardown:
    """The channel's close path swallows exactly socket-layer errors."""

    class _Conn:
        def __init__(self, exc=None):
            self.exc = exc
            self.closed = False

        def close(self):
            self.closed = True
            if self.exc is not None:
                raise self.exc

    def _channel(self, conn):
        store = RemoteCacheStore("http://127.0.0.1:1")
        channel = store._channel
        channel._conn = conn
        return channel

    def test_oserror_on_close_is_swallowed_and_conn_cleared(self):
        conn = self._Conn(ConnectionResetError("peer gone"))
        channel = self._channel(conn)
        channel.close()  # must not raise
        assert conn.closed
        assert channel._conn is None

    def test_non_oserror_on_close_propagates(self):
        # The handler is deliberately narrow: a non-socket failure in
        # close() is a programming error and must surface.
        channel = self._channel(self._Conn(RuntimeError("bug")))
        with pytest.raises(RuntimeError):
            channel.close()


class TestRecovery:
    def test_errors_do_not_poison_later_requests(self, tmp_path):
        """A store that failed against a dead port works once pointed at
        a live server — the connection is rebuilt transparently."""
        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(DiskCacheStore(tmp_path), port=0)
        server.start()
        try:
            store = RemoteCacheStore(server.url, timeout=2.0)
            vec = np.arange(6.0)
            store.put(key(), vec)
            np.testing.assert_array_equal(store.get(key()), vec)
            # Sever the server-side socket; the next call fails, the one
            # after that reconnects and succeeds.
            server._httpd.close_connections()
            np.testing.assert_array_equal(store.get(key()), vec)
            assert store.stats()["remote_hits"] == 2
        finally:
            server.stop()
