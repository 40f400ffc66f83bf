"""RemoteCacheStore failure modes: every network fault is a clean miss.

The contract under test (see :mod:`repro.service.client`): the pipeline
must never block on — or crash because of — the cache service.  Server
down, a mid-response disconnect, a malformed payload, and a timeout all
make ``get`` return None (and ``put`` drop silently), increment
``remote_errors``, and raise nothing.  Fault injection uses raw
listening sockets speaking just enough HTTP to misbehave on purpose;
every request they see is on ``/vectors/batch``, and what they answer
is a vector frame that would be a hit but for the fault.
"""

import contextlib
import socket
import struct
import threading

import numpy as np
import pytest

from repro.polysemy.cache import FeatureCache
from repro.service import client as client_module
from repro.service.client import RemoteCacheStore
from repro.service.wire import (
    KEY_BATCH_MAGIC,
    MAX_BATCH_ITEMS,
    VECTOR_BATCH_MAGIC,
    encode_vector_batch,
)


def key(term="heart attack"):
    return FeatureCache.key("corpus-fp", term, "config-fp")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def ok_head(length: int) -> bytes:
    """A 200 response head promising ``length`` body bytes."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/octet-stream\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode()


class FaultyServer:
    """A one-connection-at-a-time server with a scripted response.

    ``respond(connection)`` decides the fault; the server accepts
    connections until closed, so clients that retry on a fresh
    connection still hit the same behaviour.  ``request_lines`` records
    what each connection asked for.
    """

    def __init__(self, respond) -> None:
        self._respond = respond
        self.request_lines: list[bytes] = []
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
                self.request_lines.append(data.split(b"\r\n", 1)[0])
                self._respond(connection)
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


def assert_batch_route_only(server: FaultyServer):
    """Every vector request the fault server saw (anything but a stats
    poll) was a frame on the one route."""
    lines = [
        line for line in server.request_lines
        if not line.startswith(b"GET /stats ")
    ]
    assert lines
    for line in lines:
        assert line.split(b" ")[:2] in (
            [b"POST", b"/vectors/batch"],
            [b"PUT", b"/vectors/batch"],
        ), line


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
        frame = encode_vector_batch([(key(), np.arange(32.0))])

        def respond(connection):
            # Promise the full frame, deliver a fragment, vanish.
            connection.sendall(ok_head(len(frame)) + frame[: len(frame) // 3])

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            assert_clean_miss(store)
            assert_batch_route_only(server)
        finally:
            server.close()

    def test_disconnect_before_any_response(self):
        def respond(connection):
            pass  # close immediately after reading the request

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            assert_clean_miss(store)
            assert_batch_route_only(server)
        finally:
            server.close()


class TestMalformedPayload:
    @staticmethod
    def _serve_response(raw: bytes):
        def respond(connection):
            connection.sendall(raw)

        return FaultyServer(respond)

    def test_intact_frame_is_a_hit(self):
        # The control for the faults below: unharmed, the scripted
        # answer is read as a hit.
        frame = encode_vector_batch([(key(), np.arange(8.0))])
        server = self._serve_response(ok_head(len(frame)) + frame)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            np.testing.assert_array_equal(store.get(key()), np.arange(8.0))
            assert store.stats()["remote_errors"] == 0
        finally:
            server.close()

    def test_wrong_crc_is_a_miss(self):
        frame = encode_vector_batch([(key(), np.arange(8.0))])
        corrupt = frame[:-1] + bytes([frame[-1] ^ 1])  # the CRC's last byte
        server = self._serve_response(ok_head(len(corrupt)) + corrupt)
        try:
            assert_clean_miss(RemoteCacheStore(server.url, timeout=1.0))
            assert_batch_route_only(server)
        finally:
            server.close()

    def test_garbage_bytes_are_a_miss(self):
        server = self._serve_response(b"NOT HTTP AT ALL\r\n\r\n")
        try:
            assert_clean_miss(RemoteCacheStore(server.url, timeout=1.0))
            assert_batch_route_only(server)
        finally:
            server.close()


class TestTimeout:
    def test_stalled_server_is_a_miss_within_the_timeout(self):
        stall = threading.Event()

        def respond(connection):
            stall.wait(5.0)  # hold the response hostage past the timeout

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=0.3)
            assert store.get(key()) is None
            assert store.stats()["remote_errors"] == 1
            assert_batch_route_only(server)
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
    """Multi-key frames under fire: every fault degrades all of a
    frame's keys to clean misses and bumps ``remote_errors`` — one count
    per failed round trip, never a crash or a half-applied batch."""

    def test_mid_batch_disconnect_is_clean_misses(self, monkeypatch):
        monkeypatch.setattr(client_module, "DEFAULT_BATCH_SIZE", 4)
        frame = encode_vector_batch(
            [(k, np.arange(8.0)) for k in batch_keys()]
        )

        def respond(connection):
            # Promise a full vector frame, deliver a third, vanish.
            connection.sendall(ok_head(len(frame)) + frame[: len(frame) // 3])

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            # 6 keys in frames of 4: one failed round trip per frame.
            stats = assert_batch_clean_miss(store, errors_at_least=2)
            assert stats["remote_errors"] == 4  # 2 get frames + 2 put
            assert_batch_route_only(server)
        finally:
            server.close()

    def test_truncated_frame_inside_a_complete_body_is_clean_misses(self):
        # The HTTP body arrives whole, but the frame inside lies about
        # its lengths — the all-or-nothing decoder must reject it.
        frame = encode_vector_batch(
            [(k, np.arange(8.0)) for k in batch_keys()]
        )
        torn = frame[: len(frame) - 7]

        def respond(connection):
            connection.sendall(ok_head(len(torn)) + torn)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            assert_batch_clean_miss(store)
        finally:
            server.close()

    def test_oversized_frame_from_server_is_clean_misses(self):
        # A frame declaring more entries than MAX_BATCH_ITEMS must be
        # rejected before any allocation is sized from it.
        bogus = VECTOR_BATCH_MAGIC + struct.pack(
            "<I", MAX_BATCH_ITEMS + 1
        )

        def respond(connection):
            connection.sendall(ok_head(len(bogus)) + bogus)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
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
            store = RemoteCacheStore(server.url, timeout=5.0)
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

        def respond(connection):
            connection.sendall(ok_head(len(frame)) + frame)

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            found = store.get_many([key("dup")])
            np.testing.assert_array_equal(found[key("dup")], np.ones(2))
            assert store.stats()["remote_errors"] == 0
        finally:
            server.close()

    def test_a_404_is_one_error_per_frame_and_no_other_route(self):
        """The route is the only one: an unmarked 404 (a misrouted URL,
        a server of another kind) counts one failure per frame, and the
        store tries no other path."""
        payload = b'{"error": "not found"}'

        def respond(connection):
            connection.sendall(
                (
                    "HTTP/1.1 404 Not Found\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                ).encode()
                + payload
            )

        server = FaultyServer(respond)
        try:
            store = RemoteCacheStore(server.url, timeout=1.0)
            stats = assert_batch_clean_miss(store, keys_requested=3)
            assert stats["remote_errors"] == 2
            assert store.get_many(batch_keys(2)) == {}
            assert store.stats()["remote_errors"] == 3
            assert_batch_route_only(server)
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
