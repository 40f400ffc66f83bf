"""Watched-directory ingestion for the streaming enrichment daemon.

``repro serve --watch NAME=DIR`` points a :class:`DirectoryWatcher` at a
drop directory: every ``*.jsonl`` file that appears there (the corpus
wire shape of :mod:`repro.corpus.io` — one JSON document per line) is
parsed and submitted to the scenario's
``POST /scenarios/<name>/documents`` path, i.e. straight into
:meth:`repro.service.jobs.JobManager.submit_documents`.  This is the
zero-client ingestion mode: an upstream fetcher only has to drop files.

Each file is submitted with an ``Idempotency-Key`` derived from the
scenario and the file *content*, so a re-dropped (or re-scanned) file
replays its original job instead of growing the corpus twice — the same
guarantee HTTP clients get.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path

from repro.errors import ValidationError
from repro.service.jobs import JobManager
from repro.utils.validation import check_seconds

__all__ = ["DirectoryWatcher"]

#: Parse/submit failures retained for inspection (oldest dropped).
MAX_ERRORS = 100


class DirectoryWatcher:
    """Poll a directory and feed new document files to a scenario.

    Parameters
    ----------
    manager:
        The serving :class:`~repro.service.jobs.JobManager`.
    scenario:
        Registered scenario (corpus) name the documents feed.
    directory:
        Directory to poll; created if missing.
    poll_seconds:
        Sleep between scans of the background thread: a finite number
        of seconds, > 0.

    A file is picked up when its ``(mtime, size)`` is new — touching a
    file re-submits it, which the content-derived ``Idempotency-Key``
    turns into a no-op replay unless the content actually changed.
    """

    def __init__(
        self,
        manager: JobManager,
        scenario: str,
        directory: str | Path,
        *,
        poll_seconds: float = 1.0,
    ) -> None:
        self.poll_seconds = check_seconds(poll_seconds, "poll_seconds")
        self._manager = manager
        self.scenario = scenario
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seen: dict[str, tuple[float, int]] = {}
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def scan_once(self) -> list[str]:
        """One scan: submit every new/changed ``*.jsonl`` file.

        Returns the submitted job ids (replays included).  Unreadable
        or malformed files land in :attr:`errors` and are retried on
        the next scan only if they change again.
        """
        submitted: list[str] = []
        for path in sorted(self.directory.glob("*.jsonl")):
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished between glob and stat
            signature = (stat.st_mtime, stat.st_size)
            if self._seen.get(path.name) == signature:
                continue
            self._seen[path.name] = signature
            try:
                content = path.read_bytes()
                documents = _parse_document_lines(content)
                key = "watch:{}:{}".format(
                    self.scenario, hashlib.sha1(content).hexdigest()
                )
                job_id, __ = self._manager.submit_documents(
                    self.scenario, documents, idempotency_key=key
                )
                submitted.append(job_id)
            except (OSError, ValidationError, ValueError) as exc:
                self._record_error(
                    f"{path.name}: {type(exc).__name__}: {exc}"
                )
        return submitted

    def start(self) -> None:
        """Poll on a background thread until :meth:`stop`."""
        if self._thread is not None:
            raise ValidationError("watcher already started")
        self._thread = threading.Thread(
            target=self._loop,
            name=f"repro-watch-{self.scenario}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._stop.clear()

    # -- internals ---------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            started = time.monotonic()
            try:
                self.scan_once()
            except Exception as exc:  # noqa: BLE001 - keep the thread alive
                self._record_error(f"scan failed: {type(exc).__name__}: {exc}")
            elapsed = time.monotonic() - started
            self._stop.wait(max(0.0, self.poll_seconds - elapsed))

    def _record_error(self, message: str) -> None:
        self.errors.append(message)
        del self.errors[:-MAX_ERRORS]


def _parse_document_lines(content: bytes) -> list[dict]:
    """Decode a dropped JSONL file into the submit-documents payload."""
    documents: list[dict] = []
    for line_no, line in enumerate(content.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"bad JSON on line {line_no}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValidationError(f"line {line_no} is not a JSON object")
        documents.append(payload)
    if not documents:
        raise ValidationError("file contains no documents")
    return documents
