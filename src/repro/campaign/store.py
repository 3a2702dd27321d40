"""Resumable JSONL result store.

One JSON object per line, appended as jobs finish, flushed per record —
so a killed campaign leaves a valid prefix plus at most one torn line,
which :meth:`ResultStore.load` tolerates.  Records carry their job id;
on resume the runner skips every job whose latest record is ``ok`` and
replays its stored payload into the aggregate, so a rerun completes
only the missing/failed cells.  The latest record per job id wins,
which also makes the store an audit log: every attempt outcome
(``timeout``, ``crashed``, ``error``) of every cell stays visible.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Mapping

__all__ = ["ResultStore"]


class ResultStore:
    """Append-only JSONL store for campaign job records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._stream = None

    # ------------------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def truncate(self) -> None:
        """Start a fresh campaign file (non-resume runs)."""
        self.close()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "w"):
            pass

    def append(self, record: Mapping[str, Any]) -> None:
        if self._stream is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            # A killed campaign can leave a torn final line with no
            # newline; appending straight after it would corrupt the
            # first new record too.  Heal the line boundary first.
            needs_newline = False
            try:
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    needs_newline = probe.read(1) != b"\n"
            except OSError:
                pass  # missing or empty file: nothing to heal
            self._stream = open(self.path, "a")
            if needs_newline:
                self._stream.write("\n")
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Every well-formed record, in file order.

        A torn final line (killed campaign) or stray garbage is skipped
        rather than fatal: the store must stay loadable after any crash.
        """
        if not self.exists():
            return
        with open(self.path) as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Latest record per job id (later lines supersede earlier)."""
        latest: Dict[str, Dict[str, Any]] = {}
        for record in self.iter_records():
            job_id = record.get("job_id")
            if job_id:
                latest[job_id] = record
        return latest

    def completed_ids(self) -> List[str]:
        """Job ids whose latest record completed successfully."""
        return sorted(
            job_id
            for job_id, record in self.load().items()
            if record.get("status") == "ok"
        )
