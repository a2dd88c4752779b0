"""Durable write-ahead logging, checkpoints, and crash recovery.

:class:`~repro.txn.write_log.WriteLog` records row-level ops in process
memory for branch merges; this module extends the idea to a *persistent*
segmented on-disk log that makes committed state survive a crash
(ROADMAP: "Durability and read replicas").

Every catalog write path appends a :class:`WalRecord` **before** mutating
state (see ``Catalog._wal_log``), so the log is always at least as new as
the catalog. Records are framed as ``[u32 length][u32 crc32][pickled
body]`` inside numbered segment files; a torn final frame (crash mid
``write``) fails the CRC and recovery truncates it instead of erroring.

The log holds data only. Every record is a catalog record
(:data:`CATALOG_KINDS`): one per catalog write call, carrying the call's
arguments verbatim. Replaying them in order through :func:`apply_record`
reproduces the catalog *exactly*: row ids, per-table ``data_version``
counters, ``schema_version``/``data_epoch``, even ``aux_index_version``
— recovery lands on the same ``data_version_tuple()`` the crashed
process had. Reads append nothing: probes are SELECT-only, and the
``information_schema`` tables are derived by each catalog from its stored
tables, so a recovered or replica catalog derives the same rows from the
same records. What a serving system derives from reads (its turn
counter, answered-before history and materialization advice) is a cache
and is not logged; a recovered system starts with it cold, answers the
same rows and only re-executes.

Checkpoints reuse :meth:`Catalog.snapshot` (chunk-shared, picklable):
``ckpt-<lsn>.pkl`` holds the snapshot and the LSN it covers; segments the
checkpoint covers are pruned. Recovery = latest checkpoint + tail replay.

The same log doubles as the replication stream: in-process
:class:`~repro.txn.replica.ReadReplica` followers consume
:meth:`WriteAheadLog.records_since` (served from a bounded in-memory tail
when possible, the disk otherwise) and measure their staleness as the
number of records not yet applied.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass

from repro.errors import WalError
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.util.env import env_flag

_LOG = logging.getLogger(__name__)

#: Frame header: payload length, crc32 of the payload.
_HEADER = struct.Struct(">II")

#: The record kinds: one per catalog write call (see :func:`apply_record`).
CATALOG_KINDS = frozenset(
    {
        "create_table",
        "register_table",
        "drop_table",
        "replace_table",
        "insert",
        "update",
        "delete",
        "hash_index",
        "sorted_index",
        "aux_hash_index",
        "aux_sorted_index",
    }
)

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"
_CKPT_PREFIX = "ckpt-"
_CKPT_SUFFIX = ".pkl"


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry: a monotone LSN, a kind, and the call args."""

    lsn: int
    kind: str
    payload: tuple


@dataclass(frozen=True)
class Checkpoint:
    """A durable base image: a catalog snapshot and the LSN it covers.

    Replay starts after ``last_lsn``.
    """

    last_lsn: int
    snapshot: object  # CatalogSnapshot; typed loosely to keep pickling simple


@dataclass(frozen=True)
class _AppendToken:
    """Handle for the append-before-mutate guard (see :meth:`abort`)."""

    record: WalRecord
    offset: int
    length: int


def _encode(record: WalRecord) -> bytes:
    body = pickle.dumps(
        (record.lsn, record.kind, record.payload), protocol=pickle.HIGHEST_PROTOCOL
    )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_frames(data: bytes):
    """Yield ``(end_offset, record)`` for each intact frame.

    Stops silently at the first torn or corrupt frame — that is the
    crash point; everything before it is trustworthy (CRC-checked).
    """
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        body_end = body_start + length
        if body_end > total:
            return  # torn: the final write did not complete
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            return  # corrupt tail
        try:
            lsn, kind, payload = pickle.loads(body)
        except Exception:
            return
        yield body_end, WalRecord(lsn, kind, payload)
        offset = body_end


def apply_record(catalog: Catalog, record: WalRecord) -> None:
    """Re-invoke the catalog write call a catalog record describes.

    Replay goes through the same public methods that produced the record,
    so every version counter, row-id assignment, and index rebuild
    happens exactly as it did live.
    """
    kind, p = record.kind, record.payload
    if kind == "create_table":
        catalog.create_table(p[0])
    elif kind == "register_table":
        catalog.register_table(Table.restore(p[0]))
    elif kind == "drop_table":
        catalog.drop_table(p[0])
    elif kind == "replace_table":
        catalog.replace_table(Table.restore(p[0]))
    elif kind == "insert":
        catalog.insert_rows(p[0], p[1])
    elif kind == "update":
        catalog.update_row(p[0], p[1], p[2])
    elif kind == "delete":
        catalog.delete_row(p[0], p[1])
    elif kind == "hash_index":
        catalog.create_hash_index(p[0], p[1])
    elif kind == "sorted_index":
        catalog.create_sorted_index(p[0], p[1])
    elif kind == "aux_hash_index":
        catalog.create_auxiliary_hash_index(p[0], p[1])
    elif kind == "aux_sorted_index":
        catalog.create_auxiliary_sorted_index(p[0], p[1])
    else:
        raise WalError(f"cannot apply record kind {kind!r}")


class WriteAheadLog:
    """A segmented on-disk write-ahead log with checkpoints.

    Opening a directory repairs it first: a torn or corrupt final frame
    is truncated, then appending resumes after the last intact record.
    One instance serializes all appends behind a lock; readers (replicas)
    share the same lock for consistent tails.
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = 1_000_000,
        checkpoint_every: int = 512,
        tail_records: int = 4096,
        fsync: bool | None = None,
    ) -> None:
        self.directory = directory
        self.segment_bytes = max(4096, int(segment_bytes))
        self.checkpoint_every = max(1, int(checkpoint_every))
        if fsync is None:
            fsync = env_flag("REPRO_WAL_FSYNC")
        self.fsync = fsync
        self.lock = threading.RLock()
        self._tail: deque[WalRecord] = deque(maxlen=max(16, int(tail_records)))
        self._closed = False
        self._records_since_checkpoint = 0
        os.makedirs(directory, exist_ok=True)
        self.base_checkpoint = self._load_latest_checkpoint()
        self.latest_checkpoint = self.base_checkpoint
        self._replay_records: list[WalRecord] = []
        self._open_and_repair()

    # -- opening / repair ------------------------------------------------------

    def _segment_paths(self) -> list[str]:
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    def _checkpoint_paths(self) -> list[str]:
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_CKPT_PREFIX) and name.endswith(_CKPT_SUFFIX)
        ]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    def _load_latest_checkpoint(self) -> Checkpoint | None:
        # Newest first; an unreadable checkpoint (crash mid-rename never
        # happens with os.replace, but disks lie) falls back to its elder.
        for path in reversed(self._checkpoint_paths()):
            try:
                with open(path, "rb") as handle:
                    checkpoint = pickle.load(handle)
                if isinstance(checkpoint, Checkpoint):
                    return checkpoint
            except Exception:
                continue
        return None

    def _open_and_repair(self) -> None:
        base_lsn = self.base_checkpoint.last_lsn if self.base_checkpoint else 0
        scanned: list[tuple[int, int, WalRecord]] = []  # (seg_idx, end, rec)
        segments = self._segment_paths()
        truncate = False
        for seg_index, path in enumerate(segments):
            with open(path, "rb") as handle:
                data = handle.read()
            consumed = 0
            for end, record in _decode_frames(data):
                scanned.append((seg_index, end, record))
                consumed = end
            if consumed < len(data):
                truncate = True  # a torn or corrupt final frame
                break  # later segments postdate the crash point

        last_lsn = scanned[-1][2].lsn if scanned else base_lsn
        if last_lsn < base_lsn:
            # The checkpoint postdates every surviving record (its
            # segments were pruned): start a fresh tail after it.
            scanned = []
            truncate = True
            last_lsn = base_lsn
        self.next_lsn = last_lsn + 1
        self._replay_records = [
            record for (_, _, record) in scanned if record.lsn > base_lsn
        ]
        for record in self._replay_records:
            self._tail.append(record)

        if truncate:
            _LOG.warning("wal: truncating the log after its last intact record")
            # Physically roll the log back to the last intact frame so no
            # future open resurrects the orphaned tail.
            if scanned:
                keep_index, keep_end, _ = scanned[-1]
                for path in segments[keep_index + 1 :]:
                    os.remove(path)
                with open(segments[keep_index], "r+b") as handle:
                    handle.truncate(keep_end)
            else:
                for path in segments:
                    os.remove(path)
            segments = self._segment_paths()

        if segments:
            self._segment_path = segments[-1]
            self._file = open(self._segment_path, "r+b")
            self._file.seek(0, os.SEEK_END)
            self._segment_size = self._file.tell()
        else:
            self._start_segment(self.next_lsn)

    def _start_segment(self, first_lsn: int) -> None:
        self._segment_path = os.path.join(
            self.directory, f"{_SEGMENT_PREFIX}{first_lsn:016d}{_SEGMENT_SUFFIX}"
        )
        self._file = open(self._segment_path, "w+b")
        self._segment_size = 0

    def replay_records(self) -> list[WalRecord]:
        """The records after the base checkpoint, for recovery."""
        return list(self._replay_records)

    # -- properties ------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        with self.lock:
            return self.next_lsn - 1

    # -- appending -------------------------------------------------------------

    def append(self, kind: str, payload: tuple = ()) -> _AppendToken:
        """Durably append one record; returns a token for :meth:`abort`.

        The write is flushed (and optionally fsynced) before returning,
        so callers may mutate in-memory state afterwards knowing the log
        already covers the change.
        """
        with self.lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            record = WalRecord(self.next_lsn, kind, payload)
            data = _encode(record)
            if (
                self._segment_size > 0
                and self._segment_size + len(data) > self.segment_bytes
            ):
                self._file.close()
                self._start_segment(record.lsn)
            offset = self._segment_size
            self._file.write(data)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._segment_size += len(data)
            self.next_lsn += 1
            self._tail.append(record)
            self._records_since_checkpoint += 1
            return _AppendToken(record, offset, len(data))

    def abort(self, token: _AppendToken) -> None:
        """Undo the most recent append (the mutation it covered failed).

        Appends are serialized and the guard runs in the same critical
        path, so the aborted record is always the last one; the segment
        is truncated back and the LSN reused.
        """
        with self.lock:
            if self._closed or token.record.lsn != self.next_lsn - 1:
                raise WalError("can only abort the most recent append")
            self._file.truncate(token.offset)
            self._file.seek(token.offset)
            self._segment_size = token.offset
            self.next_lsn -= 1
            popped = self._tail.pop()
            assert popped.lsn == token.record.lsn
            self._records_since_checkpoint = max(
                0, self._records_since_checkpoint - 1
            )

    # -- checkpoints -----------------------------------------------------------

    def checkpoint_due(self) -> bool:
        with self.lock:
            return (
                not self._closed
                and self._records_since_checkpoint >= self.checkpoint_every
            )

    def write_checkpoint(self, catalog: Catalog) -> str | None:
        """Write a durable base image and prune the segments it covers.

        Returns the checkpoint path, or ``None`` once the log is closed.
        """
        with self.lock:
            if self._closed:
                return None
            checkpoint = Checkpoint(
                last_lsn=self.next_lsn - 1, snapshot=catalog.snapshot()
            )
            path = os.path.join(
                self.directory,
                f"{_CKPT_PREFIX}{checkpoint.last_lsn:016d}{_CKPT_SUFFIX}",
            )
            tmp_path = path + ".tmp"
            with open(tmp_path, "wb") as handle:
                pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
            # Rotate, then drop everything the checkpoint covers: older
            # segments and older checkpoints.
            self._file.close()
            self._start_segment(self.next_lsn)
            for segment_path in self._segment_paths():
                if segment_path != self._segment_path:
                    os.remove(segment_path)
            for ckpt_path in self._checkpoint_paths():
                if ckpt_path != path:
                    os.remove(ckpt_path)
            self.latest_checkpoint = checkpoint
            self._records_since_checkpoint = 0
            return path

    # -- reading (replication stream) ------------------------------------------

    def records_since(self, lsn: int) -> list[WalRecord] | None:
        """All records with ``record.lsn > lsn``, oldest first.

        Served from the in-memory tail when it reaches back far enough,
        from the disk segments otherwise. Returns ``None`` when the
        requested horizon has been pruned by a checkpoint — the caller
        (a lagging replica) must reseed from :attr:`latest_checkpoint`.
        """
        with self.lock:
            if lsn >= self.next_lsn - 1:
                return []
            if self._tail and self._tail[0].lsn <= lsn + 1:
                return [record for record in self._tail if record.lsn > lsn]
            records: list[WalRecord] = []
            earliest: int | None = None
            for path in self._segment_paths():
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError:
                    continue
                for _, record in _decode_frames(data):
                    if earliest is None:
                        earliest = record.lsn
                    if record.lsn > lsn:
                        records.append(record)
            if earliest is not None and earliest > lsn + 1:
                return None  # pruned horizon: records below earliest are gone
            if earliest is None and lsn + 1 < self.next_lsn:
                return None
            return records

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self.lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class RecoveredState:
    """What :func:`recover` hands back: the rebuilt catalog and the
    reopened (appendable) log."""

    catalog: Catalog
    wal: WriteAheadLog


def recover(directory: str, **wal_kwargs) -> RecoveredState:
    """Rebuild exact state from a WAL directory: checkpoint + tail replay.

    Opening the log truncates a torn tail first; replay then re-invokes
    every logged catalog write in LSN order. The returned catalog sits at
    the exact ``data_version_tuple()`` (and full ``version()``) the
    crashed process had at its last logged write, with the WAL attached
    and ready for further appends.
    """
    wal = WriteAheadLog(directory, **wal_kwargs)
    checkpoint = wal.base_checkpoint
    if checkpoint is not None:
        catalog = Catalog.restore_exact(checkpoint.snapshot)
    else:
        catalog = Catalog()
    for record in wal.replay_records():
        apply_record(catalog, record)
    catalog.wal = wal
    return RecoveredState(catalog=catalog, wal=wal)
