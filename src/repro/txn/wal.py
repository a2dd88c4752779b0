"""Durable write-ahead logging, checkpoints, and crash recovery.

:class:`~repro.txn.write_log.WriteLog` records row-level ops in process
memory for branch merges; this module extends the idea to a *persistent*
segmented on-disk log that makes committed state survive a crash
(ROADMAP: "Durability and read replicas").

Every catalog write path appends a :class:`WalRecord` **before** mutating
state (see ``Catalog._wal_log``), so the log is always at least as new as
the catalog. Records are framed as ``[u32 length][u32 crc32][pickled
body]`` inside numbered segment files; a torn final frame (crash mid
``write``) fails the CRC and recovery truncates back to the last
committed point instead of erroring.

Record taxonomy
---------------

* **catalog records** (:data:`CATALOG_KINDS`) — one per catalog write
  call, carrying the call's arguments verbatim. Replaying them in order
  through :func:`apply_record` reproduces the catalog *exactly*: row ids,
  per-table ``data_version`` counters, ``schema_version``/``data_epoch``,
  even ``aux_index_version`` — recovery lands on the same
  ``data_version_tuple()`` the crashed process had. Only writes append
  them: the ``information_schema`` tables are derived by each catalog
  from its stored tables, so reading them logs nothing, and a recovered
  or replica catalog derives the same rows from the same records.
* **serve-state records** — the serving system brackets each admission
  window with ``window_begin`` / a ``serve_state`` commit record carrying
  the window's surviving history additions, advisor deltas, and the turn
  counter. ``invalidate`` records mark the points where published change
  events cleared the answered-before history; catalog records cannot
  stand in for them, because index builds log catalog records without
  clearing it and a branch merge clears it once after many row records.
  Replaying these alongside the catalog records lets history
  *attribution* ("identical query answered at turn 3 (agent a1)")
  survive recovery byte-identically.
* **window atomicity** — a trailing ``window_begin`` without its
  ``serve_state`` commit marks a window that was being served at the
  crash; recovery truncates it (its responses never reached callers), so
  the recovered system resumes at the last served-window boundary.

Checkpoints reuse :meth:`Catalog.snapshot` (chunk-shared, picklable):
``ckpt-<lsn>.pkl`` holds the snapshot, the serve state, and the absolute
record counters; segments the checkpoint covers are pruned. Recovery =
latest checkpoint + committed tail replay.

The same log doubles as the replication stream: in-process
:class:`~repro.txn.replica.ReadReplica` followers consume
:meth:`WriteAheadLog.records_since` (served from a bounded in-memory tail
when possible, the disk otherwise) and measure their staleness as the
number of catalog records not yet applied.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import WalError
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.util.env import env_flag

_LOG = logging.getLogger(__name__)

#: Frame header: payload length, crc32 of the payload.
_HEADER = struct.Struct(">II")

#: Record kinds that mutate the catalog (everything else is serve-state
#: bookkeeping). These are what replicas apply and what staleness counts.
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
    """A durable base image: catalog snapshot + serve state + counters.

    ``last_lsn``/``data_seq`` position the checkpoint in the log: replay
    starts after ``last_lsn``, and absolute staleness counters continue
    from ``data_seq``. ``serve`` is the serving system's state payload
    (turn, history, advisor) or ``None`` for a bare database.
    """

    last_lsn: int
    data_seq: int
    snapshot: object  # CatalogSnapshot; typed loosely to keep pickling simple
    serve: dict | None = None


@dataclass
class ServeState:
    """The serving system's recoverable state, folded from the log.

    Recovery replays ``serve_state`` commits (merge the window's
    surviving history additions, advance the turn) and ``invalidate``
    records (writes cleared the answered-before history) in LSN order, so
    the recovered history is exactly what an uninterrupted run would hold
    at the same point — including the turn/agent attribution inside each
    :class:`~repro.core.optimizer.HistoryEntry`.
    """

    turn: int = 0
    history: dict = field(default_factory=dict)
    lenient_history: dict = field(default_factory=dict)
    #: Accumulated advisor state: {"counts": {fp: n}, "reps": {fp: (plan,
    #: strict, size, description)}}. Never cleared — materialization
    #: advice tracks logical demand, which writes do not erase.
    advisor: dict = field(
        default_factory=lambda: {"counts": {}, "reps": {}}
    )

    @classmethod
    def from_payload(cls, payload: dict | None) -> "ServeState":
        state = cls()
        if payload:
            state.merge(payload)
        return state

    def clear_history(self) -> None:
        self.history.clear()
        self.lenient_history.clear()

    def merge(self, delta: dict) -> None:
        self.turn = max(self.turn, int(delta.get("turn", 0)))
        self.history.update(delta.get("history") or {})
        self.lenient_history.update(delta.get("lenient") or {})
        advisor = delta.get("advisor")
        if advisor:
            counts = self.advisor["counts"]
            for fingerprint, count in (advisor.get("counts") or {}).items():
                counts[fingerprint] = counts.get(fingerprint, 0) + count
            reps = self.advisor["reps"]
            for fingerprint, rep in (advisor.get("reps") or {}).items():
                reps.setdefault(fingerprint, rep)

    @property
    def empty(self) -> bool:
        return (
            self.turn == 0
            and not self.history
            and not self.lenient_history
            and not self.advisor["counts"]
        )


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
    """Yield ``(start_offset, end_offset, record)`` for each intact frame.

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
        yield offset, body_end, WalRecord(lsn, kind, payload)
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
    else:  # pragma: no cover - caller filters on CATALOG_KINDS
        raise WalError(f"cannot apply record kind {kind!r}")


class WriteAheadLog:
    """A segmented on-disk write-ahead log with checkpoints.

    Opening a directory repairs it first: a torn final frame and any
    trailing uncommitted admission window are truncated, then appending
    resumes after the last committed record. One instance serializes all
    appends behind a lock; readers (replicas) share the same lock for
    consistent tails.
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
        #: Serving-system hook: returns the serve-state payload embedded
        #: in checkpoints (``None`` for a bare database).
        self.state_provider: Callable[[], dict | None] | None = None
        self.lock = threading.RLock()
        self._tail: deque[WalRecord] = deque(maxlen=max(16, int(tail_records)))
        self._closed = False
        self._window_open = False
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
        base_seq = self.base_checkpoint.data_seq if self.base_checkpoint else 0
        scanned: list[tuple[int, int, int, WalRecord]] = []  # (seg_idx, start, end, rec)
        segments = self._segment_paths()
        torn = False
        for seg_index, path in enumerate(segments):
            with open(path, "rb") as handle:
                data = handle.read()
            consumed = 0
            for start, end, record in _decode_frames(data):
                scanned.append((seg_index, start, end, record))
                consumed = end
            if consumed < len(data):
                torn = True
                break  # later segments postdate the crash point
        # Commit horizon: records inside an admission window commit only
        # when the window's serve_state lands.
        last_commit = -1
        in_window = False
        for i, (_, _, _, record) in enumerate(scanned):
            if record.kind == "window_begin":
                in_window = True
            elif record.kind == "serve_state":
                in_window = False
                last_commit = i
            elif not in_window:
                last_commit = i
        committed = scanned[: last_commit + 1]
        discarded = torn or last_commit + 1 < len(scanned)

        last_lsn = committed[-1][3].lsn if committed else base_lsn
        if last_lsn < base_lsn:
            # The checkpoint postdates every surviving record (its
            # segments were pruned): start a fresh tail after it.
            committed = []
            discarded = True
            last_lsn = base_lsn
        self.next_lsn = last_lsn + 1
        self.data_seq = base_seq + sum(
            1
            for (_, _, _, record) in committed
            if record.lsn > base_lsn and record.kind in CATALOG_KINDS
        )
        self._replay_records = [
            record for (_, _, _, record) in committed if record.lsn > base_lsn
        ]
        for record in self._replay_records:
            self._tail.append(record)

        if discarded:
            _LOG.warning(
                "wal: truncating uncommitted tail past the commit horizon"
            )
            # Physically roll the log back to the commit horizon so no
            # future open resurrects the orphaned tail.
            if committed:
                keep_index, _, keep_end, _ = committed[-1]
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
        """The committed records after the base checkpoint, for recovery."""
        return list(self._replay_records)

    # -- properties ------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        with self.lock:
            return self.next_lsn - 1

    @property
    def window_open(self) -> bool:
        with self.lock:
            return self._window_open

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
            if kind in CATALOG_KINDS:
                self.data_seq += 1
            elif kind == "window_begin":
                self._window_open = True
            elif kind == "serve_state":
                self._window_open = False
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
            if token.record.kind in CATALOG_KINDS:
                self.data_seq -= 1

    # -- admission-window bracketing -------------------------------------------

    def begin_window(self) -> None:
        """Mark the start of an admission window; writes logged until the
        matching :meth:`commit_window` are discarded by recovery if the
        process dies mid-window (their responses never reached callers)."""
        self.append("window_begin")

    def commit_window(self, serve_payload: dict) -> None:
        """Commit the window: its writes plus the serve-state delta."""
        self.append("serve_state", (serve_payload,))

    def log_invalidation(self) -> None:
        """Record that the serving system cleared its answered-before
        history (the recovery replay must clear its shadow at the same
        point)."""
        self.append("invalidate")

    # -- checkpoints -----------------------------------------------------------

    def checkpoint_due(self) -> bool:
        with self.lock:
            return (
                not self._window_open
                and not self._closed
                and self._records_since_checkpoint >= self.checkpoint_every
            )

    def write_checkpoint(self, catalog: Catalog) -> str | None:
        """Write a durable base image and prune the segments it covers.

        Returns the checkpoint path, or ``None`` when a window is open
        (checkpointing mid-window would resurrect a half-served window at
        recovery; the serving system checkpoints at window boundaries).
        """
        with self.lock:
            if self._closed or self._window_open:
                return None
            serve = self.state_provider() if self.state_provider is not None else None
            checkpoint = Checkpoint(
                last_lsn=self.next_lsn - 1,
                data_seq=self.data_seq,
                snapshot=catalog.snapshot(),
                serve=serve,
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
                for _, _, record in _decode_frames(data):
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
    """What :func:`recover` hands back: the rebuilt catalog, the serving
    system's state, and the reopened (appendable) log."""

    catalog: Catalog
    serve: ServeState
    wal: WriteAheadLog


def recover(directory: str, **wal_kwargs) -> RecoveredState:
    """Rebuild exact state from a WAL directory: checkpoint + tail replay.

    Opening the log repairs torn/uncommitted tails first; replay then
    re-invokes every committed catalog write in LSN order and folds the
    serve-state records into a :class:`ServeState`. The returned catalog
    sits at the exact ``data_version_tuple()`` (and full ``version()``)
    the crashed process had at its last committed point, with the WAL
    attached and ready for further appends.
    """
    wal = WriteAheadLog(directory, **wal_kwargs)
    checkpoint = wal.base_checkpoint
    if checkpoint is not None:
        catalog = Catalog.restore_exact(checkpoint.snapshot)
        serve = ServeState.from_payload(checkpoint.serve)
    else:
        catalog = Catalog()
        serve = ServeState()
    for record in wal.replay_records():
        if record.kind in CATALOG_KINDS:
            apply_record(catalog, record)
        elif record.kind == "invalidate":
            serve.clear_history()
        elif record.kind == "serve_state":
            serve.merge(record.payload[0])
    catalog.wal = wal
    return RecoveredState(catalog=catalog, serve=serve, wal=wal)
