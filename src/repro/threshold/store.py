"""The sqlite store layer shared by the checkpoint journal and the scan queue.

Both persistent stores (:class:`~repro.threshold.journal.CheckpointJournal`
and :class:`~repro.threshold.scheduler.ScanQueue`) compose one
:class:`SqliteStore`, which owns everything about the file that is not
their own tables and rows:

* **open** — sqlite's integrity check first, so a torn WAL or a
  bit-rotted page surfaces at open as a :class:`sqlite3.DatabaseError`
  instead of later as garbage rows;
* **migrate-or-refuse** — the schema is created, migrated from version 0,
  or refused (:class:`JournalSchemaError`) under ``PRAGMA user_version``,
  in one transaction.  A version-0 file that already holds tables the
  store does not own belongs to something else and is refused, never
  adopted;
* **WAL + ``synchronous=NORMAL``** — readers stay unblocked during
  commits, and a kill mid-commit is recoverable; NORMAL sync is durable
  to application crash (the fault defended against) without an fsync per
  commit;
* **transactions** — :meth:`SqliteStore.transaction` runs one
  ``BEGIN IMMEDIATE`` transaction and re-runs it, a bounded number of
  times, on lock contention;
* **close** — checkpoint and truncate the WAL so a cleanly closed store
  leaves no ``-wal``/``-shm`` files behind.

The store raises on storage faults.  Surviving them is the caller's
policy: the runtime degrades a checkpointed run to uncheckpointed, the
serve loop backs off and claims again.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
import time
from pathlib import Path

__all__ = ["JournalSchemaError", "LOCK_RETRIES", "SqliteStore"]

# Re-runs of one transaction on "database is locked"/"busy" before the
# error propagates.  The 30 s connect timeout already waits out ordinary
# contention inside sqlite; this absorbs the bursts that escape it.
LOCK_RETRIES = 4
_LOCK_RETRY_SLEEP = 0.05

_TABLE_RE = re.compile(r"CREATE TABLE IF NOT EXISTS (\w+)")


class JournalSchemaError(RuntimeError):
    """The store file carries an unknown ``PRAGMA user_version`` (newer
    code wrote it, or it is another store's file), or it is an unversioned
    file holding someone else's tables.  Explicitly refused — migrate with
    the version that created it, or point at a fresh path."""


def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class SqliteStore:
    """One opened, schema-checked sqlite/WAL file.

    ``kind`` names the store in error messages.  ``schema`` is a script of
    ``;``-separated idempotent DDL statements (``CREATE ... IF NOT
    EXISTS``); the tables it creates are the tables the store owns.  ``migrate_v0(conn, path)``,
    when given, upgrades a version-0 file that holds only owned tables in
    place (and raises :class:`JournalSchemaError` on a layout it does not
    recognize).  ``io_chaos`` wraps the connection in the fault-injecting
    proxy from :mod:`repro.threshold.chaos` — test harness only.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        kind: str,
        schema: str,
        version: int,
        migrate_v0=None,
        io_chaos=None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self._closed = False
        # Autocommit mode: every transaction is explicit (BEGIN IMMEDIATE
        # takes the write lock up front; the stdlib's implicit
        # transactions would defer it to the first write).
        conn = sqlite3.connect(str(self.path), timeout=30.0, isolation_level=None)
        if io_chaos is not None:
            from repro.threshold.chaos import ChaosConnection

            conn = ChaosConnection(conn, io_chaos)
        self.conn = conn
        try:
            # On a corrupt file this either reports the damage or raises
            # "file is not a database" itself.
            status = conn.execute("PRAGMA integrity_check").fetchone()[0]
            if status != "ok":
                raise sqlite3.DatabaseError(
                    f"integrity_check failed for {self.path}: {status}"
                )
            self.transaction(lambda: self._ensure_schema(schema, version, migrate_v0))
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        except BaseException:
            self._closed = True
            try:
                conn.close()
            except (sqlite3.Error, OSError):
                # The open/schema error already propagating is the
                # observable fault; a close error on a broken handle adds
                # nothing.
                pass
            raise

    def __getstate__(self) -> None:
        """Sqlite connections are process-local: a store that rode a
        worker payload across the spawn boundary would arrive as a dead
        handle.  Refuse at pickle time, where the mistake is visible."""
        raise TypeError(
            f"this {self.kind} holds a process-local sqlite connection and "
            f"cannot be pickled; pass its *path* and reopen it in the "
            f"receiving process instead"
        )

    def _ensure_schema(self, schema: str, version: int, migrate_v0) -> None:
        """Create, migrate, or refuse — never guess at a layout."""
        found = int(self.conn.execute("PRAGMA user_version").fetchone()[0])
        if found == 0:
            tables = {
                row[0]
                for row in self.conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name NOT LIKE 'sqlite_%'"
                )
            }
            owned = set(_TABLE_RE.findall(schema))
            if not tables <= owned:
                raise JournalSchemaError(
                    f"{self.path} has user_version=0 but already holds "
                    f"tables {sorted(tables - owned)} — it is not a "
                    f"{self.kind}; refusing to adopt it"
                )
            if tables and migrate_v0 is not None:
                migrate_v0(self.conn, self.path)
        elif found != version:
            raise JournalSchemaError(
                f"{self.path} carries {self.kind} schema user_version={found}; "
                f"this code writes version {version} and refuses to guess at "
                f"an unknown layout — use the code that created it, or point "
                f"at a fresh path"
            )
        # One statement at a time: executescript would commit the
        # transaction this runs in.
        for ddl in filter(str.strip, schema.split(";")):
            self.conn.execute(ddl)
        self.conn.execute(f"PRAGMA user_version = {int(version)}")

    def _rollback(self) -> None:
        try:
            self.conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass  # no transaction active / connection already broken

    def transaction(self, fn):
        """Run ``fn()`` in one ``BEGIN IMMEDIATE`` transaction; return its
        result.

        Lock contention re-runs the whole transaction (it never committed,
        so re-running is exact) up to :data:`LOCK_RETRIES` times; anything
        past the budget, and every other error, rolls back and propagates.
        """
        for attempt in itertools.count(1):
            try:
                self.conn.execute("BEGIN IMMEDIATE")
                try:
                    result = fn()
                    self.conn.execute("COMMIT")
                    return result
                except BaseException:
                    self._rollback()
                    raise
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc) or attempt > LOCK_RETRIES:
                    raise
                time.sleep(_LOCK_RETRY_SLEEP * attempt)

    def close(self) -> None:
        """Idempotent close; checkpoints and truncates the WAL first.
        Never raises: by now every commit is durable, and WAL hygiene is
        best effort."""
        if self._closed:
            return
        self._closed = True
        try:
            self.conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            pass
        try:
            self.conn.close()
        except sqlite3.Error:
            pass
