"""The sqlite store layer both persistent stores open their files through.

The journal and the scan queue share one open-or-refuse path
(``repro.threshold.store.SqliteStore``), so every guarantee here is
checked against both store classes.
"""

from __future__ import annotations

import pickle
import sqlite3

import pytest

from repro.threshold.journal import CheckpointJournal, JournalSchemaError
from repro.threshold.scheduler import ScanQueue
from repro.threshold.store import LOCK_RETRIES, SqliteStore

STORES = pytest.mark.parametrize(
    "store_cls, version", [(CheckpointJournal, 2), (ScanQueue, 1)]
)


def tables_and_version(path):
    conn = sqlite3.connect(str(path))
    try:
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%'"
            )
        }
        return tables, conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


@STORES
def test_foreign_database_is_refused_untouched(store_cls, version, tmp_path):
    """An unversioned sqlite file holding someone else's tables is not
    adopted: no store tables are added and no version is stamped."""
    path = tmp_path / "notes.sqlite"
    conn = sqlite3.connect(str(path))
    conn.execute("CREATE TABLE notes (body TEXT)")
    conn.execute("INSERT INTO notes VALUES ('keep me')")
    conn.commit()
    conn.close()
    with pytest.raises(JournalSchemaError, match="notes"):
        store_cls(path)
    assert tables_and_version(path) == ({"notes"}, 0)


@STORES
def test_fresh_store_is_versioned_wal_and_closes_clean(store_cls, version, tmp_path):
    path = tmp_path / "fresh.sqlite"
    store = store_cls(path)
    try:
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(store)
    finally:
        store.close()
    store.close()  # idempotent
    assert tables_and_version(path)[1] == version
    assert not (tmp_path / "fresh.sqlite-wal").exists()
    # Reopening the store's own file is not a refusal.
    store_cls(path).close()


@STORES
def test_unknown_version_is_refused(store_cls, version, tmp_path):
    path = tmp_path / "future.sqlite"
    conn = sqlite3.connect(str(path))
    conn.execute(f"PRAGMA user_version = {version + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(JournalSchemaError, match=f"user_version={version + 1}"):
        store_cls(path)


def test_transaction_retries_lock_errors_then_gives_up(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.threshold.store._LOCK_RETRY_SLEEP", 0.0)
    store = SqliteStore(
        tmp_path / "s.sqlite",
        kind="test store",
        schema="CREATE TABLE IF NOT EXISTS t (x INTEGER);",
        version=1,
    )
    try:
        calls = []

        def flaky():
            calls.append(1)
            store.conn.execute("INSERT INTO t VALUES (?)", (len(calls),))
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "done"

        assert store.transaction(flaky) == "done"
        # The two locked attempts rolled back; only the third landed.
        assert store.conn.execute("SELECT x FROM t").fetchall() == [(3,)]

        calls.clear()

        def always_locked():
            calls.append(1)
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.transaction(always_locked)
        assert len(calls) == 1 + LOCK_RETRIES

        def broken():
            store.conn.execute("INSERT INTO t VALUES (99)")
            raise ValueError("not a storage fault")

        with pytest.raises(ValueError):
            store.transaction(broken)
        assert store.conn.execute("SELECT x FROM t").fetchall() == [(3,)]
    finally:
        store.close()
