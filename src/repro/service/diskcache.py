"""Persistent, size-bounded, sqlite-backed result cache.

Maps a request content hash (see :mod:`repro.service.request`) to the
serialized ok-response payload for that job.  Design points:

* **Persistent**: a single sqlite file; reopening the cache sees every
  previously stored result, so a re-run of a batch is pure lookups.
* **Size-bounded with LRU eviction**: ``max_entries`` caps the row
  count; inserts evict the least-recently-*used* rows (each hit bumps
  a monotone access stamp kept in the table itself, so recency
  survives restarts and is shared across processes).
* **Safe under concurrent writers and readers**: every operation is
  one sqlite transaction; sqlite's file locking serializes writers
  across processes.  Connections are opened with WAL journaling (when
  the filesystem supports it) so readers never block on a writer, and
  with an explicit ``PRAGMA busy_timeout`` so a reader or writer that
  does hit a lock retries inside sqlite instead of surfacing a
  transient ``database is locked`` error; both pragmas are applied on
  *every* open path, including the recreate-after-corruption one.  A
  single instance may also be shared between threads: operations are
  serialized by an internal lock (the connection is opened with
  ``check_same_thread=False``), which the long-lived serve daemon
  relies on.
* **Self-healing**: a row whose payload fails to decode (truncated
  write, manual tampering, schema drift) is deleted and reported as a
  miss, never surfaced to the client; a cache file that is not a
  sqlite database at all is moved aside and recreated empty.

Hit/miss/corrupt counters are per-instance (process-local); occupancy
comes from the database so it is shared.

One file can host several independent caches: ``table`` selects the
table (default ``results``, the batch-response cache; the answer memo
uses ``answers``).  Each table gets the same schema, LRU stamping and
self-healing, and instances bound to different tables of one file
coexist without interfering.
"""

import json
import os
import re
import sqlite3
import threading
from typing import Optional

_SCHEMA = """
CREATE TABLE IF NOT EXISTS {table} (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    stamp INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS {table}_stamp ON {table} (stamp);
"""

_TABLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class DiskCache:
    """A persistent LRU mapping ``content_hash -> payload dict``."""

    def __init__(
        self,
        path: str,
        max_entries: int = 100000,
        busy_timeout: float = 30.0,
        table: str = "results",
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if not _TABLE_NAME.match(table):
            raise ValueError("table must be an identifier, got %r" % (table,))
        self.path = path
        self.table = table
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._busy_timeout = busy_timeout
        self._lock = threading.Lock()
        self._conn = self._open()

    def _connect(self) -> sqlite3.Connection:
        """Open a connection with WAL + busy-timeout pragmas applied.

        The pragmas are set before any schema statement runs so even
        table creation benefits, and this is the single place both the
        normal and the recreate-after-corruption paths go through.
        ``timeout=`` covers Python-level waits; the explicit
        ``busy_timeout`` pragma makes sqlite itself retry, which is
        what stops many daemon readers + one writer from seeing
        transient ``database is locked`` errors.
        """
        conn = sqlite3.connect(
            self.path,
            timeout=self._busy_timeout,
            check_same_thread=False,
        )
        conn.execute(
            "PRAGMA busy_timeout = %d" % int(self._busy_timeout * 1000)
        )
        conn.execute("PRAGMA journal_mode=WAL")
        return conn

    def _open(self) -> sqlite3.Connection:
        schema = _SCHEMA.format(table=self.table)
        conn = None
        try:
            conn = self._connect()
            conn.executescript(schema)
            conn.commit()
        except sqlite3.DatabaseError:
            # Not a sqlite file (or unrecoverably damaged): move the
            # wreck aside and start fresh rather than failing every job.
            if conn is not None:
                conn.close()
            os.replace(self.path, self.path + ".corrupt")
            conn = self._connect()
            conn.executescript(schema)
            conn.commit()
        return conn

    # -- operations -------------------------------------------------------

    def journal_mode(self) -> str:
        """The connection's active journal mode (``wal`` when supported)."""
        with self._lock:
            return self._conn.execute("PRAGMA journal_mode").fetchone()[0]

    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or None on miss (corrupt rows self-delete)."""
        t = self.table
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM %s WHERE key = ?" % t, (key,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            try:
                payload = json.loads(row[0])
                if not isinstance(payload, dict):
                    raise ValueError("payload is not an object")
            except (ValueError, TypeError):
                self.corrupt += 1
                self.misses += 1
                with self._conn:
                    self._conn.execute(
                        "DELETE FROM %s WHERE key = ?" % t, (key,)
                    )
                return None
            self.hits += 1
            with self._conn:
                self._conn.execute(
                    "UPDATE %s SET stamp ="
                    " (SELECT COALESCE(MAX(stamp), 0) + 1 FROM %s)"
                    " WHERE key = ?" % (t, t),
                    (key,),
                )
            return payload

    def put(self, key: str, payload: dict) -> None:
        """Store (or refresh) a payload, evicting LRU rows past the cap."""
        t = self.table
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO %s (key, payload, stamp)"
                    " VALUES (?, ?,"
                    " (SELECT COALESCE(MAX(stamp), 0) + 1 FROM %s))" % (t, t),
                    (key, text),
                )
                excess = (
                    self._conn.execute(
                        "SELECT COUNT(*) FROM %s" % t
                    ).fetchone()[0]
                    - self.max_entries
                )
                if excess > 0:
                    self._conn.execute(
                        "DELETE FROM %s WHERE key IN"
                        " (SELECT key FROM %s ORDER BY stamp ASC LIMIT ?)"
                        % (t, t),
                        (excess,),
                    )

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM %s" % self.table
            ).fetchone()[0]

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return (
                self._conn.execute(
                    "SELECT 1 FROM %s WHERE key = ?" % self.table, (key,)
                ).fetchone()
                is not None
            )

    def info(self) -> dict:
        """Process-local hit counters plus shared occupancy."""
        return {
            "path": self.path,
            "table": self.table,
            "size": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "DiskCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["DiskCache"]
