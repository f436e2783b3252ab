"""Pluggable on-disk backends for the simulation-result store.

:class:`~repro.core.runner.ResultStore` keeps its in-memory layer and its
defensive-copy semantics; everything that touches the filesystem lives
behind the :class:`StoreBackend` interface defined here.  Three production
backends ship with the repository (the third, S3-style
:class:`~repro.core.objectstore.ObjectStoreBackend`, lives in its own
module):

* :class:`ShardedJSONBackend` — one self-describing JSON file per result,
  bucketed into 256 ``<fingerprint[:2]>/`` shard directories so that even
  grids of tens of thousands of points never pile into a single directory.
  An advisory ``_index.json`` manifest (fingerprint → entry metadata) is
  maintained on :meth:`~StoreBackend.flush` and rebuilt by
  :meth:`~StoreBackend.gc`; the shard files themselves are always the
  authoritative source.

* :class:`SQLiteBackend` — a single ``results.db`` (WAL journal, busy
  timeout) with one fingerprint-keyed row per result, safe for concurrent
  writers: multiple ``run-all --jobs N`` processes can share one database.

All backends store the same payload shape — ``{"version", "key",
"result"}`` — under the same :meth:`ExperimentPoint.fingerprint` keys, so
switching backends (CLI ``--store``, environment ``REPRO_STORE``) never
changes what a cache hit means, only where the bytes live.  Corrupt or
undecodable entries are dropped (and re-simulated by the engine) rather
than raised; entries whose version or parameters no longer validate are
evicted by :meth:`~StoreBackend.gc`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import uuid
from abc import ABC, abstractmethod
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.runner import ExperimentPoint

#: on-disk store format version; bump when the result payload shape changes
STORE_VERSION = 1

#: environment knob selecting the default backend (see :func:`make_backend`)
STORE_ENV = "REPRO_STORE"

#: recognised backend kinds, in the order the CLI advertises them
BACKEND_NAMES = ("json", "sqlite", "object")


def default_backend_kind() -> str:
    """The backend kind used when none is requested explicitly.

    Honours the ``REPRO_STORE`` environment variable so test and benchmark
    runs can switch backends without code changes.
    """
    kind = os.environ.get(STORE_ENV) or "json"
    if kind not in BACKEND_NAMES:
        raise ReproError(
            f"unknown result-store backend {kind!r} (from ${STORE_ENV}); "
            f"available: {', '.join(BACKEND_NAMES)}"
        )
    return kind


def make_backend(kind: str | None, cache_dir: str | os.PathLike) -> "StoreBackend":
    """Instantiate the backend ``kind`` (default: :func:`default_backend_kind`)."""
    kind = kind or default_backend_kind()
    if kind == "json":
        return ShardedJSONBackend(cache_dir)
    if kind == "sqlite":
        return SQLiteBackend(cache_dir)
    if kind == "object":
        # deferred: objectstore subclasses StoreBackend from this module
        from repro.core.objectstore import ObjectStoreBackend

        return ObjectStoreBackend(cache_dir)
    raise ReproError(
        f"unknown result-store backend {kind!r}; available: {', '.join(BACKEND_NAMES)}"
    )


def decode_payload(payload: object):
    """The :class:`SimulationResult` of a valid current-version entry, or None.

    The single source of truth for entry validation: both the store's read
    path and every backend's ``gc`` go through it, so what ``gc`` keeps and
    what ``get`` serves can never drift apart.
    """
    from repro.core.results import SimulationResult

    if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
        return None
    try:
        return SimulationResult.from_dict(payload["result"])
    except (ValueError, KeyError, TypeError, ReproError):
        return None


def payload_is_valid(payload: object) -> bool:
    """True when ``payload`` is a current-version entry that still validates."""
    return decode_payload(payload) is not None


def _discard(path: Path) -> None:
    """Best-effort unlink: a reader without write permission (shared cache
    dirs) must degrade to a miss, not crash trying to clean up."""
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


class StoreBackend(ABC):
    """Persistence interface behind :class:`~repro.core.runner.ResultStore`.

    Keys are full :meth:`ExperimentPoint.fingerprint` hex digests; payloads
    are the JSON-compatible ``{"version", "key", "result"}`` dictionaries the
    store builds.  ``get`` returns the parsed payload or ``None`` — backends
    silently drop entries they cannot decode, so a corrupt cache degrades to
    a cache miss, never an exception.
    """

    #: short name used by the CLI and in engine summaries
    kind: str = ""

    @abstractmethod
    def get(self, key: str, point: "ExperimentPoint") -> dict | None:
        """Return the stored payload for ``key``, or ``None``."""

    @abstractmethod
    def put(self, key: str, point: "ExperimentPoint", payload: dict) -> None:
        """Persist ``payload`` under ``key`` (atomically per entry)."""

    def write(self, key: str, point: "ExperimentPoint", payload: dict) -> None:
        """Persist ``payload`` under ``key`` and nothing else.

        Safe from any process sharing the cache directory: the experiment
        engine's pool workers write their own results through it, and the
        owning process then records each entry with :meth:`adopt`.
        Backends without per-process bookkeeping simply :meth:`put`.
        """
        self.put(key, point, payload)

    def adopt(self, key: str, point: "ExperimentPoint", entry_key: dict) -> None:
        """Record an entry :meth:`write` persisted, possibly in another process.

        ``entry_key`` is the payload's ``key`` section.  Only backends that
        keep per-process metadata (the JSON index) have anything to do.
        """

    @abstractmethod
    def contains(self, key: str, point: "ExperimentPoint") -> bool:
        """True when an entry for ``key`` exists on disk."""

    @abstractmethod
    def delete(self, key: str, point: "ExperimentPoint") -> None:
        """Remove the entry for ``key`` if present."""

    @abstractmethod
    def entries(self) -> Iterator[tuple[str, dict | None]]:
        """Yield every ``(fingerprint, payload-or-None)`` currently stored.

        ``None`` payloads mark entries that exist but cannot be decoded;
        :meth:`gc` evicts them.
        """

    @abstractmethod
    def evict(self, key: str) -> None:
        """Remove an entry by fingerprint alone (used by :meth:`gc`)."""

    def gc(self) -> tuple[int, int]:
        """Drop entries that are undecodable or no longer validate.

        Returns ``(kept, evicted)``.  An entry is evicted when its payload
        cannot be decoded, its ``version`` is not the current
        :data:`STORE_VERSION`, or its parameters fail validation (e.g. the
        schema moved underneath an old cache).
        """
        kept = 0
        evicted = 0
        for key, payload in list(self.entries()):
            if payload_is_valid(payload):
                kept += 1
            else:
                self.evict(key)
                evicted += 1
        self.flush()
        return kept, evicted

    def flush(self) -> None:
        """Persist any buffered metadata (index files, transactions)."""

    def close(self) -> None:
        """Release backend resources (connections, buffers)."""
        self.flush()

    def describe(self) -> str:
        """One-line human-readable location description."""
        return self.kind


class ShardedJSONBackend(StoreBackend):
    """One JSON file per entry, sharded by the first fingerprint byte.

    Layout::

        <cache_dir>/
            _index.json                  # advisory manifest (see flush/gc)
            <fp[:2]>/<workload>-<scale>-<config>-<fp[:16]>.json

    Writes go through a per-process-unique temporary name followed by
    ``os.replace``, so concurrent writers of the *same* point can never
    observe (or clobber) each other's half-written entry.
    """

    kind = "json"

    #: advisory manifest file name (regenerated by ``flush``/``gc``)
    INDEX_NAME = "_index.json"

    #: pending writes buffered before an automatic index merge; keeps the
    #: read-merge-rewrite cost amortised on large cold sweeps
    FLUSH_EVERY = 256

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        #: entries written by this process, merged into the index on flush
        self._pending_index: dict[str, dict] = {}

    # -- entry paths --------------------------------------------------------

    def _entry_name(self, key: str, point: "ExperimentPoint") -> str:
        return f"{point.workload}-{point.scale}-{point.config.name}-{key[:16]}.json"

    def _path(self, key: str, point: "ExperimentPoint") -> Path:
        return self.cache_dir / key[:2] / self._entry_name(key, point)

    @property
    def index_path(self) -> Path:
        return self.cache_dir / self.INDEX_NAME

    # -- StoreBackend -------------------------------------------------------

    def get(self, key: str, point: "ExperimentPoint") -> dict | None:
        path = self._path(key, point)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            # Missing entry, or a transient read failure (EIO, NFS hiccup):
            # a miss either way, and never grounds for deleting the file.
            return None
        try:
            return json.loads(text)
        except ValueError:
            # Undecodable (truncated/corrupt) entry: degrade to a miss.
            _discard(path)
            return None

    def put(self, key: str, point: "ExperimentPoint", payload: dict) -> None:
        self.write(key, point, payload)
        self.adopt(key, point, payload.get("key", {}))

    def write(self, key: str, point: "ExperimentPoint", payload: dict) -> None:
        path = self._path(key, point)
        # Unique temp name per writer: two processes storing the same point
        # concurrently each complete their own atomic write (last one wins).
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        text = json.dumps(payload)
        try:
            tmp.write_text(text, encoding="utf-8")
        except FileNotFoundError:
            # first entry of its shard (most writes find the directory)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    def adopt(self, key: str, point: "ExperimentPoint", entry_key: dict) -> None:
        self._pending_index[key] = {
            "path": str(self._path(key, point).relative_to(self.cache_dir)),
            "key": entry_key,
        }
        if len(self._pending_index) >= self.FLUSH_EVERY:
            self.flush()

    def contains(self, key: str, point: "ExperimentPoint") -> bool:
        return self._path(key, point).is_file()

    def delete(self, key: str, point: "ExperimentPoint") -> None:
        _discard(self._path(key, point))
        self._pending_index.pop(key, None)

    def _scan(self) -> Iterator[tuple[Path, dict | None]]:
        """Yield every shard file with its decoded payload (None if broken)."""
        for path in sorted(self.cache_dir.glob("??/*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError):
                payload = None
            yield path, payload

    def entries(self) -> Iterator[tuple[str, dict | None]]:
        for _, payload in self._scan():
            if isinstance(payload, dict):
                try:
                    yield payload["key"]["fingerprint"], payload
                except (KeyError, TypeError):
                    pass  # unidentifiable; gc() removes it by path

    def evict(self, key: str) -> None:
        # The shard is key[:2] by construction.
        for path in (self.cache_dir / key[:2]).glob(f"*-{key[:16]}.json"):
            _discard(path)
        self._pending_index.pop(key, None)

    def gc(self) -> tuple[int, int]:
        # Path-based rather than the key-based default: undecodable or
        # unidentifiable files carry no usable fingerprint, so they are
        # removed (and counted) directly.
        kept = 0
        evicted = 0
        for path, payload in list(self._scan()):
            if payload_is_valid(payload):
                kept += 1
            else:
                _discard(path)
                evicted += 1
        # Sweep dead bytes no entry points to: crashed-writer temp files
        # (shard-level and index-level) and legacy flat-layout entries from
        # before sharding, which the backend never reads again.
        leftovers = [
            *self.cache_dir.glob("??/.*.tmp"),
            *self.cache_dir.glob(".*.tmp"),
            *(p for p in self.cache_dir.glob("*.json") if p.name != self.INDEX_NAME),
        ]
        for path in leftovers:
            _discard(path)
            evicted += 1
        self._rebuild_index()
        return kept, evicted

    def flush(self) -> None:
        """Merge this process's writes into the advisory ``_index.json``.

        The index is a manifest for humans and external tooling; concurrent
        writers race benignly (last writer wins) and ``gc`` rebuilds it from
        the authoritative shard files.
        """
        if not self._pending_index:
            return
        index = self._read_index()
        index.update(self._pending_index)
        self._write_index(index)
        self._pending_index.clear()

    def describe(self) -> str:
        return f"json ({self.cache_dir})"

    # -- index maintenance --------------------------------------------------

    def _read_index(self) -> dict[str, dict]:
        try:
            payload = json.loads(self.index_path.read_text(encoding="utf-8"))
            entries = payload["entries"]
            return entries if isinstance(entries, dict) else {}
        except (FileNotFoundError, ValueError, KeyError, TypeError, OSError):
            return {}

    def _write_index(self, entries: dict[str, dict]) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {"version": STORE_VERSION, "entries": entries}
        tmp = self.index_path.with_name(
            f".{self.INDEX_NAME}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.index_path)

    def _rebuild_index(self) -> None:
        entries: dict[str, dict] = {}
        for path, payload in self._scan():
            if not isinstance(payload, dict):
                continue
            try:
                fingerprint = payload["key"]["fingerprint"]
            except (KeyError, TypeError):
                continue
            entries[fingerprint] = {
                "path": str(path.relative_to(self.cache_dir)),
                "key": payload.get("key", {}),
            }
        self._write_index(entries)
        self._pending_index.clear()


class SQLiteBackend(StoreBackend):
    """All entries in one ``results.db``, safe for concurrent writers.

    WAL journalling plus a generous busy timeout make simultaneous
    ``run-all --jobs N`` processes (each writing through its own
    connection) serialise cleanly instead of erroring out.  Rows whose
    payload no longer parses are deleted on read, mirroring the JSON
    backend's degrade-to-miss behaviour.
    """

    kind = "sqlite"

    DB_NAME = "results.db"

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.db_path = self.cache_dir / self.DB_NAME
        try:
            self._conn = self._open()
        except sqlite3.OperationalError as exc:
            # Transient (locked past the busy timeout, I/O error): another
            # process may hold a perfectly healthy database open — never
            # delete it from under them.
            raise ReproError(
                f"cannot open result store {self.db_path}: {exc}"
            ) from exc
        except sqlite3.DatabaseError:
            # Actual corruption ("file is not a database", malformed disk
            # image): the cache is worthless, drop it and start fresh
            # (degrade-to-miss, like the JSON backend) instead of wedging
            # every command behind a manual delete.
            for suffix in ("", "-wal", "-shm"):
                _discard(Path(str(self.db_path) + suffix))
            try:
                self._conn = self._open()
            except sqlite3.DatabaseError as exc:
                raise ReproError(
                    f"cannot open result store {self.db_path}: {exc}"
                ) from exc

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " fingerprint TEXT PRIMARY KEY,"
                " version INTEGER NOT NULL,"
                " workload TEXT NOT NULL,"
                " scale TEXT NOT NULL,"
                " config_name TEXT NOT NULL,"
                " payload TEXT NOT NULL)"
            )
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def get(self, key: str, point: "ExperimentPoint") -> dict | None:
        try:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE fingerprint = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError:
            return None
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except (ValueError, TypeError):
            self.evict(key)
            return None

    def put(self, key: str, point: "ExperimentPoint", payload: dict) -> None:
        self._conn.execute(
            "INSERT INTO results"
            " (fingerprint, version, workload, scale, config_name, payload)"
            " VALUES (?, ?, ?, ?, ?, ?)"
            " ON CONFLICT(fingerprint) DO UPDATE SET"
            " version=excluded.version, workload=excluded.workload,"
            " scale=excluded.scale, config_name=excluded.config_name,"
            " payload=excluded.payload",
            (
                key,
                payload.get("version", STORE_VERSION),
                point.workload,
                point.scale,
                point.config.name,
                json.dumps(payload),
            ),
        )
        self._conn.commit()

    def contains(self, key: str, point: "ExperimentPoint") -> bool:
        try:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError:
            return False
        return row is not None

    def delete(self, key: str, point: "ExperimentPoint") -> None:
        self.evict(key)

    def entries(self) -> Iterator[tuple[str, dict | None]]:
        rows = self._conn.execute("SELECT fingerprint, payload FROM results").fetchall()
        for fingerprint, text in rows:
            try:
                yield fingerprint, json.loads(text)
            except (ValueError, TypeError):
                yield fingerprint, None

    def evict(self, key: str) -> None:
        self._conn.execute("DELETE FROM results WHERE fingerprint = ?", (key,))
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def describe(self) -> str:
        return f"sqlite ({self.db_path})"

    def __getstate__(self):  # pragma: no cover - defensive
        raise TypeError("SQLiteBackend holds a live connection and cannot be pickled")
