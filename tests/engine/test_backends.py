"""State backends: snapshot round trips, the SQLite schema, and error
paths.  Fingerprint-level resume identity lives in test_invariants.py;
these are the unit-level contracts."""

import json
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    BackendError,
    Campaign,
    CampaignConfig,
    EngineTask,
    MemoryBackend,
    SQLiteBackend,
)
from repro.engine.backends import SNAPSHOT_SECTIONS, SNAPSHOT_VERSION
from repro.simulation import SyntheticPoolConfig, generate_pool


def checkpointed_snapshot(num_shards=1, seed=5):
    rng = np.random.default_rng(1)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=24, quality_ceiling=0.95), rng
    )
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=30.0, confidence_target=0.95, seed=seed,
            num_shards=num_shards,
        ),
    )
    task_rng = np.random.default_rng(seed)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(task_rng.integers(0, 2, size=80))
    )
    campaign.run(until=30)
    campaign.checkpoint()
    return campaign.backend.load()


class TestMemoryBackend:
    def test_empty_backend_raises(self):
        backend = MemoryBackend()
        assert not backend.exists()
        with pytest.raises(BackendError, match="no checkpoint"):
            backend.load()

    def test_round_trip_is_value_identical(self):
        snapshot = checkpointed_snapshot()
        backend = MemoryBackend()
        backend.save(snapshot)
        assert backend.exists()
        assert backend.load() == snapshot

    def test_load_never_aliases_the_stored_snapshot(self):
        backend = MemoryBackend()
        backend.save(checkpointed_snapshot())
        first = backend.load()
        first["campaign"]["clock"] = -1.0
        assert backend.load()["campaign"]["clock"] != -1.0

    def test_rejects_malformed_snapshot(self):
        with pytest.raises(BackendError, match="missing sections"):
            MemoryBackend().save({"version": SNAPSHOT_VERSION})


class TestSQLiteBackend:
    def test_empty_file_raises(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "empty.db")
        assert not backend.exists()
        with pytest.raises(BackendError, match="no campaign checkpoint"):
            backend.load()

    def test_mistyped_resume_path_leaves_no_stray_files(self, tmp_path):
        """Resuming from a path that never held a campaign must fail
        without creating an empty .db (+ WAL sidecars) a later resume
        could be pointed at by accident."""
        path = tmp_path / "typo.db"
        backend = SQLiteBackend(path)
        with pytest.raises(BackendError):
            Campaign.resume(backend)
        backend.close()
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_matches_memory_backend(self, tmp_path):
        """Both backends must surface the identical snapshot — that is
        what lets one restore code path serve both."""
        snapshot = checkpointed_snapshot(num_shards=2)
        memory = MemoryBackend()
        memory.save(snapshot)
        sqlite_backend = SQLiteBackend(tmp_path / "c.db")
        sqlite_backend.save(snapshot)
        assert sqlite_backend.exists()
        assert sqlite_backend.load() == memory.load()

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        first = checkpointed_snapshot()
        second = checkpointed_snapshot(seed=9)
        backend.save(first)
        backend.save(second)
        assert backend.load() == MemoryBackend_normalize(second)

    def test_schema_has_the_five_tables_and_wal(self, tmp_path):
        path = tmp_path / "c.db"
        backend = SQLiteBackend(path)
        backend.save(checkpointed_snapshot(num_shards=2))
        backend.close()
        conn = sqlite3.connect(path)
        tables = {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert {"campaign", "workers", "votes", "ledger", "cache"} <= tables
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # Relational content spot-checks: every vote row references a
        # known worker; per-shard caches landed as distinct cache ids.
        workers = {
            w for (w,) in conn.execute("SELECT worker_id FROM workers")
        }
        vote_workers = {
            w for (w,) in conn.execute("SELECT DISTINCT worker_id FROM votes")
        }
        assert vote_workers <= workers
        # Per-shard caches landed as distinct cache ids, one ledger
        # meta row each (the shard caches are the only caches).
        cache_ids = {
            c for (c,) in conn.execute("SELECT DISTINCT cache_id FROM cache")
        }
        assert cache_ids == {"shard:0", "shard:1"}
        meta_scopes = {
            s for (s,) in conn.execute(
                "SELECT scope FROM ledger WHERE scope LIKE 'cache-meta:%'"
            )
        }
        assert meta_scopes == {"cache-meta:shard:0", "cache-meta:shard:1"}
        conn.close()

    def test_floats_survive_exactly(self, tmp_path):
        snapshot = checkpointed_snapshot()
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.save(snapshot)
        loaded = backend.load()
        for original, restored in zip(
            snapshot["workers"], loaded["workers"]
        ):
            assert restored["est_quality"] == original["est_quality"]
            assert restored["spend"] == original["spend"]
        for (key_a, value_a), (key_b, value_b) in zip(
            snapshot["caches"]["shard:0"]["entries"],
            loaded["caches"]["shard:0"]["entries"],
        ):
            assert list(key_a) == list(key_b)
            assert value_a == value_b

    def test_restore_rejects_shard_count_mismatch(self, tmp_path):
        """A checkpoint from a 2-shard campaign must not silently load
        into a differently sharded one."""
        snapshot = checkpointed_snapshot(num_shards=2)
        snapshot["campaign"]["config"]["num_shards"] = 4
        # Forge matching shard ledgers so only the structural check at
        # the scheduler layer can catch the mismatch.
        backend = MemoryBackend()
        backend.save(snapshot)
        with pytest.raises((ValueError, KeyError)):
            Campaign.resume(backend)

    def test_resume_rejects_unknown_version(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        snapshot = checkpointed_snapshot()
        snapshot["version"] = 99
        backend.save(snapshot)
        with pytest.raises(BackendError, match="version"):
            Campaign.resume(backend)

    def test_all_sections_present_in_round_trip(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.save(checkpointed_snapshot())
        loaded = backend.load()
        for section in SNAPSHOT_SECTIONS:
            assert section in loaded

    def test_busy_timeout_pragma_is_set(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.save(checkpointed_snapshot())
        assert (
            backend._conn.execute("PRAGMA busy_timeout").fetchone()[0]
            == SQLiteBackend.DEFAULT_BUSY_TIMEOUT_MS
        )
        custom = SQLiteBackend(tmp_path / "d.db", busy_timeout_ms=123)
        custom.save(checkpointed_snapshot())
        assert (
            custom._conn.execute("PRAGMA busy_timeout").fetchone()[0] == 123
        )

    def test_checkpoint_while_reader_holds_the_file(self, tmp_path):
        """A dashboard/cache-warming reader sitting in an open read
        transaction must not make ``checkpoint()`` raise ``database is
        locked`` — WAL plus the busy timeout ride it out."""
        path = tmp_path / "c.db"
        backend = SQLiteBackend(path)
        backend.save(checkpointed_snapshot())

        reader = sqlite3.connect(path)
        reader.execute("BEGIN")
        assert reader.execute("SELECT COUNT(*) FROM workers").fetchone()[0]
        try:
            backend.save(checkpointed_snapshot(seed=9))  # must not raise
        finally:
            reader.rollback()
            reader.close()
        assert backend.exists()

    def test_checkpoint_waits_out_a_transient_write_lock(self, tmp_path):
        """A second writer (another engine process exporting its cache)
        briefly holds the write lock mid-checkpoint; the busy timeout
        must absorb the hold instead of surfacing ``database is
        locked``.  A zero-timeout backend on the same file proves the
        pragma is what makes the difference."""
        path = tmp_path / "c.db"
        backend = SQLiteBackend(path)
        backend.save(checkpointed_snapshot())

        locker = sqlite3.connect(path, check_same_thread=False)
        locker.execute("BEGIN IMMEDIATE")
        try:
            impatient = SQLiteBackend(path, busy_timeout_ms=0)
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                impatient.save(checkpointed_snapshot(seed=9))
            impatient.close()

            release = threading.Timer(0.25, locker.commit)
            release.start()
            start = time.monotonic()
            backend.save(checkpointed_snapshot(seed=11))  # waits, succeeds
            assert time.monotonic() - start >= 0.2
            release.join()
        finally:
            locker.close()
        loaded = backend.load()
        for section in SNAPSHOT_SECTIONS:
            assert section in loaded


def MemoryBackend_normalize(snapshot):
    """A snapshot as any backend returns it (JSON value shapes)."""
    return json.loads(json.dumps(snapshot))
