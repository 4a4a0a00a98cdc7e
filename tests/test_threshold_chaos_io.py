"""I/O-level chaos: the persistence path under deterministic storage faults.

Counterpart of the worker-fault chaos suite in ``test_threshold_runtime``:
here the *journal's sqlite connection* is the thing that fails.  The
contract under proof, for every fault kind: the run completes with
bit-for-bit the counts an unjournaled run produces, emitting a structured
warning (``JournalDegraded`` / ``CacheCorrupt``) instead of raising.

Write-ordinal accounting (fresh ``resume=True`` run, the default): the
run-registration INSERT is write 1 and the per-shard records are writes
``2..num_shards+1`` in shard order (serial driver), so ordinals address
"registration", "first shard", "mid-run" exactly.  A retried statement
re-executes and advances the counter, so a lock-contention *burst* is
modelled as consecutive planned ordinals.
"""

import warnings

import pytest

from repro.codes import SteaneCode
from repro.threshold import (
    CacheCorrupt,
    ChaosPlan,
    CheckpointJournal,
    IOChaosPlan,
    JournalDegraded,
    sharded_code_capacity_memory,
)
from repro.threshold import sharded

EPS = 0.08
SHOTS = 400
SHARDS = 4
SEED = 7


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture(scope="module")
def baseline(code):
    """Unjournaled ground truth every chaos run must reproduce exactly."""
    return sharded_code_capacity_memory(
        code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=1,
        num_shards=SHARDS,
    )


def run_with_io_chaos(code, cache_path, io_faults, workers=1, **kw):
    return sharded_code_capacity_memory(
        code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=workers,
        num_shards=SHARDS, checkpoint=cache_path, backoff=0.0,
        io_chaos=IOChaosPlan(io_faults) if io_faults is not None else None,
        **kw,
    )


def shard_rows(cache_path, code):
    key_specs, fp = sharded._build_specs(
        "capacity", (code, EPS, 1), SHOTS, SEED, SHARDS
    )
    from repro.threshold import compute_run_key

    key = compute_run_key("capacity", (code, EPS, 1), SHOTS, fp, len(key_specs))
    with CheckpointJournal(cache_path) as journal:
        return journal.completed_shards(key)


class TestIOFaultKinds:
    def test_io_error_on_registration_degrades(self, code, baseline, tmp_path):
        with pytest.warns(JournalDegraded):
            result = run_with_io_chaos(
                code, tmp_path / "c.sqlite", {1: "io_error_on_write"}
            )
        assert result == baseline

    def test_disk_full_mid_run_degrades(self, code, baseline, tmp_path):
        """The overnight-scan killer: the disk fills after two shards have
        already been journaled.  The run must finish anyway — and the rows
        that made it to disk stay valid for a later resume."""
        path = tmp_path / "c.sqlite"
        with pytest.warns(JournalDegraded):
            result = run_with_io_chaos(code, path, {4: "disk_full"})
        assert result == baseline
        assert sorted(shard_rows(path, code)) == [0, 1]  # writes 2 and 3 landed

    def test_every_fault_kind_completes_bit_for_bit(
        self, code, baseline, tmp_path
    ):
        for kind in ("io_error_on_write", "disk_full", "lock_contention"):
            path = tmp_path / f"{kind}.sqlite"
            # Ordinal 6 never arrives for a 4-shard run's happy path, so
            # plan a mid-run fault (ordinal 3) plus a burst long enough to
            # exhaust the lock budget for the contention kind.
            faults = {n: kind for n in range(3, 9)}
            with pytest.warns(JournalDegraded):
                result = run_with_io_chaos(code, path, faults)
            assert result == baseline, kind

    def test_lock_burst_within_retry_budget_is_absorbed(
        self, code, baseline, tmp_path
    ):
        """Two consecutive locked attempts on one shard record are retried
        and the run stays *fully journaled* — no degradation warning."""
        path = tmp_path / "c.sqlite"
        with warnings.catch_warnings():
            warnings.simplefilter("error", JournalDegraded)
            result = run_with_io_chaos(
                code, path, {2: "lock_contention", 3: "lock_contention"}
            )
        assert result == baseline
        assert sorted(shard_rows(path, code)) == [0, 1, 2, 3]

    def test_lock_burst_beyond_retry_budget_degrades(
        self, code, baseline, tmp_path
    ):
        # store.LOCK_RETRIES = 4 → the 5th consecutive locked attempt
        # stops retrying and degrades.
        faults = {n: "lock_contention" for n in range(2, 7)}
        with pytest.warns(JournalDegraded):
            result = run_with_io_chaos(code, tmp_path / "c.sqlite", faults)
        assert result == baseline

    def test_corrupt_row_caught_on_next_run(
        self, code, baseline, tmp_path, monkeypatch
    ):
        """The torn-write/bit-rot fault: the poisoned run itself sails
        through silently (nothing *failed*), and the *next* run's checksum
        verification quarantines exactly the tampered row and recomputes
        only that shard — pooled counts bit-for-bit either way."""
        path = tmp_path / "c.sqlite"
        # write 3 = shard 1's record
        poisoned = run_with_io_chaos(code, path, {3: "corrupt_row"})
        assert poisoned == baseline  # tamper happens on disk, not in RAM
        calls = []
        original = sharded._run_shard
        monkeypatch.setattr(
            sharded, "_run_shard",
            lambda spec: calls.append(spec) or original(spec),
        )
        with pytest.warns(CacheCorrupt):
            replayed = run_with_io_chaos(code, path, None)
        assert len(calls) == 1  # only the quarantined shard re-ran
        assert replayed == baseline
        # The repaired cache replays fully clean afterwards.
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", (CacheCorrupt, JournalDegraded))
            assert run_with_io_chaos(code, path, None) == baseline
        assert calls == []

    def test_unopenable_checkpoint_path_degrades(self, code, baseline, tmp_path):
        """checkpoint= pointing at a directory (sqlite can't open it) must
        degrade at open time, not kill the run."""
        with pytest.warns(JournalDegraded):
            result = sharded_code_capacity_memory(
                code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=1,
                num_shards=SHARDS, checkpoint=tmp_path,
            )
        assert result == baseline


class TestCombinedChaos:
    @pytest.mark.slow_mp
    def test_worker_and_io_faults_together(self, code, baseline, tmp_path):
        """The full gauntlet: a crashing worker (BrokenProcessPool path)
        *and* a dying disk in one multiprocess run — still bit-for-bit."""
        with pytest.warns(JournalDegraded):
            result = sharded_code_capacity_memory(
                code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=2,
                num_shards=SHARDS, checkpoint=tmp_path / "c.sqlite",
                backoff=0.0, chaos=ChaosPlan({0: "crash"}),
                io_chaos=IOChaosPlan({2: "io_error_on_write"}),
            )
        assert result == baseline
