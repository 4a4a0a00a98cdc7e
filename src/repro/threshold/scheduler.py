"""Durable lease-based scan queue: the scheduler half of threshold-as-a-service.

PR 7 delivered the result-cache half (never *recompute* a point); every
scan was still a blocking in-process call, so serving concurrent users —
or amortizing the 10⁻⁵–10⁻⁶ shot volumes Gottesman-style threshold claims
need across requests — had no scheduler to lean on.  This module is that
scheduler: a sqlite/WAL-backed durable job queue on the same store layer
as the journal (:class:`repro.threshold.store.SqliteStore`: schema
versioning with migrate-or-refuse, an integrity check on open, ``BEGIN
IMMEDIATE`` transactions with bounded lock retry), with per-row checksums
and lease-based claiming so work survives dead claimant hosts.

The moving parts
----------------
* :meth:`ScanQueue.submit_scan` — enqueue a scan and get a
  :class:`JobHandle`.  Submissions are **content-addressed**: the job row
  is keyed by the same run key the result cache uses, so an identical
  in-flight submission dedups onto the existing row, a run the
  :class:`~repro.threshold.cache.ResultCache` can already answer (full
  run-key hit, or cross-run pooling over the physics fingerprint)
  completes *at submit time* without a worker pool ever being created,
  and admission control bounds queue depth (:class:`QueueSaturated`).
* :meth:`ScanQueue.claim` — **lease-based claiming**: a claimant takes the
  best eligible job (priority desc, then FIFO) under a short-lived lease
  it must keep heartbeating.  A SIGKILLed claimant simply stops
  heartbeating; after ``lease_seconds`` the job becomes claimable again
  and another claimant takes it over.  Completed shards were journaled as
  they finished, so the takeover resumes, re-executing only the
  remainder — bit-for-bit what a clean run produces, shards being pure
  functions of their specs.
* :meth:`ScanQueue.complete` / :meth:`ScanQueue.release` /
  :meth:`ScanQueue.requeue` — every terminal write is **owner-fenced**
  (``lease_owner=:owner AND state='leased'``): a stale claimant that lost
  its lease to a takeover cannot clobber the new owner's result (its
  completion is rejected and recorded as an event).  Failures retry with exponential
  backoff up to the job's attempt budget, then land in ``failed`` with the
  last error attached (:class:`JobFailed` from the handle side;
  :class:`JobDegraded` warns when a job finished via degraded execution) —
  the job-level mirror of the shard-level
  ``ShardTimeout``/``ShardRetryExhausted``/``RunDegraded`` taxonomy.
* :func:`serve` — the claimant loop behind
  ``scripts_run_full.py serve --queue PATH --workers N``.  Heartbeats ride
  the runtime's ``on_shard_complete`` callback (plus a background pump for
  long single shards), and SIGTERM/KeyboardInterrupt triggers a **graceful
  drain**: the in-flight job's finished shards are already durable in the
  cache, the job is requeued (attempt not charged), and the loop exits —
  completed work is never lost, never double-counted.

Every job row carries an identity checksum (fixed at submit, verified at
claim — a tampered row is marked ``corrupt`` with a :class:`QueueCorrupt`
warning and never executed) and every finished row a result checksum
(verified when the handle reads it).  Scheduler-level fault injection
lives in :class:`repro.threshold.chaos.SchedulerChaosPlan` (claimant
kill, heartbeat stall, mid-job interrupt); queue storage faults reuse
``IOChaosPlan``/``ChaosConnection`` on the queue's own connection.

See ``SCHEDULER.md`` for the schema, the lease protocol state machine,
and drain semantics.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The state machine and every jobs-table write are declared once, in
# repro.analysis.protospec: the queue imports the state tuple and executes
# only the statements rendered from the spec (SQL), binding parameters.
from repro.analysis.protospec import JOB_STATES as _JOB_STATES
from repro.analysis.protospec import JOBS_DDL, SQL
from repro.threshold.journal import (
    JournalSchemaError,
    compute_physics_key,
    compute_run_key,
)
from repro.threshold.store import SqliteStore

__all__ = [
    "ClaimedJob",
    "JobDegraded",
    "JobFailed",
    "JobHandle",
    "JobResult",
    "QueueCorrupt",
    "QueueSaturated",
    "ScanQueue",
    "ServeReport",
    "job_checksum",
    "job_result_checksum",
    "scan_via_queue",
    "serve",
]

# PRAGMA user_version stamped into every queue file this code writes.
# Distinct from the journal's version line (journals and queues are
# different files with different layouts; pointing one API at the other's
# file is refused, never guessed at).
_QUEUE_SCHEMA_VERSION = 1

# Default lease duration.  Heartbeats extend it continuously while a
# claimant is alive; a dead claimant's job becomes claimable this long
# after its last heartbeat.
DEFAULT_LEASE_SECONDS = 60.0

# Admission-control default: pending + leased jobs beyond this raise
# QueueSaturated at submit (cache-answerable submissions are exempt — they
# never occupy the queue).
DEFAULT_MAX_DEPTH = 1024

# Job-level retry budget (total attempts = 1 + retries), mirroring the
# shard-level ResilienceOptions.max_retries default.
DEFAULT_JOB_RETRIES = 2

# Exponential backoff for released (failed) jobs: backoff * 2**(attempt-1),
# capped so a crash-looping job cannot push its retry into next week.
_RETRY_BACKOFF = 0.5
_RETRY_BACKOFF_CAP = 60.0

_SCHEMA = JOBS_DDL + """
CREATE TABLE IF NOT EXISTS events (
    event_id INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id   INTEGER NOT NULL,
    event    TEXT NOT NULL,
    owner    TEXT,
    detail   TEXT,
    at_unix  REAL NOT NULL
);
"""

_JOB_KINDS = ("memory", "capacity")


# ----------------------------------------------------------------------
# Taxonomy (job-level mirror of ShardTimeout/ShardRetryExhausted/RunDegraded).
# ----------------------------------------------------------------------
class QueueSaturated(RuntimeError):
    """Admission control refused a submission: pending + leased jobs are
    at the queue's depth bound.  Back off and resubmit — accepting the job
    would only move the wait from the submitter into the queue file."""

    def __init__(self, depth: int, max_depth: int) -> None:
        super().__init__(
            f"queue depth {depth} is at its admission bound {max_depth}; "
            f"retry after some jobs finish"
        )
        self.depth = depth
        self.max_depth = max_depth


class JobFailed(RuntimeError):
    """A job exhausted its attempt budget (or its row failed validation)
    and will not be retried; carries the last underlying error text."""

    def __init__(self, job_id: int, run_key: str, state: str, error: str | None) -> None:
        super().__init__(
            f"job {job_id} (run {run_key[:12]}…) ended in state {state!r}: "
            f"{error or 'no error recorded'}"
        )
        self.job_id = job_id
        self.run_key = run_key
        self.state = state
        self.error = error


class JobDegraded(UserWarning):
    """The job finished with correct pooled counts but not as planned —
    shards fell back to in-process execution or the result cache degraded
    mid-run (the job-level echo of ``RunDegraded``/``JournalDegraded``)."""


class QueueCorrupt(UserWarning):
    """A queue row failed validation (identity or result checksum
    mismatch).  The row is marked ``corrupt`` and never executed or
    returned; resubmitting the same scan starts a fresh row."""


# ----------------------------------------------------------------------
# Row checksums.  Identity is fixed at submit and verified at claim;
# results are fixed at completion and verified at read.
# ----------------------------------------------------------------------
def job_checksum(
    run_key: str, kind: str, shots: int, num_shards: int, payload: bytes
) -> str:
    """Identity checksum binding a job row to exactly what will execute.

    Covers the run key, kind, shot budget, shard plan, and the pickled
    ``(args, seed)`` payload — a flipped bit in any of them (bit rot, an
    external edit) fails verification at claim time and the row is marked
    corrupt instead of executing the wrong physics under the right key.
    """
    h = hashlib.sha256()
    h.update(f"{run_key}|{kind}|{int(shots)}|{int(num_shards)}|".encode())
    h.update(payload)
    return h.hexdigest()[:16]


def job_result_checksum(run_key: str, shots: int, failures: int) -> str:
    """Result checksum binding finished counts to the job's identity."""
    payload = f"result|{run_key}|{int(shots)}|{int(failures)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Claim-side / handle-side views.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClaimedJob:
    """One leased job as handed to a claimant: everything needed to
    rebuild the exact shard specs (``sharded._build_specs`` is pure, so
    any claimant — including a lease-takeover successor — derives
    identical shards and identical pooled counts)."""

    job_id: int
    run_key: str
    physics_key: str
    kind: str
    args: tuple
    seed: object
    shots: int
    num_shards: int
    priority: int
    attempt: int
    max_attempts: int
    owner: str


@dataclass(frozen=True)
class JobResult:
    """Terminal result of a job: pooled ``(shots, failures)`` plus where
    they came from (``computed`` / ``cache`` / ``pooled``) and whether the
    run degraded on the way."""

    job_id: int
    run_key: str
    shots: int
    failures: int
    source: str
    degraded: bool


@dataclass(frozen=True)
class JobHandle:
    """Submitter's ticket for one scan.

    ``coalesced`` is True when the submission never entered the queue as
    work: it deduped onto an existing row, or the result cache answered it
    outright (``source`` = ``"cache"`` for a full run-key hit,
    ``"pooled"`` for a cross-run physics merge).
    """

    job_id: int
    run_key: str
    coalesced: bool
    source: str | None
    _queue: "ScanQueue" = field(repr=False, compare=False)

    def status(self) -> str:
        """Current job state (one of pending/leased/done/failed/corrupt)."""
        return str(self._queue.job_row(self.job_id)["state"])

    def result(self, timeout: float | None = None, poll_interval: float = 0.1) -> JobResult:
        """Block until the job reaches a terminal state; verified read.

        Raises :class:`JobFailed` on ``failed``/``corrupt`` (or a result
        row failing its checksum), warns :class:`JobDegraded` when the job
        finished degraded, and :class:`TimeoutError` past ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            row = self._queue.job_row(self.job_id)
            state = str(row["state"])
            if state == "done":
                return self._verified_result(row)
            if state in ("failed", "corrupt"):
                raise JobFailed(self.job_id, self.run_key, state, row["error"])
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {self.job_id} still {state!r} after {timeout}s"
                )
            time.sleep(poll_interval)

    def _verified_result(self, row: dict) -> JobResult:
        shots, failures = int(row["result_shots"]), int(row["result_failures"])
        if row["result_checksum"] != job_result_checksum(self.run_key, shots, failures):
            warnings.warn(
                f"job {self.job_id} result failed checksum verification; "
                f"marking the row corrupt — resubmit to recompute",
                QueueCorrupt,
                stacklevel=3,
            )
            self._queue.mark_corrupt(self.job_id, "result checksum mismatch")
            raise JobFailed(
                self.job_id, self.run_key, "corrupt", "result checksum mismatch"
            )
        if int(row["degraded"]):
            warnings.warn(
                f"job {self.job_id} finished degraded (in-process fallback or "
                f"uncheckpointed execution on the way); pooled counts are "
                f"unaffected",
                JobDegraded,
                stacklevel=3,
            )
        return JobResult(
            job_id=self.job_id,
            run_key=self.run_key,
            shots=shots,
            failures=failures,
            source=str(row["source"]),
            degraded=bool(int(row["degraded"])),
        )


# ----------------------------------------------------------------------
# The queue.
# ----------------------------------------------------------------------
class ScanQueue:
    """Sqlite/WAL durable job queue with lease-based claiming.

    One queue file, any number of submitter and claimant processes; WAL
    plus ``BEGIN IMMEDIATE`` transactions serialize every state change,
    and a bounded lock retry absorbs short contention bursts.  All clock
    comparisons use wall time (``time.time()``): lease deadlines must be
    comparable *across processes and hosts*, which process-local monotonic
    clocks are not.  The ``now=`` parameter on the lease methods exists so
    tests can drive lease expiry deterministically without sleeping.

    ``cache_path`` points at the result cache consulted for request
    coalescing at submit; ``io_chaos`` wraps the queue connection in the
    fault-injecting proxy from :mod:`repro.threshold.chaos` (tests only).
    """

    def __init__(
        self,
        path: str | Path,
        cache_path: str | Path | None = None,
        *,
        max_depth: int = DEFAULT_MAX_DEPTH,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        io_chaos=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.path = Path(path)
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self.max_depth = int(max_depth)
        self.lease_seconds = float(lease_seconds)
        self._cache_handle = None
        self._store = SqliteStore(
            self.path,
            kind="scan queue",
            schema=_SCHEMA,
            version=_QUEUE_SCHEMA_VERSION,
            io_chaos=io_chaos,
        )

    @property
    def _conn(self):
        return self._store.conn

    def _write(self, rule: str, **params) -> sqlite3.Cursor:
        """Execute the jobs-table statement rendered for ``rule`` — the one
        way this queue writes a job row.  The cursor's ``rowcount`` is 0
        when the statement's fence or source pin refused the write."""
        return self._conn.execute(SQL[rule], params)

    def _event(self, job_id: int, event: str, owner: str | None, detail: str | None, now: float) -> None:
        self._conn.execute(
            "INSERT INTO events (job_id, event, owner, detail, at_unix) "
            "VALUES (?, ?, ?, ?, ?)",
            (int(job_id), event, owner, detail, now),
        )

    def _cache(self):
        """Lazily opened ResultCache for submit-time coalescing (or None)."""
        if self.cache_path is None:
            return None
        if self._cache_handle is None:
            from repro.threshold.cache import ResultCache

            self._cache_handle = ResultCache(self.cache_path)
        return self._cache_handle

    # -- submit --------------------------------------------------------
    def submit_scan(
        self,
        kind: str,
        args: tuple,
        shots: int,
        seed: int | np.random.SeedSequence | None = None,
        priority: int = 0,
        *,
        num_shards: int | None = None,
        max_retries: int = DEFAULT_JOB_RETRIES,
    ) -> JobHandle:
        """Enqueue a scan; returns immediately with a :class:`JobHandle`.

        Content-addressed coalescing, in order:

        1. a row already exists under this run key → dedup onto it (live
           rows additionally absorb the higher priority; ``failed`` /
           ``corrupt`` rows are reset and retried fresh);
        2. the result cache fully answers the run key → the job is born
           ``done`` with ``source="cache"`` — no pool, no queue slot;
        3. cross-run pooling over the physics fingerprint already has at
           least ``shots`` shots → born ``done`` with ``source="pooled"``;
        4. otherwise the job enters the queue as ``pending`` — subject to
           admission control (:class:`QueueSaturated`).

        ``seed=None`` draws fresh entropy *here* so the job's identity is
        fixed at submit (the run key just never matches a previous run's).
        """
        if kind not in _JOB_KINDS:
            raise ValueError(f"unknown scan kind {kind!r}; valid: {_JOB_KINDS}")
        if shots < 1:
            raise ValueError("shots must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        from repro.threshold.sharded import _seed_fingerprint, shard_sizes

        sizes = shard_sizes(shots, num_shards)
        if seed is None:
            seed = np.random.SeedSequence()
        elif not isinstance(seed, (int, np.integer, np.random.SeedSequence)):
            raise TypeError(
                "submit_scan derives per-shard streams from SeedSequence.spawn; "
                "pass an int seed, a SeedSequence, or None — not a Generator"
            )
        run_key = compute_run_key(kind, args, shots, _seed_fingerprint(seed), len(sizes))
        physics_key = compute_physics_key(kind, args)
        payload = pickle.dumps((args, seed), protocol=4)
        # The identity columns plus the checksum over them: a row is born
        # with these and a resubmit restores all of them together.
        identity = {
            "kind": kind,
            "payload": payload,
            "shots": int(shots),
            "num_shards": len(sizes),
            "physics_key": physics_key,
            "checksum": job_checksum(run_key, kind, shots, len(sizes), payload),
        }
        max_attempts = 1 + int(max_retries)

        def _txn() -> JobHandle:
            now = time.time()
            row = self._conn.execute(
                "SELECT job_id, state, source FROM jobs WHERE run_key = ?",
                (run_key,),
            ).fetchone()
            if row is not None:
                job_id, state, source = int(row[0]), str(row[1]), row[2]
                if state in ("pending", "leased", "done"):
                    if state != "done":
                        # Live dedup absorbs the higher priority so a later
                        # urgent submitter is not stuck behind the original's.
                        self._write("absorb_priority", job_id=job_id, priority=int(priority))
                    self._event(job_id, "deduplicated", None, f"state={state}", now)
                    return JobHandle(
                        job_id=job_id,
                        run_key=run_key,
                        coalesced=True,
                        source=source if state == "done" else None,
                        _queue=self,
                    )
                # failed/corrupt: resubmitting is an explicit fresh start.
                # Every identity column is restored from the submission —
                # a corrupt row may have had any of them tampered, and the
                # run key pins what they must be.
                self._write(
                    "resubmit_reset", **identity, job_id=job_id,
                    priority=int(priority), max_attempts=max_attempts,
                    submitted_unix=now,
                )
                self._event(job_id, "resubmitted", None, f"was {state}", now)
                return JobHandle(
                    job_id=job_id, run_key=run_key, coalesced=False, source=None,
                    _queue=self,
                )

            # Coalesce against the result cache before occupying a slot.
            source = None
            res_shots = res_failures = None
            cache = self._cache()
            if cache is not None:
                look = cache.lookup(run_key, sizes)
                if look.status == "full":
                    source, res_shots, res_failures = "cache", look.shots, look.failures
                else:
                    p_shots, p_failures = cache.pooled_counts(kind, args)
                    if p_shots >= shots:
                        source, res_shots, res_failures = "pooled", p_shots, p_failures
            if source is None:
                depth = int(
                    self._conn.execute(
                        "SELECT COUNT(*) FROM jobs WHERE state IN ('pending', 'leased')"
                    ).fetchone()[0]
                )
                if depth >= self.max_depth:
                    raise QueueSaturated(depth, self.max_depth)
            born_done = source is not None
            cur = self._write(
                "birth", **identity, run_key=run_key, priority=int(priority),
                state="done" if born_done else "pending",
                max_attempts=max_attempts, source=source,
                result_shots=res_shots, result_failures=res_failures,
                result_checksum=job_result_checksum(run_key, res_shots, res_failures)
                if born_done else None,
                submitted_unix=now, finished_unix=now if born_done else None,
            )
            job_id = int(cur.lastrowid)
            self._event(
                job_id,
                "submitted",
                None,
                f"coalesced:{source}" if source is not None else None,
                now,
            )
            return JobHandle(
                job_id=job_id,
                run_key=run_key,
                coalesced=source is not None,
                source=source,
                _queue=self,
            )

        return self._store.transaction(_txn)

    # -- claim / lease protocol ----------------------------------------
    def claim(self, owner: str, now: float | None = None) -> ClaimedJob | None:
        """Lease the best eligible job, or return None when there is none.

        Eligible: ``pending`` past its backoff gate, or ``leased`` with an
        **expired lease** (the previous claimant stopped heartbeating —
        takeover is recorded as an event).  Ordering is priority desc then
        FIFO.  Rows failing their identity checksum are marked ``corrupt``
        (with a :class:`QueueCorrupt` warning) and skipped; rows whose
        attempt budget is already exhausted are marked ``failed`` and
        skipped — the claimant just moves on to the next candidate.
        """
        wall = time.time() if now is None else float(now)
        while True:
            outcome, value = self._store.transaction(lambda: self._claim_once(owner, wall))
            if outcome == "claimed":
                return value
            if outcome == "empty":
                return None
            # outcome == "skip": a row was marked failed/corrupt; emit the
            # warning outside the transaction and look again.
            if value is not None:
                warnings.warn(value, QueueCorrupt, stacklevel=2)

    def _claim_once(self, owner: str, now: float):
        row = self._conn.execute(
            "SELECT job_id, run_key, physics_key, kind, payload, shots, "
            "num_shards, priority, attempts, max_attempts, checksum, state, "
            "lease_owner, error "
            "FROM jobs "
            "WHERE (state = 'pending' AND not_before_unix <= ?) "
            "   OR (state = 'leased' AND lease_expires_unix < ?) "
            "ORDER BY priority DESC, job_id ASC LIMIT 1",
            (now, now),
        ).fetchone()
        if row is None:
            return "empty", None
        (
            job_id, run_key, physics_key, kind, payload, shots, num_shards,
            priority, attempts, max_attempts, checksum, state, prev_owner, error,
        ) = row
        job_id, attempts, max_attempts = int(job_id), int(attempts), int(max_attempts)

        def quarantine(reason: str, warning: str):
            self._write("quarantine_at_claim", job_id=job_id, error=reason, finished_unix=now)
            self._event(job_id, "corrupt", owner, reason, now)
            return "skip", warning

        if checksum != job_checksum(run_key, kind, shots, num_shards, payload):
            return quarantine(
                "identity checksum mismatch",
                f"queue row for job {job_id} failed identity checksum "
                f"verification; marked corrupt and skipped — resubmit to "
                f"recompute",
            )
        if attempts >= max_attempts:
            # A dead claimant consumed the final attempt; the takeover
            # discovers exhaustion rather than burning another lease.
            self._write(
                "exhaust_at_claim", job_id=job_id, finished_unix=now,
                error=f"attempt budget exhausted ({attempts}/{max_attempts}); "
                f"last error: {error or 'claimant died mid-lease'}",
            )
            self._event(job_id, "failed", owner, "attempts exhausted at claim", now)
            return "skip", None
        if state == "leased":
            self._event(
                job_id, "lease_takeover", owner, f"expired lease of {prev_owner}", now
            )
        try:
            args, seed = pickle.loads(payload)
        except Exception as exc:
            # Checksum-valid but unloadable (e.g. the submitter pickled a
            # class this claimant cannot import): never executable here.
            return quarantine(
                f"payload unpicklable: {exc!r}",
                f"queue row for job {job_id} holds an unloadable payload "
                f"({exc!r}); marked corrupt and skipped",
            )
        self._write(
            "lease_grant", job_id=job_id, lease_owner=owner,
            lease_expires_unix=now + self.lease_seconds, heartbeat_unix=now,
        )
        self._event(job_id, "claimed", owner, f"attempt {attempts + 1}", now)
        return "claimed", ClaimedJob(
            job_id=job_id,
            run_key=str(run_key),
            physics_key=str(physics_key),
            kind=str(kind),
            args=args,
            seed=seed,
            shots=int(shots),
            num_shards=int(num_shards),
            priority=int(priority),
            attempt=attempts + 1,
            max_attempts=max_attempts,
            owner=owner,
        )

    def heartbeat(self, job_id: int, owner: str, now: float | None = None) -> bool:
        """Extend the lease; False means the lease is no longer ours (a
        takeover happened).  Every terminal write is owner-fenced, so a
        claimant that keeps running after losing its lease only wastes
        work: its ``complete``, ``release`` or ``requeue`` is rejected
        and cannot corrupt the job."""
        wall = time.time() if now is None else float(now)

        def _txn() -> bool:
            cur = self._write(
                "heartbeat", job_id=int(job_id), owner=owner, heartbeat_unix=wall,
                lease_expires_unix=wall + self.lease_seconds,
            )
            return cur.rowcount == 1

        return self._store.transaction(_txn)

    def complete(
        self,
        job_id: int,
        owner: str,
        shots: int,
        failures: int,
        *,
        degraded: bool = False,
        source: str = "computed",
        now: float | None = None,
    ) -> bool:
        """Owner-fenced terminal write; False = stale completion rejected.

        The fence (``lease_owner=:owner AND state='leased'``) is the
        double-claim firewall: when a stalled claimant's lease was taken
        over, its late completion
        must not clobber the successor's — the counts are identical
        (shards are pure), but attempt accounting and event history belong
        to the owner that actually finished.
        """
        wall = time.time() if now is None else float(now)

        def _txn() -> bool:
            if self._write(
                "complete", job_id=int(job_id), owner=owner,
                result_shots=int(shots), result_failures=int(failures),
                result_checksum=job_result_checksum(
                    self._run_key_of(job_id), shots, failures
                ),
                degraded=int(bool(degraded)), source=source, finished_unix=wall,
            ).rowcount == 1:
                self._event(job_id, "completed", owner, f"source={source}", wall)
                return True
            self._event(
                job_id,
                "stale_complete_rejected",
                owner,
                "lease no longer held at completion",
                wall,
            )
            return False

        return self._store.transaction(_txn)

    def release(
        self, job_id: int, owner: str, error: str, now: float | None = None
    ) -> str:
        """Give a failed attempt back to the queue (owner-fenced).

        Returns ``"retry"`` (requeued behind an exponential-backoff gate),
        ``"failed"`` (attempt budget exhausted — terminal), or ``"stale"``
        (the lease was taken over; nothing to release).
        """
        wall = time.time() if now is None else float(now)

        def _txn() -> str:
            row = self._conn.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE job_id=? AND lease_owner=? AND state='leased'",
                (int(job_id), owner),
            ).fetchone()
            if row is None:
                self._event(job_id, "stale_release_ignored", owner, error, wall)
                return "stale"
            attempts, max_attempts = int(row[0]), int(row[1])
            if attempts >= max_attempts:
                # The same-transaction SELECT above already proved we hold
                # the lease; the statement carries the owner fence anyway,
                # because the spec declares every release write fenced.
                self._write(
                    "release_failed", job_id=int(job_id), owner=owner,
                    finished_unix=wall,
                    error=f"attempt budget exhausted ({attempts}/{max_attempts}); "
                    f"last error: {error}",
                )
                self._event(job_id, "failed", owner, error, wall)
                return "failed"
            delay = min(
                _RETRY_BACKOFF * (2 ** max(attempts - 1, 0)), _RETRY_BACKOFF_CAP
            )
            self._write(
                "release_retry", job_id=int(job_id), owner=owner,
                not_before_unix=wall + delay, error=error,
            )
            self._event(job_id, "released", owner, f"retry in {delay:.2f}s: {error}", wall)
            return "retry"

        return self._store.transaction(_txn)

    def requeue(self, job_id: int, owner: str, now: float | None = None) -> bool:
        """Drain path: hand a *healthy* leased job back without charging
        the attempt (draining is the host's fault, not the job's).  Every
        shard finished before the drain is already durable in the result
        cache, so the next claimant resumes the remainder."""
        wall = time.time() if now is None else float(now)

        def _txn() -> bool:
            if self._write(
                "requeue_drain", job_id=int(job_id), owner=owner, not_before_unix=wall
            ).rowcount == 1:
                self._event(job_id, "requeued", owner, "graceful drain", wall)
                return True
            return False

        return self._store.transaction(_txn)

    def mark_corrupt(self, job_id: int, reason: str) -> None:
        """Mark a ``done`` row corrupt (terminal); used when a *read* fails
        validation (result checksum) rather than a claim.  A row that left
        ``done`` in the meantime (a resubmit reset it) is left alone."""

        def _txn() -> None:
            now = time.time()
            if self._write(
                "mark_corrupt_read", job_id=int(job_id), error=reason, finished_unix=now
            ).rowcount == 1:
                self._event(job_id, "corrupt", None, reason, now)

        self._store.transaction(_txn)

    # -- introspection -------------------------------------------------
    def _run_key_of(self, job_id: int) -> str:
        row = self._conn.execute(
            "SELECT run_key FROM jobs WHERE job_id=?", (int(job_id),)
        ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id} in {self.path}")
        return str(row[0])

    def job_row(self, job_id: int) -> dict:
        """One job row as a plain dict (read-only introspection)."""
        cur = self._conn.execute("SELECT * FROM jobs WHERE job_id=?", (int(job_id),))
        row = cur.fetchone()
        if row is None:
            raise KeyError(f"no job {job_id} in {self.path}")
        return dict(zip([d[0] for d in cur.description], row))

    def jobs(self, state: str | None = None) -> list[dict]:
        """All job rows (optionally filtered by state), FIFO order."""
        if state is not None and state not in _JOB_STATES:
            raise ValueError(f"unknown state {state!r}; valid: {_JOB_STATES}")
        # One static statement per shape (RPL308): built SQL would be
        # invisible to the protocol checker.
        if state is None:
            cur = self._conn.execute("SELECT * FROM jobs ORDER BY job_id")
        else:
            cur = self._conn.execute(
                "SELECT * FROM jobs WHERE state=? ORDER BY job_id", (state,)
            )
        names = [d[0] for d in cur.description]
        return [dict(zip(names, row)) for row in cur.fetchall()]

    def events(self, job_id: int | None = None) -> list[tuple]:
        """Audit trail: ``(job_id, event, owner, detail, at_unix)`` in order."""
        if job_id is None:
            rows = self._conn.execute(
                "SELECT job_id, event, owner, detail, at_unix FROM events "
                "ORDER BY event_id"
            )
        else:
            rows = self._conn.execute(
                "SELECT job_id, event, owner, detail, at_unix FROM events "
                "WHERE job_id=? ORDER BY event_id",
                (int(job_id),),
            )
        return [tuple(r) for r in rows]

    def active_run_keys(self) -> set[str]:
        """Run keys of jobs that are pending or leased — the set a result
        cache ``gc`` must not collect mid-flight (see
        :meth:`repro.threshold.cache.ResultCache.gc`)."""
        return {
            str(r[0])
            for r in self._conn.execute(
                "SELECT run_key FROM jobs WHERE state IN ('pending', 'leased')"
            )
        }

    def stats(self) -> dict:
        """Queue health summary (the ``queue stats`` CLI subcommand)."""
        counts = dict.fromkeys(_JOB_STATES, 0)
        for state, n in self._conn.execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            counts[str(state)] = int(n)
        return {
            "path": str(self.path),
            "schema_version": _QUEUE_SCHEMA_VERSION,
            "depth": counts["pending"] + counts["leased"],
            "max_depth": self.max_depth,
            "lease_seconds": self.lease_seconds,
            **counts,
            "events": int(
                self._conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
            ),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Idempotent close; checkpoints and truncates the WAL first."""
        if self._cache_handle is not None:
            self._cache_handle.close()
            self._cache_handle = None
        self._store.close()

    def __enter__(self) -> "ScanQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The claimant loop.
# ----------------------------------------------------------------------
@dataclass
class ServeReport:
    """What one :func:`serve` call did, for logs and tests."""

    owner: str
    claimed: int = 0
    completed: int = 0
    stale_completions: int = 0
    released: int = 0
    failed: int = 0
    requeued: int = 0
    drained: bool = False


class _HeartbeatPump(threading.Thread):
    """Background lease keep-alive for shards longer than the lease.

    The primary heartbeat rides ``on_shard_complete`` (zero extra
    connections, fires at every shard boundary); this pump covers the
    pathological case of a *single* shard outliving the lease.  It opens
    its own queue connection (sqlite handles are thread-local by default)
    and stops itself the moment a heartbeat reports the lease lost.
    """

    def __init__(
        self, queue_path: Path, job_id: int, owner: str, lease_seconds: float
    ) -> None:
        super().__init__(name=f"lease-pump-{job_id}", daemon=True)
        self._queue_path = queue_path
        self._job_id = job_id
        self._owner = owner
        self._lease_seconds = lease_seconds
        # Not named _stop: threading.Thread has a private _stop() method
        # this would shadow, breaking join().
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def run(self) -> None:
        period = max(self._lease_seconds / 4.0, 0.05)
        try:
            queue = ScanQueue(self._queue_path, lease_seconds=self._lease_seconds)
        except (sqlite3.Error, OSError, JournalSchemaError) as exc:
            warnings.warn(
                f"lease heartbeat pump could not open the queue ({exc!r}); "
                f"relying on shard-boundary heartbeats only",
                JobDegraded,
                stacklevel=1,
            )
            return
        try:
            while not self._halt.wait(period):
                try:
                    alive = queue.heartbeat(self._job_id, self._owner)
                except (sqlite3.Error, OSError) as exc:
                    warnings.warn(
                        f"lease heartbeat failed transiently ({exc!r}); "
                        f"retrying next period",
                        JobDegraded,
                        stacklevel=1,
                    )
                    continue
                if not alive:
                    return
        finally:
            queue.close()


def _default_owner() -> str:
    return f"pid-{os.getpid()}"


def serve(
    queue_path: str | Path,
    cache_path: str | Path | None = None,
    *,
    workers: int = 1,
    owner: str | None = None,
    max_jobs: int | None = None,
    poll_interval: float = 0.2,
    drain_on_empty: bool = True,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    shard_timeout: float | None = None,
    max_retries: int | None = None,
    chaos=None,
    io_chaos=None,
    install_signal_handlers: bool = False,
) -> ServeReport:
    """Claimant loop: claim → execute (resumable, checkpointed) → complete.

    Runs until the queue is empty (``drain_on_empty``), ``max_jobs`` jobs
    have been claimed, or a drain is requested (SIGTERM when
    ``install_signal_handlers``, or KeyboardInterrupt).  Draining finishes
    the shard in flight, requeues the rest of the job without charging the
    attempt, and exits — completed shards are already durable in the
    result cache, so the next claimant resumes exactly where this one
    stopped.

    Executed jobs checkpoint into ``cache_path`` (also the coalescing
    cache for any queue handle sharing it), so lease takeovers resume
    instead of recomputing.  ``chaos`` is a
    :class:`~repro.threshold.chaos.SchedulerChaosPlan` injecting
    claimant-level faults by claim ordinal; ``io_chaos`` injects storage
    faults into this claimant's *queue* connection (tests only).
    """
    import signal

    from repro.threshold.runtime import DrainRequested

    if workers < 1:
        raise ValueError("workers must be positive")
    claimant = owner or _default_owner()
    report = ServeReport(owner=claimant)
    drain_flag = threading.Event()

    previous_handler = None
    handlers_installed = False
    if install_signal_handlers and threading.current_thread() is threading.main_thread():

        def _on_sigterm(signum, frame):  # pragma: no cover - signal path
            drain_flag.set()

        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        handlers_installed = True

    queue = ScanQueue(
        queue_path, cache_path=cache_path, lease_seconds=lease_seconds, io_chaos=io_chaos
    )
    claim_ordinal = 0
    try:
        while not drain_flag.is_set():
            if max_jobs is not None and report.claimed >= max_jobs:
                break
            try:
                job = queue.claim(claimant)
            except (sqlite3.Error, OSError) as exc:
                warnings.warn(
                    f"queue claim failed transiently ({exc!r}); backing off "
                    f"and retrying — the queue file is durable, no work is "
                    f"lost",
                    JobDegraded,
                    stacklevel=2,
                )
                time.sleep(poll_interval)
                continue
            if job is None:
                if drain_on_empty:
                    break
                time.sleep(poll_interval)
                continue
            report.claimed += 1
            claim_ordinal += 1
            fault = chaos.fault_for(claim_ordinal) if chaos is not None else None
            if fault == "kill_claimant":
                # SIGKILL-equivalent: no cleanup, no requeue, the lease
                # simply stops being heartbeaten and expires.
                os._exit(13)
            stall_heartbeats = fault == "heartbeat_stall"
            try:
                _execute_job(
                    queue,
                    job,
                    report,
                    workers=workers,
                    cache_path=cache_path,
                    shard_timeout=shard_timeout,
                    max_retries=max_retries,
                    lease_seconds=lease_seconds,
                    queue_path=Path(queue_path),
                    drain_flag=drain_flag,
                    stall_heartbeats=stall_heartbeats,
                    interrupt_mid_job=fault == "interrupt_mid_job",
                )
            except (DrainRequested, KeyboardInterrupt, SystemExit):
                if queue.requeue(job.job_id, claimant):
                    report.requeued += 1
                report.drained = True
                break
            except Exception as exc:
                outcome = queue.release(job.job_id, claimant, error=repr(exc))
                if outcome == "failed":
                    report.failed += 1
                elif outcome == "retry":
                    report.released += 1
    finally:
        queue.close()
        if handlers_installed:
            signal.signal(signal.SIGTERM, previous_handler)
    report.drained = report.drained or drain_flag.is_set()
    return report


def _execute_job(
    queue: ScanQueue,
    job: ClaimedJob,
    report: ServeReport,
    *,
    workers: int,
    cache_path: str | Path | None,
    shard_timeout: float | None,
    max_retries: int | None,
    lease_seconds: float,
    queue_path: Path,
    drain_flag: threading.Event,
    stall_heartbeats: bool,
    interrupt_mid_job: bool,
) -> None:
    """Execute one claimed job through the resilient runtime and complete
    it (owner-guarded).  Raises ``DrainRequested`` out to the serve loop
    when a drain lands mid-job."""
    from repro.threshold.runtime import (
        DrainRequested,
        JournalDegraded,
        ResilienceOptions,
        RunDegraded,
        execute_shards,
    )
    from repro.threshold.sharded import _build_specs

    specs, _ = _build_specs(job.kind, job.args, job.shots, job.seed, job.num_shards)
    shards_done = [0]

    def _on_shard(idx: int, shots: int, failures: int) -> None:
        shards_done[0] += 1
        if not stall_heartbeats:
            queue.heartbeat(job.job_id, job.owner)
        if interrupt_mid_job and shards_done[0] == 1:
            raise DrainRequested("chaos: operator interrupt after first shard")
        if drain_flag.is_set():
            raise DrainRequested("drain requested; stopping at shard boundary")

    defaults = ResilienceOptions()
    opts = ResilienceOptions(
        max_retries=defaults.max_retries if max_retries is None else max_retries,
        shard_timeout=shard_timeout,
        checkpoint=cache_path,
        resume=True,
        on_shard_complete=_on_shard,
    )
    pump = None
    if not stall_heartbeats:
        pump = _HeartbeatPump(queue_path, job.job_id, job.owner, lease_seconds)
        pump.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            counts = execute_shards(
                specs,
                workers,
                options=opts,
                run_key=job.run_key,
                physics_key=job.physics_key,
            )
    finally:
        if pump is not None:
            pump.stop()
    degraded = False
    for w in caught:
        # Re-emit so degradations stay observable at the serve level, and
        # fold them into the job's degraded flag.
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if issubclass(w.category, (RunDegraded, JournalDegraded)):
            degraded = True
    pooled_shots = sum(s for s, _ in counts)
    pooled_failures = sum(f for _, f in counts)
    if queue.complete(
        job.job_id,
        job.owner,
        pooled_shots,
        pooled_failures,
        degraded=degraded,
        source="computed",
    ):
        report.completed += 1
    else:
        report.stale_completions += 1
        warnings.warn(
            f"job {job.job_id}: lease was taken over before completion; this "
            f"claimant's (bit-for-bit identical) result was rejected in favor "
            f"of the current owner's",
            JobDegraded,
            stacklevel=2,
        )


def scan_via_queue(
    queue_path: str | Path,
    requests: list,
    *,
    cache_path: str | Path | None = None,
    workers: int = 1,
    priority: int = 0,
    shard_timeout: float | None = None,
    max_retries: int | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> list[JobResult]:
    """Submit a batch of scans and drain them with one inline claimant.

    The experiment runners' queue mode: every ``(kind, args, shots,
    seed)`` request is submitted up front — submit-time coalescing
    against ``cache_path`` completes already-answered points without a
    pool — then a single in-process :func:`serve` drains the queue, and
    the verified results come back in request order.

    A ``KeyboardInterrupt`` during the drain stops at the next shard
    boundary, requeues the unfinished remainder (completed shards stay
    durable in the cache), and is re-raised here so the interrupt keeps
    its meaning for the caller; rerunning resumes instead of restarting.
    ``max_retries`` bounds *shard* retries inside a job (job-level
    attempts keep :data:`DEFAULT_JOB_RETRIES`).
    """
    queue = ScanQueue(queue_path, cache_path=cache_path, lease_seconds=lease_seconds)
    try:
        handles = [
            queue.submit_scan(kind, args, shots, seed, priority=priority)
            for kind, args, shots, seed in requests
        ]
        report = serve(
            queue_path,
            cache_path,
            workers=workers,
            drain_on_empty=True,
            lease_seconds=lease_seconds,
            shard_timeout=shard_timeout,
            max_retries=max_retries,
        )
        if report.drained:
            raise KeyboardInterrupt(
                "scan drain interrupted; unfinished jobs were requeued — "
                "rerun to resume from the completed shards"
            )
        return [handle.result(timeout=60.0) for handle in handles]
    finally:
        queue.close()
