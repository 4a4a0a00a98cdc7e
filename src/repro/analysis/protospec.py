"""The declared scheduler protocol: one transition table that renders the SQL.

This module is the single source of every write the durable scan queue
(`repro.threshold.scheduler`) makes to its ``jobs`` table.  It declares,
as plain data:

* the ``jobs`` table itself (:data:`JOBS_DDL`),
* the job states and which of them are terminal,
* every legal state transition, bound to the queue method that performs it,
* which transitions carry the owner fence
  (``lease_owner=:owner AND state='leased'``) — the double-claim
  firewall — and which source states the others are pinned to,
* each transition's column writes, in order, as ``(column, expr)``
  pairs where ``expr`` is a named parameter (``:error``), ``NULL`` or a
  fixed expression (``attempts+1``),
* the identity columns whose rewrite must recompute the row checksum.

From that table :func:`render` builds, once at import, every ``UPDATE``
and the birth ``INSERT`` the queue executes (:data:`SQL`, keyed by rule
name).  The queue executes nothing else against ``jobs``, and lint rule
RPL307 flags jobs DML text anywhere outside this module, so the shipped
statements conform to the spec by construction.  Shapes that would break
the protocol — an identity rewrite without its checksum, a half-stamped
lease grant, a fenced rule firing from anything but ``leased`` — are
refused when the rule is constructed.  :func:`self_check` executes every
rendered statement against an in-memory ``jobs`` table, and
:mod:`repro.analysis.explore` model-checks how the declared transitions
compose under every claimant interleaving.  ``SCHEDULER.md`` embeds
:func:`transition_diagram` and a test pins the embedding.

Stdlib-only: the analysis pass must be importable before numpy (or
anything else) is installed.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass
from types import MappingProxyType

__all__ = [
    "BIRTH",
    "BIRTH_STATES",
    "BirthRule",
    "CHECKSUM_COLUMN",
    "IDENTITY_COLUMNS",
    "JOBS_DDL",
    "JOB_STATES",
    "LEASE_COLUMNS",
    "LEASE_STATE",
    "SQL",
    "TERMINAL_STATES",
    "TRANSITION_SPEC",
    "TransitionRule",
    "render",
    "self_check",
    "transition_diagram",
]

JOBS_DDL = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id             INTEGER PRIMARY KEY AUTOINCREMENT,
    run_key            TEXT NOT NULL UNIQUE,
    physics_key        TEXT NOT NULL,
    kind               TEXT NOT NULL,
    payload            BLOB NOT NULL,
    shots              INTEGER NOT NULL,
    num_shards         INTEGER NOT NULL,
    priority           INTEGER NOT NULL DEFAULT 0,
    state              TEXT NOT NULL DEFAULT 'pending',
    attempts           INTEGER NOT NULL DEFAULT 0,
    max_attempts       INTEGER NOT NULL,
    not_before_unix    REAL NOT NULL DEFAULT 0,
    lease_owner        TEXT,
    lease_expires_unix REAL,
    heartbeat_unix     REAL,
    checksum           TEXT NOT NULL,
    source             TEXT,
    result_shots       INTEGER,
    result_failures    INTEGER,
    result_checksum    TEXT,
    degraded           INTEGER NOT NULL DEFAULT 0,
    error              TEXT,
    submitted_unix     REAL NOT NULL,
    finished_unix      REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim ON jobs (state, priority, job_id);
"""

# The job state machine.  Order matters for display only; membership is
# the contract (shared with repro.threshold.scheduler._JOB_STATES).
JOB_STATES = ("pending", "leased", "done", "failed", "corrupt")

# States a job can never leave except through an audited resubmit reset.
TERMINAL_STATES = frozenset({"done", "failed", "corrupt"})

# States a job row may be *born* in: ``pending`` normally, ``done`` when
# submit-time coalescing answered it from the result cache.
BIRTH_STATES = frozenset({"pending", "done"})

# The one state an owner fence pins: only a live lease has an owner.
LEASE_STATE = "leased"

# Columns that define *what will execute* under the run key.  A write to
# any of them must recompute the identity checksum in the same
# statement, or a later claim would verify stale bytes.
IDENTITY_COLUMNS = frozenset(
    {"run_key", "physics_key", "kind", "payload", "shots", "num_shards"}
)

CHECKSUM_COLUMN = "checksum"

# The lease bookkeeping columns: a lease grant stamps all three.
LEASE_COLUMNS = ("lease_owner", "lease_expires_unix", "heartbeat_unix")

# The attempt charge every lease grant makes.
_GRANT_CHARGE = "attempts+1"

# Named parameters the rendered WHERE clauses bind; column writes may not
# reuse them.
_WHERE_PARAMS = frozenset({"job_id", "owner"})

_PARAM_RE = re.compile(r":([a-z_]+)")


def _check_writes(name: str, writes: tuple) -> dict:
    """Shared validation of an ordered ``((column, expr), ...)`` tuple."""
    values = dict(writes)
    if len(values) != len(writes):
        raise ValueError(f"rule {name}: a column is written twice")
    for column, expr in writes:
        if set(_PARAM_RE.findall(expr)) & _WHERE_PARAMS:
            raise ValueError(f"rule {name}: {column} binds a WHERE parameter")
    identity = set(values) & IDENTITY_COLUMNS
    if identity and CHECKSUM_COLUMN not in values:
        raise ValueError(
            f"rule {name}: writes identity columns {sorted(identity)} without "
            f"recomputing {CHECKSUM_COLUMN} — a later claim would verify "
            f"stale bytes"
        )
    return values


@dataclass(frozen=True)
class TransitionRule:
    """One declared ``UPDATE`` against the ``jobs`` table.

    ``target=None`` declares a write that leaves ``state`` alone.
    ``fenced`` rules fire only for the lease owner
    (``lease_owner=:owner AND state='leased'``); the others are pinned to
    their ``sources`` (``state IN (...)``) and name their
    ``python_guard`` — the transaction-level reason no owner fence is
    needed (e.g. the claim transaction selected and checksum-verified the
    row under ``BEGIN IMMEDIATE`` before writing).
    """

    name: str
    method: str  # ScanQueue method that executes this write
    target: str | None  # state written, None = no state change
    sources: frozenset  # states the WHERE clause admits
    sets: tuple  # ((column, expr), ...) in SET order
    fenced: bool = False
    python_guard: str | None = None

    def __post_init__(self) -> None:
        if self.target is not None and self.target not in JOB_STATES:
            raise ValueError(f"rule {self.name}: unknown target {self.target!r}")
        unknown = set(self.sources) - set(JOB_STATES)
        if unknown or not self.sources:
            raise ValueError(f"rule {self.name}: bad sources {sorted(self.sources)}")
        if self.fenced and set(self.sources) != {LEASE_STATE}:
            raise ValueError(
                f"rule {self.name}: an owner fence pins state='{LEASE_STATE}', "
                f"so fenced rules fire from {LEASE_STATE!r} only"
            )
        if not self.fenced and not self.python_guard:
            raise ValueError(
                f"rule {self.name}: unfenced rules must name the python_guard "
                f"that makes them safe"
            )
        values = _check_writes(self.name, self.sets)
        if {"job_id", "state"} & set(values):
            raise ValueError(f"rule {self.name}: job_id and state are not column writes")
        if self.target == LEASE_STATE:
            unstamped = [c for c in LEASE_COLUMNS if values.get(c, "NULL") == "NULL"]
            if unstamped or values.get("attempts") != _GRANT_CHARGE:
                raise ValueError(
                    f"rule {self.name}: a lease grant must stamp every lease "
                    f"column and charge attempts={_GRANT_CHARGE}; unstamped: "
                    f"{unstamped or ['attempts']} — a half-stamped lease can "
                    f"never expire or be fenced"
                )

    @property
    def where(self) -> str:
        """The rendered WHERE clause: row scope plus fence or source pin."""
        if self.fenced:
            return f"job_id=:job_id AND lease_owner=:owner AND state='{LEASE_STATE}'"
        states = ", ".join(f"'{s}'" for s in sorted(self.sources))
        return f"job_id=:job_id AND state IN ({states})"


# Columns every row must be born with: a row without its checksum (or
# without the columns the checksum covers) could never be claim-verified.
_BIRTH_REQUIRED = IDENTITY_COLUMNS | {
    CHECKSUM_COLUMN, "state", "priority", "max_attempts", "submitted_unix",
}


@dataclass(frozen=True)
class BirthRule:
    """The single declared ``INSERT`` into ``jobs``.

    ``values`` are ``(column, expr)`` pairs like a rule's ``sets``.  The
    ``state`` value is the ``:state`` parameter, chosen in Python from
    :data:`BIRTH_STATES` (``pending``, or ``done`` for submit-time
    cache/pool coalescing).
    """

    values: tuple
    name: str = "birth"
    method: str = "submit_scan"
    states: frozenset = BIRTH_STATES

    def __post_init__(self) -> None:
        values = _check_writes(self.name, self.values)
        missing = _BIRTH_REQUIRED - set(values)
        if missing:
            raise ValueError(f"rule {self.name}: a job row must be born with {sorted(missing)}")
        if values["state"] != ":state":
            raise ValueError(f"rule {self.name}: the birth state is the :state parameter")


def _params(*columns: str) -> tuple:
    return tuple((column, f":{column}") for column in columns)


def _nulls(*columns: str) -> tuple:
    return tuple((column, "NULL") for column in columns)


BIRTH = BirthRule(
    values=_params(
        "run_key", "physics_key", "kind", "payload", "shots", "num_shards",
        "priority", "state", "max_attempts", "checksum", "source",
        "result_shots", "result_failures", "result_checksum",
    )
    + (("degraded", "0"),)
    + _params("submitted_unix", "finished_unix"),
)

_LEASED = frozenset({LEASE_STATE})
_CLAIMABLE = frozenset({"pending", LEASE_STATE})
_CLAIM_GUARD = (
    "claim transaction selected and checksum-verified the row under "
    "BEGIN IMMEDIATE before writing"
)
_SUBMIT_GUARD = (
    "submit transaction re-read the row's state under BEGIN IMMEDIATE "
    "before writing"
)
# Every way out of a lease into a terminal state: record why and when,
# drop the lease.
_TERMINAL_SETS = _params("error", "finished_unix") + _nulls(
    "lease_owner", "lease_expires_unix"
)

# The declared transition table; :data:`SQL` is rendered from it.
TRANSITION_SPEC: tuple = (
    TransitionRule(
        name="absorb_priority",
        method="submit_scan",
        target=None,
        sources=_CLAIMABLE,
        python_guard=_SUBMIT_GUARD,
        sets=(("priority", "MAX(priority, :priority)"),),
    ),
    TransitionRule(
        name="resubmit_reset",
        method="submit_scan",
        target="pending",
        sources=frozenset({"failed", "corrupt"}),
        python_guard=_SUBMIT_GUARD,
        sets=_params(
            "kind", "payload", "shots", "num_shards", "physics_key",
            "checksum", "priority",
        )
        + (("attempts", "0"),)
        + _params("max_attempts")
        + (("not_before_unix", "0"),)
        + _nulls(
            "lease_owner", "lease_expires_unix", "heartbeat_unix", "source",
            "result_shots", "result_failures", "result_checksum",
        )
        + (("degraded", "0"),)
        + _nulls("error")
        + _params("submitted_unix")
        + _nulls("finished_unix"),
    ),
    TransitionRule(
        name="quarantine_at_claim",
        method="_claim_once",
        target="corrupt",
        sources=_CLAIMABLE,
        python_guard=_CLAIM_GUARD,
        sets=_TERMINAL_SETS,
    ),
    TransitionRule(
        name="exhaust_at_claim",
        method="_claim_once",
        target="failed",
        sources=_CLAIMABLE,
        python_guard=_CLAIM_GUARD,
        sets=_TERMINAL_SETS,
    ),
    TransitionRule(
        name="lease_grant",
        method="_claim_once",
        target=LEASE_STATE,
        sources=_CLAIMABLE,
        python_guard=_CLAIM_GUARD,
        sets=_params(*LEASE_COLUMNS) + (("attempts", _GRANT_CHARGE),),
    ),
    TransitionRule(
        name="heartbeat",
        method="heartbeat",
        target=None,
        sources=_LEASED,
        fenced=True,
        sets=_params("heartbeat_unix", "lease_expires_unix"),
    ),
    TransitionRule(
        name="complete",
        method="complete",
        target="done",
        sources=_LEASED,
        fenced=True,
        sets=_params(
            "result_shots", "result_failures", "result_checksum", "degraded",
            "source", "finished_unix",
        )
        + _nulls("lease_expires_unix"),
    ),
    TransitionRule(
        name="release_retry",
        method="release",
        target="pending",
        sources=_LEASED,
        fenced=True,
        sets=_nulls(*LEASE_COLUMNS) + _params("not_before_unix", "error"),
    ),
    TransitionRule(
        name="release_failed",
        method="release",
        target="failed",
        sources=_LEASED,
        fenced=True,
        sets=_TERMINAL_SETS,
    ),
    TransitionRule(
        name="requeue_drain",
        method="requeue",
        target="pending",
        sources=_LEASED,
        fenced=True,
        sets=_nulls(*LEASE_COLUMNS)
        + (("attempts", "MAX(attempts-1, 0)"),)
        + _params("not_before_unix"),
    ),
    TransitionRule(
        name="mark_corrupt_read",
        method="mark_corrupt",
        target="corrupt",
        sources=frozenset({"done"}),
        python_guard=(
            "result-read validation failed its checksum; quarantining a "
            "terminal row races nothing"
        ),
        sets=_TERMINAL_SETS,
    ),
)


def render(rule) -> str:
    """The one SQL statement a :class:`TransitionRule` or :class:`BirthRule`
    declares."""
    if isinstance(rule, BirthRule):
        columns = ", ".join(column for column, _ in rule.values)
        values = ", ".join(expr for _, expr in rule.values)
        return f"INSERT INTO jobs ({columns}) VALUES ({values})"
    writes = [f"state='{rule.target}'"] if rule.target is not None else []
    writes += [f"{column}={expr}" for column, expr in rule.sets]
    return f"UPDATE jobs SET {', '.join(writes)} WHERE {rule.where}"


def _render_all() -> MappingProxyType:
    statements = {BIRTH.name: render(BIRTH)}
    for rule in TRANSITION_SPEC:
        if rule.name in statements:
            raise ValueError(f"rule name {rule.name!r} declared twice")
        statements[rule.name] = render(rule)
    return MappingProxyType(statements)


# Every jobs-table write the queue may execute, keyed by rule name.
SQL = _render_all()


def _sample(statement: str, **fixed) -> dict:
    """Distinct placeholder values for every named parameter."""
    values = {name: f"<{name}>" for name in _PARAM_RE.findall(statement)}
    values.update(fixed)
    return values


def _check_row(conn, label: str, job_id: int, writes: tuple, params: dict, state) -> list:
    cur = conn.execute("SELECT * FROM jobs WHERE job_id=?", (job_id,))
    row = dict(zip([d[0] for d in cur.description], cur.fetchone()))
    problems = []
    if row["state"] != state:
        problems.append(f"{label}: left state={row['state']!r}, declared {state!r}")
    for column, expr in writes:
        if expr == "NULL" and row[column] is not None:
            problems.append(f"{label}: {column} not cleared")
        elif expr.startswith(":") and row[column] != params[expr[1:]]:
            problems.append(f"{label}: {column} not written from {expr}")
    return problems


def self_check() -> list:
    """Execute every statement in :data:`SQL` against an in-memory table.

    The birth INSERT must create a row in each birth state.  Each UPDATE
    runs against a row seeded in every job state — and, for fenced rules,
    once as the lease owner and once as a stranger — and must touch the
    row exactly when its rule admits it, leaving the declared target
    state and each parameter or NULL write in place.  Returns a list of
    problems; empty means the rendered SQL does what the spec declares.
    """
    problems: list = []
    conn = sqlite3.connect(":memory:", isolation_level=None)

    def seed(state: str) -> tuple:
        conn.execute("DELETE FROM jobs")
        params = _sample(SQL[BIRTH.name], state=state)
        job_id = conn.execute(SQL[BIRTH.name], params).lastrowid
        # The lease owner every fenced case below either is or is not.
        conn.execute(
            "UPDATE jobs SET lease_owner='<owner>' WHERE job_id=?", (job_id,)
        )
        return job_id, params

    try:
        conn.executescript(JOBS_DDL)
        for state in sorted(BIRTH.states):
            job_id, params = seed(state)
            problems += _check_row(
                conn, f"birth({state})", job_id, BIRTH.values, params, state
            )
        for rule in TRANSITION_SPEC:
            callers = ("<owner>", "stranger") if rule.fenced else ("<owner>",)
            for source in JOB_STATES:
                for caller in callers:
                    label = f"{rule.name} from {source} as {caller}"
                    job_id, _ = seed(source)
                    params = _sample(SQL[rule.name], job_id=job_id, owner=caller)
                    try:
                        touched = conn.execute(SQL[rule.name], params).rowcount
                    except sqlite3.Error as exc:
                        problems.append(f"{label}: {exc}")
                        continue
                    admitted = source in rule.sources and caller == "<owner>"
                    if touched != int(admitted):
                        problems.append(
                            f"{label}: touched {touched} row(s), declared "
                            f"{int(admitted)}"
                        )
                    elif admitted:
                        problems += _check_row(
                            conn, label, job_id, rule.sets, params,
                            rule.target or source,
                        )
    finally:
        conn.close()
    return problems


def transition_diagram() -> str:
    """The declared state machine rendered for SCHEDULER.md.

    Generated from :data:`TRANSITION_SPEC` so the documented diagram is
    the enforced one; a test asserts SCHEDULER.md embeds this text
    verbatim.
    """
    lines = [
        "states:   " + " | ".join(JOB_STATES)
        + "   (terminal: " + ", ".join(sorted(TERMINAL_STATES)) + ")",
        "birth:    submit_scan -> " + " | ".join(sorted(BIRTH.states))
        + "   [all identity columns + checksum]",
    ]
    for rule in TRANSITION_SPEC:
        if rule.target is None:
            continue
        fence = "owner-fenced" if rule.fenced else "txn-guarded"
        lines.append(
            f"{' | '.join(sorted(rule.sources)):<18} -> {rule.target:<8}"
            f"  {rule.name} ({rule.method}, {fence})"
        )
    return "\n".join(lines)
