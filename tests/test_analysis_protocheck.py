"""Scheduler protocol checks: the transition spec, the SQL rendered from
it, and the interleaving explorer.

Every jobs-table write the queue executes is rendered from
``protospec.TRANSITION_SPEC``, so the mutation proof works on the spec.
Each class of bad edit is caught here:

* a dropped owner fence on ``complete`` or ``requeue_drain`` loses the
  pinned WHERE clause, fails the self-check when edited into the
  rendered statement, and, as a spec mutant, makes the explorer return
  the pinned stale-lease or stale-drain trace;
* a dropped drain refund (a spec mutant) makes the explorer return the
  pinned charged-drain trace;
* a hand-written terminal update outside the spec fires RPL307;
* an identity rewrite without its checksum, or a half-stamped lease
  grant, is refused when the rule is constructed;
* a wrong source pin changes a rendered WHERE clause, and every one of
  them is pinned below;
* jobs DML assembled at runtime fires RPL308.

The explorer tests pin minimal counterexample traces: a weakened
protocol must not merely fail, it must fail with the *specific*
interleaving that breaks the real scheduler.
"""

from __future__ import annotations

import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import protospec
from repro.analysis.explore import ModelConfig, explore
from repro.analysis.linter import lint_source
from repro.analysis.protospec import (
    BIRTH,
    JOB_STATES,
    SQL,
    TRANSITION_SPEC,
    render,
    self_check,
    transition_diagram,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
THRESHOLD = REPO_ROOT / "src" / "repro" / "threshold"

FENCE = "job_id=:job_id AND lease_owner=:owner AND state='leased'"
CLAIMABLE = "job_id=:job_id AND state IN ('leased', 'pending')"

# The WHERE clause every rendered UPDATE must carry: the owner fence for
# lease-holder writes, the declared source states for the rest.
EXPECTED_WHERE = {
    "absorb_priority": CLAIMABLE,
    "resubmit_reset": "job_id=:job_id AND state IN ('corrupt', 'failed')",
    "quarantine_at_claim": CLAIMABLE,
    "exhaust_at_claim": CLAIMABLE,
    "lease_grant": CLAIMABLE,
    "heartbeat": FENCE,
    "complete": FENCE,
    "release_retry": FENCE,
    "release_failed": FENCE,
    "requeue_drain": FENCE,
    "mark_corrupt_read": "job_id=:job_id AND state IN ('done')",
}


def rule(name: str):
    return next(r for r in TRANSITION_SPEC if r.name == name)


def without(writes: tuple, column: str) -> tuple:
    return tuple(w for w in writes if w[0] != column)


def mutant_spec(name: str, **changes) -> tuple:
    return tuple(replace(r, **changes) if r.name == name else r for r in TRANSITION_SPEC)


def lint(snippet: str, path: str = "src/repro/threshold/scheduler.py"):
    return [d.rule for d in lint_source(textwrap.dedent(snippet), path, "src")]


# ----------------------------------------------------------------------
# The shipped scheduler executes the rendered statements, and only them.
# ----------------------------------------------------------------------
class _Recorder:
    """Connection proxy recording the SQL text of every execute."""

    def __init__(self, conn, seen: list) -> None:
        self._conn = conn
        self._seen = seen

    def execute(self, sql, parameters=()):
        self._seen.append(sql)
        return self._conn.execute(sql, parameters)

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.fixture(scope="module")
def traced_queue_sql(tmp_path_factory):
    """Every statement a ScanQueue executes while driving each declared
    transition once."""
    from repro.codes import SteaneCode
    from repro.threshold import QueueCorrupt, ScanQueue

    args = (SteaneCode(), 0.05, 1)
    seen: list = []
    path = tmp_path_factory.mktemp("queue") / "queue.sqlite"
    with ScanQueue(path) as queue:
        queue._store.conn = _Recorder(queue._store.conn, seen)
        a = queue.submit_scan("capacity", args, 200, 1, num_shards=2)  # birth
        queue.submit_scan("capacity", args, 200, 1, num_shards=2)  # absorb_priority
        job = queue.claim("w1", now=1000.0)  # lease_grant
        assert queue.heartbeat(job.job_id, "w1", now=1001.0)  # heartbeat
        assert queue.complete(job.job_id, "w1", 200, 3, now=1002.0)  # complete
        queue.mark_corrupt(a.job_id, "test")  # mark_corrupt_read

        b = queue.submit_scan("capacity", args, 200, 2, num_shards=2, max_retries=1)
        job = queue.claim("w1", now=1000.0)
        assert queue.release(job.job_id, "w1", "boom", now=1001.0) == "retry"
        job = queue.claim("w1", now=5000.0)
        assert queue.release(job.job_id, "w1", "boom", now=5001.0) == "failed"
        queue.submit_scan("capacity", args, 200, 2, num_shards=2)  # resubmit_reset
        job = queue.claim("w1", now=6000.0)
        assert queue.requeue(job.job_id, "w1", now=6001.0)  # requeue_drain
        job = queue.claim("w1", now=6002.0)
        assert queue.complete(job.job_id, "w1", 200, 3, now=6003.0)
        assert queue.job_row(b.job_id)["state"] == "done"

        c = queue.submit_scan("capacity", args, 200, 3, num_shards=2, max_retries=0)
        queue.claim("w1", now=7000.0)
        # The lease lapses with the only attempt spent: exhaust_at_claim.
        assert queue.claim("w2", now=7000.0 + 2 * queue.lease_seconds) is None
        assert queue.job_row(c.job_id)["state"] == "failed"

        d = queue.submit_scan("capacity", args, 200, 4, num_shards=2)
        queue._conn.execute("UPDATE jobs SET shots = 1 WHERE job_id = ?", (d.job_id,))
        with pytest.warns(QueueCorrupt):
            assert queue.claim("w1", now=8000.0) is None  # quarantine_at_claim
    return seen


class TestShippedScheduler:
    def test_shipped_scheduler_verifies_clean(self):
        """The rendered SQL does what the spec declares, and the store
        modules hold no jobs DML of their own (RPL307) and assemble no
        SQL at runtime (RPL308)."""
        assert self_check() == []
        for name in ("scheduler.py", "journal.py", "store.py", "runtime.py"):
            path = THRESHOLD / name
            findings = lint_source(path.read_text(), f"src/repro/threshold/{name}", "src")
            assert [d for d in findings if not d.suppressed] == [], name

    def test_every_declared_transition_is_implemented(self, traced_queue_sql):
        assert set(SQL.values()) <= set(traced_queue_sql)

    def test_every_jobs_write_is_a_rendered_statement(self, traced_queue_sql):
        writes = {
            sql for sql in traced_queue_sql
            if sql.startswith(("UPDATE jobs", "INSERT INTO jobs"))
        }
        # Only the test's own tampering statement is not rendered.
        assert writes - set(SQL.values()) == {
            "UPDATE jobs SET shots = 1 WHERE job_id = ?"
        }

    def test_scheduler_states_are_the_declared_states(self):
        """The runtime tuple IS the spec object — they cannot drift."""
        from repro.threshold import scheduler

        assert scheduler._JOB_STATES is JOB_STATES


# ----------------------------------------------------------------------
# Mutants: realistic bad edits, caught at construction, in the rendered
# SQL, or by the linter.
# ----------------------------------------------------------------------
class TestMutants:
    def test_clean_before_mutation(self):
        for shipped in TRANSITION_SPEC:
            assert render(replace(shipped)) == SQL[shipped.name]
        assert render(replace(BIRTH)) == SQL["birth"]
        assert self_check() == []

    def test_rogue_terminal_update_is_rpl307(self):
        """A brand-new code path writing jobs outside the declared
        protocol (no fence, no source-state pin)."""
        rogue = """
            def _expedite(conn, job_id):
                conn.execute(
                    "UPDATE jobs SET state='done', finished_unix=? "
                    "WHERE job_id=?",
                    (0, job_id),
                )
            """
        assert lint(rogue) == ["RPL307"]

    def test_identity_rewrite_without_checksum_is_refused(self):
        reset = rule("resubmit_reset")
        with pytest.raises(ValueError, match="without recomputing checksum"):
            replace(reset, sets=without(reset.sets, "checksum"))
        with pytest.raises(ValueError, match="without recomputing checksum"):
            replace(BIRTH, values=without(BIRTH.values, "checksum"))

    def test_wrong_source_state_pin_changes_the_pinned_where(self):
        assert set(EXPECTED_WHERE) == {r.name for r in TRANSITION_SPEC}
        # Re-pinning an unfenced rule shows up in its rendered WHERE ...
        mutant = replace(rule("mark_corrupt_read"), sources=frozenset({"leased"}))
        assert not render(mutant).endswith(EXPECTED_WHERE["mark_corrupt_read"])
        # ... and a fenced rule cannot be re-pinned at all.
        with pytest.raises(ValueError, match="fire from 'leased' only"):
            replace(rule("complete"), sources=frozenset({"pending"}))

    def test_lease_grant_without_expiry_stamp_is_refused(self):
        grant = rule("lease_grant")
        with pytest.raises(ValueError, match="half-stamped lease"):
            replace(grant, sets=without(grant.sets, "lease_expires_unix"))
        with pytest.raises(ValueError, match="half-stamped lease"):
            replace(grant, sets=without(grant.sets, "attempts"))

    # The two dropped-fence tests keep the names they had when the
    # mutant was an edit to hand-written SQL and RPL402 flagged it; that
    # rule is retired, and the same edit is now caught twice over.
    @staticmethod
    def _assert_dropped_fence_is_caught(monkeypatch, name):
        # As a spec mutant, the rendered WHERE loses the pinned fence ...
        mutant = replace(rule(name), fenced=False, python_guard="(mutant)")
        assert not render(mutant).endswith(EXPECTED_WHERE[name])
        # ... and as an edit to the rendered statement, the self-check
        # sees a stranger's write land.
        drifted = dict(SQL)
        drifted[name] = SQL[name].replace("lease_owner=:owner AND ", "")
        assert drifted[name] != SQL[name]
        monkeypatch.setattr(protospec, "SQL", drifted)
        assert self_check() == [
            f"{name} from leased as stranger: touched 1 row(s), declared 0"
        ]

    def test_dropped_owner_fence_on_complete_is_rpl402(self, monkeypatch):
        self._assert_dropped_fence_is_caught(monkeypatch, "complete")

    def test_dropped_fence_on_drain_requeue_is_rpl402(self, monkeypatch):
        self._assert_dropped_fence_is_caught(monkeypatch, "requeue_drain")

    @pytest.mark.parametrize(
        "name, old, new, problem",
        [
            (
                "mark_corrupt_read", "IN ('done')", "IN ('done', 'leased')",
                "mark_corrupt_read from leased as <owner>: touched 1 row(s), declared 0",
            ),
            (
                "requeue_drain", "lease_owner=NULL, ", "",
                "requeue_drain from leased as <owner>: lease_owner not cleared",
            ),
        ],
        ids=["widened-pin", "kept-owner"],
    )
    def test_self_check_catches_a_statement_that_drifted(
        self, monkeypatch, name, old, new, problem
    ):
        """A rendered statement edited after the fact no longer does what
        its rule declares, and the self-check names how."""
        drifted = dict(SQL)
        drifted[name] = SQL[name].replace(old, new)
        assert drifted[name] != SQL[name]
        monkeypatch.setattr(protospec, "SQL", drifted)
        assert self_check() == [problem]


class TestRenderedSql:
    @pytest.mark.parametrize("name", sorted(EXPECTED_WHERE))
    def test_where_clause_is_pinned(self, name):
        """Each rule's WHERE clause: the owner fence for lease-holder
        writes, the declared source states for the rest."""
        assert SQL[name].startswith("UPDATE jobs SET ")
        assert SQL[name].endswith(" WHERE " + EXPECTED_WHERE[name])


class TestDynamicSql:
    def test_fstring_jobs_dml_is_rpl308(self):
        codes = lint(
            """
            def zap(conn, state):
                conn.execute(f"UPDATE jobs SET state={state!r} WHERE job_id=?")
            """
        )
        assert "RPL308" in codes

    def test_accumulated_jobs_dml_is_rpl308(self):
        codes = lint(
            """
            def fetch(conn, state):
                sql = "UPDATE jobs SET heartbeat_unix=? "
                if state:
                    sql += "WHERE state=?"
                conn.execute(sql)
            """
        )
        assert "RPL308" in codes


# ----------------------------------------------------------------------
# Interleaving explorer.
# ----------------------------------------------------------------------
def explore_spec(monkeypatch, spec: tuple, **config):
    monkeypatch.setattr(protospec, "TRANSITION_SPEC", spec)
    return explore(ModelConfig(**config))


class TestExplorer:
    def test_real_protocol_is_exhaustively_safe(self):
        report = explore(ModelConfig())
        assert report.ok
        assert not report.truncated  # the full space fits under the bound
        assert report.violations == []
        assert (report.states, report.transitions) == (1734, 4005)

    def test_exploration_is_deterministic(self):
        a, b = explore(ModelConfig()), explore(ModelConfig())
        assert (a.states, a.transitions, a.violations) == (
            b.states, b.transitions, b.violations
        )

    def test_unfenced_complete_yields_the_stale_lease_race(self, monkeypatch):
        """Without the owner fence, the classic race: c0's lease expires,
        c1 takes over, and c0 — resurrected — writes the terminal state
        it no longer owns."""
        spec = mutant_spec("complete", fenced=False, python_guard="(mutant)")
        report = explore_spec(monkeypatch, spec, shards=1)
        assert not report.ok
        violation = report.violations[0]
        assert "terminal write by c0 without the lease" in violation.invariant
        assert list(violation.trace) == [
            "c0.claim (attempt 1)",
            "tick (clock -> 1)",
            "c1.claim (attempt 2, stale-lease takeover)",
            "c0.shard(0) -> durable",
            "c0.complete -> done",
        ]

    def test_unfenced_requeue_yields_the_stale_drain_race(self, monkeypatch):
        spec = mutant_spec("requeue_drain", fenced=False, python_guard="(mutant)")
        report = explore_spec(monkeypatch, spec, shards=1)
        assert not report.ok
        violation = report.violations[0]
        assert "requeue by c0 without the lease" in violation.invariant
        assert list(violation.trace) == [
            "c0.claim (attempt 1)",
            "tick (clock -> 1)",
            "c1.claim (attempt 2, stale-lease takeover)",
            "c0.drain -> requeued",
        ]

    def test_unrefunded_drain_charges_the_attempt(self, monkeypatch):
        """The minimal counterexample is two steps: claim then drain —
        the job lost an attempt to an administrative action."""
        drain = rule("requeue_drain")
        spec = mutant_spec("requeue_drain", sets=without(drain.sets, "attempts"))
        report = explore_spec(monkeypatch, spec, shards=1)
        assert not report.ok
        violation = report.violations[0]
        assert "drain charged the attempt" in violation.invariant
        assert list(violation.trace) == [
            "c0.claim (attempt 1)",
            "c0.drain -> requeued",
        ]

    def test_double_pooling_is_the_lost_update(self):
        report = explore(ModelConfig(shards=1, double_pool=True))
        assert not report.ok
        assert "lost update" in report.violations[0].invariant

    def test_recompute_without_cache_resume_is_still_safe(self):
        """Ignoring the durable cache on takeover is wasteful but SAFE —
        shard writes are idempotent, so the explorer must NOT flag it.
        Pinned as a positive property: the invariants catch protocol
        violations, not performance sins."""
        report = explore(ModelConfig(shards=1, resume_from_cache=False))
        assert report.ok

    def test_depth_bound_reports_truncation_honestly(self):
        report = explore(ModelConfig(max_steps=3))
        assert report.truncated
        assert report.ok  # no violation within the bound — and says so


# ----------------------------------------------------------------------
# Docs stay in lockstep.
# ----------------------------------------------------------------------
class TestDocs:
    def test_scheduler_md_embeds_the_declared_diagram(self):
        """SCHEDULER.md's transition diagram is generated from the spec
        the SQL is rendered from — prose cannot drift from the machine."""
        text = (REPO_ROOT / "SCHEDULER.md").read_text()
        assert transition_diagram() in text

    def test_analysis_md_documents_the_protocol_rules(self):
        text = (REPO_ROOT / "ANALYSIS.md").read_text()
        for term in ("RPL307", "RPL308", "self_check", "TRANSITION_SPEC"):
            assert term in text
        for retired in ("RPL401", "RPL404", "RPL407", "sqlmini"):
            assert retired not in text
