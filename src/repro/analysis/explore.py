"""Bounded exhaustive interleaving exploration of the lease protocol.

The scheduler's jobs-table writes are rendered from the declared
transition spec (:mod:`repro.analysis.protospec`), so each statement has
its declared shape by construction; this module proves the declared
transitions *compose* safely under every interleaving — not just the
sampled ones the chaos suite executes.

The model is a pure-Python mirror of one queue row plus N claimants
whose atomic steps correspond 1:1 to the scheduler's transactions
(each SQL transaction is atomic under ``BEGIN IMMEDIATE``, so one model
step per transaction is exactly the real granularity):

* ``claim``    — charge the attempt, stamp the lease (stale-lease
                 takeover when a live lease has expired on the clock);
                 an exhausted attempt budget marks the job failed.
* ``shard``    — execute one shard: write it to the shared durable
                 cache (content-addressed journal) and heartbeat the
                 lease if still owned.
* ``complete`` — pool the durable shards and write the terminal row,
                 admitted exactly when the spec's ``complete`` rule
                 admits it (owner fence and source states).
* ``crash``    — the claimant dies mid-lease; only the clock can free
                 the row (lease expiry).
* ``drain``    — graceful Ctrl-C/SIGTERM: the spec's ``requeue_drain``
                 write, with its fence and its attempt refund.
* ``tick``     — wall clock advances one lease quantum.

``explore`` enumerates **all** schedules up to a step bound via
breadth-first search over memoized states, so any reported violation
comes with a minimal counterexample trace.  Safety invariants checked
on every state and transition:

* **I1** at most one live lease believer per job,
* **I2** terminal writes only by the fencing owner,
* **I3** attempt counters move only by the declared charges/refunds and
  stay within budget,
* **I4** no lost update: a done job's counts equal the canonical pooled
  counts with every shard counted exactly once (stale-takeover resume
  included),
* **I5** drain never charges an attempt.

Fences, source states and attempt charges are read from
``protospec.TRANSITION_SPEC`` when :func:`explore` runs (the
``lease_grant``, ``heartbeat``, ``complete`` and ``requeue_drain``
rules), so the model checks the protocol the queue executes.  Tests
substitute spec mutants — a dropped fence, a dropped refund — and pin
the concrete counterexample trace each one yields, proving the explorer
would catch the regression if the real protections ever rotted.  The
``resume_from_cache`` / ``double_pool`` knobs model claimant behaviour
outside the SQL.  Stdlib-only, like everything in ``repro.analysis``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.analysis import protospec

__all__ = [
    "Counterexample",
    "ExplorationReport",
    "ModelConfig",
    "explore",
]

# Deterministic per-shard counts: shard i contributes (100 shots, i+1
# failures), so any double-count or dropped shard changes the pooled sum.
_SHARD_SHOTS = 100


def _shard_counts(index: int) -> tuple:
    return (_SHARD_SHOTS, index + 1)


def _canonical_counts(shards: int) -> tuple:
    return (
        shards * _SHARD_SHOTS,
        sum(_shard_counts(i)[1] for i in range(shards)),
    )


@dataclass(frozen=True)
class ModelConfig:
    """Exploration bounds plus claimant-behaviour knobs."""

    claimants: int = 2
    shards: int = 2
    max_attempts: int = 3
    max_steps: int = 16  # schedule depth bound k
    max_ticks: int = 3  # wall-clock advances (each expires a fresh lease)
    max_crashes: int = 1
    max_drains: int = 1
    resume_from_cache: bool = True  # False: takeover recomputes every shard
    double_pool: bool = False  # True: complete double-counts its own shards


@dataclass(frozen=True)
class _Job:
    state: str = "pending"
    attempts: int = 0
    owner: int | None = None
    expires: int | None = None
    result: tuple | None = None
    completed_by: int | None = None


@dataclass(frozen=True)
class _Claimant:
    phase: str = "idle"  # idle | running | stopped | crashed
    remaining: tuple = ()
    executed: tuple = ()
    charged: int = 0  # job.attempts right after this claimant's claim


@dataclass(frozen=True)
class _World:
    clock: int = 0
    crashes: int = 0
    drains: int = 0
    job: _Job = field(default_factory=_Job)
    claimants: tuple = ()
    cache: frozenset = frozenset()  # durable shard indices (shared journal)


@dataclass(frozen=True)
class _Step:
    label: str
    world: _World
    violations: tuple = ()


@dataclass(frozen=True)
class Counterexample:
    """A violating schedule, replayed as its minimal step trace."""

    invariant: str
    trace: tuple  # step labels from the initial state to the violation

    def format(self) -> str:
        steps = "\n".join(f"  {i + 1}. {label}" for i, label in enumerate(self.trace))
        return f"violated: {self.invariant}\nschedule ({len(self.trace)} steps):\n{steps}"


@dataclass
class ExplorationReport:
    config: ModelConfig
    states: int = 0
    transitions: int = 0
    truncated: bool = False  # some schedule hit the depth bound
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _owns(job: _Job, claimant: int) -> bool:
    """The lease is this claimant's: owner matches and the row is leased."""
    return job.state == "leased" and job.owner == claimant


def _admits(rule, job: _Job, claimant: int) -> bool:
    """Whether ``rule``'s WHERE clause admits this claimant's write.

    Expiry deliberately does not matter here — the rendered fence is
    ``lease_owner=:owner AND state='leased'``; an expired-but-not-
    taken-over lease still completes, exactly like the real statement.
    """
    if rule.fenced and job.owner != claimant:
        return False
    return job.state in rule.sources


def _charge(rule, attempts: int) -> int:
    """The attempt counter after ``rule`` writes it."""
    expr = dict(rule.sets).get("attempts")
    if expr is None:
        return attempts
    if expr == "attempts+1":
        return attempts + 1
    if expr == "MAX(attempts-1, 0)":
        return max(attempts - 1, 0)
    raise ValueError(f"the explorer cannot model {rule.name}'s attempts={expr}")


def _steps(world: _World, cfg: ModelConfig, spec: dict) -> list:
    out: list = []
    job = world.job

    if world.clock < cfg.max_ticks:
        out.append(
            _Step(f"tick (clock -> {world.clock + 1})", replace(world, clock=world.clock + 1))
        )

    for i, claimant in enumerate(world.claimants):
        tag = f"c{i}"
        if claimant.phase == "idle":
            expired = (
                job.state == "leased"
                and job.expires is not None
                and job.expires <= world.clock
            )
            if job.state == "pending" or expired:
                takeover = ", stale-lease takeover" if expired else ""
                if job.attempts >= cfg.max_attempts:
                    new_job = replace(
                        job, state="failed", owner=None, expires=None
                    )
                    out.append(
                        _Step(
                            f"{tag}.claim -> attempts exhausted, job failed",
                            replace(world, job=new_job),
                        )
                    )
                else:
                    new_job = replace(
                        job,
                        state="leased",
                        owner=i,
                        expires=world.clock + 1,
                        attempts=_charge(spec["lease_grant"], job.attempts),
                    )
                    if cfg.resume_from_cache:
                        remaining = tuple(
                            s for s in range(cfg.shards) if s not in world.cache
                        )
                    else:
                        remaining = tuple(range(cfg.shards))
                    new_claimants = _with(
                        world.claimants,
                        i,
                        _Claimant(
                            phase="running",
                            remaining=remaining,
                            executed=(),
                            charged=new_job.attempts,
                        ),
                    )
                    out.append(
                        _Step(
                            f"{tag}.claim (attempt {new_job.attempts}{takeover})",
                            replace(world, job=new_job, claimants=new_claimants),
                        )
                    )
        elif claimant.phase == "running":
            if claimant.remaining:
                shard = claimant.remaining[0]
                new_job = job
                if _admits(spec["heartbeat"], job, i):
                    # Heartbeat rides the shard boundary (on_shard_complete).
                    new_job = replace(job, expires=world.clock + 1)
                new_claimants = _with(
                    world.claimants,
                    i,
                    replace(
                        claimant,
                        remaining=claimant.remaining[1:],
                        executed=claimant.executed + (shard,),
                    ),
                )
                out.append(
                    _Step(
                        f"{tag}.shard({shard}) -> durable",
                        replace(
                            world,
                            job=new_job,
                            claimants=new_claimants,
                            cache=world.cache | {shard},
                        ),
                    )
                )
            else:
                owns = _owns(job, i)
                stopped = _with(
                    world.claimants, i, replace(claimant, phase="stopped")
                )
                if not _admits(spec["complete"], job, i):
                    out.append(
                        _Step(
                            f"{tag}.complete -> lost the fence (stale), no-op",
                            replace(world, claimants=stopped),
                        )
                    )
                else:
                    violations = []
                    if not owns:
                        violations.append(
                            f"terminal write by {tag} without the lease "
                            f"(owner={job.owner}, state={job.state})"
                        )
                    if job.state == "done":
                        violations.append(
                            f"terminal state overwritten by {tag}"
                        )
                    pooled = _pool(world.cache)
                    if cfg.double_pool:
                        pooled = (
                            pooled[0] + sum(_shard_counts(s)[0] for s in claimant.executed),
                            pooled[1] + sum(_shard_counts(s)[1] for s in claimant.executed),
                        )
                    if pooled != _canonical_counts(cfg.shards):
                        violations.append(
                            f"lost update: pooled counts {pooled} != canonical "
                            f"{_canonical_counts(cfg.shards)}"
                        )
                    new_job = replace(
                        job,
                        state="done",
                        owner=None,
                        expires=None,
                        result=pooled,
                        completed_by=i,
                    )
                    out.append(
                        _Step(
                            f"{tag}.complete -> done",
                            replace(world, job=new_job, claimants=stopped),
                            violations=tuple(violations),
                        )
                    )
            if world.crashes < cfg.max_crashes:
                out.append(
                    _Step(
                        f"{tag}.crash (mid-lease)",
                        replace(
                            world,
                            crashes=world.crashes + 1,
                            claimants=_with(
                                world.claimants, i, replace(claimant, phase="crashed")
                            ),
                        ),
                    )
                )
            if world.drains < cfg.max_drains:
                owns = _owns(job, i)
                stopped = _with(
                    world.claimants, i, replace(claimant, phase="stopped")
                )
                if not _admits(spec["requeue_drain"], job, i):
                    out.append(
                        _Step(
                            f"{tag}.drain -> lost the fence (stale), no-op",
                            replace(
                                world, drains=world.drains + 1, claimants=stopped
                            ),
                        )
                    )
                else:
                    violations = []
                    if not owns:
                        violations.append(
                            f"requeue by {tag} without the lease "
                            f"(owner={job.owner}, state={job.state})"
                        )
                    attempts = _charge(spec["requeue_drain"], job.attempts)
                    if owns and attempts != claimant.charged - 1:
                        violations.append(
                            f"drain charged the attempt (attempts would be "
                            f"{attempts}, claimed at {claimant.charged})"
                        )
                    new_job = replace(
                        job,
                        state="pending",
                        owner=None,
                        expires=None,
                        attempts=attempts,
                    )
                    out.append(
                        _Step(
                            f"{tag}.drain -> requeued",
                            replace(
                                world,
                                drains=world.drains + 1,
                                job=new_job,
                                claimants=stopped,
                            ),
                            violations=tuple(violations),
                        )
                    )
    return out


def _with(claimants: tuple, index: int, value: _Claimant) -> tuple:
    return claimants[:index] + (value,) + claimants[index + 1 :]


def _pool(cache: frozenset) -> tuple:
    return (
        sum(_shard_counts(s)[0] for s in cache),
        sum(_shard_counts(s)[1] for s in cache),
    )


def _state_violations(world: _World, cfg: ModelConfig) -> list:
    violations = []
    job = world.job
    if not 0 <= job.attempts <= cfg.max_attempts:
        violations.append(
            f"attempt counter out of budget: {job.attempts} not in "
            f"[0, {cfg.max_attempts}]"
        )
    believers = [
        i
        for i, c in enumerate(world.claimants)
        if c.phase == "running"
        and job.state == "leased"
        and job.owner == i
        and job.expires is not None
        and job.expires > world.clock
    ]
    if len(believers) > 1:
        violations.append(f"two live lease believers: {believers}")
    if job.state == "leased" and job.owner is None:
        violations.append("leased row with no owner")
    if job.state == "done":
        if job.result != _canonical_counts(cfg.shards):
            violations.append(
                f"done with wrong pooled counts {job.result} != "
                f"{_canonical_counts(cfg.shards)}"
            )
        if job.completed_by is None:
            violations.append("done with no recorded completer")
    return violations


def explore(config: ModelConfig | None = None) -> ExplorationReport:
    """Enumerate every schedule up to ``config.max_steps``.

    Breadth-first over memoized states: the first violation found is at
    minimal depth, and its trace (reconstructed through first-visit
    parent pointers) is a minimal counterexample schedule.
    """
    cfg = config if config is not None else ModelConfig()
    spec = {rule.name: rule for rule in protospec.TRANSITION_SPEC}
    initial = _World(claimants=tuple(_Claimant() for _ in range(cfg.claimants)))
    report = ExplorationReport(config=cfg)

    parents: dict = {initial: None}  # world -> (parent world, step label)
    queue = deque([(initial, 0)])
    startup = _state_violations(initial, cfg)
    if startup:
        report.violations.append(Counterexample(startup[0], ()))
        return report

    while queue:
        world, depth = queue.popleft()
        if depth >= cfg.max_steps:
            report.truncated = True
            continue
        for step in _steps(world, cfg, spec):
            report.transitions += 1
            violations = list(step.violations) + _state_violations(step.world, cfg)
            if violations:
                trace = [step.label]
                node = world
                while parents[node] is not None:
                    node, label = parents[node]
                    trace.append(label)
                trace.reverse()
                report.states = len(parents)
                report.violations.append(
                    Counterexample(violations[0], tuple(trace))
                )
                return report
            if step.world not in parents:
                parents[step.world] = (world, step.label)
                queue.append((step.world, depth + 1))

    report.states = len(parents)
    return report
