"""Metric names, units and their computation from measured passes and spans.

``END_TO_END`` and ``PER_LAYER`` are the names a run prints; they must stay
in step with ``BENCHMARK.json`` (``run.py`` refuses to start if they differ).
"""

from __future__ import annotations

import statistics

from perfbench.tracing import Span

# name -> unit.  Every end-to-end metric is reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "shot_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "compiled.build_s": "s",
    "compiled.verify_s": "s",
    "compiled.instructions": "count",
    "compiled.run_packed_s": "s",
    "compiled.run_packed_calls": "count",
    "compiled.shots_per_call": "shots",
    "compiled.noise_plane_bytes": "B",
    "exrec.round_s": "s",
    "exrec.round_self_s": "s",
    "steane_ec.decode_s": "s",
    "montecarlo.memory_experiment_s": "s",
    "packing.unpack_s": "s",
    "codes.correct_frame_s": "s",
    "codes.logical_action_s": "s",
    "engine.fault_run_s": "s",
    "engine.fault_cases": "count",
    "counting.postprocess_s": "s",
    "counting.singles_s": "s",
    "runtime.execute_shards_s": "s",
    "runtime.shards": "count",
    "runtime.shard_shots_mean": "shots",
    "runtime.degraded": "count",
    "sharded.spec_pickle_bytes": "B",
    "journal.open_s": "s",
    "journal.register_run_s": "s",
    "journal.record_shard_s": "s",
    "journal.record_shard_calls": "count",
    "journal.completed_shards_s": "s",
    "journal.close_s": "s",
    "cache.full_hit_ratio": "ratio",
    "scheduler.submit_s": "s",
    "scheduler.claim_s": "s",
    "scheduler.heartbeat_s": "s",
    "scheduler.complete_s": "s",
    "scheduler.events_per_job": "count",
    "scheduler.coalesced_ratio": "ratio",
    "scheduler.store_bytes": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Per-layer times summed per pass: metric -> span name.
_PASS_TIMES = {
    "compiled.run_packed_s": "compiled.run_packed",
    "exrec.round_s": "exrec.round",
    "steane_ec.decode_s": "steane_ec.decode",
    "montecarlo.memory_experiment_s": "montecarlo.memory_experiment",
    "packing.unpack_s": "packing.unpack",
    "codes.correct_frame_s": "codes.correct_frame",
    "codes.logical_action_s": "codes.logical_action",
    "engine.fault_run_s": "engine.fault_run",
    "counting.postprocess_s": "counting.postprocess",
    "counting.singles_s": "counting.singles",
    "runtime.execute_shards_s": "runtime.execute_shards",
    "journal.open_s": "journal.open",
    "journal.register_run_s": "journal.register_run",
    "journal.record_shard_s": "journal.record_shard",
    "journal.completed_shards_s": "journal.completed_shards",
    "journal.close_s": "journal.close",
    "scheduler.submit_s": "scheduler.submit",
    "scheduler.claim_s": "scheduler.claim",
    "scheduler.heartbeat_s": "scheduler.heartbeat",
    "scheduler.complete_s": "scheduler.complete",
}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def merge_worker_batches(driver: list[Span], batches: list[list[Span]]) -> list[Span]:
    """One span list for a pass: each worker batch is hung under the
    innermost driver ``runtime.execute_shards`` span that was open when the
    batch started (``perf_counter`` is one system-wide monotonic clock on
    Linux, so driver and worker stamps compare)."""
    spans = list(driver)
    dispatch = [
        (s.start, s.end, i) for i, s in enumerate(driver) if s.name == "runtime.execute_shards"
    ]
    for batch in batches:
        root_start = batch[0].start if batch else 0.0
        holder = None
        for start, end, i in dispatch:
            if start <= root_start <= end:
                holder = i  # later spans are nested deeper
        base = len(spans)
        for span in batch:
            parent = holder if span.parent is None else span.parent + base
            spans.append(Span(span.name, span.start, span.end, parent, span.counts))
    return spans


class _Tree:
    """Outermost-by-name and self-time queries over one span list."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(i)

    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` with no ancestor of the same name, so a
        layer that re-enters itself (sharded -> in-shard memory_experiment)
        is not counted twice."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            parent = s.parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent is None:
                out.append(s)
        return out

    def self_time(self, index: int) -> float:
        """Duration minus the part of it that child spans cover."""
        span = self.spans[index]
        covered = 0.0
        cursor = span.start
        for start, end in sorted(
            (self.spans[c].start, self.spans[c].end) for c in self.children.get(index, [])
        ):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.end - span.start - covered


def _total(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans)


def _count(spans: list[Span], key: str) -> float:
    return sum(s.counts.get(key, 0) for s in spans)


def layer_metrics(
    setup: list[Span],
    passes: list[list[Span]],
    observed: list[dict],
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Per-layer metrics: per-pass means over the traced passes.

    ``compiled.build_s``, ``compiled.verify_s`` and ``compiled.instructions``
    also count the programs built during set-up, since that is where most
    programs are compiled.  A layer a workload never calls reads 0.
    """
    n = len(passes)
    trees = [_Tree(p) for p in passes]
    setup_tree = _Tree(setup)
    out: dict[str, float] = {}

    def spans(name: str) -> list[Span]:
        return [s for t in trees for s in t.outermost(name)]

    for metric, name in _PASS_TIMES.items():
        out[metric] = _total(spans(name)) / n
    out["exrec.round_self_s"] = sum(
        t.self_time(i) for t in trees for i, s in enumerate(t.spans) if s.name == "exrec.round"
    ) / n

    for metric, name in (("compiled.build_s", "compiled.build"), ("compiled.verify_s", "compiled.verify")):
        out[metric] = _total(setup_tree.outermost(name)) + _total(spans(name)) / n
    builds = setup_tree.outermost("compiled.build") + spans("compiled.build")
    out["compiled.instructions"] = _count(builds, "instructions") / max(1, len(builds))

    runs = spans("compiled.run_packed")
    out["compiled.run_packed_calls"] = len(runs) / n
    out["compiled.shots_per_call"] = _count(runs, "shots") / max(1, len(runs))
    out["compiled.noise_plane_bytes"] = max((s.counts.get("plane_bytes", 0) for s in runs), default=0)

    out["engine.fault_cases"] = _count(spans("engine.fault_run"), "cases") / n

    dispatch = spans("runtime.execute_shards")
    shards = _count(dispatch, "shards")
    out["runtime.shards"] = shards / n
    out["runtime.shard_shots_mean"] = _count(dispatch, "shard_shots") / max(1, shards)
    out["runtime.degraded"] = _count(dispatch, "degraded") / n
    out["sharded.spec_pickle_bytes"] = _count(dispatch, "spec_pickle_bytes") / max(1, len(dispatch))

    out["journal.record_shard_calls"] = len(spans("journal.record_shard")) / n
    reads = spans("journal.completed_shards")
    out["cache.full_hit_ratio"] = _count(reads, "full_hits") / max(1, _count(reads, "lookups"))

    for key in ("scheduler.events_per_job", "scheduler.coalesced_ratio", "scheduler.store_bytes"):
        out[key] = sum(o.get(key, 0.0) for o in observed) / max(1, len(observed))

    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_ratio"] = traced / untraced
    out["trace.spans"] = sum(len(p) for p in passes) / n
    return {name: out[name] for name in PER_LAYER}
