"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer (listed in
``TRACE_POINTS``) from outside the program: methods are replaced on their
class, module functions are rebound in every loaded ``repro`` module that
holds them.  Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall`
restores every original object.

A span records its name, start, end and parent span; counts taken at the
same boundary ride on the span.  Spans stay in memory until the run ends.
Shards that the sharded runtime sends to spawned worker processes are
traced in the worker by :func:`traced_guarded_run_shard`, which appends the
worker's spans to a file that the parent merges after each pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

# Directory that spawned workers append their spans to (inherited through
# the environment, since a spawned worker shares no memory with the parent).
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.counts]


# ----------------------------------------------------------------------
# Counts taken at a boundary: ``hook(args, kwargs, result) -> dict``.
# ----------------------------------------------------------------------
def _program_counts(args, kwargs, result) -> dict:
    program = args[0]
    return {"instructions": len(program._instructions)}


def _run_packed_counts(args, kwargs, result) -> dict:
    from repro.pauliframe.packing import words_for

    program, shots = args[0], args[1]
    c = program._counts
    # _sample_planes allocates every channel class, zero-rate ones included:
    # 2 planes per 1-qubit depolarizing location, 4 per 2-qubit location,
    # 1 per measurement or preparation, 2 per storage location.
    rows = 2 * c["g1"] + 4 * c["g2"] + c["meas"] + c["prep"] + 2 * c["store"]
    return {"shots": shots, "plane_bytes": rows * words_for(shots) * 8}


def _fault_run_counts(args, kwargs, result) -> dict:
    return {"cases": int(result.fx.shape[0])}


def _execute_shards_counts(args, kwargs, result) -> dict:
    specs = args[0]
    return {
        "shards": len(specs),
        "shard_shots": sum(spec[2] for spec in specs),
        "spec_pickle_bytes": len(pickle.dumps(specs[0])) if specs else 0,
    }


def _lookup_counts(args, kwargs, result) -> dict:
    expected = kwargs.get("expected_sizes", args[2] if len(args) > 2 else None)
    if expected is None:
        return {}
    return {"lookups": 1, "full_hits": int(len(result) == len(expected))}


def _frame_sim_name(args, kwargs) -> str:
    injections = kwargs.get("fault_injections", args[5] if len(args) > 5 else None)
    return "engine.run" if injections is None else "engine.fault_run"


# (span name or naming function, module, attribute path, count hook).
# Each entry is a public entry point of one layer; the metric names in
# metrics.py are derived from these span names.
TRACE_POINTS = [
    ("compiled.build", "repro.pauliframe.compiled", "CompiledFrameProgram.__init__", _program_counts),
    ("compiled.verify", "repro.pauliframe.compiled", "CompiledFrameProgram.verify", None),
    ("compiled.run_packed", "repro.pauliframe.compiled", "CompiledFrameProgram.run_packed", _run_packed_counts),
    ("exrec.round", "repro.ft.exrec", "SteaneECProtocol.run_round_packed", None),
    ("steane_ec.decode", "repro.ft.steane_ec", "SteaneAncillaPrep.parse_packed", None),
    ("steane_ec.decode", "repro.ft.steane_ec", "SteaneSyndromeExtraction.parse_syndromes_packed", None),
    ("montecarlo.memory_experiment", "repro.threshold.montecarlo", "memory_experiment", None),
    ("packing.unpack", "repro.pauliframe.packing", "unpack_shot_major", None),
    ("codes.correct_frame", "repro.codes.stabilizer_code", "StabilizerCode.correct_frame", None),
    ("codes.correct_frame", "repro.codes.css", "CSSCode.correct_frame", None),
    ("codes.logical_action", "repro.codes.stabilizer_code", "StabilizerCode.logical_action_of_frame", None),
    (_frame_sim_name, "repro.pauliframe.engine", "FrameSimulator.run", _fault_run_counts),
    ("counting.postprocess", "repro.threshold.counting", "FullSteaneRound.classical_postprocess", None),
    ("counting.singles", "repro.threshold.counting", "count_fault_paths", None),
    ("runtime.execute_shards", "repro.threshold.runtime", "execute_shards", _execute_shards_counts),
    ("journal.open", "repro.threshold.journal", "CheckpointJournal.__init__", None),
    ("journal.register_run", "repro.threshold.journal", "CheckpointJournal.register_run", None),
    ("journal.record_shard", "repro.threshold.journal", "CheckpointJournal.record_shard", None),
    ("journal.completed_shards", "repro.threshold.journal", "CheckpointJournal.completed_shards", _lookup_counts),
    ("journal.close", "repro.threshold.journal", "CheckpointJournal.close", None),
    ("scheduler.submit", "repro.threshold.scheduler", "ScanQueue.submit_scan", None),
    ("scheduler.claim", "repro.threshold.scheduler", "ScanQueue.claim", None),
    ("scheduler.heartbeat", "repro.threshold.scheduler", "ScanQueue.heartbeat", None),
    ("scheduler.complete", "repro.threshold.scheduler", "ScanQueue.complete", None),
]


class Tracer:
    """Collects spans while ``active``; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list (call it only
        while no span is open: parents are indices into the list)."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name, fn, count, degraded_warnings: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            caught = []
            try:
                if degraded_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                # Re-emit what was recorded so tracing hides no warning.
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if count is not None:
                span.counts = count(args, kwargs, result)
            if degraded_warnings:
                from repro.threshold.runtime import RunDegraded

                span.counts["degraded"] = sum(
                    issubclass(w.category, RunDegraded) for w in caught
                )
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in ``TRACE_POINTS`` (idempotent)."""
        if self._restore:
            return
        for name, module_name, path, count in TRACE_POINTS:
            module = importlib.import_module(module_name)
            degraded = path == "execute_shards"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count, degraded))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, count, degraded)
            # Rebind every module-level reference (``from x import f`` copies).
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def tracing(self):
        """Trace the enclosed calls, in this process and in the sharded
        runtime's spawned workers; every wrapper is removed on exit."""
        from repro.threshold import runtime

        self.install()
        original = runtime._guarded_run_shard
        runtime._guarded_run_shard = traced_guarded_run_shard
        self.active = True
        try:
            yield
        finally:
            self.active = False
            runtime._guarded_run_shard = original
            self.uninstall()


# ----------------------------------------------------------------------
# Worker side of the sharded runtime.
# ----------------------------------------------------------------------
# One tracer per spawned worker process: it is created on the worker's
# first traced shard and lives as long as the worker (its wrappers stay
# installed, inactive, between traced shards).
_worker_tracer: Tracer | None = None


def traced_guarded_run_shard(payload: tuple):
    """Stand-in for ``runtime._guarded_run_shard`` during traced passes.

    Runs the original in the worker with tracing on, then appends the
    shard's spans, as one line, to ``$PERFBENCH_SPAN_DIR/worker-<pid>.jsonl``
    before the result goes back, so the parent can read them once the run returns.
    """
    global _worker_tracer
    from repro.threshold import runtime

    if _worker_tracer is None:
        _worker_tracer = Tracer()
        _worker_tracer.install()
    _worker_tracer.active = True
    try:
        return runtime._guarded_run_shard(payload)
    finally:
        _worker_tracer.active = False
        batch = [span.to_json() for span in _worker_tracer.take()]
        path = Path(os.environ[SPAN_DIR_ENV]) / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(batch) + "\n")


def read_worker_spans(span_dir: Path) -> list[list[Span]]:
    """Span batches written by workers since the last call, one list per
    shard (parent indices refer to that list); the files are removed."""
    batches = []
    for path in sorted(span_dir.glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            batches.append([Span(n, s, e, p, c) for n, s, e, p, c in json.loads(line)])
        path.unlink()
    return batches
