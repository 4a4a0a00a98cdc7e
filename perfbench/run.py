"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload memory-dense --seed 1 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` the run measures the
end-to-end metrics untraced; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics plus the tracing overhead.
Every pass is checked against the workload's oracle.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a human
readable report.  ``--workload all`` runs every workload, each in its own
process, and prints their reports.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Extra set-ups, each in a fresh process, whose median with the run's own
# set-up is reported as setup_s: at least MIN_EXTRA_SETUPS, then more while
# they fit in SETUP_BUDGET_S, up to MAX_EXTRA_SETUPS (a 0.1 s set-up varies
# by +-20% between back-to-back processes, so cheap set-ups take more).
MIN_EXTRA_SETUPS = 4
MAX_EXTRA_SETUPS = 10
SETUP_BUDGET_S = 4.0
# Every run measures at least this many passes, however short --seconds is.
MIN_PASSES = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_layout() -> None:
    """Refuse to run without the program or with a manifest out of step."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        if declared != names:
            _fail(f"BENCHMARK.json {key} does not match perfbench/metrics.py")
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        _fail("BENCHMARK.json workloads do not match perfbench/workloads.py")


def _stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to end.

    The program's spawn worker pool starts the tracker, and Python never
    waits for it, so it would outlive the run.  This runs at exit after
    the program's own pool shutdown and after multiprocessing has joined
    its children and run its finalizers, which still talk to the tracker.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _extra_setup_seconds(args) -> list[float]:
    out = []
    start = time.perf_counter()
    while len(out) < MIN_EXTRA_SETUPS or (
        len(out) < MAX_EXTRA_SETUPS and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except BaseException:
            # SIGTERM, not SIGKILL, so the child stops its own workers.
            proc.terminate()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args, stdout, stderr)
        out.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _human_report(name: str, passes, failed: int, attempted: int, metrics: dict) -> list[str]:
    """Every end-to-end metric the workloads define, by name, with units;
    the ones that apply to one workload only read n/a elsewhere."""
    from perfbench.metrics import percentile

    compute = statistics.median(p.compute_s for p in passes)
    replays = [p.replay_s for p in passes if p.replay_s is not None]
    specific = {
        "jobs_per_s": ("1/s", "queue-churn", lambda: passes[0].ops / compute),
        "fault_cases_per_s": ("1/s", "fault-pairs", lambda: passes[0].shot_rounds / compute),
        "replay_s": ("s", ("scan-checkpointed", "queue-churn"), lambda: statistics.median(replays)),
    }
    lines = [f"workload {name}: {len(passes)} passes, {attempted} ops"]
    for key, entry in metrics.items():
        lines.append(f"  {key:<20} {entry['value']:.6g} {entry['unit']}")
    for key, (unit, where, value) in specific.items():
        shown = f"{value():.6g} {unit}" if name in where else "n/a"
        lines.append(f"  {key:<20} {shown}")
    lats = [x for p in passes for x in p.op_latencies]
    # A percentile is shown only with at least ten samples beyond it.
    p90 = f"{percentile(lats, 90):.6g} s" if len(lats) >= 100 else "n/a"
    lines.append(f"  {'op_p90_s':<20} {p90}")
    lines.append(f"  {'error_rate':<20} {failed / max(1, attempted):.6g} ratio")
    lines.append(f"  {'op_samples':<20} {len(lats)} count")
    return lines


def run_workload(args) -> int:
    from perfbench import tracing
    from perfbench.metrics import (
        END_TO_END, PER_LAYER, layer_metrics, merge_worker_batches, percentile,
    )
    from perfbench.workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    span_dir = workdir / "spans"
    span_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # Spawned workers inherit the environment, so set it before the
        # set-up starts the pool.
        os.environ[tracing.SPAN_DIR_ENV] = str(span_dir)

    def traced_spans() -> list:
        return merge_worker_batches(tracer.take(), tracing.read_worker_spans(span_dir))

    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        t0 = time.perf_counter()
        with tracer.tracing() if tracer is not None else contextlib.nullcontext():
            workload.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            setup_spans = traced_spans()
            setups = [setup_s]
        else:
            setups = [setup_s] + _extra_setup_seconds(args)
        workload.reference()

        # With tracing, every second pass is traced and the others give the
        # untraced baseline for the overhead.
        passes, traced, untraced, pass_spans, observed = [], [], [], [], []
        failed = attempted = 0
        correct = True
        min_passes = MIN_PASSES if tracer is None else 2 * MIN_PASSES
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
            is_traced = tracer is not None and len(passes) % 2 == 1
            try:
                with tracer.tracing() if is_traced else contextlib.nullcontext():
                    t = time.perf_counter()
                    out = workload.work()
                    out.wall_s = time.perf_counter() - t
            except Exception:
                traceback.print_exc()
                attempted += workload.ops_per_pass
                failed += workload.ops_per_pass
                correct = False
                break
            if is_traced:
                pass_spans.append(traced_spans())
                traced.append(out)
            else:
                untraced.append(out)
            attempted += out.ops
            failed += workload.finish(out)
            out.raw.clear()  # release the pass's arrays: peak_rss_mb is the program's
            passes.append(out)

        if not untraced or (tracer is not None and not traced):
            return 1
        correct = correct and failed == 0
        if tracer is None:
            lats = [x for p in passes for x in p.op_latencies]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p.wall_s for p in passes),
                "op_p50_s": percentile(lats, 50),
                "shot_rounds_per_s": statistics.median(p.shot_rounds / p.compute_s for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
            for line in _human_report(args.workload, passes, failed, attempted, metrics):
                print(line)
        else:
            values = layer_metrics(
                setup_spans, pass_spans, [p.observed for p in traced],
                [p.wall_s for p in traced], [p.wall_s for p in untraced],
            )
            metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
            print(f"workload {args.workload} (traced): {len(passes)} passes, {attempted} ops")
            for key, entry in metrics.items():
                print(f"  {key:<32} {entry['value']:.6g} {entry['unit']}")
            _write_trace(args, setup_spans, pass_spans)
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_trace(args, setup_spans, traced_spans) -> None:
    """Write the run's spans out, one JSON line each, when the run ends."""
    path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for phase, spans in [("setup", setup_spans)] + [
            (f"pass{i}", s) for i, s in enumerate(traced_spans)
        ]:
            for i, span in enumerate(spans):
                name, start, end, parent, counts = span.to_json()
                fh.write(json.dumps({
                    "phase": phase, "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "counts": counts,
                }) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process; the reports go to stdout."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    # atexit runs its handlers last-registered first, so registering this
    # before anything imports multiprocessing.util makes it run after the
    # exit clean-up of multiprocessing and of the program.
    assert "multiprocessing.util" not in sys.modules
    atexit.register(_stop_resource_tracker)
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so its clean-up still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _check_layout()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    # The repository root goes first so ``perfbench`` imports as a package
    # here and in spawned workers, which inherit this sys.path.
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
