"""Recorded sweeps that are not gated workloads.

    python3 perfbench/sweeps.py fixed-cost   # per-shard fixed cost
    python3 perfbench/sweeps.py reconcile    # the old bench_perf 10k x 10 point

Run from the repository root; each prints a markdown table.  The numbers
recorded in ``perfbench/README.md`` come from these commands.
"""

from __future__ import annotations

import argparse
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EPS = 1e-3
ROUNDS = 10


def _stats(samples: list[float]) -> str:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    med = statistics.median(samples)
    return f"{med * 1e3:.1f} | {(q3 - q1) * 1e3:.1f} | {min(samples) * 1e3:.1f}"


def _protocol():
    from repro.codes import SteaneCode
    from repro.ft import SteaneECProtocol
    from repro.noise.models import circuit_level

    return SteaneECProtocol(circuit_level(EPS)), SteaneCode()


def fixed_cost(repeats: int) -> None:
    """In-process memory_experiment against checkpointed 1- and 16-shard
    plans (run in-process, ``workers=1``, so pool dispatch is excluded) at
    10^3..10^6 shots x 10 rounds.  Fixed cost per shard = (T16 - T1) / 15."""
    from repro import threshold

    protocol, code = _protocol()
    threshold.memory_experiment(protocol, code, rounds=ROUNDS, shots=1000, seed=0)
    print("| shots | plan | median ms | IQR ms | min ms |")
    print("|---|---|---|---|---|")
    per_shard = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for shots in (10**3, 10**4, 10**5, 10**6):
            medians = {}
            for label, kwargs in (
                ("plain", {}),
                ("1 shard, checkpointed", {"num_shards": 1}),
                ("16 shards, checkpointed", {"num_shards": 16}),
            ):
                samples = []
                for r in range(repeats):
                    if kwargs:
                        kwargs["checkpoint"] = Path(tmp) / f"{shots}-{label[:2]}-{r}.sqlite"
                    t0 = time.perf_counter()
                    threshold.memory_experiment(
                        protocol, code, rounds=ROUNDS, shots=shots, seed=r, workers=1, **kwargs
                    )
                    samples.append(time.perf_counter() - t0)
                medians[label] = statistics.median(samples)
                print(f"| {shots} | {label} | {_stats(samples)} |", flush=True)
            per_shard[shots] = (
                medians["16 shards, checkpointed"] - medians["1 shard, checkpointed"]
            ) / 15
    print()
    print("| shots | fixed cost per extra shard, ms |")
    print("|---|---|")
    for shots, cost in per_shard.items():
        print(f"| {shots} | {cost * 1e3:.1f} |")


def reconcile(repeats: int, loop: int) -> None:
    """The old gate's compiled 10k x 10 pass, three ways."""
    script = ROOT / "scripts" / "bench_perf.py"
    harness = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(script), "--check"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        harness.append(float(re.search(r"compiled:\s+([\d.]+)s", proc.stdout).group(1)))
    fresh = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "one-pass"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        fresh.append(float(proc.stdout.split()[-1]))
    from repro import threshold

    protocol, code = _protocol()
    threshold.memory_experiment(protocol, code, rounds=1, shots=256, seed=2026)
    samples = []
    for _ in range(loop):
        t0 = time.perf_counter()
        threshold.memory_experiment(protocol, code, rounds=ROUNDS, shots=10_000, seed=2026)
        samples.append(time.perf_counter() - t0)
    print("| how the 10k x 10 pass was timed | samples | median ms | IQR ms | min ms |")
    print("|---|---|---|---|---|")
    print(f"| `scripts/bench_perf.py --check`, fresh process each | {repeats} | {_stats(harness)} |")
    print(f"| same warm-up and one pass, no legacy run first, fresh process each | {repeats} | {_stats(fresh)} |")
    print(f"| one process: first pass after the warm-up | 1 | {_stats(samples[:1])} |")
    print(f"| one process: later passes | {loop - 1} | {_stats(samples[1:])} |")


def one_pass() -> None:
    """bench_perf's compiled pass alone: 256-shot warm-up, one timed call."""
    from repro import threshold

    protocol, code = _protocol()
    threshold.memory_experiment(protocol, code, rounds=1, shots=256, seed=2026)
    t0 = time.perf_counter()
    threshold.memory_experiment(protocol, code, rounds=ROUNDS, shots=10_000, seed=2026)
    print(time.perf_counter() - t0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", choices=("fixed-cost", "reconcile", "one-pass"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--loop", type=int, default=40)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    if args.sweep == "fixed-cost":
        fixed_cost(args.repeats)
    elif args.sweep == "reconcile":
        reconcile(args.repeats, args.loop)
    else:
        one_pass()


if __name__ == "__main__":
    main()
