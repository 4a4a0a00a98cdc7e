"""The four benchmark workloads.

Each workload is a closed loop with one client: the next call starts only
when the previous one has returned.  A workload builds its inputs from the
workload seed (every op takes its own child of
``SeedSequence(seed).spawn``), and the program only ever sees those
generated inputs.  Every pass repeats the same inputs, so passes are
comparable and each is checked against the same oracle.

Life cycle, driven by ``run.py``:

* ``setup()`` — build protocols and programs (compile + ``progcheck``
  verify), build inputs, run one warm-up op.  Timed as ``setup_s``.
* ``reference()`` — compute the independent oracle once, untimed.
* ``work()`` — one measured pass; its wall time is ``wall_s``.
* ``finish(out)`` — untimed: derive op latencies that need a read-back and
  check the pass against the oracle; returns the number of failed ops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class PassOutput:
    """What one measured pass produced."""

    ops: int
    op_latencies: list[float] = field(default_factory=list)
    compute_s: float = 0.0  # the part of the pass the throughput divides by
    shot_rounds: int = 0  # shots x EC rounds simulated in that part
    replay_s: float | None = None
    observed: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    wall_s: float = 0.0


class Workload:
    name = ""  # as listed in BENCHMARK.json
    ops_per_pass = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the oracle (default: none beyond the in-pass checks)."""

    def work(self) -> PassOutput:
        raise NotImplementedError

    def finish(self, out: PassOutput) -> int:
        raise NotImplementedError

    def _seeds(self, n: int) -> list[np.random.SeedSequence]:
        return np.random.SeedSequence(self.seed).spawn(n)


def _wilson(failures: int, shots: int, z: float) -> tuple[float, float]:
    from repro.util.stats import wilson_interval

    return wilson_interval(failures, shots, z)


# ----------------------------------------------------------------------
class MemoryDense(Workload):
    """E01 Steane memory at ε = 1e-3, 10 rounds, 200k shots per call."""

    name = "memory-dense"
    EPS = 1e-3
    ROUNDS = 10
    SHOTS = 200_000
    ops_per_pass = 3
    # Legacy-interpreter oracle: ~35x slower than the compiled engine, so it
    # runs at a tenth of the shots.  Intervals are Wilson at z = 4 (two-sided
    # 6e-5 each), so a correct engine fails the overlap test essentially
    # never, while a lost or doubled noise channel moves the rate far more
    # than the combined half-widths (~0.01 at p ~ 0.08).
    REF_SHOTS = 20_000
    Z = 4.0

    def setup(self) -> None:
        from repro import threshold
        from repro.codes import SteaneCode
        from repro.ft import SteaneECProtocol
        from repro.noise.models import circuit_level

        self.threshold = threshold
        seeds = self._seeds(self.ops_per_pass + 2)
        self.warm_seed, self.ref_seed, self.op_seeds = seeds[0], seeds[1], seeds[2:]
        self.code = SteaneCode()
        self.protocol = SteaneECProtocol(circuit_level(self.EPS))
        self._op(self.warm_seed)

    def _op(self, seed):
        return self.threshold.memory_experiment(
            self.protocol, self.code, rounds=self.ROUNDS, shots=self.SHOTS, seed=seed, workers=1
        )

    def reference(self) -> None:
        from repro.ft import SteaneECProtocol
        from repro.noise.models import circuit_level

        legacy = SteaneECProtocol(circuit_level(self.EPS), engine="legacy")
        ref = self.threshold.memory_experiment(
            legacy, self.code, rounds=self.ROUNDS, shots=self.REF_SHOTS, seed=self.ref_seed
        )
        self.ref_interval = _wilson(ref.failures, ref.shots, self.Z)

    def work(self) -> PassOutput:
        out = PassOutput(ops=self.ops_per_pass)
        results = []
        for seed in self.op_seeds:
            t0 = time.perf_counter()
            results.append(self._op(seed))
            out.op_latencies.append(time.perf_counter() - t0)
        out.compute_s = sum(out.op_latencies)
        out.shot_rounds = self.ops_per_pass * self.SHOTS * self.ROUNDS
        out.raw["results"] = results
        return out

    def finish(self, out: PassOutput) -> int:
        ref_low, ref_high = self.ref_interval
        failed = 0
        for r in out.raw["results"]:
            low, high = _wilson(r.failures, r.shots, self.Z)
            if r.shots != self.SHOTS or high < ref_low or low > ref_high:
                failed += 1
        return failed


# ----------------------------------------------------------------------
class ScanCheckpointed(Workload):
    """§5 level-1 fit over 8 grid points, checkpointed, 2 workers."""

    name = "scan-checkpointed"
    GRID = np.geomspace(3e-4, 3e-3, 8)
    SHOTS = 50_000
    WORKERS = 2
    K_RANGE = (1.6, 2.4)
    ops_per_pass = len(GRID)

    def setup(self) -> None:
        from repro import threshold
        from repro.codes import SteaneCode
        from repro.ft import SteaneECProtocol
        from repro.noise.models import circuit_level

        self.threshold = threshold
        self.warm_seed, self.scan_seed = self._seeds(2)
        self.code = SteaneCode()
        self.protocols = {float(e): SteaneECProtocol(circuit_level(float(e))) for e in self.GRID}
        # Warm-up op: one cold grid point, which also starts the worker pool.
        threshold.memory_experiment(
            self.protocols[float(self.GRID[0])], self.code, rounds=1, shots=self.SHOTS,
            seed=self.warm_seed, workers=self.WORKERS, checkpoint=self.workdir / "warmup.sqlite",
        )

    def _fit(self, factory, store: Path):
        return self.threshold.fit_level1_coefficient(
            factory, self.code, self.GRID, shots=self.SHOTS, seed=self.scan_seed,
            workers=self.WORKERS, checkpoint=store,
        )

    def work(self) -> PassOutput:
        store = self.workdir / f"scan-{self.passes}.sqlite"
        self.passes += 1
        stamps: list[float] = []

        def stamped(eps: float):
            # fit_level1_coefficient asks for each point's protocol right
            # before running it, so these stamps split the pass into ops.
            stamps.append(time.perf_counter())
            return self.protocols[eps]

        out = PassOutput(ops=self.ops_per_pass)
        t0 = time.perf_counter()
        cold = self._fit(stamped, store)
        t1 = time.perf_counter()
        warm = self._fit(self.protocols.__getitem__, store)
        t2 = time.perf_counter()
        out.op_latencies = list(np.diff(stamps + [t1]))
        out.compute_s = t1 - t0
        out.replay_s = t2 - t1
        out.shot_rounds = len(self.GRID) * self.SHOTS
        out.raw.update(cold=cold, warm=warm, store=store)
        return out

    def finish(self, out: PassOutput) -> int:
        from repro.util.stats import fit_power_law

        cold, warm, store = out.raw["cold"], out.raw["warm"], out.raw["store"]
        cache = self.threshold.ResultCache(store)
        try:
            runs = cache.journal.runs()
            counts = [cache.journal.merged_counts(key) for key, *_ in runs]
        finally:
            cache.close()
        for suffix in ("", "-wal", "-shm"):
            Path(f"{store}{suffix}").unlink(missing_ok=True)
        ok = (
            warm == cold  # the replay returns the cold answer bit for bit
            and len(counts) == len(self.GRID)
            and all(shots == self.SHOTS for shots, _ in counts)
            # The stored counts, refitted here, give the cold answer exactly.
            and fit_power_law(self.GRID, np.array([max(f / s, 1e-12) for s, f in counts])) == cold
            and self.K_RANGE[0] <= cold[1] <= self.K_RANGE[1]
        )
        return 0 if ok else out.ops


# ----------------------------------------------------------------------
class QueueChurn(Workload):
    """128 small code-capacity jobs through a fresh ScanQueue, then again
    through a second queue that shares the result cache."""

    name = "queue-churn"
    JOBS = 128
    SHOTS = 1000
    ROUNDS = 1
    EPS = np.geomspace(1e-3, 1e-1, 128)
    SAMPLE = 4  # jobs re-run directly with checkpoint= as the oracle
    ops_per_pass = JOBS

    def setup(self) -> None:
        from repro import threshold
        from repro.codes import SteaneCode

        self.threshold = threshold
        seeds = self._seeds(self.JOBS + 1)
        self.code = SteaneCode()
        self.requests = [
            ("capacity", (self.code, float(eps), self.ROUNDS), self.SHOTS, ss)
            for eps, ss in zip(self.EPS, seeds[1:])
        ]
        warm = ("capacity", (self.code, 0.05, self.ROUNDS), self.SHOTS, seeds[0])
        threshold.scan_via_queue(
            self.workdir / "warmup-queue.sqlite", [warm],
            cache_path=self.workdir / "warmup-cache.sqlite", workers=1,
        )

    def reference(self) -> None:
        picks = np.linspace(0, self.JOBS - 1, self.SAMPLE).astype(int)
        self.direct = {}
        for i in picks:
            _, (code, eps, rounds), shots, ss = self.requests[i]
            res = self.threshold.code_capacity_memory(
                code, eps, rounds, shots, seed=ss, checkpoint=self.workdir / "direct.sqlite"
            )
            self.direct[int(i)] = (res.shots, res.failures)

    def work(self) -> PassOutput:
        tag = self.passes
        self.passes += 1
        paths = {
            "cold": self.workdir / f"queue-{tag}-cold.sqlite",
            "warm": self.workdir / f"queue-{tag}-warm.sqlite",
            "cache": self.workdir / f"cache-{tag}.sqlite",
        }
        out = PassOutput(ops=self.ops_per_pass)
        t0 = time.perf_counter()
        cold = self.threshold.scan_via_queue(
            paths["cold"], self.requests, cache_path=paths["cache"], workers=1
        )
        t1 = time.perf_counter()
        warm = self.threshold.scan_via_queue(
            paths["warm"], self.requests, cache_path=paths["cache"], workers=1
        )
        t2 = time.perf_counter()
        out.compute_s = t1 - t0
        out.replay_s = t2 - t1
        out.shot_rounds = self.JOBS * self.SHOTS * self.ROUNDS
        out.raw.update(cold=cold, warm=warm, paths=paths)
        return out

    def finish(self, out: PassOutput) -> int:
        cold, warm, paths = out.raw["cold"], out.raw["warm"], out.raw["paths"]
        events = {}
        for label in ("cold", "warm"):
            queue = self.threshold.ScanQueue(paths[label])
            try:
                events[label] = queue.events()
            finally:
                queue.close()
        # Service time of a job: its claimed event to its completed event.
        claimed, latencies = {}, []
        for job_id, event, _owner, _detail, at in events["cold"]:
            if event == "claimed":
                claimed[job_id] = at
            elif event == "completed" and job_id in claimed:
                latencies.append(at - claimed.pop(job_id))
        out.op_latencies = latencies
        submitted = len(cold) + len(warm)
        out.observed = {
            "scheduler.events_per_job": (len(events["cold"]) + len(events["warm"])) / submitted,
            "scheduler.coalesced_ratio": sum(r.source != "computed" for r in cold + warm) / submitted,
            "scheduler.store_bytes": sum(
                Path(f"{p}{s}").stat().st_size
                for p in paths.values()
                for s in ("", "-wal")
                if Path(f"{p}{s}").exists()
            ),
        }
        for p in paths.values():
            for suffix in ("", "-wal", "-shm"):
                Path(f"{p}{suffix}").unlink(missing_ok=True)
        failed = 0
        for i, (c, w) in enumerate(zip(cold, warm)):
            ok = (
                c.source == "computed"
                and c.shots == self.SHOTS
                and w.source == "cache"
                and (w.shots, w.failures) == (c.shots, c.failures)
                and self.direct.get(i, (c.shots, c.failures)) == (c.shots, c.failures)
            )
            failed += not ok
        # Each job is claimed and completed exactly once.
        return failed if len(latencies) == self.JOBS == len(cold) else out.ops


# ----------------------------------------------------------------------
class FaultPairs(Workload):
    """Exhaustive singles, then 100k random fault pairs through the unfused
    program with per-shot fault injection."""

    name = "fault-pairs"
    PAIRS = 100_000
    BATCH = 10_000
    SAMPLE = 2_000  # pairs re-run on the legacy interpreter as the oracle
    ops_per_pass = PAIRS // BATCH

    def setup(self) -> None:
        from repro import threshold
        from repro.noise.models import NoiseModel
        from repro.pauliframe import FrameSimulator
        from repro.threshold.counting import FullSteaneRound

        self.threshold = threshold
        self.round = FullSteaneRound()
        self.code = self.round.code
        locations = [
            (i, q, kind)
            for i, op in enumerate(self.round.circuit)
            if op.gate != "TICK"
            for q in op.qubits
            for kind in ("X", "Y", "Z")
        ]
        self.batches = []
        for ss in self._seeds(self.PAIRS // self.BATCH):
            rng = np.random.default_rng(ss)
            first = rng.integers(0, len(locations), self.BATCH)
            # A pair is two distinct fault cases.
            second = (first + rng.integers(1, len(locations), self.BATCH)) % len(locations)
            self.batches.append([[locations[a], locations[b]] for a, b in zip(first, second)])
        self.sim = FrameSimulator(self.round.circuit, NoiseModel())
        threshold.count_fault_paths(self.round)
        self._op(self.sim, self.batches[0])

    def _op(self, sim, injections):
        """Inject, post-process and classify; returns the frames and the
        per-case logical-failure flags."""
        res = sim.run(len(injections), seed=0, fault_injections=injections)
        fx, fz = self.round.classical_postprocess(res.meas_flips, res.fx, res.fz)
        cfx, cfz = self.code.correct_frame(fx, fz)
        return res, self.code.logical_action_of_frame(cfx, cfz).any(axis=1)

    def reference(self) -> None:
        from repro.noise.models import NoiseModel
        from repro.pauliframe import FrameSimulator

        legacy = FrameSimulator(self.round.circuit, NoiseModel(), backend="legacy")
        self.ref = self._op(legacy, self.batches[0][: self.SAMPLE])

    def work(self) -> PassOutput:
        out = PassOutput(ops=self.ops_per_pass)
        t0 = time.perf_counter()
        singles = self.threshold.count_fault_paths(self.round)
        sample = None
        for injections in self.batches:
            tb = time.perf_counter()
            res, failed = self._op(self.sim, injections)
            out.op_latencies.append(time.perf_counter() - tb)
            if sample is None:
                n = self.SAMPLE
                sample = (res.meas_flips[:n], res.fx[:n], res.fz[:n], failed[:n])
        out.compute_s = time.perf_counter() - t0
        out.shot_rounds = singles.total_fault_cases + self.PAIRS
        out.raw.update(singles=singles, sample=sample)
        return out

    def finish(self, out: PassOutput) -> int:
        singles, sample = out.raw["singles"], out.raw["sample"]
        ref, ref_failed = self.ref
        ok = (
            singles.total_fault_cases == 1992
            and singles.logical_failures == 0
            and np.array_equal(sample[0], ref.meas_flips)
            and np.array_equal(sample[1], ref.fx)
            and np.array_equal(sample[2], ref.fz)
            and np.array_equal(sample[3], ref_failed)
        )
        return 0 if ok else out.ops


WORKLOADS = {w.name: w for w in (MemoryDense, ScanCheckpointed, QueueChurn, FaultPairs)}
