"""Threshold estimation by exhaustive fault-path counting (paper §5).

"To estimate the accuracy threshold, we follow the circuit Fig. 9 and add
up the contributions to p₀ due to errors ... that have not already been
eliminated in a previous error correction cycle.  We obtain an expression
for p₀ in terms of the gate error and storage error probabilities that we
can equate to 1/21 to find the threshold."

We do exactly that, but mechanically: build the *monolithic* Fig. 9 round
(ancilla encoding, two-block verification, transversal extraction, repeated
syndromes), inject every possible single fault (each location × each Pauli
kind), run the noiseless frame simulation, apply the classical protocol
(verification fix-ups, §3.4 accept-if-repeated syndrome policy, decoding),
and count which fault paths leave residual errors on data qubits.  The
per-qubit path count c gives p₀ = c·ε and the threshold ε₀ = 1/(21·c).

A fault-tolerance *certificate* falls out for free: no single fault may
produce a logical error (weight-2 residual on the data), which the test
suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.codes.steane import SteaneCode
from repro.ft.exrec import resolve_syndrome_policy
from repro.noise.models import NoiseModel
from repro.pauliframe.engine import FrameSimulator

__all__ = ["FullSteaneRound", "count_fault_paths", "threshold_from_counting", "FaultPathReport"]


class FullSteaneRound:
    """The complete Fig. 9 round as one circuit (for fault enumeration).

    Layout: data on [0,7).  For each of the four ancilla blocks
    (bitflip/phaseflip × 2 repetitions): 7 ancilla qubits + 14 verification
    qubits.  Classical bits per block: 14 verification + 7 syndrome.
    """

    def __init__(self, code: SteaneCode | None = None, repetitions: int = 2) -> None:
        self.code = code or SteaneCode()
        self.repetitions = repetitions
        self.kinds = [
            (kind, rep) for rep in range(repetitions) for kind in ("bitflip", "phaseflip")
        ]
        self.num_blocks = len(self.kinds)
        self.num_qubits = 7 + 21 * self.num_blocks
        self.cbits_per_block = 21
        self.num_cbits = self.cbits_per_block * self.num_blocks
        self.circuit, self.fixup_points = self._build()
        # Noiseless; compiles (and verifies) on its first run, once per
        # round rather than once per count or fix-up response.
        self.simulator = FrameSimulator(self.circuit, NoiseModel())

    def _block_qubits(self, b: int) -> tuple[int, int, int]:
        """(ancilla base, verify1 base, verify2 base) for block b."""
        base = 7 + 21 * b
        return base, base + 7, base + 14

    def _block_cbits(self, b: int) -> tuple[int, int, int]:
        """(verify1 cbits, verify2 cbits, syndrome cbits) bases."""
        base = self.cbits_per_block * b
        return base, base + 7, base + 14

    def _build(self) -> tuple[Circuit, dict[int, int]]:
        code = self.code
        c = Circuit(self.num_qubits, self.num_cbits, name="fig9-full-round")
        enc = code.encoding_circuit()
        fixup_points: dict[int, int] = {}
        for b, (kind, _rep) in enumerate(self.kinds):
            anc, v1, v2 = self._block_qubits(b)
            cb_v1, cb_v2, cb_syn = self._block_cbits(b)
            # Ancilla |0̄> preparation.
            for q in range(7):
                c.reset(anc + q, tag="anc_prep")
            c.compose(enc.remapped({i: anc + i for i in range(7)}, num_qubits=self.num_qubits))
            # Two verification rounds (§3.3).
            for vbase, cbase in ((v1, cb_v1), (v2, cb_v2)):
                for q in range(7):
                    c.reset(vbase + q, tag="verify")
                c.compose(
                    enc.remapped({i: vbase + i for i in range(7)}, num_qubits=self.num_qubits)
                )
                for q in range(7):
                    c.cnot(anc + q, vbase + q, tag="verify")
                for q in range(7):
                    c.measure(vbase + q, cbase + q, tag="verify")
            # Conditional X̄ fix-up happens classically *here* — record the
            # op index so the counting layer can splice in its effect.
            fixup_points[b] = len(c.operations) - 1
            # Extraction (§3.3 / Fig. 7c).
            if kind == "bitflip":
                for q in range(7):
                    c.h(anc + q, tag="syndrome")
                for q in range(7):
                    c.cnot(q, anc + q, tag="syndrome")
            else:
                for q in range(7):
                    c.cnot(anc + q, q, tag="syndrome")
                for q in range(7):
                    c.h(anc + q, tag="syndrome")
            for q in range(7):
                c.measure(anc + q, cb_syn + q, tag="syndrome")
        return c, fixup_points

    # ------------------------------------------------------------------
    def classical_postprocess(
        self, flips: np.ndarray, fx: np.ndarray, fz: np.ndarray, policy: str = "paper"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply verification fix-ups and syndrome corrections.

        ``flips``/``fx``/``fz`` come from the frame simulation of
        :attr:`circuit`; fix-up responses are added by linearity using the
        precomputed transfer of an X̄ injected at each block's fix-up
        point.  Returns corrected data frames ``(fx_data, fz_data)``.
        """
        flips = flips.copy()
        fx = fx.copy()
        fz = fz.copy()
        responses = self._fixup_responses()
        for b in range(self.num_blocks):
            cb_v1, cb_v2, _ = self._block_cbits(b)
            v1 = self.code.destructive_measurement_decode(flips[:, cb_v1 : cb_v1 + 7])
            v2 = self.code.destructive_measurement_decode(flips[:, cb_v2 : cb_v2 + 7])
            fire = (v1 & v2).astype(bool)
            if fire.any():
                r_flips, r_fx, r_fz = responses[b]
                flips[fire] ^= r_flips
                fx[fire] ^= r_fx
                fz[fire] ^= r_fz
        x_syn = np.zeros((flips.shape[0], self.repetitions, 3), dtype=np.uint8)
        z_syn = np.zeros((flips.shape[0], self.repetitions, 3), dtype=np.uint8)
        h = self.code.hz
        for b, (kind, rep) in enumerate(self.kinds):
            _, _, cb_syn = self._block_cbits(b)
            bits = flips[:, cb_syn : cb_syn + 7]
            syn = (bits @ h.T.astype(np.int64)) % 2
            if kind == "bitflip":
                x_syn[:, rep] = syn
            else:
                z_syn[:, rep] = syn
        for syn, frame in ((x_syn, fx), (z_syn, fz)):
            accepted, act = resolve_syndrome_policy(syn, policy)
            corr = self.code.decode_bitflip_syndrome(accepted)
            corr[~act.astype(bool)] = 0
            frame[:, :7] ^= corr
        return fx[:, :7], fz[:, :7]

    def _fixup_responses(self):
        cached = getattr(self, "_fixup_cache", None)
        if cached is not None:
            return cached
        responses = {}
        for b in range(self.num_blocks):
            anc, _, _ = self._block_qubits(b)
            spec = [[(self.fixup_points[b], anc + q, "X") for q in range(7)]]
            res = self.simulator.run(1, seed=0, fault_injections=spec)
            responses[b] = (res.meas_flips[0].copy(), res.fx[0].copy(), res.fz[0].copy())
        self._fixup_cache = responses
        return responses


@dataclass
class FaultPathReport:
    """Result of exhaustive single-fault counting.

    Attributes
    ----------
    total_fault_cases: locations × Pauli kinds enumerated.
    benign: cases leaving no residual data error.
    residual_one: cases leaving exactly one residual data error
        (the contributions to next round's p₀).
    residual_multi: cases leaving ≥2 residual data errors (must be 0 for
        a fault-tolerant circuit; asserted by tests).
    logical_failures: cases whose residual is a logical operator (must be 0).
    per_qubit_paths: average count of (location, kind) cases hitting each
        data qubit, i.e. the coefficient c with p₀ = (c/3)·ε.
    """

    total_fault_cases: int
    benign: int
    residual_one: int
    residual_multi: int
    logical_failures: int
    per_qubit_paths: float


def count_fault_paths(
    round_builder: FullSteaneRound | None = None, policy: str = "paper"
) -> FaultPathReport:
    """Enumerate every single fault in the Fig. 9 round and classify it."""
    rnd = round_builder or FullSteaneRound()
    code = rnd.code
    circuit = rnd.circuit
    specs: list[tuple[int, int, str]] = []
    for i, op in enumerate(circuit):
        if op.gate == "TICK":
            continue
        for q in op.qubits:
            for kind in ("X", "Y", "Z"):
                specs.append((i, q, kind))
    res = rnd.simulator.run(len(specs), seed=0, fault_injections=specs)
    fx, fz = rnd.classical_postprocess(res.meas_flips, res.fx, res.fz, policy)
    # Residuals modulo the stabilizer: ideal-correct then inspect.
    cfx, cfz = code.correct_frame(fx, fz)
    action = code.logical_action_of_frame(cfx, cfz)
    logical = action.any(axis=1)
    raw_weight = (fx | fz).sum(axis=1)
    # "Residual error" counting uses the pre-ideal-EC frames: these are the
    # errors present when the next cycle begins.
    benign = int((raw_weight == 0).sum())
    one = int((raw_weight == 1).sum())
    multi = int((raw_weight >= 2).sum())
    per_qubit = float((fx | fz).sum() / 7.0)
    return FaultPathReport(
        total_fault_cases=len(specs),
        benign=benign,
        residual_one=one,
        residual_multi=multi,
        logical_failures=int(logical.sum()),
        per_qubit_paths=per_qubit,
    )


def threshold_from_counting(
    report: FaultPathReport, coefficient: float = 21.0
) -> float:
    """ε₀ from the paper's method: p₀ = (paths/3)·ε = 1/A at threshold.

    Each enumerated location fails with probability ε, and the three Pauli
    kinds split it — hence the /3.  Returns ε₀ = 3 / (A · per_qubit_paths).
    """
    if report.per_qubit_paths <= 0:
        raise ValueError("no fault paths reach the data; counting is vacuous")
    return 3.0 / (coefficient * report.per_qubit_paths)
