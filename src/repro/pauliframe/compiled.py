"""Compiler + interpreter for bit-packed Pauli-frame simulation.

:class:`CompiledFrameProgram` lowers a :class:`repro.circuits.Circuit` into
a flat instruction stream executed over bit-packed frames (see
``packing.py``): shots live along the bit axis of ``uint64`` words, so one
XOR touches 64 shots.  Two compile-time transformations carry the speedup:

* **Gate fusion** — consecutive operations of the same kind acting on
  disjoint qubits collapse into a single fancy-indexed row operation.  The
  transversal structure of fault-tolerant gadgets (rows of parallel CNOTs,
  blocks of measurements) makes these batches long in practice.
* **Noise-location precompute** — every stochastic location is assigned, in
  program order, an index within its channel class (single-qubit gate,
  two-qubit gate, measurement, preparation, storage).  At run time each
  class is sampled in *one* vectorized draw covering all of its locations,
  instead of one RNG call per operation.  Below ``_SPARSE_MAX_P`` the draw
  uses exact geometric-gap (skip) sampling, so its cost scales with the
  expected number of faults rather than locations x shots.

Semantics match the legacy interpreter in ``engine.py`` exactly on
deterministic paths (no noise, arbitrary initial frames and fault
injections) and in distribution on noisy paths; the parity test suite in
``tests/test_pauliframe_compiled.py`` pins both.

Fault injections (see :meth:`FrameSimulator.run
<repro.pauliframe.engine.FrameSimulator.run>`) run on the same fused
stream.  Each is XORed into the packed frames at an *injection point*
between instructions.  A fault after operation ``i`` on qubit ``q`` lands
just before ``i``'s fused batch when a later operation of that batch
touches ``q``, and otherwise just after the batch's last instruction, noise
instructions included; ``op_index == -1`` lands before instruction 0.  This
is exact because the operations of a batch touch disjoint qubits and every
noise instruction is an XOR, which commutes with the injected one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.circuits.circuit import Circuit
from repro.noise.models import NoiseModel
from repro.pauliframe.engine import (
    FrameResult,
    normalize_fault_injections,
    validate_frame_circuit,
)
from repro.pauliframe.packing import (
    pack_rows,
    pack_shot_major,
    unpack_shot_major,
    words_for,
)
from repro.util.rng import as_rng

__all__ = ["CompiledFrameProgram"]

# Instruction opcodes.  Frame ops first, then noise-application ops.
_OP_H = 0
_OP_S = 1       # S and SDG share the frame action fz ^= fx
_OP_RP = 2      # RPRIME: fx ^= fz
_OP_CNOT = 3
_OP_CZ = 4
_OP_CY = 5
_OP_SWAP = 6
_OP_M = 7
_OP_MX = 8
_OP_R = 9
_OP_COND = 10   # classically conditioned Pauli (+ masked gate noise)
_OP_NG1 = 11    # single-qubit depolarizing planes
_OP_NG2 = 12    # two-qubit error planes
_OP_NM = 13     # measurement-record flip planes
_OP_NP = 14     # faulty-preparation planes
_OP_NSTORE = 15  # storage depolarizing planes (all qubits, one TICK)

_ONE_QUBIT_KIND = {
    "H": "H",
    "S": "S",
    "SDG": "S",
    "RPRIME": "RP",
    # Paulis are frame-transparent but still noisy physical gates.
    "I": "P1",
    "X": "P1",
    "Y": "P1",
    "Z": "P1",
}
_TWO_QUBIT_KIND = {"CNOT": "CNOT", "CZ": "CZ", "CY": "CY", "SWAP": "SWAP"}
_FRAME_OPCODE = {
    "H": _OP_H,
    "S": _OP_S,
    "RP": _OP_RP,
    "CNOT": _OP_CNOT,
    "CZ": _OP_CZ,
    "CY": _OP_CY,
    "SWAP": _OP_SWAP,
    "M": _OP_M,
    "MX": _OP_MX,
    "R": _OP_R,
}

# Above this probability a dense (locations x shots) draw is cheaper than
# geometric skip-sampling; below it the sparse path wins by ~1/p.
_SPARSE_MAX_P = 0.05


# ----------------------------------------------------------------------
# Noise-plane sampling.  One call per channel class per run, in a fixed
# order; fault injections never touch the RNG.
# ----------------------------------------------------------------------
def _bernoulli_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Indices in ``[0, total)`` hit by independent Bernoulli(p) trials.

    Exact skip sampling: gaps between successive hits are geometric, so the
    cost is O(total * p) instead of O(total).
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    expect = total * p
    chunk = int(expect + 10.0 * math.sqrt(expect + 1.0) + 16.0)
    parts: list[np.ndarray] = []
    last = -1
    while last < total:
        gaps = rng.geometric(p, size=chunk)
        positions = np.cumsum(gaps, dtype=np.int64) + last
        parts.append(positions)
        last = int(positions[-1])
    out = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return out[out < total]


def _scatter(
    count: int, nwords: int, loc: np.ndarray, shot: np.ndarray, sel: np.ndarray | None = None
) -> np.ndarray:
    """OR single bits (loc, shot) into a zeroed ``(count, nwords)`` plane."""
    planes = np.zeros((count, nwords), dtype=np.uint64)
    if sel is not None:
        loc = loc[sel]
        shot = shot[sel]
    if loc.size:
        bits = np.uint64(1) << (shot & 63).astype(np.uint64)
        np.bitwise_or.at(planes, (loc, shot >> 6), bits)
    return planes


def _conditional_kind(u: np.ndarray, p: float, sides: int) -> np.ndarray:
    """Uniform {0..sides-1} from the same uniforms that decided hit = u < p.

    Conditioned on ``u < p``, ``u / p`` is uniform on [0, 1), so one draw
    yields both the hit mask and an independent kind — halving RNG cost on
    the dense path.
    """
    return np.minimum((u * (sides / p)).astype(np.int64), sides - 1)


def _depolarize_planes(
    rng: np.random.Generator, count: int, shots: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """X/Z flip planes for ``count`` uniform-X/Y/Z depolarizing locations."""
    nwords = words_for(shots)
    if count == 0 or p <= 0.0:
        empty = np.zeros((count, nwords), dtype=np.uint64)
        return empty, empty.copy()
    if p > _SPARSE_MAX_P:
        u = rng.random((count, shots))
        hit = u < p
        kind = _conditional_kind(u, p, 3)  # 0: X, 1: Y, 2: Z
        return pack_rows(hit & (kind != 2)), pack_rows(hit & (kind != 0))
    idx = _bernoulli_positions(rng, count * shots, p)
    kind = rng.integers(0, 3, size=idx.size)
    loc, shot = idx // shots, idx % shots
    return (
        _scatter(count, nwords, loc, shot, kind != 2),
        _scatter(count, nwords, loc, shot, kind != 0),
    )


def _bernoulli_planes(
    rng: np.random.Generator, count: int, shots: int, p: float
) -> np.ndarray:
    """Flip planes for ``count`` plain Bernoulli(p) locations (meas/prep)."""
    nwords = words_for(shots)
    if count == 0 or p <= 0.0:
        return np.zeros((count, nwords), dtype=np.uint64)
    if p > _SPARSE_MAX_P:
        return pack_rows(rng.random((count, shots)) < p)
    idx = _bernoulli_positions(rng, count * shots, p)
    return _scatter(count, nwords, idx // shots, idx % shots)


def _two_qubit_planes(
    rng: np.random.Generator, count: int, shots: int, noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ax, az, bx, bz) planes for ``count`` two-qubit gate locations."""
    p = noise.eps_gate2
    nwords = words_for(shots)
    if count == 0 or p <= 0.0:
        empty = np.zeros((count, nwords), dtype=np.uint64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    if noise.two_qubit_mode == "both_damaged":
        # §5's pessimistic model: one hit draws an independent uniform
        # non-trivial-or-not X/Y/Z on each touched qubit.
        if p > _SPARSE_MAX_P:
            u = rng.random((count, shots))
            hit = u < p
            kind_a = _conditional_kind(u, p, 3)
            kind_b = rng.integers(0, 3, size=(count, shots))
            return (
                pack_rows(hit & (kind_a != 2)),
                pack_rows(hit & (kind_a != 0)),
                pack_rows(hit & (kind_b != 2)),
                pack_rows(hit & (kind_b != 0)),
            )
        idx = _bernoulli_positions(rng, count * shots, p)
        kind_a = rng.integers(0, 3, size=idx.size)
        kind_b = rng.integers(0, 3, size=idx.size)
        loc, shot = idx // shots, idx % shots
        return (
            _scatter(count, nwords, loc, shot, kind_a != 2),
            _scatter(count, nwords, loc, shot, kind_a != 0),
            _scatter(count, nwords, loc, shot, kind_b != 2),
            _scatter(count, nwords, loc, shot, kind_b != 0),
        )
    # depolarizing15: uniform over the 15 nontrivial pair Paulis.
    if p > _SPARSE_MAX_P:
        u = rng.random((count, shots))
        hit = u < p
        pair = np.where(hit, _conditional_kind(u, p, 15) + 1, 0)
    else:
        idx = _bernoulli_positions(rng, count * shots, p)
        pair_sparse = rng.integers(1, 16, size=idx.size)
        loc, shot = idx // shots, idx % shots
        return (
            _scatter(count, nwords, loc, shot, ((pair_sparse >> 3) & 1) == 1),
            _scatter(count, nwords, loc, shot, ((pair_sparse >> 2) & 1) == 1),
            _scatter(count, nwords, loc, shot, ((pair_sparse >> 1) & 1) == 1),
            _scatter(count, nwords, loc, shot, (pair_sparse & 1) == 1),
        )
    return (
        pack_rows((pair >> 3) & 1),
        pack_rows((pair >> 2) & 1),
        pack_rows((pair >> 1) & 1),
        pack_rows(pair & 1),
    )


@dataclass
class _Planes:
    """Pre-sampled packed noise bit-planes for one run, by channel class."""

    g1x: np.ndarray
    g1z: np.ndarray
    g2ax: np.ndarray
    g2az: np.ndarray
    g2bx: np.ndarray
    g2bz: np.ndarray
    meas: np.ndarray
    prep: np.ndarray
    storex: np.ndarray
    storez: np.ndarray


class CompiledFrameProgram:
    """A circuit lowered to a packed-frame instruction stream.

    Parameters
    ----------
    circuit, noise: same contract as :class:`FrameSimulator`.
    """

    def __init__(self, circuit: Circuit, noise: NoiseModel | None = None) -> None:
        self.circuit = circuit
        self.noise = noise or NoiseModel()
        # Snapshot for staleness checks: Circuit is append-only, so a grown
        # op count is the one way the instruction stream can go stale.
        self.compiled_ops = len(circuit)
        validate_frame_circuit(circuit)
        self._compile()
        self.verify()

    def verify(self) -> None:
        """Statically verify the compiled instruction stream.

        Runs :func:`repro.analysis.progcheck.verify_program` over the
        packed tuples ``_compile`` just emitted — opcode validity, operand
        bounds, fused-batch aliasing, noise-plane budgets, probability
        ranges.  Raises a typed
        :class:`~repro.analysis.progcheck.ProgramVerificationError`
        subclass on the first violation.  Imported lazily: progcheck needs
        this module's opcode constants, so a module-level import would
        cycle.
        """
        from repro.analysis.progcheck import verify_program

        verify_program(
            self._instructions,
            self.circuit.num_qubits,
            self.circuit.num_cbits,
            self._counts,
            self.noise,
        )

    # ------------------------------------------------------------------
    def _compile(self) -> None:
        noise = self.noise
        num_qubits = self.circuit.num_qubits
        instrs: list[tuple] = []
        # (first op, instruction span [start, end)) of every batch: a fused
        # run, or one TICK or conditional op.  Batches cover the ops in
        # order; fault injection places its points with this table.
        batches: list[tuple[int, int, int]] = []
        counts = {"g1": 0, "g2": 0, "meas": 0, "prep": 0, "store": 0}
        # Current fusion batch.
        state = {"kind": None, "first_op": 0}
        q1: list[int] = []
        q2: list[int] = []
        touched_q: set[int] = set()
        touched_c: set[int] = set()

        def flush() -> None:
            kind = state["kind"]
            if kind is None:
                return
            start = len(instrs)
            size = len(q1)
            idx1 = np.array(q1, dtype=np.intp)
            idx2 = np.array(q2, dtype=np.intp)
            if kind in ("H", "S", "RP"):
                instrs.append((_FRAME_OPCODE[kind], idx1))
            elif kind in ("CNOT", "CZ", "CY", "SWAP"):
                instrs.append((_FRAME_OPCODE[kind], idx1, idx2))
            elif kind in ("M", "MX"):
                instrs.append((_FRAME_OPCODE[kind], idx1, idx2))
                if noise.eps_meas > 0:
                    instrs.append((_OP_NM, idx2, counts["meas"], size))
                    counts["meas"] += size
            elif kind == "R":
                instrs.append((_OP_R, idx1))
                if noise.eps_prep > 0:
                    instrs.append((_OP_NP, idx1, counts["prep"], size))
                    counts["prep"] += size
            # "P1" (bare Paulis) emit no frame instruction, only gate noise.
            if kind in ("H", "S", "RP", "P1") and noise.eps_gate1 > 0:
                instrs.append((_OP_NG1, idx1, counts["g1"], size))
                counts["g1"] += size
            elif kind in ("CNOT", "CZ", "CY", "SWAP") and noise.eps_gate2 > 0:
                instrs.append((_OP_NG2, idx1, idx2, counts["g2"], size))
                counts["g2"] += size
            batches.append((state["first_op"], start, len(instrs)))
            state["kind"] = None
            q1.clear()
            q2.clear()
            touched_q.clear()
            touched_c.clear()

        for i, op in enumerate(self.circuit):
            gate = op.gate
            if gate == "TICK" or op.condition:
                # Never fused: a batch of its own.
                flush()
                start = len(instrs)
                if gate == "TICK":
                    if noise.eps_store > 0:
                        instrs.append((_OP_NSTORE, counts["store"]))
                        counts["store"] += num_qubits
                else:
                    loc = -1
                    if noise.eps_gate1 > 0:
                        loc = counts["g1"]
                        counts["g1"] += 1
                    instrs.append(
                        (
                            _OP_COND,
                            gate in ("X", "Y"),
                            gate in ("Z", "Y"),
                            op.qubits[0],
                            np.array(op.condition, dtype=np.intp),
                            loc,
                        )
                    )
                batches.append((i, start, len(instrs)))
            else:
                kind = _ONE_QUBIT_KIND.get(gate) or _TWO_QUBIT_KIND.get(gate) or gate
                if kind not in ("H", "S", "RP", "P1", "CNOT", "CZ", "CY", "SWAP", "M", "MX", "R"):
                    raise ValueError(f"unhandled gate {gate}")  # pragma: no cover
                joinable = (
                    state["kind"] == kind
                    and touched_q.isdisjoint(op.qubits)
                    and touched_c.isdisjoint(op.cbits)
                )
                if not joinable:
                    flush()
                    state["kind"] = kind
                    state["first_op"] = i
                q1.append(op.qubits[0])
                if kind in ("CNOT", "CZ", "CY", "SWAP"):
                    q2.append(op.qubits[1])
                elif kind in ("M", "MX"):
                    q2.append(op.cbits[0])
                    touched_c.add(op.cbits[0])
                touched_q.update(op.qubits)
        flush()
        self._instructions = instrs
        self._counts = counts
        self._batches = batches

    def _injection_points(self, op_index: np.ndarray, qubit: np.ndarray) -> np.ndarray:
        """Instruction index before which each fault is XORed in.

        See the module docstring: a fault after op ``i`` on qubit ``q``
        goes before ``i``'s batch if a later op of that batch touches
        ``q``, otherwise after the batch; ``op_index == -1`` goes first.
        """
        ops = self.circuit.operations[: self.compiled_ops]
        n = len(ops)
        # Every touch as the key qubit * (n + 1) + op, sorted, so the next
        # op touching q after op i is one search away; the sentinel keeps
        # every search position indexable.
        arity = np.fromiter((len(op.qubits) for op in ops), np.int64, n)
        touched = np.fromiter(
            chain.from_iterable(op.qubits for op in ops), np.int64, int(arity.sum())
        )
        keys = np.sort(touched * (n + 1) + np.repeat(np.arange(n), arity))
        keys = np.append(keys, np.iinfo(np.int64).max)
        first_op, start, end = np.array(self._batches, dtype=np.int64).reshape(-1, 3).T
        point = np.zeros(op_index.shape, dtype=np.int64)
        after = op_index >= 0
        i, base = op_index[after], qubit[after] * (n + 1)
        batch = np.searchsorted(first_op, i, side="right") - 1
        next_touch = keys[np.searchsorted(keys, base + i, side="right")] - base
        later = next_touch < np.append(first_op[1:], n)[batch]
        point[after] = np.where(later, start[batch], end[batch])
        return point

    # ------------------------------------------------------------------
    def _sample_planes(self, rng: np.random.Generator, shots: int) -> _Planes:
        counts, noise = self._counts, self.noise
        g1x, g1z = _depolarize_planes(rng, counts["g1"], shots, noise.eps_gate1)
        g2ax, g2az, g2bx, g2bz = _two_qubit_planes(rng, counts["g2"], shots, noise)
        meas = _bernoulli_planes(rng, counts["meas"], shots, noise.eps_meas)
        prep = _bernoulli_planes(rng, counts["prep"], shots, noise.eps_prep)
        storex, storez = _depolarize_planes(rng, counts["store"], shots, noise.eps_store)
        return _Planes(g1x, g1z, g2ax, g2az, g2bx, g2bz, meas, prep, storex, storez)

    # ------------------------------------------------------------------
    def new_buffers(self, shots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Freshly zeroed packed (fx, fz, flips) buffers for ``shots``."""
        nwords = words_for(shots)
        fx = np.zeros((self.circuit.num_qubits, nwords), dtype=np.uint64)
        fz = np.zeros_like(fx)
        flips = np.zeros((max(1, self.circuit.num_cbits), nwords), dtype=np.uint64)
        return fx, fz, flips

    def run_packed(
        self,
        shots: int,
        rng: int | np.random.Generator | None,
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        fault_injections: list | None = None,
    ) -> None:
        """Execute in place over caller-provided packed buffers.

        ``fx``/``fz`` carry the initial frames on entry and the residual
        frames on exit; ``flips`` is zeroed here before execution.  Buffers
        must have ``words_for(shots)`` columns (reuse across rounds is the
        point of this entry).  ``fault_injections`` (format as in
        :meth:`FrameSimulator.run`) is validated before any buffer is
        touched, then XORed in at its injection points between segments of
        the fused stream; noise sampling is the same with or without it.
        """
        rng = as_rng(rng)
        num_qubits = self.circuit.num_qubits
        nwords = words_for(shots)
        if fx.shape != (num_qubits, nwords) or fz.shape != fx.shape:
            raise ValueError(f"frame buffers must be ({num_qubits}, {nwords}) uint64")
        if fault_injections is not None:
            shot, op_index, qubit, xbit, zbit = normalize_fault_injections(
                fault_injections, shots, self.compiled_ops, num_qubits
            )
        flips[:] = 0
        planes = self._sample_planes(rng, shots)
        if fault_injections is None:
            self._execute(self._instructions, fx, fz, flips, planes)
            return
        point = self._injection_points(op_index, qubit)
        order = np.argsort(point, kind="stable")
        point, qubit, shot = point[order], qubit[order], shot[order]
        word = shot >> 6
        bit = np.uint64(1) << (shot & 63).astype(np.uint64)
        xbits, zbits = bit * xbit[order], bit * zbit[order]
        # ufunc.at is unbuffered, so duplicate faults cancel like XORs.
        starts = np.flatnonzero(np.diff(point, prepend=-1)).tolist()
        done = 0
        for lo, hi in zip(starts, starts[1:] + [len(point)]):
            at = int(point[lo])
            self._execute(self._instructions[done:at], fx, fz, flips, planes)
            np.bitwise_xor.at(fx, (qubit[lo:hi], word[lo:hi]), xbits[lo:hi])
            np.bitwise_xor.at(fz, (qubit[lo:hi], word[lo:hi]), zbits[lo:hi])
            done = at
        self._execute(self._instructions[done:], fx, fz, flips, planes)

    def run(
        self,
        shots: int,
        seed: int | np.random.Generator | None = None,
        initial_fx: np.ndarray | None = None,
        initial_fz: np.ndarray | None = None,
        fault_injections: list | None = None,
    ) -> FrameResult:
        """Drop-in equivalent of :meth:`FrameSimulator.run` (unpacked API)."""
        rng = as_rng(seed)
        fx, fz, flips = self.new_buffers(shots)
        # Broadcast before packing: the legacy engine's in-place XOR accepts
        # (1, n) initial frames via NumPy broadcasting, and packing a (1, n)
        # array directly would silently hit only shot 0 of each word.
        shape = (shots, self.circuit.num_qubits)
        if initial_fx is not None:
            fx ^= pack_shot_major(np.broadcast_to(np.asarray(initial_fx, dtype=np.uint8), shape))
        if initial_fz is not None:
            fz ^= pack_shot_major(np.broadcast_to(np.asarray(initial_fz, dtype=np.uint8), shape))
        self.run_packed(shots, rng, fx, fz, flips, fault_injections)
        return FrameResult(
            meas_flips=unpack_shot_major(flips, shots),
            fx=unpack_shot_major(fx, shots),
            fz=unpack_shot_major(fz, shots),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _execute(
        instrs: list[tuple],
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        pl: _Planes,
    ) -> None:
        for ins in instrs:
            op = ins[0]
            if op == _OP_CNOT:
                _, ctl, tgt = ins
                fx[tgt] ^= fx[ctl]
                fz[ctl] ^= fz[tgt]
            elif op == _OP_M:
                _, qs, cs = ins
                flips[cs] = fx[qs]
                fz[qs] = 0
            elif op == _OP_H:
                qs = ins[1]
                tmp = fx[qs]
                fx[qs] = fz[qs]
                fz[qs] = tmp
            elif op == _OP_NG1:
                _, qs, lo, size = ins
                fx[qs] ^= pl.g1x[lo : lo + size]
                fz[qs] ^= pl.g1z[lo : lo + size]
            elif op == _OP_NG2:
                _, qa, qb, lo, size = ins
                sl = slice(lo, lo + size)
                fx[qa] ^= pl.g2ax[sl]
                fz[qa] ^= pl.g2az[sl]
                fx[qb] ^= pl.g2bx[sl]
                fz[qb] ^= pl.g2bz[sl]
            elif op == _OP_R:
                qs = ins[1]
                fx[qs] = 0
                fz[qs] = 0
            elif op == _OP_NM:
                _, cs, lo, size = ins
                flips[cs] ^= pl.meas[lo : lo + size]
            elif op == _OP_NP:
                _, qs, lo, size = ins
                fx[qs] ^= pl.prep[lo : lo + size]
            elif op == _OP_NSTORE:
                lo = ins[1]
                n = fx.shape[0]
                fx ^= pl.storex[lo : lo + n]
                fz ^= pl.storez[lo : lo + n]
            elif op == _OP_S:
                qs = ins[1]
                fz[qs] ^= fx[qs]
            elif op == _OP_RP:
                qs = ins[1]
                fx[qs] ^= fz[qs]
            elif op == _OP_CZ:
                _, qa, qb = ins
                fz[qb] ^= fx[qa]
                fz[qa] ^= fx[qb]
            elif op == _OP_CY:
                _, ctl, tgt = ins
                fz[ctl] ^= fx[tgt] ^ fz[tgt]
                fx[tgt] ^= fx[ctl]
                fz[tgt] ^= fx[ctl]
            elif op == _OP_SWAP:
                _, qa, qb = ins
                tmp = fx[qa]
                fx[qa] = fx[qb]
                fx[qb] = tmp
                tmp = fz[qa]
                fz[qa] = fz[qb]
                fz[qb] = tmp
            elif op == _OP_MX:
                _, qs, cs = ins
                flips[cs] = fz[qs]
                fx[qs] = 0
            elif op == _OP_COND:
                _, xflag, zflag, qubit, cond, loc = ins
                mask = np.bitwise_xor.reduce(flips[cond], axis=0)
                if xflag:
                    fx[qubit] ^= mask
                if zflag:
                    fz[qubit] ^= mask
                if loc >= 0:
                    # The conditional Pauli is physical only where it fires.
                    fx[qubit] ^= pl.g1x[loc] & mask
                    fz[qubit] ^= pl.g1z[loc] & mask
            else:  # pragma: no cover
                raise AssertionError(f"bad opcode {op}")
