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
  uses exact geometric-gap (skip) sampling and the class becomes a *hit
  table*: the sorted unique ``(location, word)`` keys some fault hit, one
  OR-merged ``uint64`` mask per plane for each key, and per-location spans.
  A noise instruction then XORs only its hit words into the frames, so
  sampling and application both scale with the expected number of faults
  rather than locations x shots.  Above ``_SPARSE_MAX_P`` the class is
  drawn as dense ``(locations, words)`` planes and XORed row by row.  The
  representation is chosen once per class per run; the RNG calls and
  their order are the same either way.

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
# Noise sampling.  One draw per channel class per run, in a fixed order;
# fault injections never touch the RNG.  Each class comes back as either
# dense planes or a sparse hit table; both apply through ``apply``.
# ----------------------------------------------------------------------
def _bernoulli_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Sorted indices in ``[0, total)`` hit by independent Bernoulli(p) trials.

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


class _DensePlanes:
    """One channel class as dense ``(locations, words)`` planes.

    ``targets`` holds, per plane, the packed buffer it lands in and the
    buffer row of every location.
    """

    def __init__(self, targets: tuple, *planes: np.ndarray) -> None:
        self.planes = [(dst, rows, plane) for (dst, rows), plane in zip(targets, planes)]

    def apply(self, lo: int, size: int, where: np.ndarray | None = None) -> None:
        """XOR locations ``[lo, lo + size)`` of every plane into its buffer;
        ``where`` (one ``(words,)`` plane) keeps only the shots it sets."""
        for dst, rows, plane in self.planes:
            hits = plane[lo : lo + size]
            dst[rows[lo : lo + size]] ^= hits if where is None else hits & where


class _HitTable:
    """One channel class as the words some fault hit, and nothing else.

    ``idx`` are the sorted hit positions ``location * shots + shot``; plane
    ``p`` keeps the hits where ``selectors[p]`` is set (``None``: all) and
    lands as ``targets`` says (see :class:`_DensePlanes`).  The hits are
    merged into sorted unique ``(location, word)`` keys, with one OR-merged
    ``uint64`` mask per plane and key; the keys of location ``l`` are
    ``[start[l], start[l + 1])``.  Each plane keeps the flat position of
    every key in its C-contiguous buffer.
    """

    def __init__(
        self, targets: tuple, count: int, shots: int, idx: np.ndarray, selectors: tuple = (None,)
    ) -> None:
        nwords = words_for(shots)
        loc, shot = np.divmod(idx, shots)
        word = shot >> 6
        # idx is sorted, so the keys are too: a key starts where one changes.
        key = loc * nwords + word
        new = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        first = np.flatnonzero(new)
        bits = np.uint64(1) << (shot & 63).astype(np.uint64)
        loc = loc[first]
        self.word = word[first]
        self.start = np.searchsorted(loc, np.arange(count + 1)).tolist()
        self.planes = [
            (
                dst.reshape(-1),
                rows[loc] * nwords + self.word,
                np.bitwise_or.reduceat(bits if sel is None else bits * sel, first),
            )
            for (dst, rows), sel in zip(targets, selectors)
        ]

    def apply(self, lo: int, size: int, where: np.ndarray | None = None) -> None:
        """Same contract as :meth:`_DensePlanes.apply`, touching hit words only.

        The keys of one call are unique and its locations land on distinct
        rows (``progcheck`` refuses a noise instruction that repeats a row),
        so no fancy-indexed XOR below repeats an element.
        """
        a, b = self.start[lo], self.start[lo + size]
        if a == b:
            return
        for flat, pos, mask in self.planes:
            hits = mask[a:b]
            flat[pos[a:b]] ^= hits if where is None else hits & where[self.word[a:b]]


_NO_HITS = np.empty(0, dtype=np.int64)


def _conditional_kind(u: np.ndarray, p: float, sides: int) -> np.ndarray:
    """Uniform {0..sides-1} from the same uniforms that decided hit = u < p.

    Conditioned on ``u < p``, ``u / p`` is uniform on [0, 1), so one draw
    yields both the hit mask and an independent kind — halving RNG cost on
    the dense path.
    """
    return np.minimum((u * (sides / p)).astype(np.int64), sides - 1)


def _depolarize_noise(
    rng: np.random.Generator, targets: tuple, count: int, shots: int, p: float
) -> _DensePlanes | _HitTable:
    """X/Z noise of ``count`` uniform-X/Y/Z depolarizing locations."""
    if count == 0 or p <= 0.0:
        return _HitTable(targets, count, shots, _NO_HITS)
    if p > _SPARSE_MAX_P:
        u = rng.random((count, shots))
        hit = u < p
        kind = _conditional_kind(u, p, 3)  # 0: X, 1: Y, 2: Z
        return _DensePlanes(targets, pack_rows(hit & (kind != 2)), pack_rows(hit & (kind != 0)))
    idx = _bernoulli_positions(rng, count * shots, p)
    kind = rng.integers(0, 3, size=idx.size)
    return _HitTable(targets, count, shots, idx, (kind != 2, kind != 0))


def _bernoulli_noise(
    rng: np.random.Generator, targets: tuple, count: int, shots: int, p: float
) -> _DensePlanes | _HitTable:
    """Flip noise of ``count`` plain Bernoulli(p) locations (meas/prep)."""
    if count == 0 or p <= 0.0:
        return _HitTable(targets, count, shots, _NO_HITS)
    if p > _SPARSE_MAX_P:
        return _DensePlanes(targets, pack_rows(rng.random((count, shots)) < p))
    return _HitTable(targets, count, shots, _bernoulli_positions(rng, count * shots, p))


def _two_qubit_noise(
    rng: np.random.Generator, targets: tuple, count: int, shots: int, noise: NoiseModel
) -> _DensePlanes | _HitTable:
    """(ax, az, bx, bz) noise of ``count`` two-qubit gate locations."""
    p = noise.eps_gate2
    if count == 0 or p <= 0.0:
        return _HitTable(targets, count, shots, _NO_HITS)
    if noise.two_qubit_mode == "both_damaged":
        # §5's pessimistic model: one hit draws an independent uniform
        # non-trivial-or-not X/Y/Z on each touched qubit.
        if p > _SPARSE_MAX_P:
            u = rng.random((count, shots))
            hit = u < p
            kind_a = _conditional_kind(u, p, 3)
            kind_b = rng.integers(0, 3, size=(count, shots))
            return _DensePlanes(
                targets,
                pack_rows(hit & (kind_a != 2)),
                pack_rows(hit & (kind_a != 0)),
                pack_rows(hit & (kind_b != 2)),
                pack_rows(hit & (kind_b != 0)),
            )
        idx = _bernoulli_positions(rng, count * shots, p)
        kind_a = rng.integers(0, 3, size=idx.size)
        kind_b = rng.integers(0, 3, size=idx.size)
        return _HitTable(
            targets, count, shots, idx, (kind_a != 2, kind_a != 0, kind_b != 2, kind_b != 0)
        )
    # depolarizing15: uniform over the 15 nontrivial pair Paulis.
    if p > _SPARSE_MAX_P:
        u = rng.random((count, shots))
        pair = np.where(u < p, _conditional_kind(u, p, 15) + 1, 0)
        return _DensePlanes(targets, *(pack_rows((pair >> bit) & 1) for bit in (3, 2, 1, 0)))
    idx = _bernoulli_positions(rng, count * shots, p)
    pair = rng.integers(1, 16, size=idx.size)
    selectors = tuple(((pair >> bit) & 1) == 1 for bit in (3, 2, 1, 0))
    return _HitTable(targets, count, shots, idx, selectors)


@dataclass
class _Noise:
    """Pre-sampled noise for one run, by channel class."""

    g1: _DensePlanes | _HitTable
    g2: _DensePlanes | _HitTable
    meas: _DensePlanes | _HitTable
    prep: _DensePlanes | _HitTable
    store: _DensePlanes | _HitTable


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
        # The buffer row each noise location lands on, by location, per
        # plane role ("g2a"/"g2b": the two qubits of a two-qubit gate).
        rows: dict[str, list] = {k: [] for k in ("g1", "g2a", "g2b", "meas", "prep", "store")}
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
                    rows["meas"].append(idx2)
            elif kind == "R":
                instrs.append((_OP_R, idx1))
                if noise.eps_prep > 0:
                    instrs.append((_OP_NP, idx1, counts["prep"], size))
                    counts["prep"] += size
                    rows["prep"].append(idx1)
            # "P1" (bare Paulis) emit no frame instruction, only gate noise.
            if kind in ("H", "S", "RP", "P1") and noise.eps_gate1 > 0:
                instrs.append((_OP_NG1, idx1, counts["g1"], size))
                counts["g1"] += size
                rows["g1"].append(idx1)
            elif kind in ("CNOT", "CZ", "CY", "SWAP") and noise.eps_gate2 > 0:
                instrs.append((_OP_NG2, idx1, idx2, counts["g2"], size))
                counts["g2"] += size
                rows["g2a"].append(idx1)
                rows["g2b"].append(idx2)
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
                        rows["store"].append(np.arange(num_qubits))
                else:
                    loc = -1
                    if noise.eps_gate1 > 0:
                        loc = counts["g1"]
                        counts["g1"] += 1
                        rows["g1"].append(np.array(op.qubits[:1]))
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
        self._noise_rows = {
            k: np.concatenate([np.empty(0, dtype=np.intp), *v], dtype=np.intp)
            for k, v in rows.items()
        }
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
    def _sample_planes(
        self, rng: np.random.Generator, shots: int, fx: np.ndarray, fz: np.ndarray, flips: np.ndarray
    ) -> _Noise:
        """One draw per channel class, bound to the buffers it lands in: a
        hit table below ``_SPARSE_MAX_P``, dense planes above it."""
        counts, noise, rows = self._counts, self.noise, self._noise_rows
        g1, g2a, g2b, store = rows["g1"], rows["g2a"], rows["g2b"], rows["store"]
        return _Noise(
            g1=_depolarize_noise(
                rng, ((fx, g1), (fz, g1)), counts["g1"], shots, noise.eps_gate1
            ),
            g2=_two_qubit_noise(
                rng, ((fx, g2a), (fz, g2a), (fx, g2b), (fz, g2b)), counts["g2"], shots, noise
            ),
            meas=_bernoulli_noise(
                rng, ((flips, rows["meas"]),), counts["meas"], shots, noise.eps_meas
            ),
            prep=_bernoulli_noise(
                rng, ((fx, rows["prep"]),), counts["prep"], shots, noise.eps_prep
            ),
            store=_depolarize_noise(
                rng, ((fx, store), (fz, store)), counts["store"], shots, noise.eps_store
            ),
        )

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
        frames on exit; ``flips`` is zeroed here before execution.  All
        three must be C-contiguous ``uint64`` with ``words_for(shots)``
        columns, shaped as :meth:`new_buffers` makes them (reuse across
        rounds is the point of this entry); anything else raises
        ``ValueError`` before the RNG or any buffer is touched.
        ``fault_injections`` (format as in :meth:`FrameSimulator.run`) is
        validated as early, then XORed in at its injection points between
        segments of the fused stream; noise sampling is the same with or
        without it.
        """
        num_qubits = self.circuit.num_qubits
        nwords = words_for(shots)
        for name, buf, rows in (
            ("fx", fx, num_qubits),
            ("fz", fz, num_qubits),
            ("flips", flips, max(1, self.circuit.num_cbits)),
        ):
            if buf.dtype != np.uint64 or buf.shape != (rows, nwords) or not buf.flags.c_contiguous:
                raise ValueError(
                    f"{name} must be a C-contiguous ({rows}, {nwords}) uint64 buffer,"
                    f" got {buf.shape} {buf.dtype}"
                )
        if fault_injections is not None:
            shot, op_index, qubit, xbit, zbit = normalize_fault_injections(
                fault_injections, shots, self.compiled_ops, num_qubits
            )
        rng = as_rng(rng)
        flips[:] = 0
        noise = self._sample_planes(rng, shots, fx, fz, flips)
        if fault_injections is None:
            self._execute(self._instructions, fx, fz, flips, noise)
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
            self._execute(self._instructions[done:at], fx, fz, flips, noise)
            np.bitwise_xor.at(fx, (qubit[lo:hi], word[lo:hi]), xbits[lo:hi])
            np.bitwise_xor.at(fz, (qubit[lo:hi], word[lo:hi]), zbits[lo:hi])
            done = at
        self._execute(self._instructions[done:], fx, fz, flips, noise)

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
        noise: _Noise,
    ) -> None:
        num_qubits = fx.shape[0]
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
                noise.g1.apply(ins[2], ins[3])
            elif op == _OP_NG2:
                noise.g2.apply(ins[3], ins[4])
            elif op == _OP_R:
                qs = ins[1]
                fx[qs] = 0
                fz[qs] = 0
            elif op == _OP_NM:
                noise.meas.apply(ins[2], ins[3])
            elif op == _OP_NP:
                noise.prep.apply(ins[2], ins[3])
            elif op == _OP_NSTORE:
                noise.store.apply(ins[1], num_qubits)
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
                    noise.g1.apply(loc, 1, where=mask)
            else:  # pragma: no cover
                raise AssertionError(f"bad opcode {op}")
