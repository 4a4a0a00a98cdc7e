"""Parity suite: compiled bit-packed frame engine vs the legacy interpreter.

Two agreement regimes, mirroring the engine's contract:

* **Exact** on every deterministic path — no noise, arbitrary initial
  frames, fault injections, classically conditioned Paulis.  The two
  engines must produce bit-identical :class:`FrameResult` contents.
* **Statistical** on noisy paths — the engines consume randomness
  differently (per-location draws vs per-channel-class planes), so seeded
  outputs differ shot by shot; observed rates must agree within combined
  Wilson 95% intervals.

Plus packing round-trips, a seeded-determinism regression (same seed ⇒
identical results, run to run and with vs without fault injections), golden
SHA-256 digests that pin seeded noisy output bit for bit, ``run_packed``'s
refusal of misshapen or mistyped buffers, and the
fault-injection contract: packed faults placed in the fused stream match
the legacy per-op injection bit for bit, and malformed specs are refused
before any buffer is touched.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.codes import SteaneCode
from repro.ft import SteaneECProtocol
from repro.ft.steane_ec import SteaneAncillaPrep, SteaneSyndromeExtraction
from repro.noise import NoiseModel, circuit_level
from repro.pauliframe import (
    CompiledFrameProgram,
    FrameSimulator,
    pack_rows,
    pack_shot_major,
    unpack_rows,
    unpack_shot_major,
    words_for,
)
from repro.threshold import memory_experiment
from repro.util.stats import wilson_interval


def random_clifford_circuit(rng, num_qubits=6, num_cbits=6, depth=60, conditional=False):
    c = Circuit(num_qubits, num_cbits)
    one_q = ["H", "S", "SDG", "RPRIME", "X", "Y", "Z", "I"]
    two_q = ["CNOT", "CZ", "CY", "SWAP"]
    measured: list[int] = []
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.35:
            c.append(one_q[rng.integers(len(one_q))], int(rng.integers(num_qubits)))
        elif roll < 0.7:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            c.append(two_q[rng.integers(len(two_q))], int(a), int(b))
        elif roll < 0.8:
            q = int(rng.integers(num_qubits))
            cb = int(rng.integers(num_cbits))
            c.append("M" if rng.random() < 0.5 else "MX", q, cbits=(cb,))
            measured.append(cb)
        elif roll < 0.88:
            c.reset(int(rng.integers(num_qubits)))
        elif roll < 0.95 or not (conditional and measured):
            c.tick()
        else:
            cond = tuple({int(rng.choice(measured)) for _ in range(2)})
            gate = ["X", "Y", "Z"][rng.integers(3)]
            c.append(gate, int(rng.integers(num_qubits)), condition=cond)
    return c


def assert_results_equal(a, b):
    np.testing.assert_array_equal(a.meas_flips, b.meas_flips)
    np.testing.assert_array_equal(a.fx, b.fx)
    np.testing.assert_array_equal(a.fz, b.fz)


class TestPacking:
    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 1000])
    def test_roundtrip_rows(self, shots):
        rng = np.random.default_rng(shots)
        bits = (rng.random((5, shots)) < 0.3).astype(np.uint8)
        packed = pack_rows(bits)
        assert packed.shape == (5, words_for(shots))
        np.testing.assert_array_equal(unpack_rows(packed, shots), bits)

    def test_roundtrip_shot_major(self):
        rng = np.random.default_rng(9)
        arr = (rng.random((130, 7)) < 0.4).astype(np.uint8)
        np.testing.assert_array_equal(unpack_shot_major(pack_shot_major(arr), 130), arr)

    def test_xor_in_packed_domain_matches_unpacked(self):
        rng = np.random.default_rng(10)
        a = (rng.random((3, 100)) < 0.5).astype(np.uint8)
        b = (rng.random((3, 100)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(
            unpack_rows(pack_rows(a) ^ pack_rows(b), 100), a ^ b
        )


class TestExactParity:
    @pytest.mark.parametrize("trial", range(5))
    def test_random_circuits_noiseless(self, trial):
        rng = np.random.default_rng(trial)
        c = random_clifford_circuit(rng, conditional=True)
        shots = 70  # straddles the 64-bit word boundary
        init_fx = (rng.random((shots, c.num_qubits)) < 0.3).astype(np.uint8)
        init_fz = (rng.random((shots, c.num_qubits)) < 0.3).astype(np.uint8)
        legacy = FrameSimulator(c, backend="legacy").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        compiled = FrameSimulator(c, backend="compiled").run(
            shots, seed=0, initial_fx=init_fx, initial_fz=init_fz
        )
        assert_results_equal(legacy, compiled)

    def test_fault_injection_parity(self):
        for child in np.random.SeedSequence(77).spawn(24):
            rng = np.random.default_rng(child)
            c = random_clifford_circuit(rng, conditional=True)
            n_ops = len(c.operations)
            shots = 80
            specs = []
            for s in range(shots):
                entries = [
                    (int(rng.integers(-1, n_ops)), int(rng.integers(c.num_qubits)),
                     "XYZ"[rng.integers(3)])
                    for _ in range(rng.integers(1, 4))
                ]
                specs.append(entries)
            legacy = FrameSimulator(c, backend="legacy").run(shots, seed=0, fault_injections=specs)
            compiled = FrameSimulator(c, backend="compiled").run(shots, seed=0, fault_injections=specs)
            assert_results_equal(legacy, compiled)

    def test_fault_before_a_later_op_of_the_same_batch(self):
        # H(0) and H(1) fuse into one batch; a fault after op 0 on qubit 1
        # must still pass through H(1), a fault on qubit 0 must not.
        c = Circuit(2).h(0).h(1)
        assert len(CompiledFrameProgram(c)._instructions) == 1
        specs = [
            (op, q, kind) for op in (-1, 0, 1) for q in (0, 1) for kind in "XYZ"
        ]
        legacy = FrameSimulator(c, backend="legacy").run(len(specs), fault_injections=specs)
        compiled = FrameSimulator(c).run(len(specs), fault_injections=specs)
        assert_results_equal(legacy, compiled)
        after_op0_on_q1 = specs.index((0, 1, "X"))
        assert compiled.fz[after_op0_on_q1].tolist() == [0, 1]

    def test_duplicate_faults_cancel(self):
        c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
        specs = [
            [(1, 0, "X"), (3, 1, "Z"), (1, 0, "X"), (3, 1, "Z")],
            [(0, 1, "Y"), (0, 1, "Y"), (0, 1, "Y")],
        ]
        legacy = FrameSimulator(c, backend="legacy").run(2, fault_injections=specs)
        compiled = FrameSimulator(c).run(2, fault_injections=specs)
        assert_results_equal(legacy, compiled)
        assert not (compiled.fx[0].any() or compiled.fz[0].any() or compiled.meas_flips[0].any())
        single = FrameSimulator(c).run(1, fault_injections=[(0, 1, "Y")])
        np.testing.assert_array_equal(compiled.fx[1], single.fx[0])

    @pytest.mark.parametrize("backend", ["legacy", "compiled"])
    @pytest.mark.parametrize(
        "bad", [(99, 0, "X"), (3, 0, "X"), (-5, 0, "X"), (-1, -1, "X"), (0, 2, "Z")]
    )
    def test_out_of_range_fault_is_refused(self, backend, bad):
        # An out-of-range op index must not be dropped silently, nor a
        # negative qubit land on another qubit through NumPy indexing.
        c = Circuit(2, 2).cnot(0, 1).measure(0, 0).measure(1, 1)
        sim = FrameSimulator(c, backend=backend)
        init = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="outside"):
            sim.run(2, initial_fx=init, fault_injections=[(0, 0, "X"), [(2, 1, "Y"), bad]])
        assert (init == 1).all()
        if backend == "legacy":
            return  # the legacy engine has no caller-owned packed buffers
        prog = sim._program()
        fx, fz, flips = prog.new_buffers(2)
        fx[:], fz[:], flips[:] = 1, 2, 3
        with pytest.raises(ValueError, match="outside"):
            prog.run_packed(2, 0, fx, fz, flips, fault_injections=[(0, 0, "X"), bad])
        assert (fx == 1).all() and (fz == 2).all() and (flips == 3).all()

    def test_fused_requires_no_injection(self):
        # Successor property: malformed injections are refused before any
        # caller buffer is touched.
        c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0)
        prog = CompiledFrameProgram(c)
        bad_specs = [
            [(0, 0, "X")] * 3,                       # one spec short
            [(0, 0, "X")] * 3 + [(1, 1, "W")],       # unknown kind
            [(0, 0, "X")] * 3 + [[(1, 1, "X"), (3, 0, "Z")]],  # op past the end
            [(0, 0, "X")] * 3 + [(0, 0)],            # not a triple
        ]
        for specs in bad_specs:
            fx, fz, flips = prog.new_buffers(4)
            fx[:], fz[:], flips[:] = 5, 6, 7
            with pytest.raises(ValueError):
                prog.run_packed(4, 0, fx, fz, flips, fault_injections=specs)
            assert (fx == 5).all() and (fz == 6).all() and (flips == 7).all()

    def test_fused_and_unfused_bit_identical_under_noise(self):
        # Successor property: injections do not perturb noise sampling.
        # Without conditionals the frames are linear in (noise, faults), so
        # noisy+faults == noisy XOR noiseless+faults, seed for seed.
        rng = np.random.default_rng(5)
        c = random_clifford_circuit(rng, conditional=False)
        shots = 300
        specs = [
            [(int(rng.integers(-1, len(c))), int(rng.integers(c.num_qubits)), "XYZ"[k % 3])
             for k in range(int(rng.integers(0, 4)))]
            for _ in range(shots)
        ]
        noisy = FrameSimulator(c, circuit_level(0.02))
        both = noisy.run(shots, seed=42, fault_injections=specs)
        noise_only = noisy.run(shots, seed=42)
        faults_only = FrameSimulator(c, NoiseModel()).run(shots, fault_injections=specs)
        for field in ("meas_flips", "fx", "fz"):
            np.testing.assert_array_equal(
                getattr(both, field), getattr(noise_only, field) ^ getattr(faults_only, field)
            )

    def test_e02_factory_circuit_noiseless_parity(self):
        c = SteaneAncillaPrep(SteaneCode(), verify=True).circuit()
        rng = np.random.default_rng(3)
        shots = 66
        init_fx = (rng.random((shots, c.num_qubits)) < 0.2).astype(np.uint8)
        legacy = FrameSimulator(c, backend="legacy").run(shots, seed=0, initial_fx=init_fx)
        compiled = FrameSimulator(c, backend="compiled").run(shots, seed=0, initial_fx=init_fx)
        assert_results_equal(legacy, compiled)

    def test_e04_extraction_circuit_fault_paths(self):
        # The E04 protocol circuit: single deterministic faults anywhere in
        # the first half of the round must propagate identically.
        c = SteaneSyndromeExtraction(SteaneCode(), 2).extraction_circuit()
        n_ops = len(c.operations)
        specs = [
            (op_i % n_ops, q % c.num_qubits, "XYZ"[(op_i + q) % 3])
            for op_i, q in zip(range(0, 2 * n_ops, 2), range(100))
        ]
        legacy = FrameSimulator(c, backend="legacy").run(len(specs), seed=0, fault_injections=specs)
        compiled = FrameSimulator(c, backend="compiled").run(len(specs), seed=0, fault_injections=specs)
        assert_results_equal(legacy, compiled)

    def test_broadcast_initial_frames_match_legacy(self):
        # The legacy engine accepts a (1, n) initial frame via NumPy
        # broadcasting; the packed engine must broadcast before packing
        # (packing a (1, n) array directly would hit only shot 0 per word).
        c = Circuit(3, 3).cnot(0, 1).measure(0, 0).measure(1, 1).measure(2, 2)
        init = np.array([[1, 0, 1]], dtype=np.uint8)
        shots = 130
        legacy = FrameSimulator(c, backend="legacy").run(shots, seed=0, initial_fx=init)
        compiled = FrameSimulator(c, backend="compiled").run(shots, seed=0, initial_fx=init)
        assert_results_equal(legacy, compiled)
        assert legacy.meas_flips[:, 0].sum() == shots

    def test_circuit_growth_recompiles(self):
        # Circuit is append-only; growing it between runs must invalidate
        # the cached instruction stream like the legacy interpreter would.
        c = Circuit(1, 1).measure(0, 0)
        sim = FrameSimulator(c)
        before = sim.run(10, seed=0, initial_fx=np.ones((10, 1), dtype=np.uint8))
        assert before.meas_flips[:, 0].all()
        c.x(0, condition=(0,))  # cancels the injected X after measuring it
        after = sim.run(10, seed=0, initial_fx=np.ones((10, 1), dtype=np.uint8))
        assert not after.fx.any()

    def test_noise_swap_recompiles(self):
        c = Circuit(1, 1).h(0).measure(0, 0)
        sim = FrameSimulator(c)
        assert sim.run(2000, seed=0).meas_flips.sum() == 0
        sim.noise = NoiseModel(eps_meas=1.0)
        assert sim.run(2000, seed=0).meas_flips.all()

    def test_protocol_broadcast_data_frames_match_legacy(self):
        # run_round must broadcast a (1, 7) data frame across all shots on
        # both engines, like the legacy in-place XOR did.
        data_fx = np.array([[1, 1, 0, 0, 0, 0, 0]], dtype=np.uint8)
        out = {}
        for engine in ("legacy", "compiled"):
            proto = SteaneECProtocol(NoiseModel(), engine=engine)
            out[engine] = proto.run_round(130, seed=0, data_fx=data_fx)
        np.testing.assert_array_equal(out["legacy"][0], out["compiled"][0])
        np.testing.assert_array_equal(out["legacy"][1], out["compiled"][1])
        # Eq. (12): the double bit-flip miscorrects identically in every shot.
        assert (out["compiled"][0] == out["compiled"][0][0]).all()
        assert out["compiled"][0].any()

    def test_protocol_noiseless_parity(self):
        # E02/E04 building block: a full Steane EC round with injected data
        # errors is deterministic without noise — engines must agree exactly.
        data_fx = np.zeros((8, 7), dtype=np.uint8)
        data_fx[:, 2] = 1
        out = {}
        for engine in ("legacy", "compiled"):
            proto = SteaneECProtocol(NoiseModel(), engine=engine)
            out[engine] = proto.run_round(8, seed=0, data_fx=data_fx)
        np.testing.assert_array_equal(out["legacy"][0], out["compiled"][0])
        np.testing.assert_array_equal(out["legacy"][1], out["compiled"][1])


class TestSeededDeterminism:
    def test_same_seed_same_result(self):
        rng = np.random.default_rng(8)
        c = random_clifford_circuit(rng, conditional=True)
        sim = FrameSimulator(c, circuit_level(0.01))
        a = sim.run(500, seed=123)
        b = sim.run(500, seed=123)
        assert_results_equal(a, b)

    def test_fresh_simulator_same_seed_same_result(self):
        rng = np.random.default_rng(8)
        c = random_clifford_circuit(rng, conditional=True)
        noise = circuit_level(0.01)
        a = FrameSimulator(c, noise).run(500, seed=123)
        b = FrameSimulator(c, noise).run(500, seed=123)
        assert_results_equal(a, b)

    def test_packed_buffer_reuse_is_clean(self):
        # Reusing buffers across runs must not leak state between rounds.
        c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
        prog = CompiledFrameProgram(c, circuit_level(0.05))
        fx, fz, flips = prog.new_buffers(200)
        prog.run_packed(200, 1, fx, fz, flips)
        first = (fx.copy(), fz.copy(), flips.copy())
        fx[:] = 0
        fz[:] = 0
        prog.run_packed(200, 1, fx, fz, flips)
        np.testing.assert_array_equal(first[0], fx)
        np.testing.assert_array_equal(first[1], fz)
        np.testing.assert_array_equal(first[2], flips)

    def test_memory_experiment_seeded_regression(self):
        proto = SteaneECProtocol(circuit_level(1e-3))
        r1 = memory_experiment(proto, SteaneCode(), rounds=3, shots=2000, seed=7)
        r2 = memory_experiment(proto, SteaneCode(), rounds=3, shots=2000, seed=7)
        assert r1.failures == r2.failures
        assert r1.failure_rate == r2.failure_rate


class TestRunPackedBuffers:
    """``run_packed`` refuses a buffer it would misuse, before it draws
    from the RNG or writes to any buffer."""

    SHOTS = 640

    @staticmethod
    def _bad(buf, kind):
        if kind == "uint8":
            return np.zeros(buf.shape, dtype=np.uint8)
        if kind == "uint64 rows":
            return np.zeros((buf.shape[0] + 1, buf.shape[1]), dtype=np.uint64)
        if kind == "uint64 words":
            return np.zeros((buf.shape[0], buf.shape[1] - 1), dtype=np.uint64)
        return np.zeros((buf.shape[0], 2 * buf.shape[1]), dtype=np.uint64)[:, ::2]

    @pytest.mark.parametrize("kind", ["uint8", "uint64 rows", "uint64 words", "strided"])
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["fx", "fz", "flips"])
    def test_bad_buffer_is_refused(self, which, kind):
        c = Circuit(3, 2).h(0).cnot(0, 1).cnot(1, 2).measure(0, 0).measure(2, 1)
        prog = CompiledFrameProgram(c, circuit_level(0.2))
        bufs = list(prog.new_buffers(self.SHOTS))
        bufs[which] = self._bad(bufs[which], kind)
        for buf in bufs:
            buf[...] = 1
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=["fx", "fz", "flips"][which]):
            prog.run_packed(self.SHOTS, rng, *bufs)
        assert rng.bit_generator.state == state
        assert all((buf == 1).all() for buf in bufs)

    def test_flips_needs_one_row_without_cbits(self):
        prog = CompiledFrameProgram(Circuit(2, 0).h(0).cnot(0, 1), circuit_level(0.2))
        fx, fz, flips = prog.new_buffers(self.SHOTS)
        assert flips.shape == (1, words_for(self.SHOTS))
        with pytest.raises(ValueError, match="flips"):
            prog.run_packed(self.SHOTS, 0, fx, fz, flips[:0])
        prog.run_packed(self.SHOTS, 0, fx, fz, flips)


def golden_circuit():
    """200 random ops on 8 qubits, with TICKs and conditional Paulis."""
    return random_clifford_circuit(
        np.random.default_rng(2024), num_qubits=8, num_cbits=6, depth=200, conditional=True
    )


def packed_digest(noise, shots, seed, initial=False, fault_injections=None):
    """SHA-256 of ``run_packed``'s (fx, fz, flips) on the golden circuit."""
    c = golden_circuit()
    prog = CompiledFrameProgram(c, noise)
    fx, fz, flips = prog.new_buffers(shots)
    if initial:
        rng = np.random.default_rng(5)
        fx ^= pack_shot_major(rng.integers(0, 2, (shots, c.num_qubits), dtype=np.uint8))
        fz ^= pack_shot_major(rng.integers(0, 2, (shots, c.num_qubits), dtype=np.uint8))
    prog.run_packed(shots, seed, fx, fz, flips, fault_injections)
    return hashlib.sha256(fx.tobytes() + fz.tobytes() + flips.tobytes()).hexdigest()


class TestGoldenDigests:
    """Seeded output pinned bit for bit: a change to noise sampling or its
    application that keeps the statistics but moves one bit fails here."""

    # Recorded with dense OR-scattered noise planes, before hit tables.
    @pytest.mark.parametrize(
        "eps, mode, shots, digest",
        [
            (1e-4, "both_damaged", 2011, "c9c3010c6b26f4e04f2cb0cf18c3bdf24cce0d1c1f3959d3de066f48e70376e2"),
            (1e-4, "both_damaged", 64, "eea0b8d8bc0ede6f5435cf3fcb1fc116bbe448186286f1ee8db5f7ef8d2c2bc2"),
            (1e-4, "depolarizing15", 2011, "ab4dfd01533751529f61cb609fa8de129f9ca93c61e8ea618fc8032d2b8b7159"),
            (1e-4, "depolarizing15", 64, "b92e4f683896e41be10c9c6d01f8a75f40b19a835c0d4f96c7a8f07b8df40423"),
            (1e-3, "both_damaged", 2011, "74c0664383b968ecb966786b6be3ea1bf3916a67225e51d87411c38fb4facec7"),
            (1e-3, "both_damaged", 64, "ab863907a1ef1cf4bde13b53528315411ee8c293738d26e3af4a4c6e01ad8096"),
            (1e-3, "depolarizing15", 2011, "70134d7e30ef47affadf37969e4519a0b2129c7553aa96ecdedcd72fce1d76e4"),
            (1e-3, "depolarizing15", 64, "7d335da106d944091434efcecd66ab4587684c11f4b95ca81bb79b936d676f2f"),
            (0.02, "both_damaged", 2011, "82e6ddb1e3ab32a30fc79a2245c075313cb131c9f76322924f7c5eea99f2fb75"),
            (0.02, "both_damaged", 64, "cbb6cf834a436953e29a0e7080ed2d04f0a78f0b9ee9ae73d558b86fe723c6a3"),
            (0.02, "depolarizing15", 2011, "be801de734c6a24e7e1f6761237737b0eb2735f9ffb6e785345296cd89fa31f1"),
            (0.02, "depolarizing15", 64, "7d2824d43d7d7afbb1437679377f602071b4eaff32294a8ddd80d6f0ece74520"),
            (0.1, "both_damaged", 2011, "0cdcab59d336f02595fee343108435c074cff37e7213ddca8bcebda5be525bc4"),
            (0.1, "both_damaged", 64, "c3b86f9296fccc21679128afb319f29eb0381b8124fec0e2206b7135f0a80aff"),
            (0.1, "depolarizing15", 2011, "636a737482b31ab3db07df8cc993222f0e13b79db3414fd42c735e54db26d736"),
            (0.1, "depolarizing15", 64, "b40fcfa893632df5c0504147bab58d4367fc9ce2562e1c37a75f0c951af1044d"),
        ],
    )
    def test_circuit_level_digest(self, eps, mode, shots, digest):
        c = golden_circuit()
        assert any(op.gate == "TICK" for op in c) and any(op.condition for op in c)
        noise = dataclasses.replace(circuit_level(eps), two_qubit_mode=mode)
        assert packed_digest(noise, shots, seed=99) == digest

    def test_mixed_dense_and_sparse_classes_digest(self):
        # Gate-1 and measurement noise above the sparse cutoff, gate-2 and
        # storage below it, preparation off; random initial frames.
        noise = NoiseModel(eps_gate1=0.1, eps_gate2=1e-3, eps_meas=0.3, eps_prep=0.0, eps_store=0.01)
        assert packed_digest(noise, 1000, seed=7, initial=True) == (
            "205303a5183a884ec7c9fdf577349d7e9868714e18e95bd35053db3ba5585781"
        )

    def test_noise_with_fault_injections_digest(self):
        n = len(golden_circuit())
        faults = [[(i % n, i % 8, "XYZ"[i % 3])] for i in range(1000)]
        assert packed_digest(circuit_level(1e-3), 1000, seed=8, fault_injections=faults) == (
            "d8bc89e24d962f01c1b7111de4910be895b8735b46a13e706aed6369c66bd533"
        )

    @pytest.mark.parametrize("seed, failures", [(1, 231), (2, 243), (3, 230)])
    def test_memory_experiment_failures(self, seed, failures):
        proto = SteaneECProtocol(circuit_level(1e-3))
        result = memory_experiment(proto, SteaneCode(), rounds=10, shots=3000, seed=seed)
        assert result.failures == failures


def wilson_compatible(k1, n1, k2, n2):
    """True when two binomial observations have overlapping 95% intervals."""
    lo1, hi1 = wilson_interval(k1, n1)
    lo2, hi2 = wilson_interval(k2, n2)
    return max(lo1, lo2) <= min(hi1, hi2)


class TestStatisticalParity:
    SHOTS = 40_000

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(eps_gate1=0.3),           # dense sampling path
            NoiseModel(eps_gate1=0.01),          # sparse sampling path
            NoiseModel(eps_meas=0.15),
            NoiseModel(eps_prep=0.12),
            NoiseModel(eps_store=0.08),
            NoiseModel(eps_gate2=0.2, two_qubit_mode="both_damaged"),
            NoiseModel(eps_gate2=0.2, two_qubit_mode="depolarizing15"),
            NoiseModel(eps_gate2=0.01, two_qubit_mode="depolarizing15"),
        ],
    )
    def test_channel_rates_match(self, noise):
        c = Circuit(2, 2)
        c.h(0).cnot(0, 1).tick().reset(1).measure(0, 0).measure(1, 1)
        res = {}
        for backend in ("legacy", "compiled"):
            res[backend] = FrameSimulator(c, noise, backend=backend).run(self.SHOTS, seed=11)
        for field in ("meas_flips", "fx", "fz"):
            a = getattr(res["legacy"], field)
            b = getattr(res["compiled"], field)
            for col in range(a.shape[1]):
                assert wilson_compatible(
                    int(a[:, col].sum()), self.SHOTS, int(b[:, col].sum()), self.SHOTS
                ), (field, col)

    def test_conditional_gate_noise_rates_match(self):
        # The conditional Pauli fires on ~half the shots and is noisy only
        # where it fires — the masked-noise rate must agree across engines.
        c = Circuit(1, 2)
        c.h(0).measure(0, 0)  # reference outcome 0; flips ~eps rate
        c = Circuit(1, 2).reset(0).measure(0, 0).x(0, condition=(0,)).measure(0, 1)
        noise = NoiseModel(eps_prep=0.5, eps_gate1=0.3)
        res = {}
        for backend in ("legacy", "compiled"):
            res[backend] = FrameSimulator(c, noise, backend=backend).run(self.SHOTS, seed=13)
        a, b = res["legacy"], res["compiled"]
        for col in range(2):
            assert wilson_compatible(
                int(a.meas_flips[:, col].sum()), self.SHOTS,
                int(b.meas_flips[:, col].sum()), self.SHOTS,
            )

    def test_steane_round_logical_rates_match(self):
        code = SteaneCode()
        eps = 2e-3
        counts = {}
        for engine in ("legacy", "compiled"):
            proto = SteaneECProtocol(circuit_level(eps), engine=engine)
            fx, fz = proto.run_round(self.SHOTS, seed=17)
            cfx, cfz = code.correct_frame(fx, fz)
            action = code.logical_action_of_frame(cfx, cfz)
            counts[engine] = int(action.any(axis=1).sum())
        assert wilson_compatible(counts["legacy"], self.SHOTS, counts["compiled"], self.SHOTS)

    def test_packed_and_unpacked_protocol_entries_match(self):
        proto = SteaneECProtocol(circuit_level(1e-3))
        shots = 5000
        fx_u, fz_u = proto.run_round(shots, seed=19)
        dfx = np.zeros((7, words_for(shots)), dtype=np.uint64)
        dfz = np.zeros_like(dfx)
        proto.run_round_packed(shots, 19, dfx, dfz)
        np.testing.assert_array_equal(fx_u, unpack_shot_major(dfx, shots))
        np.testing.assert_array_equal(fz_u, unpack_shot_major(dfz, shots))
