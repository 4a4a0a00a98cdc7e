"""Tests for fault-path counting and Monte-Carlo threshold machinery."""

import numpy as np
import pytest

from repro.codes import FiveQubitCode, QuantumHammingCode, ShorNineCode, SteaneCode
from repro.codes.css import CSSCode
from repro.ft import SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import (
    code_capacity_memory,
    count_fault_paths,
    fit_level1_coefficient,
    memory_experiment,
    pseudo_threshold,
    threshold_from_counting,
)
from repro.pauliframe import pack_shot_major
from repro.threshold.counting import FullSteaneRound
from repro.threshold.montecarlo import _finalize, _finalize_packed


@pytest.fixture(scope="module")
def report():
    return count_fault_paths(FullSteaneRound())


class TestFaultPathCounting:
    def test_round_is_fault_tolerant(self, report):
        """THE fault-tolerance certificate: no single fault anywhere in
        the full Fig. 9 round may cause a logical error."""
        assert report.logical_failures == 0

    def test_fault_cases_enumerated(self, report):
        assert report.total_fault_cases > 1500
        assert (
            report.benign + report.residual_one + report.residual_multi
            == report.total_fault_cases
        )

    def test_most_faults_benign(self, report):
        assert report.benign > report.total_fault_cases / 2

    def test_threshold_estimate_in_paper_band(self, report):
        """Our mechanical version of the §5 counting gives ε₀ between
        1e-4 and 3e-3 — bracketing the paper's crude 6e-4."""
        eps0 = threshold_from_counting(report)
        assert 1e-4 < eps0 < 3e-3

    def test_first_policy_is_not_fault_tolerant(self):
        """Acting on a single unrepeated syndrome lets one fault cause a
        miscorrection — §3.4's motivation.  The report shows strictly more
        multi-error residuals than the paper policy."""
        paper = count_fault_paths(FullSteaneRound(), policy="paper")
        first = count_fault_paths(FullSteaneRound(), policy="first")
        assert first.residual_multi >= paper.residual_multi


class TestCodeCapacityMemory:
    def test_quadratic_suppression(self):
        code = SteaneCode()
        r1 = code_capacity_memory(code, 1e-3, rounds=1, shots=200_000, seed=0)
        r2 = code_capacity_memory(code, 4e-3, rounds=1, shots=200_000, seed=1)
        ratio = r2.failure_rate / max(r1.failure_rate, 1e-9)
        assert 8 < ratio < 32  # ~16 expected for a quadratic law

    def test_encoded_beats_bare_below_breakeven(self):
        code = SteaneCode()
        eps = 1e-3
        enc = code_capacity_memory(code, eps, rounds=1, shots=200_000, seed=2)
        assert enc.failure_rate < eps

    def test_multi_round_accumulates(self):
        code = SteaneCode()
        r1 = code_capacity_memory(code, 5e-3, rounds=1, shots=50_000, seed=3)
        r5 = code_capacity_memory(code, 5e-3, rounds=5, shots=50_000, seed=3)
        assert r5.failure_rate > r1.failure_rate
        # Per-round rates should roughly agree.
        assert r5.per_round_rate == pytest.approx(r1.per_round_rate, rel=0.5)


class TestCircuitLevelMC:
    def test_memory_experiment_runs(self):
        proto = SteaneECProtocol(circuit_level(1e-3))
        result = memory_experiment(proto, SteaneCode(), rounds=2, shots=2000, seed=0)
        assert 0 <= result.failure_rate <= 1
        assert result.rounds == 2

    def test_level1_fit_quadratic(self):
        # 120k shots keeps the lowest grid point (expected failures ~100)
        # out of the small-count regime; the packed engine makes it cheap.
        grid = np.array([4e-4, 8e-4, 1.6e-3])
        A, k = fit_level1_coefficient(
            lambda eps: SteaneECProtocol(circuit_level(eps)),
            SteaneCode(),
            grid,
            shots=120_000,
            seed=1,
        )
        assert 1.6 < k < 2.4  # quadratic law
        assert A > 21  # circuit-level coefficient far exceeds the bare 21

    def test_pseudo_threshold_found(self):
        grid = np.array([5e-5, 2e-4, 8e-4, 3e-3])
        crossing, curve = pseudo_threshold(
            lambda eps: SteaneECProtocol(circuit_level(eps)),
            SteaneCode(),
            grid,
            shots=30_000,
            seed=2,
        )
        assert len(curve) == 4
        assert 5e-5 < crossing < 3e-3


def _random_frames(code, shots, density, seed):
    rng = np.random.default_rng(seed)
    fx = (rng.random((shots, code.n)) < density).astype(np.uint8)
    fz = (rng.random((shots, code.n)) < density).astype(np.uint8)
    return fx, fz


class TestPackedFinalize:
    """The packed CSS failure count equals the unpacked decode's."""

    @pytest.mark.parametrize("density", [0.03, 0.4])
    @pytest.mark.parametrize("shots", [1, 63, 64, 1000])
    @pytest.mark.parametrize(
        "code", [SteaneCode(), ShorNineCode(), QuantumHammingCode(4)], ids=lambda c: c.name
    )
    def test_packed_count_matches_unpacked_decode(self, code, shots, density, monkeypatch):
        fx, fz = _random_frames(code, shots, density, seed=shots)
        cfx, cfz = code.correct_frame(fx, fz)
        expected = int(code.logical_action_of_frame(cfx, cfz).any(axis=1).sum())
        dfx, dfz = pack_shot_major(fx), pack_shot_major(fz)
        # Lanes past the last shot carry junk in real runs; it must not count.
        if shots % 64:
            junk = ~np.uint64((1 << (shots % 64)) - 1)
            dfx[:, -1] |= junk
            dfz[:, -1] |= junk
        # The packed path must not fall back to the unpacked decoder.
        monkeypatch.setattr(CSSCode, "correct_frame", None)
        result = _finalize_packed(code, dfx, dfz, shots, rounds=2)
        assert result.failures == expected
        assert result.shots == shots

    def test_packed_and_unpacked_results_agree(self):
        code = SteaneCode()
        fx, fz = _random_frames(code, 777, 0.1, seed=5)
        packed = _finalize_packed(code, pack_shot_major(fx), pack_shot_major(fz), 777, rounds=3)
        assert packed == _finalize(code, fx, fz, rounds=3)

    def test_non_css_code_takes_the_unpack_path(self, monkeypatch):
        code = FiveQubitCode()
        fx, fz = _random_frames(code, 1000, 0.1, seed=41)
        calls = []
        decode = type(code).correct_frame

        def spy(self, *args):
            calls.append(1)
            return decode(self, *args)

        monkeypatch.setattr(type(code), "correct_frame", spy)
        result = _finalize_packed(code, pack_shot_major(fx), pack_shot_major(fz), 1000, rounds=1)
        assert calls
        assert result.failures == 222  # the unpacked decode's count, pinned
