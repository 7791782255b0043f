import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from dfsqft import (
    ENDPOINTS_ONLY,
    PER_ELEMENTARY_GATE,
    PER_LOGICAL_BLOCK,
    PLAIN,
    SCD as SCD_CODE,
    WCD as WCD_CODE,
    Circuit,
    CollectiveModel,
    NoiseEvent,
    NoisePolicy,
    RunReport,
    StateVector,
    SubspaceBasis,
    apply_circuit,
    apply_noise,
    collective_operator,
    fidelity,
    h,
    logical_block_boundaries,
    run_trials,
    synth_qft,
    synth_qft_scd,
    synth_qft_wcd,
)
from dfsqft import noise
from dfsqft.statevector import _propagate

from conftest import random_state

WCD = CollectiveModel.WCD
SCD = CollectiveModel.SCD


def reference_trials(circuit, state, ideal, policy, model, block_boundaries=None, subspace=None,
                     *, fold=False):
    """run_trials one trial at a time: the run's one default_rng(seed) draws
    each event's angles, in trial order and then position order, and each
    trial runs its op list, every event's (2, 2) rotation before the gates up
    to the next one, through _propagate as a lone state (a one-trial batch).
    With fold=True each event and gate runs on its own instead, through the
    public apply_noise and apply_circuit, so each layer acts at once: equal
    to within rounding."""
    n_gates = len(circuit)
    if policy.granularity == PER_ELEMENTARY_GATE:
        positions = set(range(n_gates + 1))
    elif policy.granularity == ENDPOINTS_ONLY:
        positions = {0, n_gates}
    else:
        positions = {0, *block_boundaries}
    fidelities, leakages = [], []
    rng = np.random.default_rng(policy.seed)
    for _ in range(policy.trials):
        out, ops = state, []
        for pos in range(n_gates + 1):
            if pos in positions:
                k = len(model.axes)
                angles = (rng.uniform(0.0, 2.0 * math.pi, k) if policy.distribution == "uniform"
                          else rng.normal(0.0, policy.sigma, k))
                if fold:
                    out = apply_noise(out, NoiseEvent(tuple(angles)), model)
                else:
                    ops.append(noise._rotations(angles, model))
            if pos < n_gates:
                if fold:
                    out = apply_circuit(out, Circuit(out.n_qubits, (circuit.gates[pos],)))
                else:
                    ops.append(circuit.gates[pos])
        if not fold:
            out = StateVector(_propagate(ops, state.amplitudes, state.n_qubits))
        fidelities.append(fidelity(ideal, out))
        if subspace is not None:
            b = subspace.matrix
            amps = out.amplitudes
            leakages.append(np.linalg.norm(amps - b @ (b.conj().T @ amps)))
    return np.array(fidelities), None if subspace is None else np.array(leakages)


def _qft_setup(kind, n):
    """(circuit, input, ideal output, model, block boundaries, logical subspace)."""
    if kind == "wcd":
        circuit, state = synth_qft_wcd(n), WCD_CODE.state("0" * n)
        model, bounds, basis = WCD, logical_block_boundaries(n, WCD_CODE), WCD_CODE.basis(n)
    elif kind == "scd":
        circuit, state = synth_qft_scd(n), SCD_CODE.state("0" * n)
        model, bounds, basis = SCD, logical_block_boundaries(n, SCD_CODE), SCD_CODE.basis(n)
    else:
        model = WCD if kind == "plain-wcd" else SCD
        circuit, state = synth_qft(n), random_state(n, np.random.default_rng(n))
        bounds, basis = logical_block_boundaries(n, PLAIN), None
    return circuit, state, apply_circuit(state, circuit), model, bounds, basis


class TestApplyNoise:
    def test_wcd_fixes_balanced_basis_state(self):
        state = PLAIN.state("01")
        out = apply_noise(state, NoiseEvent((1.234,)), WCD)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_wcd_phases_all_zero_state(self):
        phi = 0.77
        out = apply_noise(PLAIN.state("00"), NoiseEvent((phi,)), WCD)
        expected = np.exp(-2j * phi) * PLAIN.state("00").amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_scd_fixes_logical_state(self):
        state = SCD_CODE.state("0")
        out = apply_noise(state, NoiseEvent((0.3, 1.1, 2.9)), SCD)
        assert 1.0 - fidelity(out, state) < 1e-10

    @pytest.mark.parametrize("model,n", [(WCD, 1), (WCD, 3), (SCD, 2), (SCD, 4)])
    def test_matches_dense_matrix_exponential(self, model, n):
        # oracle: exp(-i sum_a phi_a S_a) computed by scipy on the full register
        rng = np.random.default_rng(23)
        for _ in range(5):
            phis = rng.uniform(0, 2 * math.pi, len(model.axes))
            exponent = sum(
                phi * collective_operator(n, axis) for phi, axis in zip(phis, model.axes)
            )
            dense = scipy.linalg.expm(-1j * exponent)
            state = random_state(n, rng)
            out = apply_noise(state, NoiseEvent(tuple(phis)), model)
            np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)

    def test_axis_count_mismatch(self):
        with pytest.raises(ValueError, match="angle"):
            apply_noise(StateVector.basis(1, 0), NoiseEvent((0.1, 0.2, 0.3)), WCD)

    def test_twelve_qubit_register_is_accepted(self):
        # StateVector's cap is the only one: wcd 6 and scd 3 are 12-qubit registers
        state = WCD_CODE.state("101101")
        out = apply_noise(state, NoiseEvent((0.7,)), WCD)
        assert 1.0 - fidelity(out, state) < 1e-12
        circuit = Circuit(12, (h(1),))
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=2, seed=0)
        fidelities, leakages = run_trials(circuit, state, ideal, policy, WCD)
        assert fidelities.shape == (2,) and leakages is None

    def test_zero_event_is_identity(self):
        state = random_state(2, np.random.default_rng(1))
        out = apply_noise(state, NoiseEvent((0.0, 0.0, 0.0)), SCD)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_overflowing_angle_length_raises_without_warning(self):
        # each angle is finite, but |phi|^2 overflows float64
        with pytest.raises(OverflowError, match="not finite"):
            apply_noise(StateVector.basis(1, 0), NoiseEvent((1e200, 0.0, 0.0)), SCD)


class TestNoisePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoisePolicy(granularity="sometimes")
        with pytest.raises(ValueError):
            NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=0)
        with pytest.raises(ValueError):
            NoisePolicy(granularity=PER_LOGICAL_BLOCK, distribution="poisson")
        with pytest.raises(ValueError):
            NoisePolicy(granularity=PER_LOGICAL_BLOCK, distribution="gaussian", sigma=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5), ("trials", True), ("trials", "3"),
        ("seed", 1.5), ("seed", True), ("seed", -1),
    ])
    def test_non_integer_or_negative_count_rejected(self, field, value):
        # refused here, before numpy fails inside run_trials; seeds of 2**64
        # and above stay valid
        with pytest.raises(ValueError, match=rf"^{field} must be an? .*integer.*, got {value!r}$"):
            NoisePolicy(granularity=ENDPOINTS_ONLY, **{field: value})

    @pytest.mark.parametrize("sigma", ["1", 1j, True, -1.0, math.nan, math.inf])
    def test_non_real_or_bool_sigma_rejected(self, sigma):
        # a string or complex sigma used to fail on `sigma < 0` with a TypeError,
        # and True would reach the report as "sigma": true
        with pytest.raises(ValueError, match=rf"^sigma must be a finite nonnegative real, "
                                             rf"got {sigma!r}$"):
            NoisePolicy(granularity=ENDPOINTS_ONLY, distribution="gaussian", sigma=sigma)

    @pytest.mark.parametrize("sigma", [10**400, -(10**400)], ids=["huge", "huge-negative"])
    def test_int_sigma_beyond_float_range_rejected(self, sigma):
        # 10**400 compares below math.inf, and a gaussian run then failed
        # inside numpy with "OverflowError: int too large to convert to float"
        with pytest.raises(ValueError, match=r"^sigma must be a finite nonnegative real, got -?1"
                                             r"0{400}$"):
            NoisePolicy(granularity=ENDPOINTS_ONLY, distribution="gaussian", sigma=sigma)
        assert NoisePolicy(granularity=ENDPOINTS_ONLY, sigma=10**300).sigma == 10**300


class TestNoisyRun:
    def _wcd_setup(self, n=2):
        circuit = synth_qft_wcd(n)
        state = WCD_CODE.state("0" * n)
        ideal = apply_circuit(state, circuit)
        return circuit, state, ideal

    def test_zero_noise_gives_unit_fidelity(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(
            granularity=PER_ELEMENTARY_GATE, distribution="gaussian", sigma=0.0, trials=1, seed=3
        )
        report = RunReport.from_trials(*run_trials(circuit, state, ideal, policy, WCD), policy)
        assert 1.0 - report.mean_fidelity < 1e-10

    def test_block_noise_protects_encoded_wcd(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=200, seed=5)
        report = RunReport.from_trials(*run_trials(
            circuit, state, ideal, policy, WCD, logical_block_boundaries(2, WCD_CODE),
            subspace=WCD_CODE.basis(2),
        ), policy)
        assert report.mean_fidelity >= 1.0 - 1e-10
        assert report.min_fidelity >= 1.0 - 1e-10
        assert report.mean_leakage < 1e-10

    def test_block_noise_protects_encoded_scd(self):
        circuit = synth_qft_scd(2)
        state = SCD_CODE.state("00")
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=100, seed=5)
        report = RunReport.from_trials(*run_trials(
            circuit, state, ideal, policy, SCD, logical_block_boundaries(2, SCD_CODE),
            subspace=SCD_CODE.basis(2),
        ), policy)
        assert report.mean_fidelity >= 1.0 - 1e-10
        assert report.mean_leakage < 1e-10

    def test_endpoint_noise_protects_both_encodings(self):
        for circuit, state, model in (
            (synth_qft_wcd(2), WCD_CODE.state("00"), WCD),
            (synth_qft_scd(1), SCD_CODE.state("0"), SCD),
        ):
            ideal = apply_circuit(state, circuit)
            policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=100, seed=11)
            report = RunReport.from_trials(
                *run_trials(circuit, state, ideal, policy, model), policy
            )
            assert report.mean_fidelity >= 1.0 - 1e-10

    def test_plain_qft_degrades(self):
        circuit = synth_qft(2)
        state = StateVector.basis(2, 0)
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=200, seed=2)
        report = RunReport.from_trials(*run_trials(circuit, state, ideal, policy, WCD), policy)
        assert report.mean_fidelity < 0.99

    def test_plain_single_qubit_matches_quadrature(self):
        # noise after the single H dephases: fidelity = cos^2(phi); the
        # ensemble mean must approach the quadrature value of 1/2
        circuit = synth_qft(1)
        state = StateVector.basis(1, 0)
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=2000, seed=13)
        report = RunReport.from_trials(*run_trials(circuit, state, ideal, policy, WCD), policy)
        exact, _ = scipy.integrate.quad(lambda t: math.cos(t) ** 2 / (2 * math.pi), 0, 2 * math.pi)
        assert abs(exact - 0.5) < 1e-12
        assert abs(report.mean_fidelity - exact) < 0.04  # ~5 sigma at 2000 trials

    def test_elementary_noise_on_encoded_wcd_reported_honestly(self):
        # intra-block dephasing scrambles phases but, being diagonal, never
        # moves basis-state support: fidelity collapses while leakage is
        # genuinely zero, and the report must show exactly that
        circuit, state, ideal = self._wcd_setup(2)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=300, seed=4)
        report = RunReport.from_trials(*run_trials(
            circuit, state, ideal, policy, WCD, subspace=WCD_CODE.basis(2)
        ), policy)
        assert report.mean_fidelity < 0.9
        assert report.mean_leakage is not None and report.mean_leakage < 1e-10
        assert 0.0 <= report.min_fidelity <= report.mean_fidelity <= 1.0

    def test_elementary_noise_on_encoded_scd_leaks(self):
        # full collective rotations mid-block push intermediate states out of
        # the protected sector for good: both losses must be reported
        circuit = synth_qft_scd(1)
        state = SCD_CODE.state("0")
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=200, seed=4)
        report = RunReport.from_trials(
            *run_trials(circuit, state, ideal, policy, SCD, subspace=SCD_CODE.basis(1)), policy
        )
        assert report.mean_fidelity < 0.9
        assert report.mean_leakage > 0.1
        assert 0.0 <= report.min_fidelity <= report.mean_fidelity <= 1.0

    def test_seed_reproducibility(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=50, seed=99)
        kwargs = dict(block_boundaries=logical_block_boundaries(2, WCD_CODE))
        first, second = (
            RunReport.from_trials(*run_trials(circuit, state, ideal, policy, WCD, **kwargs), policy)
            for _ in range(2)
        )
        assert first == second

    def test_trial_streams_are_prefix_stable(self):
        # one stream read row by row: a shorter run is a prefix of a longer one
        circuit, state, ideal = self._wcd_setup()
        short = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=10, seed=21)
        long = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=40, seed=21)
        fid_short, _ = run_trials(circuit, state, ideal, short, WCD)
        fid_long, _ = run_trials(circuit, state, ideal, long, WCD)
        np.testing.assert_array_equal(fid_short, fid_long[:10])

    def test_prefix_stable_across_chunk_edges(self):
        self._check_prefix_across_chunk_edges(2)

    def test_prefix_stable_across_chunk_edges_twelve_qubits(self):
        # wcd 6: a 12-qubit register, 4 trials a chunk
        self._check_prefix_across_chunk_edges(6)

    def _check_prefix_across_chunk_edges(self, n):
        circuit, state, ideal = self._wcd_setup(n)
        step = noise.BATCH_AMPLITUDES >> circuit.n_qubits
        runs = {}
        for trials in (step + 1, 2 * step + 1):
            policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=trials, seed=21)
            runs[trials], _ = run_trials(circuit, state, ideal, policy, WCD)
        # trial `step` runs alone in the shorter run, inside a full chunk in the longer
        np.testing.assert_array_equal(runs[step + 1], runs[2 * step + 1][: step + 1])

    def test_different_seeds_differ(self):
        circuit = synth_qft(2)
        state = StateVector.basis(2, 0)
        ideal = apply_circuit(state, circuit)
        policies = [NoisePolicy(granularity=ENDPOINTS_ONLY, trials=20, seed=s) for s in (1, 2)]
        reports = [
            RunReport.from_trials(*run_trials(circuit, state, ideal, policy, WCD), policy)
            for policy in policies
        ]
        assert reports[0].mean_fidelity != reports[1].mean_fidelity

    def test_boundary_validation(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=1, seed=0)
        with pytest.raises(ValueError, match="boundaries"):
            run_trials(circuit, state, ideal, policy, WCD, block_boundaries=None)
        with pytest.raises(ValueError, match="partition"):
            run_trials(circuit, state, ideal, policy, WCD, block_boundaries=[3, 2])
        with pytest.raises(ValueError, match="partition"):
            run_trials(circuit, state, ideal, policy, WCD, block_boundaries=[3, 8])

    def test_subspace_on_another_register_is_refused_up_front(self):
        circuit, state, ideal = self._wcd_setup(2)
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=1, seed=0)
        with pytest.raises(ValueError, match="4-qubit circuit does not match a 2-qubit register"):
            run_trials(circuit, state, ideal, policy, WCD, subspace=WCD_CODE.basis(1))

    def test_plain_block_boundaries_are_per_gate(self):
        bounds = logical_block_boundaries(2, PLAIN)
        circuit = synth_qft(2)
        assert bounds == [1, 2, 3]
        state = StateVector.basis(2, 0)
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=5, seed=1)
        report = RunReport.from_trials(
            *run_trials(circuit, state, ideal, policy, WCD, bounds), policy
        )
        assert report.trials == 5

    def test_report_dict_roundtrips_to_json(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=3, seed=0)
        report = RunReport.from_trials(*run_trials(circuit, state, ideal, policy, WCD), policy)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert payload["trials"] == 3
        assert payload["mean_leakage"] is None
        assert payload["policy"]["granularity"] == ENDPOINTS_ONLY


class TestBatchedTrials:
    """run_trials against one-trial runs of the same op lists, bit for bit,
    and against the public event-by-event fold to within rounding."""

    @pytest.mark.parametrize("granularity", [PER_ELEMENTARY_GATE, PER_LOGICAL_BLOCK, ENDPOINTS_ONLY])
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("kind,n", [("wcd", 2), ("scd", 1), ("plain-wcd", 3), ("plain-scd", 2)])
    def test_matches_reference_bit_for_bit(self, granularity, distribution, kind, n):
        circuit, state, ideal, model, bounds, basis = _qft_setup(kind, n)
        # a seed above 2**64, and one of two uint32 words
        for seed in (2**64 + 31, 2**40 + 7):
            policy = NoisePolicy(granularity=granularity, distribution=distribution, sigma=0.4,
                                 trials=9, seed=seed)
            got = run_trials(circuit, state, ideal, policy, model, bounds, basis)
            want = reference_trials(circuit, state, ideal, policy, model, bounds, basis)
            folded = reference_trials(circuit, state, ideal, policy, model, bounds, basis,
                                      fold=True)
            np.testing.assert_array_equal(got[0], want[0])
            assert np.max(np.abs(got[0] - folded[0])) <= 1e-13
            if basis is None:
                assert got[1] is None
            else:
                np.testing.assert_array_equal(got[1], want[1])
                assert np.max(np.abs(got[1] - folded[1])) <= 1e-13

    @pytest.mark.parametrize("model", [WCD, SCD])
    @pytest.mark.parametrize("granularity", [PER_ELEMENTARY_GATE, ENDPOINTS_ONLY])
    def test_single_qubit_register_within_rounding(self, model, granularity):
        # a lone one-qubit state runs as a 2 x 1 batch, not as 0-d values,
        # so it rounds exactly as a column of the trial batch
        circuit, state, ideal, _, bounds, _ = _qft_setup("plain-wcd", 1)
        policy = NoisePolicy(granularity=granularity, trials=50, seed=8)
        got, _ = run_trials(circuit, state, ideal, policy, model, bounds)
        want, _ = reference_trials(circuit, state, ideal, policy, model, bounds)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "chunks,extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["step-1", "step", "step+1", "2*step+1"],
    )
    def test_chunk_edges_change_nothing(self, monkeypatch, chunks, extra):
        circuit, state, ideal, model, bounds, basis = _qft_setup("scd", 1)
        monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 2**6)
        trials = chunks * (noise.BATCH_AMPLITUDES >> circuit.n_qubits) + extra
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=trials, seed=12)
        got = run_trials(circuit, state, ideal, policy, model, bounds, basis)
        want = reference_trials(circuit, state, ideal, policy, model, bounds, basis)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_code_space_is_conjugated_once_per_run(self, monkeypatch):
        # every chunk's leakages read one B^H, the F-ordered view made up front
        circuit, state, ideal, model, bounds, basis = _qft_setup("scd", 1)
        monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 2**6)
        leakages, adjoints = noise._leakages, []

        def spy(matrix, adjoint, rows):
            adjoints.append(adjoint)
            return leakages(matrix, adjoint, rows)

        monkeypatch.setattr(noise, "_leakages", spy)
        trials = 3 * (noise.BATCH_AMPLITUDES >> circuit.n_qubits)
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=trials, seed=3)
        run_trials(circuit, state, ideal, policy, model, bounds, basis)
        assert len(adjoints) == 3
        assert all(adjoint is adjoints[0] for adjoint in adjoints)
        assert adjoints[0].flags.f_contiguous
        np.testing.assert_array_equal(adjoints[0], basis.matrix.conj().T)

    def test_memory_does_not_grow_with_trials(self):
        circuit, state, ideal, model, _, basis = _qft_setup("scd", 2)
        step = noise.BATCH_AMPLITUDES >> circuit.n_qubits

        def peak(trials):
            policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=trials, seed=1)
            tracemalloc.start()
            try:
                run_trials(circuit, state, ideal, policy, model, subspace=basis)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(step)  # warm caches outside the measurement
        growth = peak(40 * step) - peak(4 * step)
        outputs = 16 * 36 * step  # one float64 fidelity and one leakage per added trial
        assert growth <= outputs + 16 * 1024


class TestTrialStreams:
    """Each run reads one stream, default_rng(seed), row by row: the angles do
    not depend on the chunking, and a shorter run is a prefix of a longer one."""

    @staticmethod
    def _run(distribution, trials, seed=21):
        circuit, state, ideal, model, bounds, basis = _qft_setup("wcd", 2)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, distribution=distribution,
                             sigma=0.3, trials=trials, seed=seed)
        return run_trials(circuit, state, ideal, policy, model, bounds, basis)

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("seed", [7, 2**40 + 7, 2**64 + 31])
    def test_streams_draw_as_default_rng(self, monkeypatch, seed, distribution):
        # every chunk's angles are the next rows of one (trials, events, axes) draw
        circuit, state, ideal, model, bounds, _ = _qft_setup("scd", 1)
        monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 2**6)
        rotations, drawn = noise._rotations, []

        def spy(phis, model):
            drawn.append(phis.swapaxes(0, 1))
            return rotations(phis, model)

        monkeypatch.setattr(noise, "_rotations", spy)
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, distribution=distribution,
                             sigma=0.4, trials=13, seed=seed)
        run_trials(circuit, state, ideal, policy, model, bounds)
        assert [len(rows) for rows in drawn] == [4, 4, 4, 1]
        shape = (13, len(bounds) + 1, 3)
        rng = np.random.default_rng(seed)
        want = (rng.uniform(0.0, 2.0 * math.pi, shape) if distribution == "uniform"
                else rng.normal(0.0, 0.4, shape))
        np.testing.assert_array_equal(np.concatenate(drawn), want)

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_output_does_not_depend_on_chunk_size(self, monkeypatch, distribution):
        # wcd 2: 4 qubits, so 2^6 holds 4 trials a chunk and 2^16 all 37 in one
        runs = []
        for log_size in (6, 8, 10, 14, 16):
            monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 2**log_size)
            runs.append(self._run(distribution, 37))
        for fidelities, leakages in runs[1:]:
            np.testing.assert_array_equal(fidelities.view(np.uint64), runs[0][0].view(np.uint64))
            np.testing.assert_array_equal(leakages.view(np.uint64), runs[0][1].view(np.uint64))

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("log_size", [6, 14])
    def test_shorter_run_is_a_prefix(self, monkeypatch, distribution, log_size):
        monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 2**log_size)
        short, long = self._run(distribution, 13), self._run(distribution, 37)
        np.testing.assert_array_equal(short[0].view(np.uint64), long[0][:13].view(np.uint64))
        np.testing.assert_array_equal(short[1].view(np.uint64), long[1][:13].view(np.uint64))

    @pytest.mark.parametrize("model", [WCD, SCD])
    @pytest.mark.parametrize("granularity", [PER_ELEMENTARY_GATE, ENDPOINTS_ONLY])
    def test_one_trial_chunk_is_a_prefix_on_one_qubit(self, monkeypatch, model, granularity):
        # 4 trials a chunk: a 5-trial run ends in a one-trial chunk, whose
        # one-element products round as the columns of a wider chunk do
        circuit, state, ideal, _, bounds, _ = _qft_setup("plain-wcd", 1)
        monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 2**3)
        for seed in range(40):
            short, long = (run_trials(circuit, state, ideal,
                                      NoisePolicy(granularity=granularity, trials=trials, seed=seed),
                                      model, bounds)[0] for trials in (5, 8))
            np.testing.assert_array_equal(short.view(np.uint64), long[:5].view(np.uint64),
                                          err_msg=f"seed {seed}")

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_seeds_above_two_to_the_64_do_not_alias(self, distribution):
        # default_rng takes the whole seed; nothing masks it to 64 bits
        low, high = self._run(distribution, 8, seed=31), self._run(distribution, 8, seed=2**64 + 31)
        assert not np.any(low[0] == high[0])

    def test_import_does_not_load_numpy_random(self):
        # run_trials loads it on first use
        code = "import sys, dfsqft; print('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "False\n"


class TestExactExpectations:
    """The plain QFT on |0...0> under WCD endpoint noise: the first event only
    phases |0...0>, the QFT makes |+...+>, and the last event's angle phi
    leaves F = cos(phi)^(2n). So E[F] = C(2n, n) / 4^n for uniform angles and
    4^-n sum_k C(2n, k) exp(-2 (n - k)^2 sigma^2) for gaussian ones."""

    SIGMA = 0.3

    @classmethod
    def _exact(cls, n, distribution):
        if distribution == "uniform":
            return math.comb(2 * n, n) / 4**n
        return sum(math.comb(2 * n, k) * math.exp(-2 * (n - k) ** 2 * cls.SIGMA**2)
                   for k in range(2 * n + 1)) / 4**n

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mean_fidelity_within_four_standard_errors(self, n, distribution, seed):
        circuit, state = synth_qft(n), StateVector.basis(n, 0)
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, distribution=distribution,
                             sigma=self.SIGMA, trials=4000, seed=seed)
        fidelities, _ = run_trials(circuit, state, apply_circuit(state, circuit), policy, WCD)
        error = np.std(fidelities, ddof=1) / math.sqrt(policy.trials)
        assert abs(np.mean(fidelities) - self._exact(n, distribution)) <= 4 * error


class TestChunkReductions:
    """run_trials reduces a chunk's rows at once, with the bits of one row at
    a time: min(1, |<ideal|row>|^2) and |row - B B^H row|."""

    @staticmethod
    def _check(ideal: np.ndarray, basis: np.ndarray, rows: np.ndarray) -> None:
        fidelities = [min(1.0, abs(np.vdot(ideal, row)) ** 2) for row in rows]
        leakages = [np.linalg.norm(row - basis @ (basis.conj().T @ row)) for row in rows]
        np.testing.assert_array_equal(noise._fidelities(ideal.conj(), rows).view(np.uint64),
                                      np.array(fidelities).view(np.uint64))
        np.testing.assert_array_equal(noise._leakages(basis, basis.conj().T, rows).view(np.uint64),
                                      np.array(leakages).view(np.uint64))

    @pytest.mark.parametrize("k", [1, 2, 7, 40, 64, 200])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_rows(self, n, k):
        rng = np.random.default_rng([n, k])
        columns = max(1, 2**n // 3)
        isometry = np.linalg.qr(rng.normal(size=(2**n, columns))
                                + 1j * rng.normal(size=(2**n, columns)))[0]
        basis = SubspaceBasis(n, isometry).matrix
        rows = rng.normal(size=(k, 2**n)) + 1j * rng.normal(size=(k, 2**n))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        self._check(random_state(n, rng).amplitudes, basis, rows)

    @pytest.mark.parametrize("overlap", [
        0.19573885587375342 - 0.6787233316998788j,  # np.abs rounds its modulus down
        0.8060503826503107,  # squared as x * x, it rounds up
    ])
    def test_rounding_witnesses(self, overlap):
        rows = np.array([[overlap, math.sqrt(1.0 - abs(overlap) ** 2)]], dtype=complex)
        self._check(np.array([1.0 + 0j, 0.0]), np.array([[1.0 + 0j], [0.0]]), rows)
