import math
import os
import subprocess
import sys
import textwrap
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
    StateVector,
    SubspaceBasis,
    apply_circuit,
    apply_gate,
    apply_noise,
    collective_operator,
    fidelity,
    h,
    logical_block_boundaries,
    noisy_run,
    sample_event,
    synth_qft,
    synth_qft_scd,
    synth_qft_wcd,
)
from dfsqft import noise
from dfsqft.noise import run_trials

from conftest import random_state

WCD = CollectiveModel.WCD
SCD = CollectiveModel.SCD


def reference_trials(circuit, state, ideal, policy, model, block_boundaries=None, subspace=None):
    """run_trials one trial at a time, from public functions only."""
    n_gates = len(circuit)
    if policy.granularity == PER_ELEMENTARY_GATE:
        positions = set(range(n_gates + 1))
    elif policy.granularity == ENDPOINTS_ONLY:
        positions = {0, n_gates}
    else:
        positions = {0, *block_boundaries}
    fidelities, leakages = [], []
    for trial in range(policy.trials):
        rng = np.random.default_rng([policy.seed % 2**64, trial])
        out = state
        for pos in range(n_gates + 1):
            if pos in positions:
                out = apply_noise(out, sample_event(rng, model, policy), model)
            if pos < n_gates:
                out = apply_gate(out, circuit.gates[pos])
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
        state = StateVector.from_bits("01")
        out = apply_noise(state, NoiseEvent((1.234,)), WCD)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_wcd_phases_all_zero_state(self):
        phi = 0.77
        out = apply_noise(StateVector.from_bits("00"), NoiseEvent((phi,)), WCD)
        expected = np.exp(-2j * phi) * StateVector.from_bits("00").amplitudes
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
        # refused here, before numpy fails inside run_trials or a negative
        # seed aliases 2**64 - 1; seeds of 2**64 and above stay valid
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
        report = noisy_run(circuit, state, ideal, policy, WCD)
        assert 1.0 - report.mean_fidelity < 1e-10

    def test_block_noise_protects_encoded_wcd(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=200, seed=5)
        report = noisy_run(
            circuit, state, ideal, policy, WCD, logical_block_boundaries(2, WCD_CODE),
            subspace=WCD_CODE.basis(2),
        )
        assert report.mean_fidelity >= 1.0 - 1e-10
        assert report.min_fidelity >= 1.0 - 1e-10
        assert report.mean_leakage < 1e-10

    def test_block_noise_protects_encoded_scd(self):
        circuit = synth_qft_scd(2)
        state = SCD_CODE.state("00")
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=100, seed=5)
        report = noisy_run(
            circuit, state, ideal, policy, SCD, logical_block_boundaries(2, SCD_CODE),
            subspace=SCD_CODE.basis(2),
        )
        assert report.mean_fidelity >= 1.0 - 1e-10
        assert report.mean_leakage < 1e-10

    def test_endpoint_noise_protects_both_encodings(self):
        for circuit, state, model in (
            (synth_qft_wcd(2), WCD_CODE.state("00"), WCD),
            (synth_qft_scd(1), SCD_CODE.state("0"), SCD),
        ):
            ideal = apply_circuit(state, circuit)
            policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=100, seed=11)
            report = noisy_run(circuit, state, ideal, policy, model)
            assert report.mean_fidelity >= 1.0 - 1e-10

    def test_plain_qft_degrades(self):
        circuit = synth_qft(2)
        state = StateVector.basis(2, 0)
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=200, seed=2)
        report = noisy_run(circuit, state, ideal, policy, WCD)
        assert report.mean_fidelity < 0.99

    def test_plain_single_qubit_matches_quadrature(self):
        # noise after the single H dephases: fidelity = cos^2(phi); the
        # ensemble mean must approach the quadrature value of 1/2
        circuit = synth_qft(1)
        state = StateVector.basis(1, 0)
        ideal = apply_circuit(state, circuit)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=2000, seed=13)
        report = noisy_run(circuit, state, ideal, policy, WCD)
        exact, _ = scipy.integrate.quad(lambda t: math.cos(t) ** 2 / (2 * math.pi), 0, 2 * math.pi)
        assert abs(exact - 0.5) < 1e-12
        assert abs(report.mean_fidelity - exact) < 0.04  # ~5 sigma at 2000 trials

    def test_elementary_noise_on_encoded_wcd_reported_honestly(self):
        # intra-block dephasing scrambles phases but, being diagonal, never
        # moves basis-state support: fidelity collapses while leakage is
        # genuinely zero, and the report must show exactly that
        circuit, state, ideal = self._wcd_setup(2)
        policy = NoisePolicy(granularity=PER_ELEMENTARY_GATE, trials=300, seed=4)
        report = noisy_run(
            circuit, state, ideal, policy, WCD, subspace=WCD_CODE.basis(2)
        )
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
        report = noisy_run(circuit, state, ideal, policy, SCD, subspace=SCD_CODE.basis(1))
        assert report.mean_fidelity < 0.9
        assert report.mean_leakage > 0.1
        assert 0.0 <= report.min_fidelity <= report.mean_fidelity <= 1.0

    def test_seed_reproducibility(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=50, seed=99)
        kwargs = dict(block_boundaries=logical_block_boundaries(2, WCD_CODE))
        first = noisy_run(circuit, state, ideal, policy, WCD, **kwargs)
        second = noisy_run(circuit, state, ideal, policy, WCD, **kwargs)
        assert first == second

    def test_trial_streams_are_prefix_stable(self):
        # (seed, trial) substreams: a shorter run is a prefix of a longer one
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
        reports = [
            noisy_run(
                circuit, state, ideal,
                NoisePolicy(granularity=ENDPOINTS_ONLY, trials=20, seed=s), WCD,
            )
            for s in (1, 2)
        ]
        assert reports[0].mean_fidelity != reports[1].mean_fidelity

    def test_boundary_validation(self):
        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=1, seed=0)
        with pytest.raises(ValueError, match="boundaries"):
            noisy_run(circuit, state, ideal, policy, WCD, block_boundaries=None)
        with pytest.raises(ValueError, match="partition"):
            noisy_run(circuit, state, ideal, policy, WCD, block_boundaries=[3, 2])
        with pytest.raises(ValueError, match="partition"):
            noisy_run(circuit, state, ideal, policy, WCD, block_boundaries=[3, 8])

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
        report = noisy_run(circuit, state, ideal, policy, WCD, bounds)
        assert report.trials == 5

    def test_report_dict_roundtrips_to_json(self):
        import json

        circuit, state, ideal = self._wcd_setup()
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, trials=3, seed=0)
        report = noisy_run(circuit, state, ideal, policy, WCD)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["trials"] == 3
        assert payload["mean_leakage"] is None
        assert payload["policy"]["granularity"] == ENDPOINTS_ONLY


class TestBatchedTrials:
    """run_trials against the one-trial-at-a-time reference built from public functions."""

    @pytest.mark.parametrize("granularity", [PER_ELEMENTARY_GATE, PER_LOGICAL_BLOCK, ENDPOINTS_ONLY])
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("kind,n", [("wcd", 2), ("scd", 1), ("plain-wcd", 3), ("plain-scd", 2)])
    def test_matches_reference_bit_for_bit(self, granularity, distribution, kind, n):
        circuit, state, ideal, model, bounds, basis = _qft_setup(kind, n)
        # 2**64 + 31 masks to a one-word seed, 2**40 + 7 is two uint32 words
        for seed in (2**64 + 31, 2**40 + 7):
            policy = NoisePolicy(granularity=granularity, distribution=distribution, sigma=0.4,
                                 trials=9, seed=seed)
            got = run_trials(circuit, state, ideal, policy, model, bounds, basis)
            want = reference_trials(circuit, state, ideal, policy, model, bounds, basis)
            np.testing.assert_array_equal(got[0], want[0])
            if basis is None:
                assert got[1] is None
            else:
                np.testing.assert_array_equal(got[1], want[1])

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
    """_seed_words against numpy's own SeedSequence, and each trial's angles
    against its default_rng([seed, trial]) stream."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]
    TRIALS = pytest.mark.parametrize("trials", [
        range(0, 3),
        range((noise.BATCH_AMPLITUDES >> 8) - 1, (noise.BATCH_AMPLITUDES >> 8) + 2),
        range(2**32 - 2, 2**32 + 2),
        range(2**64 - 2, 2**64),
    ], ids=["first", "chunk-edge", "word-edge", "last"])

    @pytest.mark.parametrize("seed", SEEDS)
    @TRIALS
    def test_seed_words_match_seed_sequence(self, seed, trials):
        want = [np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in trials]
        got = noise._seed_words(seed, trials)
        assert got.dtype == np.uint64 and got.shape == (len(trials), 4)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("count", [1, 3, 12, 351])
    @pytest.mark.parametrize("seed", SEEDS)
    @TRIALS
    def test_uniform_angles_match_default_rng(self, seed, trials, count):
        want = np.array([np.random.default_rng([seed, t]).uniform(0.0, 2.0 * math.pi, count)
                         for t in trials])
        got = noise._uniform_angles(noise._seed_words(seed, trials), count)
        assert got.shape == (len(trials), count)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("seed", [7, 2**40 + 7, 2**64 + 31])
    def test_streams_draw_as_default_rng(self, seed, distribution):
        policy = NoisePolicy(granularity=ENDPOINTS_ONLY, distribution=distribution, sigma=0.4,
                             seed=seed)
        trials = range(5, 12)
        got = noise._trial_angles(policy, trials, (6, 3))
        assert got.shape == (len(trials), 6, 3)
        for row, trial in zip(got, trials):
            want = np.random.default_rng([seed % 2**64, trial])
            np.testing.assert_array_equal(row, noise._draw_angles(want, policy, (6, 3)))

    def test_import_does_not_load_numpy_random(self):
        # nor does a uniform run; the gaussian streams import it on first use
        code = textwrap.dedent("""
            import sys, dfsqft
            from dfsqft.noise import run_trials
            state = dfsqft.StateVector([1, 0, 0, 0])
            circuit = dfsqft.synth_qft(2)
            print('numpy.random' in sys.modules)
            for distribution in ("uniform", "gaussian"):
                policy = dfsqft.NoisePolicy(granularity=dfsqft.ENDPOINTS_ONLY,
                                            distribution=distribution, sigma=0.3, trials=3)
                run_trials(circuit, state, dfsqft.apply_circuit(state, circuit), policy,
                           dfsqft.CollectiveModel.WCD)
                print('numpy.random' in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "False\nFalse\nTrue\n"


class TestChunkReductions:
    """run_trials reduces a chunk's rows at once, with the bits of one row at
    a time: min(1, |<ideal|row>|^2) and |row - B B^H row|."""

    @staticmethod
    def _check(ideal: np.ndarray, basis: np.ndarray, rows: np.ndarray) -> None:
        fidelities = [min(1.0, abs(np.vdot(ideal, row)) ** 2) for row in rows]
        leakages = [np.linalg.norm(row - basis @ (basis.conj().T @ row)) for row in rows]
        np.testing.assert_array_equal(noise._fidelities(ideal.conj(), rows).view(np.uint64),
                                      np.array(fidelities).view(np.uint64))
        np.testing.assert_array_equal(noise._leakages(basis, rows).view(np.uint64),
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
