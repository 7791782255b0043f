"""Acceptance suite: every shipped construction reproduced end-to-end at its
stated tolerance, one printed pass/fail line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import time

from dfsqft import (
    CollectiveModel,
    NoisePolicy,
    PER_LOGICAL_BLOCK,
    PLAIN,
    RunReport,
    SCD as SCD_CODE,
    WCD as WCD_CODE,
    StateVector,
    apply_circuit,
    brute_force_max_dfs_dimension,
    eta_max,
    logical_block_boundaries,
    max_dfs_dimension,
    min_physical_qubits,
    run_trials,
    synth_qft,
    synth_qft_scd,
    synth_qft_wcd,
)
from dfsqft.verify import SUITES

from fractions import Fraction

WCD = CollectiveModel.WCD
SCD = CollectiveModel.SCD


def _report(number, name, passed, detail, elapsed, limit):
    line = (
        f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}: "
        f"{detail} ({elapsed:.2f}s, limit {limit:.0f}s)"
    )
    print(line)
    assert passed, line
    assert elapsed < limit, f"criterion {number} exceeded its runtime bound: {line}"


def _worst(encoding, sizes, seed=0):
    """Worst deviation of each verify check, by name, over the suite runs at
    every size in `sizes`."""
    _, run = SUITES[encoding]
    worst = {}
    for n in sizes:
        for check in run(n, seed)[0]:
            worst[check["name"]] = max(worst.get(check["name"], 0.0), check["deviation"])
    return worst


def test_criterion_01_wcd_logical_hadamard():
    started = time.perf_counter()
    worst = _worst("wcd", (1, 2, 3))
    worst_dev, worst_leak = worst["logical_hadamard_action"], worst["logical_hadamard_leakage"]
    elapsed = time.perf_counter() - started
    _report(
        1, "WCD logical Hadamard", worst_dev < 1e-10 and worst_leak < 1e-10,
        f"deviation {worst_dev:.2e}, leakage {worst_leak:.2e}", elapsed, 1.0,
    )


def test_criterion_02_wcd_logical_phase():
    started = time.perf_counter()
    worst = _worst("wcd", (2, 3))
    worst = max(worst["logical_phase_action"], worst["logical_phase_leakage"])
    elapsed = time.perf_counter() - started
    _report(2, "WCD logical phase", worst < 1e-10, f"deviation {worst:.2e}", elapsed, 1.0)


def test_criterion_04_wcd_encoded_qft():
    started = time.perf_counter()
    worst = _worst("wcd", (1, 2, 3))
    worst_dev = worst["encoded_qft_restriction_vs_dft_up_to_phase"]
    worst_leak = worst["encoded_qft_leakage"]
    elapsed = time.perf_counter() - started
    _report(4, "WCD encoded QFT (n=1..3, up to 64-dim)",
            worst_dev < 1e-10 and worst_leak < 1e-10,
            f"phase-quotient deviation {worst_dev:.2e}, leakage {worst_leak:.2e}", elapsed, 5.0)


def test_criterion_05_scd_states():
    started = time.perf_counter()
    worst = _worst("scd", (1,), seed=20)
    gram_dev = worst["logical_states_orthonormal"]
    annihilation = worst["logical_states_annihilated"]
    worst_infidelity = worst["logical_state_noise_invariance"]
    passed = gram_dev < 1e-12 and annihilation < 1e-10 and worst_infidelity < 1e-10
    elapsed = time.perf_counter() - started
    _report(5, "SCD logical states", passed,
            f"orthonormality {gram_dev:.2e}, annihilation {annihilation:.2e}, "
            f"noise infidelity {worst_infidelity:.2e}", elapsed, 1.0)


def test_criterion_06_scd_logical_gates():
    started = time.perf_counter()
    # both routes, on every H and every ordered P pair at both angles: the
    # fallback transform around the bare gates, and the block transform as written
    worst = _worst("scd", (1, 2))
    fb_dev, seq_dev = worst["logical_gates_fallback"], worst["logical_gates_sequence"]
    passed = fb_dev < 1e-10 and seq_dev < 1e-10
    detail = f"fallback deviation {fb_dev:.2e}; sequence deviation {seq_dev:.2e}"
    elapsed = time.perf_counter() - started
    _report(6, "SCD logical gates (16- and 256-dim)", passed, detail, elapsed, 10.0)


def test_criterion_07_scd_encoded_qft():
    started = time.perf_counter()
    worst = _worst("scd", (2,))
    dev, leakage = worst["encoded_qft_restriction_vs_dft_up_to_phase"], worst["encoded_qft_leakage"]
    elapsed = time.perf_counter() - started
    _report(7, "SCD encoded QFT (8 physical qubits)", dev < 1e-10 and leakage < 1e-10,
            f"phase-quotient deviation {dev:.2e}, leakage {leakage:.2e}", elapsed, 10.0)


def test_criterion_08_noise_robustness_headline():
    started = time.perf_counter()
    policy = NoisePolicy(granularity=PER_LOGICAL_BLOCK, trials=200, seed=7)
    results = {}
    reruns = {}
    for label, circuit, bounds, state, model in (
        ("wcd", synth_qft_wcd(2), logical_block_boundaries(2, WCD_CODE), WCD_CODE.state("00"), WCD),
        ("scd", synth_qft_scd(2), logical_block_boundaries(2, SCD_CODE), SCD_CODE.state("00"), SCD),
    ):
        ideal = apply_circuit(state, circuit)
        results[label], reruns[label] = (
            RunReport.from_trials(*run_trials(circuit, state, ideal, policy, model, bounds), policy)
            for _ in range(2)
        )
        plain = synth_qft(2)
        plain_state = StateVector.basis(2, 0)
        plain_ideal = apply_circuit(plain_state, plain)
        results[f"plain-{label}"] = RunReport.from_trials(*run_trials(
            plain, plain_state, plain_ideal, policy, model,
            logical_block_boundaries(2, PLAIN),
        ), policy)
    encoded_ok = all(results[k].mean_fidelity >= 1.0 - 1e-10 for k in ("wcd", "scd"))
    plain_ok = all(results[f"plain-{k}"].mean_fidelity < 0.99 for k in ("wcd", "scd"))
    deterministic = all(results[k] == reruns[k] for k in ("wcd", "scd"))
    elapsed = time.perf_counter() - started
    _report(
        8, "noise robustness headline (200 trials)",
        encoded_ok and plain_ok and deterministic,
        f"encoded means {results['wcd'].mean_fidelity:.12f}/{results['scd'].mean_fidelity:.12f}, "
        f"plain means {results['plain-wcd'].mean_fidelity:.3f}/{results['plain-scd'].mean_fidelity:.3f}, "
        f"seed-deterministic={deterministic}", elapsed, 30.0,
    )


def test_criterion_09_efficiency_formulas():
    started = time.perf_counter()
    eta_ok = eta_max(2, WCD) == Fraction(1, 2) and eta_max(4, SCD) == Fraction(1, 4)
    r_ok = min_physical_qubits(1, WCD) == 2 and min_physical_qubits(1, SCD) == 4
    agreement = all(
        brute_force_max_dfs_dimension(n, model) == max_dfs_dimension(n, model)
        for n in (2, 4, 6, 8)
        for model in (WCD, SCD)
    )
    elapsed = time.perf_counter() - started
    _report(9, "efficiency formulas", eta_ok and r_ok and agreement,
            f"eta(2,wcd)=1/2, eta(4,scd)=1/4, r(1)=2/4, "
            f"brute-force/closed-form agree on even n<=8: {agreement}", elapsed, 60.0)


def test_criterion_10_oracle_consistency():
    started = time.perf_counter()
    worst = _worst("plain", range(1, 6))["qft_vs_dft_up_to_phase"]
    elapsed = time.perf_counter() - started
    _report(10, "plain QFT vs DFT oracle (n=1..5)", worst < 1e-10,
            f"phase-quotient deviation {worst:.2e}", elapsed, 5.0)
