"""The expected logical actions and the block reduction of dfsqft.verify,
against Kronecker-product and per-index constructions; the batched noise
invariance check against a per-state loop; and a guard that the SCD suite
never lowers a circuit on its physical register to a dense unitary."""
import math

import numpy as np
import pytest

from dfsqft import (
    CollectiveModel,
    NoiseEvent,
    apply_noise,
    fidelity,
    scd_logical_basis,
    wcd_logical_basis,
)
from dfsqft import verify
from dfsqft.verify import (
    SUITES,
    contract,
    logical_hadamard,
    logical_phase,
    noise_invariance_check,
    phase_keys,
)

HADAMARD_2X2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@pytest.mark.parametrize("n", range(1, 5))
def test_logical_hadamard_is_kron_embedding(n):
    for k in range(1, n + 1):
        expected = np.kron(np.eye(2 ** (n - k)), np.kron(HADAMARD_2X2, np.eye(2 ** (k - 1))))
        assert np.array_equal(logical_hadamard(n, k), expected)


@pytest.mark.parametrize("n", range(2, 5))
def test_logical_phase_marks_indices_with_both_bits(n):
    theta = 0.3
    for i, j, _ in phase_keys(n, (theta,)):
        phases = [np.exp(1j * theta) if (l >> (i - 1)) & (l >> (j - 1)) & 1 else 1.0
                  for l in range(2**n)]
        assert np.array_equal(logical_phase(n, i, j, theta), np.diag(phases))


def test_phase_keys_cover_ordered_distinct_pairs():
    keys = list(phase_keys(3, (0.5, 0.25)))
    assert keys[:4] == [(1, 2, 0.5), (1, 2, 0.25), (1, 3, 0.5), (1, 3, 0.25)]
    assert len(keys) == 3 * 2 * 2 and all(i != j for i, j, _ in keys)


def test_contract_takes_worst_deviation_and_leakage_per_kind():
    wrong_h = logical_hadamard(2, 1).copy()
    wrong_h[3, 1] += 1e-3
    blocks = {
        ("h", 1): (wrong_h, 0.0),
        ("h", 2): (logical_hadamard(2, 2), 5e-4),
        ("p", 1, 2, 0.5): (logical_phase(2, 1, 2, 0.5), 2e-3),
    }
    assert contract(2, blocks, "h") == pytest.approx((1e-3, 5e-4))
    assert contract(2, blocks, "p") == (0.0, 2e-3)


def per_state_noise_invariance(basis, model, seed):
    """Reference: one state and one event at a time through apply_noise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for state in basis.vectors:
        for _ in range(20):
            event = NoiseEvent(tuple(rng.uniform(0.0, 2.0 * math.pi, len(model.axes))))
            worst = max(worst, 1.0 - fidelity(apply_noise(state, event, model), state))
    return worst


@pytest.mark.parametrize("seed", [0, 17, 20])
@pytest.mark.parametrize(
    "basis,model",
    [(wcd_logical_basis(n), CollectiveModel.WCD) for n in (1, 2, 3)]
    + [(scd_logical_basis(n), CollectiveModel.SCD) for n in (1, 2)],
    ids=["wcd1", "wcd2", "wcd3", "scd1", "scd2"],
)
def test_batched_noise_invariance_is_bit_identical_to_per_state_loop(basis, model, seed):
    batched = noise_invariance_check(basis, model, seed, 1e-10)["deviation"]
    assert batched == per_state_noise_invariance(basis, model, seed)


@pytest.mark.parametrize("n", [1, 2])
def test_scd_suite_never_lowers_the_physical_register(n, monkeypatch):
    dims = []
    real = verify.circuit_unitary

    def recording(*args, **kwargs):
        unitary = real(*args, **kwargs)
        dims.append(unitary.shape[0])
        return unitary

    monkeypatch.setattr(verify, "circuit_unitary", recording)
    checks, _ = SUITES["scd"][1](n, 17)
    assert all(c["pass"] for c in checks)
    assert dims and 2 ** (4 * n) not in dims
