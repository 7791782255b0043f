"""Collective noise as random identical one-qubit rotations, plus ensemble runs.

One noise event applies exp(-i * sum_a phi_a S_a) with S_a the
qubit-summed Pauli. The per-qubit terms commute, so this equals the
single-qubit rotation exp(-i * phi . sigma) applied to every qubit;
we evaluate that 2x2 exponential in closed form instead of a dense
matrix exponential. States in a decoherence-free sector are fixed
exactly, whatever the angles.

Where noise strikes during a circuit is a policy, not a fixed choice:
at every elementary gate, at logical-block boundaries only, or at the
endpoints only. Block-boundary noise is the regime the encodings
protect against; intra-block noise hits intermediate states that leave
the protected sector, and the report shows the resulting fidelity loss
honestly.

Ensemble runs push many trials through the simulator at once: the state
carries a trailing trial axis, and each gate and each noise rotation is
one kernel call over the whole batch (the trials' rotations stacked as a
(2, 2, batch) array). Trials run in chunks of at most BATCH_AMPLITUDES
amplitudes, so memory does not grow with the trial count. Each trial
still draws from its own (seed, trial) stream, so results do not depend
on the chunking.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .circuits import Circuit
from .dfs import CollectiveModel
from .statevector import StateVector, SubspaceBasis, _apply_1q, _apply_gate_nd

MAX_NOISE_QUBITS = 10
# Amplitudes per trial chunk in run_trials (256 KB per complex array). Of
# 2^10..2^16 on the benchmark's noise runs, 2^14 was fastest or within 6 % of
# the fastest; smaller chunks pay per-call overhead, larger ones more memory.
BATCH_AMPLITUDES = 1 << 14

PER_ELEMENTARY_GATE = "per_elementary_gate"
PER_LOGICAL_BLOCK = "per_logical_block"
ENDPOINTS_ONLY = "endpoints_only"
GRANULARITIES = (PER_ELEMENTARY_GATE, PER_LOGICAL_BLOCK, ENDPOINTS_ONLY)
DISTRIBUTIONS = ("uniform", "gaussian")

_SEED_MASK = 2**64 - 1


@dataclass(frozen=True)
class NoiseEvent:
    """Per-axis rotation angles: (phi_z,) under WCD, (phi_x, phi_y, phi_z) under SCD."""

    phis: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(float(x) for x in self.phis))
        if not all(math.isfinite(x) for x in self.phis):
            raise ValueError("noise angles must be finite")


@dataclass(frozen=True)
class NoisePolicy:
    """Where noise strikes, how the angles are drawn, and how many trials run."""

    granularity: str
    distribution: str = "uniform"  # uniform[0, 2pi) per axis
    sigma: float = 0.0  # gaussian std deviation, radians
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite and nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class RunReport:
    """Ensemble fidelity statistics for one noisy-circuit experiment."""

    mean_fidelity: float
    min_fidelity: float
    std_fidelity: float
    mean_leakage: float | None  # None when no logical subspace was tracked
    trials: int
    policy: NoisePolicy

    @classmethod
    def from_trials(
        cls, fidelities: np.ndarray, leakages: np.ndarray | None, policy: NoisePolicy
    ) -> RunReport:
        """Aggregate the per-trial arrays that run_trials returns."""
        return cls(
            mean_fidelity=float(np.mean(fidelities)),
            min_fidelity=float(np.min(fidelities)),
            std_fidelity=float(np.std(fidelities)),
            mean_leakage=None if leakages is None else float(np.mean(leakages)),
            trials=policy.trials,
            policy=policy,
        )

    def to_dict(self) -> dict:
        return {
            "mean_fidelity": self.mean_fidelity,
            "min_fidelity": self.min_fidelity,
            "std_fidelity": self.std_fidelity,
            "mean_leakage": self.mean_leakage,
            "trials": self.trials,
            "policy": asdict(self.policy),
        }


def _draw_angles(rng: np.random.Generator, policy: NoisePolicy, shape) -> np.ndarray:
    # One bulk draw of a given shape yields the same numbers, in row-major
    # order, as the equivalent run of smaller draws from the same stream.
    if policy.distribution == "uniform":
        return rng.uniform(0.0, 2.0 * math.pi, shape)
    return rng.normal(0.0, policy.sigma, shape)


def sample_event(rng: np.random.Generator, model: CollectiveModel, policy: NoisePolicy) -> NoiseEvent:
    """Draw one event's angles from the policy's distribution."""
    return NoiseEvent(tuple(_draw_angles(rng, policy, len(model.axes))))


def _rotations(phis: np.ndarray, model: CollectiveModel) -> np.ndarray:
    """Stacked exp(-i * phi . sigma): shape (2, 2) + phis.shape[:-1] for angle
    vectors along the last axis of phis, one entry per axis of the model."""
    angles = dict(zip(model.axes, np.moveaxis(phis, -1, 0)))
    zero = np.zeros(phis.shape[:-1])
    fx, fy, fz = (angles.get(axis, zero) for axis in "xyz")
    theta = np.sqrt(fx * fx + fy * fy + fz * fz)
    # math.cos/sin, not numpy's: numpy may use its own SIMD routines, and
    # seeded output must not depend on which one a build picked
    c = np.fromiter(map(math.cos, theta.flat), float, theta.size).reshape(theta.shape)
    s = np.fromiter(map(math.sin, theta.flat), float, theta.size).reshape(theta.shape)
    still = theta == 0.0
    safe = np.where(still, 1.0, theta)
    sx, sy, sz = s * (fx / safe), s * (fy / safe), s * (fz / safe)
    u = np.empty((2, 2) + theta.shape, dtype=complex)
    u.real[...] = [[c, -sy], [sy, c]]
    u.imag[...] = [[-sz, -sx], [-sx, sz]]
    u[:, :, still] = np.eye(2)[:, :, None]
    return u


def single_qubit_rotation(event: NoiseEvent, model: CollectiveModel) -> np.ndarray:
    """2x2 unitary exp(-i * phi . sigma) for the event's angle vector."""
    if len(event.phis) != len(model.axes):
        raise ValueError(
            f"{model.value} events carry {len(model.axes)} angle(s), got {len(event.phis)}"
        )
    return _rotations(np.array(event.phis), model)


def _rotate_every_qubit(arr: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """One collective event on an array whose first n axes are qubit bits: u,
    a (2, 2) rotation or a (2, 2, batch) stack over its trailing axis, on
    every qubit."""
    for t in range(1, n + 1):
        arr = _apply_1q(arr, u, t, n)
    return arr


def apply_noise(state: StateVector, event: NoiseEvent, model: CollectiveModel) -> StateVector:
    """Apply exp(-i * sum_a phi_a S_a); exact identity (up to a global phase,
    which is exactly 1 for spin-zero sectors) on decoherence-free states."""
    n = state.n_qubits
    if n > MAX_NOISE_QUBITS:
        raise ValueError(f"register of {n} qubits is too large for the dense noise channel")
    arr = state.amplitudes.reshape((2,) * n)
    return StateVector(_rotate_every_qubit(arr, single_qubit_rotation(event, model), n).reshape(-1))


def _noise_positions(policy: NoisePolicy, n_gates: int, block_boundaries) -> list[int]:
    if policy.granularity == PER_ELEMENTARY_GATE:
        return list(range(n_gates + 1))
    if policy.granularity == ENDPOINTS_ONLY:
        return sorted({0, n_gates})
    if block_boundaries is None:
        raise ValueError("per_logical_block noise needs block boundaries")
    bounds = list(block_boundaries)
    if (
        not bounds
        or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
        or bounds[0] < 1
        or bounds[-1] != n_gates
    ):
        raise ValueError(
            "block boundaries must be strictly increasing gate positions partitioning the gate list"
        )
    return [0] + bounds


def run_trials(
    circuit: Circuit,
    input_state: StateVector,
    ideal_output: StateVector,
    policy: NoisePolicy,
    model: CollectiveModel,
    block_boundaries: list[int] | None = None,
    subspace: SubspaceBasis | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-trial (fidelities, leakages) arrays; leakages is None without a subspace.

    Each trial draws fresh events at the policy's positions and runs the
    circuit. Per-trial random streams derive from (seed, trial index), so
    identical policies yield identical arrays. Trials run as a batch, in
    chunks of BATCH_AMPLITUDES // 2^n trials.
    """
    n = circuit.n_qubits
    if input_state.n_qubits != n or ideal_output.n_qubits != n:
        raise ValueError("circuit, input, and ideal output must share one register size")
    if n > MAX_NOISE_QUBITS:
        raise ValueError(f"register of {n} qubits is too large for the dense noise channel")
    positions = _noise_positions(policy, len(circuit), block_boundaries)
    basis_matrix = subspace.matrix if subspace is not None else None
    basis_adjoint = basis_matrix.conj().T if basis_matrix is not None else None
    ideal = ideal_output.amplitudes
    fidelities = np.empty(policy.trials)
    leakages = np.empty(policy.trials) if basis_matrix is not None else None

    step = max(1, BATCH_AMPLITUDES >> n)
    for first in range(0, policy.trials, step):
        trials = range(first, min(first + step, policy.trials))
        # angles[k, j]: event k of trial j, drawn from the trial's own stream
        angles = np.stack(
            [
                _draw_angles(
                    np.random.default_rng([policy.seed & _SEED_MASK, trial]),
                    policy,
                    (len(positions), len(model.axes)),
                )
                for trial in trials
            ],
            axis=1,
        )
        noise_at = dict(zip(positions, _rotations(angles, model).transpose(2, 0, 1, 3)))
        arr = np.repeat(input_state.amplitudes[:, None], len(trials), axis=1)
        arr = arr.reshape((2,) * n + (len(trials),))
        for pos in range(len(circuit) + 1):
            if pos in noise_at:
                arr = _rotate_every_qubit(arr, noise_at[pos], n)
            if pos < len(circuit):
                arr = _apply_gate_nd(arr, circuit.gates[pos], n)
        # one contiguous row per trial, reduced alone: a batched reduction
        # would round differently from a single-trial run
        outputs = arr.reshape(-1, len(trials)).T.copy()
        for trial, out in zip(trials, outputs):
            fidelities[trial] = min(1.0, abs(np.vdot(ideal, out)) ** 2)
            if basis_matrix is not None:
                leakages[trial] = np.linalg.norm(out - basis_matrix @ (basis_adjoint @ out))
    return fidelities, leakages


def noisy_run(
    circuit: Circuit,
    input_state: StateVector,
    ideal_output: StateVector,
    policy: NoisePolicy,
    model: CollectiveModel,
    block_boundaries: list[int] | None = None,
    subspace: SubspaceBasis | None = None,
) -> RunReport:
    """Aggregate run_trials into ensemble statistics; deterministic under the seed."""
    fidelities, leakages = run_trials(
        circuit, input_state, ideal_output, policy, model, block_boundaries, subspace
    )
    return RunReport.from_trials(fidelities, leakages, policy)
