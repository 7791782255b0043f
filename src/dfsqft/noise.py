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

Ensemble runs push many trials through the simulator's one gate loop at
once: the state carries a trailing trial axis, and each noise event is a
layer of (2, 2, batch) rotations between the gates. _batched_rows splits
any such batch into chunks of at most BATCH_AMPLITUDES amplitudes, so
memory does not grow with the trial count; run_trials and the verify
noise-invariance check both run through it. Each trial draws from its own
stream, exactly default_rng([seed, trial]), so results do not depend on
the chunking; the streams of a whole chunk are seeded at once by
_seed_words, a vectorized copy of numpy's SeedSequence hash (NEP 19).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit, _is_integer
from .dfs import CollectiveModel
from .statevector import StateVector, SubspaceBasis, _propagate

MAX_NOISE_QUBITS = 10
# Amplitudes per chunk in _batched_rows (256 KB per complex array). Timed
# with the tiled noise-layer kernel on the benchmark's noise-bench runs (wcd 3
# and scd 2; two in-process runs of 30 interleaved rounds), 2^12 / 2^13 /
# 2^15 / 2^16 took 1.42-1.47 / 1.28-1.31 / 0.97-1.12 / 0.97-1.13 x the time
# of 2^14 at 40 trials of per-gate noise, where every size from 2^14 up runs
# one chunk (so those spreads are noise), and 1.50 / 1.22 / 0.97 / 1.02-1.05 x
# at 200 trials of block noise. 2^15 gains 3 % on block noise only, so 2^14
# stays: smaller chunks pay per-call overhead, larger ones more memory.
BATCH_AMPLITUDES = 1 << 14

PER_ELEMENTARY_GATE = "per_elementary_gate"
PER_LOGICAL_BLOCK = "per_logical_block"
ENDPOINTS_ONLY = "endpoints_only"
GRANULARITIES = (PER_ELEMENTARY_GATE, PER_LOGICAL_BLOCK, ENDPOINTS_ONLY)
DISTRIBUTIONS = ("uniform", "gaussian")

_SEED_MASK = 2**64 - 1
# numpy's SeedSequence constants (NEP 19): a pool of four uint32 words
_POOL_WORDS = 4
_WORD_MASK = 2**32 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class NoiseEvent:
    """Per-axis rotation angles: (phi_z,) under WCD, (phi_x, phi_y, phi_z) under SCD."""

    phis: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(float(x) for x in self.phis))
        if not all(math.isfinite(x) for x in self.phis):
            raise ValueError("noise angles must be finite")


def _finite_nonnegative(x: numbers.Real) -> bool:
    try:
        return 0 <= float(x) < math.inf  # False for NaN
    except OverflowError:  # an int beyond float range
        return False


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
        if (isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real)
                or not _finite_nonnegative(self.sigma)):
            raise ValueError(f"sigma must be a finite nonnegative real, got {self.sigma!r}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer of at least 1, got {self.trials!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


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
        return asdict(self)


def _seed_words(seed: int, trials: range) -> np.ndarray:
    """Row j is SeedSequence([seed, trials[j]]).generate_state(4, np.uint64),
    for a seed and trial indices below 2^64, computed for all rows at once.

    SeedSequence splits each int into its uint32 words, low first (0 is one
    word), and hashes their concatenation into a pool of four words; a word
    beyond the entropy hashes as a zero word. So the entropy is the seed's
    one or two words, then the trial's low and high word, padded with zeros:
    it always fits the pool, and the hash is the same uint32 arithmetic on
    every row."""
    index = np.arange(trials.start, trials.stop, dtype=np.uint64)
    words = [seed & _WORD_MASK] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(len(index), word, np.uint32) for word in words]
    entropy += [(index & _WORD_MASK).astype(np.uint32), (index >> 32).astype(np.uint32)]
    entropy += [np.zeros(len(index), np.uint32)] * (_POOL_WORDS - len(entropy))
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _WORD_MASK
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    state = np.empty((len(index), 4), np.uint64)
    const = _INIT_B
    for i in range(8):  # 8 uint32 words, read as 4 little-endian uint64 words
        value = pool[i % _POOL_WORDS] ^ const
        const = const * _MULT_B & _WORD_MASK
        value = value * np.uint32(const)
        value = (value ^ (value >> 16)).astype(np.uint64)
        if i % 2:
            state[:, i // 2] |= value << 32
        else:
            state[:, i // 2] = value
    return state


@functools.cache
def _stream_type():
    """Generator(PCG64(words)) for one row of _seed_words. Built on first
    use, so that importing the package does not load numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence whose generated state is a given row of words."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


def _trial_streams(seed: int, trials: range) -> list:
    """default_rng([seed & (2^64 - 1), t]) for each trial t: the same streams."""
    stream = _stream_type()
    return [stream(words) for words in _seed_words(seed & _SEED_MASK, trials)]


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
    vectors along the last axis of phis, one entry per axis of the model.

    Raises OverflowError when an angle vector's length is not finite."""
    angles = dict(zip(model.axes, np.moveaxis(phis, -1, 0)))
    zero = np.zeros(phis.shape[:-1])
    fx, fy, fz = (angles.get(axis, zero) for axis in "xyz")
    with np.errstate(over="ignore"):
        theta = np.sqrt(fx * fx + fy * fy + fz * fz)
    if not np.all(np.isfinite(theta)):
        raise OverflowError("noise rotation angle is not finite")
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


def _check_noise_register(n: int) -> None:
    if n > MAX_NOISE_QUBITS:
        raise ValueError(f"register of {n} qubits is too large for noise (max {MAX_NOISE_QUBITS})")


def apply_noise(state: StateVector, event: NoiseEvent, model: CollectiveModel) -> StateVector:
    """Apply exp(-i * sum_a phi_a S_a); exact identity (up to a global phase,
    which is exactly 1 for spin-zero sectors) on decoherence-free states."""
    _check_noise_register(state.n_qubits)
    rotation = single_qubit_rotation(event, model)
    return StateVector(_propagate([rotation], state.amplitudes, state.n_qubits))


def _batched_rows(n: int, count: int, ops: Callable[[range], list],
                  inputs: Callable[[range], np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
    """(column, output) for columns 0..count-1, in chunks of at most
    BATCH_AMPLITUDES amplitudes: chunk c, a range of columns, runs the
    2^n x len(c) array inputs(c) through ops(c). Each output is its own
    contiguous row, so reducing one at a time rounds as a one-column run."""
    step = max(1, BATCH_AMPLITUDES >> n)
    for first in range(0, count, step):
        chunk = range(first, min(first + step, count))
        yield from zip(chunk, _propagate(ops(chunk), inputs(chunk), n).T.copy())


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
    circuit. Trial t draws from exactly default_rng([seed, t]), so identical
    policies yield identical arrays; the streams of a chunk are seeded in
    one pass (_seed_words). Trials run as a batch through _batched_rows.
    """
    n = circuit.n_qubits
    if input_state.n_qubits != n or ideal_output.n_qubits != n:
        raise ValueError("circuit, input, and ideal output must share one register size")
    if subspace is not None and subspace.n_qubits != n:
        raise ValueError(f"{n}-qubit circuit does not match a {subspace.n_qubits}-qubit register")
    _check_noise_register(n)
    positions = _noise_positions(policy, len(circuit), block_boundaries)

    def noisy_circuit(trials: range) -> list:
        # angles[k, j]: event k of trial j, drawn from the trial's own stream
        shape = (len(positions), len(model.axes))
        angles = np.stack([_draw_angles(rng, policy, shape)
                           for rng in _trial_streams(policy.seed, trials)], axis=1)
        # positions[0] is 0: each event precedes the gates up to the next one
        ops = []
        for rotations, start, stop in zip(_rotations(angles, model).transpose(2, 0, 1, 3),
                                          positions, positions[1:] + [None]):
            ops += [rotations, *circuit.gates[start:stop]]
        return ops

    basis_matrix = subspace.matrix if subspace is not None else None
    basis_adjoint = basis_matrix.conj().T if basis_matrix is not None else None
    fidelities = np.empty(policy.trials)
    leakages = np.empty(policy.trials) if basis_matrix is not None else None
    for trial, out in _batched_rows(
        n, policy.trials, noisy_circuit,
        lambda trials: np.broadcast_to(input_state.amplitudes[:, None], (2**n, len(trials))),
    ):
        fidelities[trial] = min(1.0, abs(np.vdot(ideal_output.amplitudes, out)) ** 2)
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
