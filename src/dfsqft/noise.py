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
layer of (2, 2, batch) rotations between the gates. The loop applies no
layer at once: it composes each layer onto a pending rotation per qubit and
applies a qubit's rotation only when a gate touches that qubit, or at the
end. Noise after every gate thus costs one one-qubit step per qubit a gate
touches, not n steps per event. The result differs from applying each event
to every qubit in turn only by rounding (below 1e-13 on every noise-bench
run); a lone event, as apply_noise applies it, runs qubit by qubit, qubit 1
first, with the same bits as that order. _batched_rows splits
any such batch into chunks of at most BATCH_AMPLITUDES amplitudes, so
memory does not grow with the trial count; run_trials and the verify
noise-invariance check both run through it, and both draw their angles
from one stream per run, default_rng(seed), read row by row. In run_trials
row t of one (trials, positions, axes) draw holds trial t's angles, and
each chunk draws the next rows; numpy's uniform and normal samplers read
the stream in row-major order, so results do not depend on the chunking,
and a shorter run is a prefix of a longer one. apply_noise takes a
NoiseEvent of angles that the caller drew. run_trials reduces each chunk's
fidelities and leakages in one pass, with the bits of one trial at a time,
and returns the per-trial arrays; RunReport.from_trials(*run_trials(...),
policy) aggregates them.

The module has no register cap of its own: apply_noise and run_trials take
StateVectors, which statevector.MAX_QUBITS caps, so noise runs reach every
register that the encodings synthesize and verify (12 qubits for wcd 6 and
scd 3).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit, _is_integer
from .dfs import CollectiveModel
from .statevector import StateVector, SubspaceBasis, _propagate

# Amplitudes per chunk in _batched_rows (256 KB per complex array). Timed
# with the pending-frame noise kernel and its 256-element ufunc buffer, by
# the median of interleaved in-process noise-bench runs at one BLAS thread
# on a shared 2-CPU x86_64 VM, against 2^14. On the benchmark's runs (30
# rounds), 2^13 / 2^15 took 1.02 / 1.00 x (wcd 3) and 1.23 / 0.97 x (scd 2)
# at 40 trials of per-gate noise, and 1.08 / 0.99 x and 1.11 / 0.97 x at
# 200 trials of block noise. At 12 qubits (five rounds), where a 2^14 chunk
# is 4 trials, 2^13 took 1.41-1.46 x everywhere, while 2^15 took 0.73 /
# 0.76 x on wcd 6 (block / per-gate) and 0.80 / 0.91 x on scd 3. 2^15 would
# pay at 12 qubits only, for twice the memory of every run, so 2^14 stays.
BATCH_AMPLITUDES = 1 << 14

PER_ELEMENTARY_GATE = "per_elementary_gate"
PER_LOGICAL_BLOCK = "per_logical_block"
ENDPOINTS_ONLY = "endpoints_only"
GRANULARITIES = (PER_ELEMENTARY_GATE, PER_LOGICAL_BLOCK, ENDPOINTS_ONLY)
DISTRIBUTIONS = ("uniform", "gaussian")

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
    """Ensemble fidelity statistics for one noisy-circuit experiment;
    dataclasses.asdict gives its JSON record."""

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


def apply_noise(state: StateVector, event: NoiseEvent, model: CollectiveModel) -> StateVector:
    """Apply exp(-i * sum_a phi_a S_a), the one-qubit rotation exp(-i * phi .
    sigma) on every qubit; exact identity (up to a global phase, which is
    exactly 1 for spin-zero sectors) on decoherence-free states."""
    if len(event.phis) != len(model.axes):
        raise ValueError(
            f"{model.value} events carry {len(model.axes)} angle(s), got {len(event.phis)}"
        )
    rotation = _rotations(np.array(event.phis), model)
    return StateVector(_propagate([rotation], state.amplitudes, state.n_qubits))


def _batched_rows(n: int, count: int, ops: Callable[[range], list],
                  inputs: Callable[[range], np.ndarray]) -> Iterator[tuple[range, np.ndarray]]:
    """(chunk, rows) for columns 0..count-1, in chunks of at most
    BATCH_AMPLITUDES amplitudes: chunk c, a range of columns, runs the
    2^n x len(c) array inputs(c) through ops(c), and rows[j] is the output
    of column c[j]. The rows are one C-ordered len(c) x 2^n array, so each
    output is a contiguous row and reduces as a one-column run would."""
    step = max(1, BATCH_AMPLITUDES >> n)
    for first in range(0, count, step):
        chunk = range(first, min(first + step, count))
        yield chunk, _propagate(ops(chunk), inputs(chunk), n).T.copy()


def _stacked_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a[j] * b[j]) for each row j, as one BLAS dot per row: the dot of
    a lone pair of vectors, whatever their strides."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _fidelities(bra: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """min(1, |<ideal|row>|^2) per row, given bra = conj(ideal) (one row, or
    one per row), conjugated once by the caller; rounded as on one row at a
    time: the BLAS dot of bra and the row (the very sums of np.vdot's
    conjugating dot), its modulus as hypot, as the scalar abs takes it
    (array np.abs rounds otherwise), and the square as C pow(x, 2), as a
    scalar ** 2 takes it (numpy's array power rounds it as x * x)."""
    overlaps = _stacked_dots(bra, rows)
    moduli = np.hypot(overlaps.real, overlaps.imag)
    return np.minimum(np.fromiter((math.pow(x, 2.0) for x in moduli.tolist()), float,
                                  len(moduli)), 1.0)


def _leakages(basis: np.ndarray, adjoint: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|row - B B^H row| per row, given adjoint = basis.conj().T, the
    F-ordered view conjugated once by the caller (a C-ordered copy rounds
    otherwise); rounded as np.linalg.norm on one row at a time: each
    projection is the BLAS gemv of a lone vector, and the squared norm is
    the dot of the real parts plus that of the imaginary parts."""
    coefficients = np.matmul(adjoint, rows[:, :, None])
    residual = rows - np.matmul(basis, coefficients)[:, :, 0]
    return np.sqrt(_stacked_dots(residual.real, residual.real)
                   + _stacked_dots(residual.imag, residual.imag))


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
    circuit. The run reads one stream, default_rng(seed), at call time: each
    chunk draws its trials' angles as the next rows of one (trials,
    positions, axes) draw, so identical policies yield identical arrays,
    whatever the chunking, and a shorter run is a prefix of a longer one.
    Trials run as a batch through _batched_rows, and each chunk's rows are
    reduced at once (_fidelities, _leakages), rounding as one row at a time
    would; the ideal output and the code space are conjugated once per call.
    """
    n = circuit.n_qubits
    if input_state.n_qubits != n or ideal_output.n_qubits != n:
        raise ValueError("circuit, input, and ideal output must share one register size")
    if subspace is not None and subspace.n_qubits != n:
        raise ValueError(f"{n}-qubit circuit does not match a {subspace.n_qubits}-qubit register")
    positions = _noise_positions(policy, len(circuit), block_boundaries)
    rng = np.random.default_rng(policy.seed)

    def noisy_circuit(trials: range) -> list:
        # the chunk's rows of the run's draw (_batched_rows asks for the chunks
        # in order); angles[k, j] is event k of trial j
        shape = (len(trials), len(positions), len(model.axes))
        angles = (rng.uniform(0.0, 2.0 * math.pi, shape) if policy.distribution == "uniform"
                  else rng.normal(0.0, policy.sigma, shape)).swapaxes(0, 1)
        # positions[0] is 0: each event precedes the gates up to the next one
        ops = []
        for rotations, start, stop in zip(_rotations(angles, model).transpose(2, 0, 1, 3),
                                          positions, positions[1:] + [None]):
            ops += [rotations, *circuit.gates[start:stop]]
        return ops

    bra = ideal_output.amplitudes.conj()
    adjoint = None if subspace is None else subspace.matrix.conj().T
    fidelities = np.empty(policy.trials)
    leakages = np.empty(policy.trials) if subspace is not None else None
    for trials, rows in _batched_rows(
        n, policy.trials, noisy_circuit,
        lambda trials: np.broadcast_to(input_state.amplitudes[:, None], (2**n, len(trials))),
    ):
        fidelities[trials.start:trials.stop] = _fidelities(bra, rows)
        if subspace is not None:
            leakages[trials.start:trials.stop] = _leakages(subspace.matrix, adjoint, rows)
    return fidelities, leakages

