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
the chunking. A chunk's bookkeeping is vectorized over its trials: its
streams are seeded at once by _seed_words, a vectorized copy of numpy's
SeedSequence hash (NEP 19), and its uniform angles are drawn at once by
_uniform_angles, a vectorized copy of numpy's PCG64 that jumps each stream
straight to each draw. Gaussian angles are the exception: they come from
default_rng([seed, trial]) itself, one Generator per trial, as numpy's
normal sampler cannot be copied. _trial_angles is the module's one
sampler; apply_noise takes a NoiseEvent of angles that the caller drew.
run_trials reduces each chunk's fidelities and leakages in one pass, with
the bits of one trial at a time, and returns the per-trial arrays;
RunReport.from_trials(*run_trials(...), policy) aggregates them.

The module has no register cap of its own: apply_noise and run_trials take
StateVectors, which statevector.MAX_QUBITS caps, so noise runs reach every
register that the encodings synthesize and verify (12 qubits for wcd 6 and
scd 3).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit, _is_integer
from .dfs import CollectiveModel
from .statevector import StateVector, SubspaceBasis, _propagate

# Amplitudes per chunk in _batched_rows (256 KB per complex array). Timed
# with the tiled noise-layer kernel on the benchmark's noise-bench runs (wcd 3
# and scd 2; two in-process runs of 30 interleaved rounds), 2^12 / 2^13 /
# 2^15 / 2^16 took 1.42-1.47 / 1.28-1.31 / 0.97-1.12 / 0.97-1.13 x the time
# of 2^14 at 40 trials of per-gate noise, where every size from 2^14 up runs
# one chunk (so those spreads are noise), and 1.50 / 1.22 / 0.97 / 1.02-1.05 x
# at 200 trials of block noise. 2^15 gains 3 % on block noise only, so 2^14
# stays: smaller chunks pay per-call overhead, larger ones more memory.
# Re-timed at 12 qubits, where a chunk is 4 trials (wcd 6 and scd 3, 200 trials
# of block and 40 of per-gate noise; five interleaved in-process rounds at one
# BLAS thread on a shared 2-CPU x86_64 VM, where 2^14's own runs spread 0.85-
# 1.30 x its median): 2^12 and 2^13 took 1.2-2.5 x that median everywhere,
# while 2^15 / 2^16 took 0.73-0.97 / 0.72-0.99 x on wcd 6 but 0.86-1.42 /
# 0.90-1.54 x on scd 3 (slowest under per-gate noise). No size wins on every
# run, so 2^14 stays.
BATCH_AMPLITUDES = 1 << 14

PER_ELEMENTARY_GATE = "per_elementary_gate"
PER_LOGICAL_BLOCK = "per_logical_block"
ENDPOINTS_ONLY = "endpoints_only"
GRANULARITIES = (PER_ELEMENTARY_GATE, PER_LOGICAL_BLOCK, ENDPOINTS_ONLY)
DISTRIBUTIONS = ("uniform", "gaussian")

_SEED_MASK = 2**64 - 1
_WORD_MASK = 2**32 - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(2, count, 1) uint32: the xor and the multiply constant of each of
    count hashmix steps, where each step's constant is the last one times mult."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _WORD_MASK)
    return np.array([consts[:-1], consts[1:]], np.uint32)[:, :, None]


# numpy's SeedSequence (NEP 19) on a pool of four uint32 words: the constants
# of its 16 pool steps (4 that hash the entropy words, then 3 per source word)
# and of its 8 output steps, which do not depend on the data
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64 (O'Neill 2014): a 128-bit LCG state s -> s * _PCG_MULT + inc, read out
# by XSL-RR; the uint64 constants keep numpy's integer promotion out of play
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK_128 = 2**128 - 1
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_LOW_32 = np.uint64(_WORD_MASK)
_ANGLE_SCALE = 2.0 * math.pi / 9007199254740992.0  # uniform(0, 2 pi) per 53-bit draw


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


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (words ^ xor) * mult
    return value ^ (value >> 16)


def _seed_words(seed: int, trials: range) -> np.ndarray:
    """Row j is SeedSequence([seed, trials[j]]).generate_state(4, np.uint64),
    for a seed and trial indices below 2^64, computed for all rows at once.

    SeedSequence splits each int into its uint32 words, low first (0 is one
    word), and hashes their concatenation into a pool of four words; a word
    beyond the entropy hashes as a zero word. So the entropy is the seed's
    one or two words, then the trial's low and high word, padded with zeros:
    it always fits the pool, and the hash is the same uint32 arithmetic on
    every row. The pool is one (4, k) array: each source word mixes into the
    other three in one step, and the output is one (8, k) hash of the pool
    read twice, paired into uint64 words low word first."""
    index = np.arange(trials.start, trials.stop, dtype=np.uint64)
    words = [seed & _WORD_MASK] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((4, len(index)), np.uint32)
    pool[:len(words)] = np.array(words, np.uint32)[:, None]
    pool[len(words)], pool[len(words) + 1] = index & _WORD_MASK, index >> 32
    xor, mult = _POOL_HASH
    pool = _hashmix(pool, xor[:4], mult[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], xor[steps], mult[steps])
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(np.tile(pool, (2, 1)), *_OUTPUT_HASH).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


def _mul_128(a: tuple, b: tuple) -> tuple:
    """(high, low) uint64 words of a * b mod 2^128, for (high, low) words;
    the high word of the low words' product is formed from their 32-bit
    halves (Warren, Hacker's Delight, mulhu)."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0, b1, b0 = a_lo >> _U32, a_lo & _LOW_32, b_lo >> _U32, b_lo & _LOW_32
    t = a1 * b0 + ((a0 * b0) >> _U32)
    u = a0 * b1 + (t & _LOW_32)
    high = a1 * b1 + (t >> _U32) + (u >> _U32)
    high += a_lo * b_hi
    high += a_hi * b_lo
    return high, a_lo * b_lo


def _add_128(a: tuple, b: tuple) -> tuple:
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


@functools.cache
def _pcg_jumps(count: int) -> tuple:
    """(high, low) words of M^i and of M^0 + ... + M^(i-1), the multiplier
    and increment factor that take a PCG64 state i steps, for i = 2..count + 1.
    Cached per draw count, as read-only arrays: the Python loop costs about
    as much as the draws it serves."""
    power, total, rows = _PCG_MULT, 1, []
    for _ in range(count):
        power, total = power * _PCG_MULT & _MASK_128, (total + power) & _MASK_128
        rows.append((power >> 64, power & _SEED_MASK, total >> 64, total & _SEED_MASK))
    table = np.array(rows, np.uint64).reshape(count, 4).T.copy()
    table.setflags(write=False)
    high_m, low_m, high_g, low_g = table
    return (high_m, low_m), (high_g, low_g)


def _uniform_angles(words: np.ndarray, count: int) -> np.ndarray:
    """Row j is Generator(PCG64(words[j])).uniform(0, 2 pi, count), computed
    for all rows at once from the _seed_words rows, without numpy.random.

    PCG64 seeds its state to s_0 = (inc + w0:w1) * M + inc, with inc =
    w2:w3 << 1 | 1, and steps before each output, so draw m reads s_(m+1) =
    M^(m+2) (w0:w1 + inc) + (M^0 + ... + M^(m+1)) inc mod 2^128. Its output
    is the XSL-RR of that state, and a draw is 2 pi times its top 53 bits
    over 2^53, as in numpy's random_uniform (the scale by 2^-53 is exact, so
    one product by 2 pi / 2^53 rounds alike)."""
    words = words[:, :, None]
    increment = (words[:, 2] << _U1 | words[:, 3] >> _U63, words[:, 3] << _U1 | _U1)
    with np.errstate(over="ignore"):
        start = _add_128((words[:, 0], words[:, 1]), increment)
        power, total = _pcg_jumps(count)
        high, low = _add_128(_mul_128(power, start), _mul_128(total, increment))
        low ^= high
        high >>= _U58
        out = low >> high
        out |= low << ((_U64 - high) & _U63)
        out >>= _U11
    return out.astype(float) * _ANGLE_SCALE


def _trial_angles(policy: NoisePolicy, trials: range, shape: tuple) -> np.ndarray:
    """angles[j]: trial trials[j]'s draw of the given shape from its stream,
    default_rng([seed, trial]), which holds in row-major order the numbers
    that a run of smaller draws from that stream yields. Uniform draws are
    computed for the whole chunk at once; gaussian ones are drawn from that
    very generator, one per trial, as numpy's normal sampler is a ziggurat
    whose tables it does not expose. numpy.random is imported only then."""
    seed = policy.seed & _SEED_MASK
    if policy.distribution == "uniform":
        angles = _uniform_angles(_seed_words(seed, trials), math.prod(shape))
        return angles.reshape(len(trials), *shape)
    return np.stack([np.random.default_rng([seed, t]).normal(0.0, policy.sigma, shape)
                     for t in trials])


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
    circuit. Trial t draws from exactly default_rng([seed, t]), so identical
    policies yield identical arrays; a chunk's angles are drawn in one pass
    (_trial_angles). Trials run as a batch through _batched_rows, and each
    chunk's rows are reduced at once (_fidelities, _leakages), rounding as
    one row at a time would; the ideal output and the code space are
    conjugated once per call.
    """
    n = circuit.n_qubits
    if input_state.n_qubits != n or ideal_output.n_qubits != n:
        raise ValueError("circuit, input, and ideal output must share one register size")
    if subspace is not None and subspace.n_qubits != n:
        raise ValueError(f"{n}-qubit circuit does not match a {subspace.n_qubits}-qubit register")
    positions = _noise_positions(policy, len(circuit), block_boundaries)

    def noisy_circuit(trials: range) -> list:
        # angles[k, j]: event k of trial j, drawn from the trial's own stream
        angles = _trial_angles(policy, trials, (len(positions), len(model.axes))).swapaxes(0, 1)
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

