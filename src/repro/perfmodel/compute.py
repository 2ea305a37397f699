"""Computation-time model.

Three effects shape the paper's computation curves:

* **JNI** — loop bodies run natively through the Java Native Interface; the
  paper measures the cost at "just 1.8%" plus one call per task (which is why
  Algorithm 1 tiles the loop down to one task per core);
* **per-node memory contention** — the Polybench kernels are naive,
  memory-bound loops, so co-resident tasks fight for the node's memory
  bandwidth.  This is what bends OmpThread-16 to ~9x and caps the 256-core
  computation speedup of 3MM at ~143x; compute-bound collinear-list (low
  ``memory_intensity``) is nearly immune;
* **stragglers** — EC2 multi-tenant jitter, modelled as deterministic
  seeded lognormal noise per task.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _uint32_words(values, what: str) -> np.ndarray:
    """``values`` as one 32-bit entropy word each; anything else raises."""
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(np.uint32)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers in [0, 2**32), got dtype {arr.dtype}")
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi > _MASK32:
        raise ValueError(f"{what} must lie in [0, 2**32), got {lo if lo < 0 else hi}")
    return arr.astype(np.uint32)


def seed_words(seed: int, task_indices: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every
    index ``i`` at once, as an ``(n, 4)`` uint64 array.

    NumPy's hashmix/mix pool algorithm over uint32 arrays.  The hash
    constant evolves independently of the data, so it stays a Python int;
    every array product wraps modulo 2**32 exactly like the C code.
    """
    seed_word = _uint32_words(seed, "straggler seed")
    idx = _uint32_words(task_indices, "task indices").ravel()
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    # Entropy (seed, i) is two words; the pool pads with zeros.
    zeros = np.zeros(idx.shape, dtype=np.uint32)
    pool = [hashmix(zeros + seed_word), hashmix(idx), hashmix(zeros), hashmix(zeros)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = np.empty((idx.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> np.uint32(16))
    # Consecutive word pairs form the uint64s, as in generate_state.
    return state.view(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands PCG64 seed words that :func:`seed_words` already hashed."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


class ComputeModel:
    """Turns flop counts into simulated durations."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION, seed: int = 7) -> None:
        self.cal = calibration
        self._seed = int(_uint32_words(seed, "straggler seed"))
        # Straggler noise for task indices 0..k-1, grown by its missing tail.
        self._noise = np.empty(0, dtype=np.float64)

    # ----------------------------------------------------------- baselines
    def sequential_time(self, flops: float) -> float:
        """Single-core native execution: the speedup denominator of Fig. 4."""
        if flops < 0:
            raise ValueError(f"negative flops {flops!r}")
        return flops / self.cal.core_flops

    def contention_factor(self, tasks_on_node: int, slots_per_node: int, intensity: float) -> float:
        """Slowdown of each task when ``tasks_on_node`` share one node.

        Linear in the co-runner count, scaled by the workload's memory
        intensity (1.0 = fully bandwidth-bound, 0.0 = pure compute).
        """
        if tasks_on_node < 1:
            raise ValueError(f"tasks_on_node must be >= 1, got {tasks_on_node}")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity!r}")
        if slots_per_node <= 1:
            return 1.0
        k = min(tasks_on_node, slots_per_node)
        return 1.0 + self.cal.contention_ceiling * intensity * (k - 1) / (slots_per_node - 1)

    # --------------------------------------------------------------- OmpCloud
    def straggler_noise(self, task_indices: np.ndarray) -> np.ndarray:
        """The seeded mean-one straggler multipliers for ``task_indices``.

        Element ``j`` is bit-equal to ``lognormal(-s**2/2, s)`` drawn from
        a fresh NumPy Generator seeded with ``(seed, task_indices[j])``.
        The seeds are hashed for all indices at once (:func:`seed_words`);
        per index only the PCG64 seeding and the one draw remain.  Seeds
        and indices must lie in ``[0, 2**32)``.  Public so the
        critical-path profiler can compare the *observed* max/median tile
        skew against what the calibrated lognormal model predicts."""
        idx = _uint32_words(task_indices, "task indices").astype(np.int64)
        sigma = self.cal.straggler_sigma
        if sigma <= 0.0:
            return np.ones(idx.shape, dtype=np.float64)
        n_cached = len(self._noise)
        tail = np.unique(idx[idx >= n_cached])
        # Mean-one lognormal: E[exp(N(-s^2/2, s^2))] = 1.
        mean = -(sigma**2) / 2.0
        drawn = np.array([Generator(PCG64(_SeedWords(w))).lognormal(mean=mean, sigma=sigma)
                          for w in seed_words(self._seed, tail)], dtype=np.float64)
        table = np.concatenate([self._noise, drawn])
        if tail.size and tail[-1] == n_cached + tail.size - 1:  # extends the prefix
            self._noise = table
        pos = np.where(idx < n_cached, idx, n_cached + np.searchsorted(tail, idx))
        return table[pos]

    def task_timing_vec(
        self,
        tile_flops: np.ndarray,
        tasks_on_node: int,
        slots_per_node: int,
        intensity: float,
        task_indices: np.ndarray,
        jni_calls: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Slot time of every map task: ``(compute_s, jni_s)`` arrays.

        Task ``j`` computes ``tile_flops[j]`` at the sequential rate, slowed
        by the JNI efficiency loss, the node's memory contention and the
        seeded straggler draw for ``task_indices[j]``.
        ``jni_calls`` is 1 after Algorithm 1's tiling; an untiled loop pays
        one call per iteration (the ablation bench exercises exactly this).
        With ``straggler_sigma == 0`` the whole timing pass is a handful of
        array ops regardless of task count.
        """
        flops = np.asarray(tile_flops, dtype=np.float64)
        if flops.size and float(flops.min()) < 0:
            j = int(np.argmin(flops))
            raise ValueError(f"negative flops {float(flops[j])!r}")
        base = flops / self.cal.core_flops
        cont = self.contention_factor(tasks_on_node, slots_per_node, intensity)
        if self.cal.straggler_sigma <= 0.0:
            compute = base * (1.0 + self.cal.jni_efficiency_loss) * cont
        else:
            noise = self.straggler_noise(task_indices)
            compute = base * (1.0 + self.cal.jni_efficiency_loss) * cont * noise
        jni = np.full(flops.shape, self.cal.jni_call_s * max(0, jni_calls))
        return compute, jni

    # -------------------------------------------------------------- OmpThread
    def omp_thread_time(self, total_flops: float, threads: int, intensity: float,
                        slots_per_node: int | None = None) -> float:
        """Multi-threaded OpenMP on one node (the Fig. 4 reference series)."""
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        slots = slots_per_node if slots_per_node is not None else self.cal.worker_task_slots
        cont = self.contention_factor(threads, slots, intensity)
        per_thread = self.sequential_time(total_flops) / threads
        return per_thread * cont * (1.0 + self.cal.omp_sync_loss)

    def omp_thread_speedup(self, threads: int, intensity: float) -> float:
        """Speedup over single core, independent of the flop count."""
        t1 = 1.0
        tn = self.omp_thread_time(self.cal.core_flops, threads, intensity)
        return t1 / tn
