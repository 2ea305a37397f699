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

from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION


class ComputeModel:
    """Turns flop counts into simulated durations."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION, seed: int = 7) -> None:
        self.cal = calibration
        self._seed = seed
        # Straggler noise is deterministic per (seed, task_index) but each
        # draw constructs a fresh Generator (~45 us); the codegen asks for
        # the same index up to three times per tile, so memoize.
        self._noise_cache: dict[int, float] = {}

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
    def straggler_noise(self, task_index: int) -> float:
        """The seeded mean-one straggler multiplier for ``task_index``.

        Public so the critical-path profiler can compare the *observed*
        max/median tile skew against what the calibrated lognormal model
        predicts for the same task count."""
        return self._straggler_noise(task_index)

    def _straggler_noise(self, task_index: int) -> float:
        if self.cal.straggler_sigma <= 0.0:
            return 1.0
        cached = self._noise_cache.get(task_index)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self._seed, task_index))
        sigma = self.cal.straggler_sigma
        # Mean-one lognormal: E[exp(N(-s^2/2, s^2))] = 1.
        noise = float(rng.lognormal(mean=-(sigma**2) / 2.0, sigma=sigma))
        self._noise_cache[task_index] = noise
        return noise

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
        seeded straggler draw for ``task_indices[j]`` (memoized per index).
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
            noise = np.fromiter(
                (self._straggler_noise(int(i)) for i in task_indices),
                dtype=np.float64, count=len(task_indices))
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
