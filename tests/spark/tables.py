"""Small columnar task sets and job costs for Spark-layer tests."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.spark.driver import TaskCostsArrays
from repro.spark.tasktable import TaskTable


def task_table(n: int, closure: Callable[[int], Any] = lambda i: [i],
               **columns: Any) -> TaskTable:
    """``n`` tasks with task ids and splits ``0..n-1``; row ``i`` runs
    ``closure(i)``.  Each keyword sets one :class:`TaskTable` column; a
    scalar fills every row."""
    return TaskTable(
        task_id=range(n),
        split=range(n),
        closures=[lambda i=i: closure(i) for i in range(n)],
        **{name: np.full(n, v) if np.isscalar(v) else v
           for name, v in columns.items()},
    )


def uniform_costs(n: int, compute_s: float = 0.0, jni_s: float = 0.0,
                  input_bytes: int = -1, output_bytes: int = -1) -> TaskCostsArrays:
    """The same costs for each of ``n`` tasks; byte counts default to -1
    ("measure")."""
    zero = np.zeros(n)
    return TaskCostsArrays(
        compute_s=np.full(n, compute_s), jni_s=np.full(n, jni_s),
        decompress_s=zero, compress_s=zero,
        input_bytes=np.full(n, input_bytes, dtype=np.int64),
        output_bytes=np.full(n, output_bytes, dtype=np.int64))
