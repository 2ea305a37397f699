"""Batched straggler noise against one NumPy Generator per task."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compute import ComputeModel, seed_words

from tests.oracles import straggler_noise_reference

SIGMA = DEFAULT_CALIBRATION.straggler_sigma


def _reference(seed, indices, sigma=SIGMA):
    return [straggler_noise_reference(seed, sigma, int(i)) for i in indices]


def test_prefix_matches_default_rng():
    assert SIGMA > 0
    idx = np.arange(20_000)
    assert ComputeModel().straggler_noise(idx).tolist() == _reference(7, idx)


def test_large_indices_match_default_rng():
    idx = np.array([2**16, 2**31, 2**32 - 1])
    assert ComputeModel(seed=3).straggler_noise(idx).tolist() == _reference(3, idx)


def test_non_prefix_indices_match_default_rng():
    idx = np.array([50, 3, 3, 17, 0, 49])
    cold = ComputeModel()
    assert cold.straggler_noise(idx).tolist() == _reference(7, idx)
    warm = ComputeModel()
    warm.straggler_noise(np.arange(10))
    assert warm.straggler_noise(idx).tolist() == _reference(7, idx)
    # A request that extends the cached prefix, out of order.
    tail = np.array([12, 10, 11, 4])
    assert warm.straggler_noise(tail).tolist() == _reference(7, tail)
    assert warm.straggler_noise(np.arange(13)).tolist() == _reference(7, range(13))


def test_zero_sigma_gives_ones():
    cm = ComputeModel(Calibration(straggler_sigma=0.0))
    assert cm.straggler_noise(np.arange(5)).tolist() == [1.0] * 5


@pytest.mark.parametrize("seed, index", [(7, -1), (7, 2**32), (-1, 0), (2**32, 0)])
def test_out_of_range_seed_or_index_raises(seed, index):
    with pytest.raises(ValueError):
        ComputeModel(seed=seed).straggler_noise(np.array([0, index]))


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5, 2**32 - 1])
def test_seed_words_match_seed_sequence(seed):
    idx = np.array([0, 1, 2, 1000, 2**16, 2**31, 2**32 - 1])
    words = seed_words(seed, idx)
    assert words.dtype == np.uint64 and words.shape == (len(idx), 4)
    for i, row in zip(idx.tolist(), words):
        expected = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist()
