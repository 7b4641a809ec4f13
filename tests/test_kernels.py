import warnings

import numpy as np
import pytest

from tvglearn._kernels import pairwise_sq_dists

import oracles


@pytest.mark.parametrize("shape", [(2, 1), (20, 200), (100, 200), (20, 1600)])
def test_matches_loop_oracle(shape):
    x = np.random.default_rng(41).normal(size=shape)
    np.testing.assert_allclose(
        pairwise_sq_dists(x), oracles.pairwise_sq_dists_loops(x), rtol=1e-12, atol=0
    )


def test_common_offset_does_not_cost_precision():
    # without centring, the Gram route is off by up to 2e-3 relative here
    x = np.random.default_rng(43).normal(size=(20, 200)) + 1e6
    np.testing.assert_allclose(
        pairwise_sq_dists(x), oracles.pairwise_sq_dists_loops(x), rtol=1e-9, atol=0
    )


def test_per_node_offsets():
    rng = np.random.default_rng(47)
    x = rng.normal(size=(20, 200)) + rng.uniform(-1e3, 1e3, size=(20, 1))
    np.testing.assert_allclose(
        pairwise_sq_dists(x), oracles.pairwise_sq_dists_loops(x), rtol=1e-9, atol=0
    )


def test_identical_rows_give_zero_and_nothing_is_negative():
    rng = np.random.default_rng(53)
    for scale in (1e-6, 1.0, 1e6):
        x = rng.normal(scale=scale, size=(12, 300))
        x[7] = x[2]
        x[11] = x[2]
        d = pairwise_sq_dists(x)
        assert d.min() >= 0.0
        i_idx, j_idx = np.triu_indices(12, k=1)
        same = np.isin(i_idx, (2, 7, 11)) & np.isin(j_idx, (2, 7, 11))
        assert same.sum() == 3
        assert np.all(d[same] <= 1e-12 * scale**2 * x.shape[1])
        assert np.all(d[~same] > 0.0)


@pytest.mark.parametrize("shape", [(3, 4), (20, 200)])
def test_huge_equal_rows_raise_no_warning(shape):
    x = np.full(shape, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = pairwise_sq_dists(x)
    np.testing.assert_array_equal(d, 0.0)
