import tracemalloc

import numpy as np
import pytest

from tvglearn.proximal import prox_l1_linear

import oracles


def _prox_objective(z, v, alpha, beta, lam):
    return alpha * abs(z) + beta * z + (z - v) ** 2 / (2.0 * lam)


def _soft(a, s):
    """The soft threshold of ``a`` by ``s``: the prox at beta = 0, lam = 1."""
    return prox_l1_linear(a, s, np.zeros_like(a, dtype=np.float64), 1.0)


class TestSoftThreshold:
    """prox_l1_linear at beta = 0, lam = 1 is sign(a) * max(|a| - s, 0)."""

    def test_zero(self):
        assert _soft(0.0, 1.0) == 0.0

    def test_odd_symmetry(self):
        assert _soft(3.0, 1.0) == 2.0
        assert _soft(-3.0, 1.0) == -2.0

    def test_dead_zone(self):
        assert _soft(0.4, 1.0) == 0.0

    def test_negative_threshold_is_rejected(self):
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            _soft(np.ones(3), -0.1)

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_non_finite_threshold_is_rejected(self, s):
        with pytest.raises(ValueError, match="alpha must be non-negative and finite"):
            _soft(np.ones(3), s)

    @pytest.mark.parametrize("shape", [(7, 190), (3, 4950), (0, 190), (5,)])
    def test_matches_the_sign_formula_on_random_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-8, 1.0, 1e8):
            a = scale * rng.normal(size=shape)
            for s in (0.0, 0.5 * scale, scale, float(np.abs(a).max(initial=0.0))):
                # equal up to the sign of zeros, which array_equal ignores
                assert np.array_equal(_soft(a, s), oracles.soft_threshold_sign(a, s))

    def test_matches_the_sign_formula_on_edge_values(self):
        a = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0),
                      np.nextafter(-1.0, -2.0), np.inf, -np.inf, np.nan, 5e-324])
        for s in (0.0, 1.0, 5e-324):
            new = _soft(a, s)
            old = oracles.soft_threshold_sign(a, s)
            assert np.array_equal(new, old, equal_nan=True), s


class TestPurity:
    """The prox returns a new array and never writes into its arguments."""

    def test_soft_threshold_leaves_its_argument(self):
        a = np.random.default_rng(6).normal(size=(3, 7))
        before = a.copy()
        out = _soft(a, 0.5)
        assert not np.shares_memory(out, a)
        np.testing.assert_array_equal(a, before)

    def test_prox_leaves_its_arguments(self):
        rng = np.random.default_rng(7)
        v, beta = rng.normal(size=(3, 7)), rng.normal(size=(3, 7))
        v_before, beta_before = v.copy(), beta.copy()
        out = prox_l1_linear(v, 0.3, beta, 0.7)
        assert not np.shares_memory(out, v) and not np.shares_memory(out, beta)
        np.testing.assert_array_equal(v, v_before)
        np.testing.assert_array_equal(beta, beta_before)

    @pytest.mark.parametrize("scalar", [float, np.array], ids=["float", "0-d array"])
    def test_scalars_are_accepted_and_left(self, scalar):
        a, v, beta, zero = scalar(-3.0), scalar(2.0), scalar(1.0), scalar(0.0)
        assert prox_l1_linear(a, 1.0, zero, 1.0) == -2.0
        assert prox_l1_linear(v, 0.5, beta, 1.0) == 0.5
        assert (a, v, beta, zero) == (-3.0, 2.0, 1.0, 0.0)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_any_memory_layout(self, layout):
        # the threshold runs over a flat view of the prox's C-ordered buffer
        rng = np.random.default_rng(9)
        v, beta = rng.normal(size=(2, 5, 3000)), rng.normal(size=(2, 5, 3000))
        if layout == "fortran":
            a, b = np.asfortranarray(v), np.asfortranarray(beta)
        else:
            a, b = v[:, ::2, ::3], beta[:, ::2, ::3]
        expected = oracles.soft_threshold_sign(np.array(a), 0.5)
        assert np.array_equal(_soft(a, 0.5), expected)
        assert np.array_equal(prox_l1_linear(a, 0.5, b, 1.0),
                              oracles.soft_threshold_sign(np.array(a) - np.array(b), 0.5))


class TestSignOfZeros:
    """Every thresholded entry comes out as +0.0, whatever its input's sign."""

    inputs = np.array([-0.0, 0.0, -0.5, 0.5, -1.0, 1.0, -5e-324, 5e-324])

    def test_soft_threshold(self):
        out = _soft(self.inputs, 1.0)
        assert (out == 0.0).all() and not np.signbit(out).any()

    def test_prox(self):
        # the same threshold lam * alpha = 1 from lam = 2
        zero = np.zeros_like(self.inputs)
        out = prox_l1_linear(self.inputs, 0.5, zero, 2.0)
        assert (out == 0.0).all() and not np.signbit(out).any()

    def test_stack_larger_than_one_pass(self):
        # more entries than one chunk of the threshold's scratch
        a = np.random.default_rng(10).uniform(-1.0, 1.0, size=(7, 4950))
        a[:, ::2] *= -0.0
        out = _soft(a, 1.0)
        assert (out == 0.0).all() and not np.signbit(out).any()


class TestMemory:
    """The shift and its threshold share one new buffer; the clip goes
    through a scratch a fraction of the wide stack's size."""

    @pytest.mark.parametrize("zero_beta", [True, False], ids=["soft_threshold", "prox_l1_linear"])
    def test_one_buffer(self, zero_beta):
        # the (b-1, m) stack of an 8-window fit at n=100
        v, beta = np.random.default_rng(11).normal(size=(2, 7, 4950))
        args = (0.3, np.zeros_like(v), 1.0) if zero_beta else (0.3, beta, 0.7)
        prox_l1_linear(v, *args)  # warm-up
        tracemalloc.start()
        try:
            prox_l1_linear(v, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.24 stacks; 2.0 with the clip in a second stack
        assert peak < 1.5 * v.nbytes


class TestProx:
    def test_origin(self):
        out = prox_l1_linear(np.zeros(4), 2.0, np.zeros(4), 0.5)
        np.testing.assert_array_equal(out, 0.0)

    def test_pure_l1(self):
        out = prox_l1_linear(np.array([2.0, 0.3, -2.0]), 0.5, np.zeros(3), 1.0)
        np.testing.assert_allclose(out, [1.5, 0.0, -1.5], atol=0)

    def test_with_linear_term(self):
        out = prox_l1_linear(np.array([2.0]), 0.5, np.array([1.0]), 1.0)
        np.testing.assert_allclose(out, [0.5], atol=0)

    def test_identity_when_f_vanishes(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6)
        out = prox_l1_linear(v, 0.0, np.zeros(6), 2.0)
        np.testing.assert_array_equal(out, v)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            prox_l1_linear(np.zeros(2), 1.0, np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            prox_l1_linear(np.zeros(2), -0.5, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            prox_l1_linear(np.zeros(2), 1.0, np.zeros(3), 1.0)

    @pytest.mark.parametrize("name", ["alpha", "lam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_is_rejected(self, name, value):
        args = {"alpha": 0.5, "lam": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            prox_l1_linear(np.ones(3), args["alpha"], np.zeros(3), args["lam"])

    def test_overflowing_threshold_is_rejected(self):
        # alpha and lam are finite, their product is not
        with pytest.raises(ValueError, match=r"lam \* alpha must be non-negative and finite"):
            prox_l1_linear(np.ones(3), 1e300, np.zeros(3), 1e10)

    def test_fixed_point_iff_minimizer(self):
        # when |beta| <= alpha the minimizer of f is 0, so 0 is a fixed point
        rng = np.random.default_rng(2)
        for _ in range(50):
            alpha = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(0.1, 3.0))
            beta = rng.uniform(-alpha, alpha, size=3)
            out = prox_l1_linear(np.zeros(3), alpha, beta, lam)
            np.testing.assert_array_equal(out, 0.0)
        # and with |beta| > alpha it is not
        out = prox_l1_linear(np.zeros(1), 0.5, np.array([2.0]), 1.0)
        assert out[0] != 0.0

    def test_firm_non_expansiveness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 10))
            alpha = float(rng.uniform(0.0, 2.0))
            lam = float(rng.uniform(0.1, 3.0))
            beta = rng.normal(size=m)
            u = rng.normal(0.0, 2.0, size=m)
            v = rng.normal(0.0, 2.0, size=m)
            pu = prox_l1_linear(u, alpha, beta, lam)
            pv = prox_l1_linear(v, alpha, beta, lam)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = float(rng.uniform(-3.0, 3.0))
            alpha = float(rng.uniform(0.0, 2.0))
            beta = float(rng.uniform(-2.0, 2.0))
            lam = float(rng.uniform(0.1, 3.0))
            span = abs(v) + lam * (alpha + abs(beta)) + 1.0
            z_star = oracles.golden_min(
                lambda z: _prox_objective(z, v, alpha, beta, lam), -span, span
            )
            out = prox_l1_linear(np.array([v]), alpha, np.array([beta]), lam)
            assert out[0] == pytest.approx(z_star, abs=1e-6)
