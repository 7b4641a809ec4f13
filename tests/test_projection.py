import numpy as np
import pytest

from tvglearn import InfeasibleBudgetError
from tvglearn.projection import is_feasible, project_capped_simplex

import oracles


HARD_KINDS = ["linspace", "geomspace", "cauchy", "ties", "spike", "lognormal"]


def _hard_input(n, kind):
    """A raw vector on n nodes that is hard for bisection, and k = n - 1."""
    m = n * (n - 1) // 2
    rng = np.random.default_rng(31)
    raw = {
        "linspace": lambda: np.linspace(-3.0, 3.0, m),
        "geomspace": lambda: np.geomspace(1e-6, 1e3, m),
        "cauchy": lambda: rng.standard_cauchy(m),
        "ties": lambda: np.round(rng.normal(size=m), 1),
        "spike": lambda: np.concatenate([[1e6], np.zeros(m - 1)]),
        "lognormal": lambda: rng.lognormal(0.0, 5.0, size=m),
    }[kind]()
    return raw, float(n - 1)


class TestBasics:
    def test_feasible_point_unchanged(self):
        raw = np.array([0.5, 0.5])
        res = project_capped_simplex(raw, 1.0)
        np.testing.assert_allclose(res.projected, raw, atol=1e-9)
        assert abs(res.kappa) <= 1e-9

    def test_single_edge_forced_to_budget(self):
        res = project_capped_simplex(np.array([0.3]), 1.0)
        assert res.projected[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        res = project_capped_simplex(np.array([0.9, 0.5, 0.1]), 1.0)
        np.testing.assert_allclose(res.projected, [0.7, 0.3, 0.0], atol=1e-9)
        assert res.kappa == pytest.approx(0.2, abs=1e-6)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudgetError):
            project_capped_simplex(np.zeros(3), 4.0)
        with pytest.raises(InfeasibleBudgetError):
            project_capped_simplex(np.zeros(3), 0.0)
        with pytest.raises(InfeasibleBudgetError):
            project_capped_simplex(np.zeros(3), -1.0)

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            project_capped_simplex(np.array([np.nan, 0.0]), 1.0)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            project_capped_simplex(np.zeros(3), 1.0, tol=0.0)


class TestFeasibility:
    def test_simple_cases(self):
        assert is_feasible([0.5, 0.5], 1.0, tol=1e-9)
        assert not is_feasible([1.2, 0.0], 1.2, tol=1e-9)
        assert not is_feasible([0.6, 0.6], 1.0, tol=1e-9)

    def test_projection_outputs_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            k = float(rng.uniform(0.01, m))
            raw = rng.normal(0.0, 2.0, size=m)
            res = project_capped_simplex(raw, k)
            assert res.projected.min() >= 0.0
            assert res.projected.max() <= 1.0
            assert abs(res.projected.sum() - k) <= 1e-9


class TestProperties:
    def test_idempotence(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 25))
            k = float(rng.uniform(0.1, m - 0.05))
            raw = rng.normal(0.0, 3.0, size=m)
            once = project_capped_simplex(raw, k).projected
            twice = project_capped_simplex(once, k).projected
            np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_non_expansiveness(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(2, 25))
            k = float(rng.uniform(0.1, m - 0.05))
            u = rng.normal(0.0, 2.0, size=m)
            v = rng.normal(0.0, 2.0, size=m)
            pu = project_capped_simplex(u, k).projected
            pv = project_capped_simplex(v, k).projected
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    def test_order_equivariance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            k = float(rng.uniform(0.1, m - 0.05))
            raw = rng.normal(0.0, 2.0, size=m)
            perm = rng.permutation(m)
            direct = project_capped_simplex(raw[perm], k).projected
            permuted = project_capped_simplex(raw, k).projected[perm]
            np.testing.assert_allclose(direct, permuted, atol=1e-9)

    def test_matches_kkt_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(3, 11))
            k = float(rng.uniform(0.05, m - 0.05))
            raw = rng.uniform(-2.0, 3.0, size=m)
            res = project_capped_simplex(raw, k)
            expected, _ = oracles.kkt_projection(raw, k)
            np.testing.assert_allclose(res.projected, expected, atol=1e-6)

    def test_matches_breakpoint_method_including_kappa(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            m = int(rng.integers(2, 30))
            k = float(rng.uniform(0.05, m - 0.05))
            raw = rng.normal(0.0, 2.0, size=m)
            res = project_capped_simplex(raw, k)
            expected, kappa = oracles.breakpoint_projection(raw, k)
            np.testing.assert_allclose(res.projected, expected, atol=1e-8)
            assert res.kappa == pytest.approx(kappa, abs=1e-8)

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("kind", HARD_KINDS)
    def test_hard_inputs_match_breakpoint_method_in_few_steps(self, n, kind):
        raw, k = _hard_input(n, kind)
        res = project_capped_simplex(raw, k)
        expected, kappa = oracles.breakpoint_projection(raw, k)
        np.testing.assert_allclose(res.projected, expected, rtol=0, atol=1e-12)
        assert res.kappa == pytest.approx(kappa, rel=0, abs=1e-12)
        # bisection alone needs 39-61 steps on the linspace, Cauchy, ties and
        # spike inputs
        assert 1 <= res.iterations <= 20

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("kind", HARD_KINDS)
    def test_warm_start_gives_the_cold_start_result(self, n, kind):
        raw, k = _hard_input(n, kind)
        cold = project_capped_simplex(raw, k)
        lo, hi = raw.min() - 1.0, raw.max()
        starts = [cold.kappa + d for d in (0.0, -1e-3, 1e-3, -10.0, 10.0)]
        starts += [np.nan, lo, hi, lo - 5.0, hi + 5.0]
        for start in starts:
            warm = project_capped_simplex(raw, k, start=start)
            np.testing.assert_allclose(warm.projected, cold.projected, rtol=0, atol=1e-12)
            assert warm.kappa == pytest.approx(cold.kappa, rel=0, abs=1e-12)
        assert project_capped_simplex(raw, k, start=cold.kappa).iterations == 1

    def test_flat_interval_midpoint_kappa(self):
        # integer budget met by fully clamped coordinates: the optimal shift
        # is a whole interval, and the midpoint is reported
        res = project_capped_simplex(np.array([5.0, -3.0]), 1.0)
        np.testing.assert_allclose(res.projected, [1.0, 0.0], atol=0)
        expected, kappa = oracles.breakpoint_projection(np.array([5.0, -3.0]), 1.0)
        np.testing.assert_allclose(res.projected, expected, atol=0)
        assert res.kappa == pytest.approx(kappa, abs=1e-12)
        assert res.kappa == pytest.approx(0.5 * ((-3.0) + (5.0 - 1.0)), abs=1e-12)

    def test_all_ones_budget(self):
        # k equal to the edge count forces every weight to 1
        res = project_capped_simplex(np.array([0.2, 0.9, -1.0]), 3.0)
        np.testing.assert_allclose(res.projected, 1.0, atol=0)
