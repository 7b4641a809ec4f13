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


def _stack_cases():
    """Rows of every kind the 1-D tests use, grouped into (b, m) stacks, each
    with one start per row."""
    rng = np.random.default_rng(41)
    cases = []
    for n in (20, 100):
        rows = [_hard_input(n, kind)[0] for kind in HARD_KINDS]
        m = n * (n - 1) // 2
        k = float(n - 1)
        # a flat stretch: an integer budget met by rows pinned at 0 and 1
        rows.append(np.concatenate([np.full(n - 1, 5.0), np.full(m - n + 1, -3.0)]))
        rows += [rng.normal(0.0, 2.0, size=m) for _ in range(3)]
        stack = np.stack(rows)
        cold = [project_capped_simplex(row, k).kappa for row in stack]
        lo, hi = stack.min(axis=1) - 1.0, stack.max(axis=1)
        for pick in range(4):
            starts = np.array([
                [np.nan, lo[r] - 5.0, hi[r] + 1.0, cold[r]][(r + pick) % 4]
                for r in range(len(stack))
            ])
            cases.append((stack, k, starts))
        cases.append((stack, k, None))
        cases.append((stack[::-1], k, float(np.median(cold))))
    for _ in range(20):
        b = int(rng.integers(1, 9))
        m = int(rng.integers(2, 40))
        stack = rng.normal(0.0, rng.choice([0.1, 2.0, 50.0]), size=(b, m))
        starts = rng.normal(0.0, 1.0, size=b)
        starts[rng.random(b) < 0.3] = np.nan
        cases.append((stack, float(rng.uniform(0.05, m)), starts))
    return cases


class TestStack:
    def test_rows_match_the_one_dimensional_projection(self):
        for stack, k, starts in _stack_cases():
            res = project_capped_simplex(stack, k, start=starts)
            assert res.projected.shape == stack.shape
            assert res.kappa.shape == (stack.shape[0],)
            assert type(res.iterations) is int
            total = 0
            for r, row in enumerate(stack):
                start = starts if starts is None or np.ndim(starts) == 0 else starts[r]
                single = project_capped_simplex(row, k, start=start)
                np.testing.assert_allclose(
                    res.projected[r], single.projected, rtol=0, atol=1e-12
                )
                assert res.kappa[r] == pytest.approx(single.kappa, rel=0, abs=1e-12)
                total += single.iterations
            assert res.iterations == total

    def test_one_dimensional_result_types(self):
        raw, k = _hard_input(20, "cauchy")
        res = project_capped_simplex(raw, k, start=np.float64(0.1))
        assert res.projected.shape == raw.shape
        assert type(res.kappa) is float and type(res.iterations) is int

    def test_errors(self):
        stack = np.zeros((3, 4))
        bad = stack.copy()
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            project_capped_simplex(bad, 1.0)
        with pytest.raises(InfeasibleBudgetError):
            project_capped_simplex(stack, 5.0)
        with pytest.raises(ValueError, match="tol"):
            project_capped_simplex(stack, 1.0, tol=0.0)
        with pytest.raises(ValueError, match="start"):
            project_capped_simplex(stack, 1.0, start=np.zeros(2))
        with pytest.raises(ValueError, match="start"):
            project_capped_simplex(stack[0], 1.0, start=np.zeros(1))
        with pytest.raises(ValueError):
            project_capped_simplex(np.zeros((2, 2, 2)), 1.0)


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
