import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvglearn import InfeasibleBudgetError, _kernels
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

    def test_rows_stopped_by_the_step_cap(self, monkeypatch):
        # a cold start needs more than two steps on these rows, a start at
        # the cold kappa stops on the first, so rows leave on different steps
        stack, k, _ = _stack_cases()[0]
        cold = np.array([project_capped_simplex(row, k).kappa for row in stack])
        starts = np.where(np.arange(len(stack)) % 2 == 0, cold, np.nan)
        monkeypatch.setattr(_kernels, "_MAX_STEPS", 2)
        res = project_capped_simplex(stack, k, start=starts)
        steps, missed = [], []
        for r, row in enumerate(stack):
            single = project_capped_simplex(row, k, start=starts[r])
            np.testing.assert_array_equal(res.projected[r], single.projected)
            assert res.kappa[r] == single.kappa
            steps.append(single.iterations)
            missed.append(abs(single.projected.sum() - k))
        assert sorted(set(steps)) == [1, 2]
        assert res.iterations == sum(steps)
        # a row cut off by the cap is in the box but may miss the budget
        assert res.projected.min() >= 0.0 and res.projected.max() <= 1.0
        assert max(missed) > 1e-3

    def test_huge_scale_rows_stop_before_the_step_cap(self):
        # one ulp of kappa outgrows an absolute bracket width once
        # |kappa| > 64; the width stop is relative, so these rows end early
        rng = np.random.default_rng(47)
        stack = rng.normal(0.0, 1e8, size=(200, 190))
        for row in stack:
            res = project_capped_simplex(row, 7.3)
            assert res.iterations < _kernels._MAX_STEPS
            assert res.projected.min() >= 0.0 and res.projected.max() <= 1.0
            assert abs(res.projected.sum() - 7.3) <= 1e-9

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
        with pytest.raises(ValueError, match="start"):
            project_capped_simplex(stack, 1.0, start=np.zeros(2))
        with pytest.raises(ValueError, match="start"):
            project_capped_simplex(stack[0], 1.0, start=np.zeros(1))
        with pytest.raises(ValueError):
            project_capped_simplex(np.zeros((2, 2, 2)), 1.0)
        with pytest.raises(ValueError, match="rows of raw must be positive, got 0"):
            project_capped_simplex(np.zeros((0, 4)), 1.0)


@st.composite
def _stack_and_budget(draw):
    """A (b, m) stack and a budget k in (0, m]: spread or tied values at one
    scale, or rows whose top k coordinates sit at least 1 above the rest, so
    that an integer k is met on a flat stretch of the clipped sum."""
    b = draw(st.integers(1, 8))
    m = draw(st.integers(1, 60))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8]))
    kind = draw(st.sampled_from(["spread", "ties", "flat"]))
    if kind == "ties":
        elements = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    else:
        elements = st.floats(-1.0, 1.0)
    stack = draw(arrays(np.float64, (b, m), elements=elements)) * scale
    if kind == "flat":
        top = draw(st.integers(1, m))
        stack[:, :top] += 2.0 * scale + 1.0
        return stack, float(top)
    k = draw(st.one_of(
        st.integers(1, m).map(float),
        st.floats(0.0, m, exclude_min=True),
    ))
    return stack, k


def _starts(b):
    value = st.one_of(
        st.just(np.nan), st.floats(-10.0, 10.0), st.floats(-1e12, 1e12)
    )
    return st.one_of(
        st.none(), value, arrays(np.float64, (b,), elements=value)
    )


class TestStackProperties:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_each_row_is_its_own_projection(self, data):
        stack, k = data.draw(_stack_and_budget())
        start = data.draw(_starts(stack.shape[0]))
        res = project_capped_simplex(stack, k, start=start)
        assert res.projected.min() >= 0.0 and res.projected.max() <= 1.0
        np.testing.assert_allclose(res.projected.sum(axis=1), k, rtol=0, atol=1e-9)
        total = 0
        for r, row in enumerate(stack):
            row_start = start if start is None or np.ndim(start) == 0 else start[r]
            single = project_capped_simplex(row, k, start=row_start)
            np.testing.assert_array_equal(res.projected[r], single.projected)
            assert res.kappa[r] == single.kappa
            total += single.iterations
        assert res.iterations == total


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


class TestFeasibility:
    def test_simple_cases(self):
        assert is_feasible([0.5, 0.5], 1.0, tol=1e-9)
        assert not is_feasible([1.2, 0.0], 1.2, tol=1e-9)
        assert not is_feasible([0.6, 0.6], 1.0, tol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_are_infeasible(self, bad):
        assert not is_feasible([0.5, bad], 1.0)

    def test_a_stack_is_not_judged_by_its_total(self):
        # each row sums to 0.5, though the stack sums to 1
        with pytest.raises(ValueError, match=r"^edges must be 1-D, got 2-D$"):
            is_feasible(np.full((2, 3), 1 / 6), 1.0)

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

    def test_integer_budget_kappa_matches_breakpoint_method(self):
        # g(w[0] - 1) rounds to k - 2e-16 here; the oracle once dropped that
        # end of the flat stretch [w[1], w[0] - 1] and reported w[1]
        w = np.array([-1.3577161001684586, -2.6779243855351567])
        _, kappa = oracles.breakpoint_projection(w, 1.0)
        assert kappa == pytest.approx(0.5 * (w[1] + w[0] - 1.0), abs=1e-12)
        assert project_capped_simplex(w, 1.0).kappa == pytest.approx(kappa, abs=1e-12)
        rng = np.random.default_rng(31)
        for _ in range(500):
            m = int(rng.integers(2, 30))
            raw = rng.normal(0.0, float(rng.uniform(0.3, 10.0)), size=m)
            k = float(rng.integers(1, m + 1))
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

    def test_flat_stretch_kappa_is_its_midpoint_from_any_start(self):
        # the search may stop with a coordinate a rounding error inside
        # (0, 1) at either end of the stretch; kappa is still the midpoint
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(600):
            m = int(rng.integers(2, 30))
            k = int(rng.integers(1, m))
            raw = rng.normal(0.0, 5.0, size=m)
            top = np.sort(raw)[::-1]
            if top[k - 1] - 1.0 <= top[k]:
                continue  # no flat stretch at this budget
            midpoint = 0.5 * (top[k] + (top[k - 1] - 1.0))
            for start in (None, float(rng.normal(0.0, 5.0))):
                res = project_capped_simplex(raw, float(k), start=start)
                assert res.kappa == pytest.approx(midpoint, rel=1e-12, abs=1e-12)
                checked += 1
        assert checked > 500

    def test_all_ones_budget(self):
        # k equal to the edge count forces every weight to 1
        res = project_capped_simplex(np.array([0.2, 0.9, -1.0]), 3.0)
        np.testing.assert_allclose(res.projected, 1.0, atol=0)
