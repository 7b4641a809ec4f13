import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import tvglearn as tg
from tvglearn import errors
from tvglearn.errors import InfeasibleBudgetError, as_float_array, check_finite, check_integer


def test_public_errors_are_the_five_typed_classes():
    assert sorted(errors.__all__) == sorted([
        "TvgLearnError", "DataError", "InfeasibleBudgetError", "SingularSystemError",
        "DivergenceError"])
    for name in errors.__all__:
        assert issubclass(getattr(errors, name), errors.TvgLearnError), name
    assert issubclass(InfeasibleBudgetError, ValueError)
    assert len(tg.__all__) == 36


@pytest.mark.parametrize("value, minimum, maximum, match", [
    (-1, 0, None, "k must be non-negative, got -1"),
    (0, 1, None, "k must be positive, got 0"),
    (1, 2, None, "k must be at least 2, got 1"),
    (True, 0, None, "k must be an integer, got True"),
    (0, 1, 3, r"k must be in \[1, 3\], got 0"),
    (4, 1, 3, r"k must be in \[1, 3\], got 4"),
    (np.int64(-1), 0, 0, r"k must be in \[0, 0\], got -1"),
], ids=["non-negative", "positive", "at least 2", "bool", "below [1, 3]", "above [1, 3]",
        "outside [0, 0]"])
def test_check_integer_bounds(value, minimum, maximum, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        check_integer("k", value, minimum, maximum)
    check_integer("k", minimum, minimum, maximum)  # the bounds themselves pass
    check_integer("k", maximum or minimum, minimum, maximum)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=["int", "int64", "uint8"])
def test_check_integer_returns_a_python_int(value):
    got = check_integer("k", value, 0)
    assert type(got) is int and got == 3


@pytest.mark.parametrize("value, bound, match", [
    (-1.0, "non-negative", "x must be non-negative and finite, got -1.0"),
    (0.0, "positive", "x must be positive and finite, got 0.0"),
    (np.inf, None, "x must be finite, got inf"),
    (Fraction(10**400), None, "x must be a real number, got Fraction"),
], ids=["non-negative", "positive", "any sign", "a rational past the float range"])
def test_check_finite_bounds(value, bound, match):
    with pytest.raises(ValueError, match=f"^{match}"):
        check_finite("x", value, bound=bound)
    check_finite("x", -0.5 if bound is None else 0.5, bound=bound)


class TestAsFloatArray:
    def test_float64_input_is_returned_as_is(self):
        # window_signals hands out views of the caller's record
        values = np.ones((2, 3))
        assert as_float_array("y", values, (None, None), finite=True) is values

    @pytest.mark.parametrize("values", [[1, 2], [True, False], np.arange(2, dtype=np.float32),
                                        np.arange(2.0).astype(">f8")],
                             ids=["ints", "bools", "float32", "big-endian"])
    def test_converts_as_numpy_converts_to_float64(self, values):
        got = as_float_array("y", values)
        assert got.dtype == np.float64 and got.dtype.isnative
        np.testing.assert_array_equal(got, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize("values", [np.ones(3) + 1j, [1.0, 2j], np.ones(2, np.complex64),
                                        np.complex128(1.0)],
                             ids=["complex128", "list", "complex64", "scalar"])
    def test_complex_input_is_rejected(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(ValueError, match=r"^y must be real, got complex"):
                as_float_array("y", values)

    @pytest.mark.parametrize("values", [[None, 1.0], np.array(["2020-01-01"], "datetime64[D]"),
                                        np.array([1], "timedelta64[s]"), np.zeros(2, "V8")],
                             ids=["object", "datetime64", "timedelta64", "void"])
    def test_non_numeric_dtypes_are_rejected(self, values):
        dtype = np.asarray(values).dtype
        with pytest.raises(ValueError, match=rf"^y must be real, got {re.escape(str(dtype))}$"):
            as_float_array("y", values)

    # text is not a number, in an array as in a scalar: numeric text is not parsed
    @pytest.mark.parametrize("values, dtype", [(["1.5", "2"], "<U3"), (["1.5", "one"], "<U3"),
                                               ([b"x"], "|S1")],
                             ids=["strings", "text", "bytes"])
    def test_text_is_refused(self, values, dtype):
        with pytest.raises(ValueError, match=rf"^y must be real, got {re.escape(dtype)}$"):
            as_float_array("y", values)

    @pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0]]], ids=["ragged"])
    def test_unconvertible_input_is_named(self, values):
        with pytest.raises(ValueError, match=r"^y cannot be converted to float64$") as info:
            as_float_array("y", values)
        assert isinstance(info.value.__cause__, ValueError)  # numpy's own reason

    def test_rank_wording(self):
        with pytest.raises(ValueError, match=r"^y must be 2-D, got 1-D$"):
            as_float_array("y", np.zeros(3), (None, None))
        with pytest.raises(ValueError, match=r"^y must be 0-D, got 1-D$"):
            as_float_array("y", [1.0], ())
        assert as_float_array("y", [1.0]).ndim == 1  # no shape, no rank rule

    def test_extent_wording(self):
        with pytest.raises(ValueError, match=r"^y must have shape \(20, \*\), got \(19, 200\)$"):
            as_float_array("y", np.zeros((19, 200)), (20, None))
        with pytest.raises(ValueError, match=r"^y must have shape \(3,\), got \(2,\)$"):
            as_float_array("y", np.zeros(2), (3,))
        assert as_float_array("y", np.zeros((20, 7)), (20, None)).shape == (20, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_wording(self, bad):
        with pytest.raises(ValueError, match=r"^y has non-finite entries$"):
            as_float_array("y", [0.0, bad], finite=True)
        assert np.isnan(as_float_array("y", [bad - bad])).all()  # only on request


# Valid inputs on n = 3 nodes (m = 3 edges), 2 windows of 4 samples.  Each
# case calls one public function with ``z`` added to one array argument
# and names that argument: z = 0 must run, z = 1j must be refused.
_RNG = np.random.default_rng(0)
_Y = _RNG.normal(size=(3, 8))
_W = np.array([0.5, 0.2, 0.3])
_W_SEQ = np.array([_W, _W[::-1]])
_Y_WIN = tg.window_signals(_Y, 4)
_BETA = np.zeros((1, 3))
_CFG = tg.SolverConfig(k_budget=1.0, window_len=4, max_iter=2)
_STATE = tg.SolverState(x=None, w=_W_SEQ, z=None, beta=_BETA)
_TRUTH = np.array([1.0, 0.0, 0.0])
_OBJ = dict(gamma=1.0, eta=0.0, alpha=0.1)

COMPLEX_CASES = {
    "fit_dynamic": ("y", lambda z: tg.fit_dynamic(_Y + z, _CFG)),
    "fit_static": ("y", lambda z: tg.fit_static(_Y + z, _CFG)),
    "as_signal_matrix": ("y", lambda z: tg.as_signal_matrix(_Y + z)),
    "window_signals": ("y", lambda z: tg.window_signals(_Y + z, 4)),
    "weight_matrix": ("weights", lambda z: tg.weight_matrix(_W + z)),
    "smoothness_term weights": ("weights", lambda z: tg.smoothness_term(_W + z, _Y)),
    "smoothness_term x": ("x", lambda z: tg.smoothness_term(_W, _Y + z)),
    "energy_penalty_term weights": ("weights", lambda z: tg.energy_penalty_term(_W + z, _Y)),
    "energy_penalty_term x": ("x", lambda z: tg.energy_penalty_term(_W, _Y + z)),
    "change_profile": ("w_seq", lambda z: tg.change_profile(_W_SEQ + z)),
    "objective y_windows": (
        "y_windows", lambda z: tg.objective(_Y_WIN + z, _Y_WIN, _W_SEQ, **_OBJ)),
    "objective x_windows": (
        "x_windows", lambda z: tg.objective(_Y_WIN, _Y_WIN + z, _W_SEQ, **_OBJ)),
    "objective w_seq": (
        "w_seq", lambda z: tg.objective(_Y_WIN, _Y_WIN, _W_SEQ + z, **_OBJ)),
    "update_x y_block": ("y_block", lambda z: tg.update_x(_Y + z, _W, 1.0, 0.0)),
    "update_x weights": ("weights", lambda z: tg.update_x(_Y, _W + z, 1.0, 0.0)),
    "grad_w x": ("x", lambda z: tg.grad_w(_Y_WIN + z, _BETA, _CFG)),
    "grad_w beta": ("beta", lambda z: tg.grad_w(_Y_WIN, _BETA + z, _CFG)),
    "step": ("y_windows", lambda z: tg.step(_STATE, _Y_WIN + z, _CFG)),
    "project_capped_simplex raw": ("raw", lambda z: tg.project_capped_simplex(_W_SEQ + z, 1.0)),
    "project_capped_simplex start": (
        "start", lambda z: tg.project_capped_simplex(_W_SEQ, 1.0, start=np.zeros(2) + z)),
    "is_feasible": ("edges", lambda z: tg.is_feasible(_W + z, 1.0)),
    "prox_l1_linear v": ("v", lambda z: tg.prox_l1_linear(_W + z, 0.1, _W, 1.0)),
    "prox_l1_linear beta": ("beta", lambda z: tg.prox_l1_linear(_W, 0.1, _W + z, 1.0)),
    "edge_f1 estimated": ("estimated", lambda z: tg.edge_f1(_W + z, _TRUTH, 1)),
    "edge_f1 truth": ("truth", lambda z: tg.edge_f1(_W, _TRUTH + z, 1)),
    "select_consistent_nodes": (
        "trials[1]", lambda z: tg.select_consistent_nodes([_Y, _Y[::-1] + z], 1)),
    "consensus": ("graph_per_trial", lambda z: tg.consensus(_W_SEQ + z, 0.5, 0)),
    "graph_correlation_matrix": ("w_seq", lambda z: tg.graph_correlation_matrix(_W_SEQ + z)),
}


@pytest.mark.parametrize("name, call", COMPLEX_CASES.values(), ids=COMPLEX_CASES.keys())
def test_complex_argument_is_rejected_by_name(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning included
        call(0)
        match = rf"^{re.escape(name)} must be real, got complex128$"
        with pytest.raises(ValueError, match=match):
            call(1j)


@pytest.mark.parametrize("call, match", [
    (lambda: tg.as_signal_matrix(np.zeros(5)), "y must be 2-D, got 1-D"),
    (lambda: tg.weight_matrix(np.zeros((2, 3))), "weights must be 1-D, got 2-D"),
    (lambda: tg.smoothness_term(_W_SEQ, _Y), "weights must be 1-D, got 2-D"),
    (lambda: tg.change_profile(np.zeros((1, 2, 3))), "w_seq must be 2-D, got 3-D"),
    (lambda: tg.objective(_Y_WIN, _Y_WIN, _W, **_OBJ), "w_seq must be 2-D, got 1-D"),
    (lambda: tg.select_consistent_nodes([_Y, _Y[0]], 1), r"trials\[1\] must be 2-D, got 1-D"),
], ids=["as_signal_matrix", "weight_matrix", "smoothness_term", "change_profile", "objective",
        "select_consistent_nodes"])
def test_rank_is_worded_by_argument(call, match):
    with pytest.raises(ValueError, match=rf"^{match}$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda bad: tg.as_signal_matrix(bad), "y"),
    (lambda bad: tg.update_x(bad, _W, 1.0, 0.0), "y_block"),
    (lambda bad: tg.project_capped_simplex(bad, 1.0), "raw"),
    (lambda bad: tg.edge_f1(bad[0], _TRUTH, 1), "estimated"),
    (lambda bad: tg.select_consistent_nodes([_Y, bad], 1), r"trials\[1\]"),
    (lambda bad: tg.consensus(bad, 0.5, 0), "graph_per_trial"),
    (lambda bad: tg.graph_correlation_matrix(bad), "w_seq"),
], ids=["as_signal_matrix", "update_x", "project_capped_simplex", "edge_f1",
        "select_consistent_nodes", "consensus", "graph_correlation_matrix"])
def test_non_finite_entries_are_worded_by_argument(call, name):
    bad = np.ones((3, 3))
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match=rf"^{name} has non-finite entries$"):
        call(bad)


# Each case calls one public function with ``v`` as one scalar argument and
# names that argument: the valid real must run, and every value of
# NON_REAL must be refused.
SCALAR_CASES = {
    "update_x gamma": ("gamma", 1.0, lambda v: tg.update_x(_Y, _W, v, 0.0)),
    "update_x eta": ("eta", 0.0, lambda v: tg.update_x(_Y, _W, 1.0, v)),
    "project_capped_simplex k": ("k", 1.0, lambda v: tg.project_capped_simplex(_W_SEQ, v)),
    "prox_l1_linear alpha": ("alpha", 0.1, lambda v: tg.prox_l1_linear(_W, v, _W, 1.0)),
    "prox_l1_linear lam": ("lam", 1.0, lambda v: tg.prox_l1_linear(_W, 0.1, _W, v)),
    "is_feasible k": ("k", 1.0, lambda v: tg.is_feasible(_W, v)),
    "is_feasible tol": ("tol", 1e-6, lambda v: tg.is_feasible(_W, 1.0, tol=v)),
    "consensus": ("prob_threshold", 0.5, lambda v: tg.consensus(_W_SEQ, v, 0)),
    "objective gamma": ("gamma", 1.0, lambda v: tg.objective(
        _Y_WIN, _Y_WIN, _W_SEQ, gamma=v, eta=0.0, alpha=0.1)),
    "objective eta": ("eta", 0.0, lambda v: tg.objective(
        _Y_WIN, _Y_WIN, _W_SEQ, gamma=1.0, eta=v, alpha=0.1)),
    "objective alpha": ("alpha", 0.1, lambda v: tg.objective(
        _Y_WIN, _Y_WIN, _W_SEQ, gamma=1.0, eta=0.0, alpha=v)),
}
NON_REAL = {"complex": 0.5 + 1j, "text": "0.5", "bool": True, "past the float range": 10**400}


@pytest.mark.parametrize("bad", NON_REAL.values(), ids=NON_REAL.keys())
@pytest.mark.parametrize("name, valid, call", SCALAR_CASES.values(), ids=SCALAR_CASES.keys())
def test_non_real_scalar_is_refused_by_name(name, valid, call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)
        match = rf"^{name} must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=match):
            call(bad)


@pytest.mark.parametrize("name, call", [
    ("k_budget", lambda: tg.SolverConfig(k_budget=0)),
    ("k_budget", lambda: tg.fit_static(_Y, tg.SolverConfig(k_budget=4.0))),
    ("k", lambda: tg.project_capped_simplex(np.zeros(3), 4.0)),
    ("k_true", lambda: tg.ScenarioSpec(n_nodes=4, k_true=7)),
], ids=["SolverConfig", "fit", "project_capped_simplex", "ScenarioSpec"])
def test_budget_is_worded_once(name, call):
    with pytest.raises(InfeasibleBudgetError, match=rf"^{name} must be in \(0, m\]"):
        call()


_TWO_WINDOWS = tg.generate(tg.ScenarioSpec(
    n_nodes=3, k_true=1, n_segments=2, windows_per_segment=1, window_len=4))

# Each case calls one public function with ``v`` as one count, either a count
# argument or the extent of one array argument, and names that count: the
# valid count must run, also as an np.int64, and the count out of range must
# be refused with its bound's one wording.
COUNT_CASES = {
    "n_edges": ("n_nodes", 0, -3, "non-negative", tg.n_edges),
    "edge_pairs": ("n_nodes", 3, 1, "at least 2", tg.edge_pairs),
    "select_consistent_nodes top_k": (
        "top_k", 3, 4, r"in \[1, 3\]",
        lambda v: tg.select_consistent_nodes([_Y, _Y[::-1]], v)),
    "segment_of_window": (
        "t", 1, 2, r"in \[0, 1\]", _TWO_WINDOWS.segment_of_window),
    "as_signal_matrix nodes": (
        "node rows of y", 3, 1, "at least 2", lambda v: tg.as_signal_matrix(_Y[:v])),
    "as_signal_matrix samples": (
        "samples of y", 8, 0, "positive", lambda v: tg.as_signal_matrix(_Y[:, :v])),
    "objective windows": (
        "windows of w_seq", 2, 0, "positive",
        lambda v: tg.objective(_Y_WIN[:v], _Y_WIN[:v], _W_SEQ[:v], **_OBJ)),
    "select_consistent_nodes trials": (
        "number of trials", 2, 1, "at least 2",
        lambda v: tg.select_consistent_nodes([_Y, _Y[::-1]][:v], 1)),
    "select_consistent_nodes samples": (
        "samples per trial", 8, 0, "positive",
        lambda v: tg.select_consistent_nodes([_Y[:, :v], _Y[::-1, :v]], 1)),
    "consensus trial graphs": (
        "trial graphs of graph_per_trial", 2, 0, "positive",
        lambda v: tg.consensus(_W_SEQ[:v], 0.5, 0)),
    "consensus edges": (
        "edges of graph_per_trial", 3, 0, "positive",
        lambda v: tg.consensus(_W_SEQ[:, :v], 0.5, 0)),
    "graph_correlation_matrix windows": (
        "windows of w_seq", 2, 1, "at least 2",
        lambda v: tg.graph_correlation_matrix(_W_SEQ[:v])),
    "graph_correlation_matrix edges": (
        "edges of w_seq", 3, 0, "positive",
        lambda v: tg.graph_correlation_matrix(_W_SEQ[:, :v])),
    "project_capped_simplex rows": (
        "rows of raw", 2, 0, "positive", lambda v: tg.project_capped_simplex(_W_SEQ[:v], 1.0)),
    "select_consistent_nodes nodes": (
        "node rows per trial", 3, 0, "positive",
        lambda v: tg.select_consistent_nodes([_Y[:v], _Y[::-1][:v]], 1)),
    "grad_w windows": (
        "windows of x", 2, 0, "positive", lambda v: tg.grad_w(_Y_WIN[:v], _BETA, _CFG)),
    "step iteration": (
        "state.iteration", 0, -1, "non-negative",
        lambda v: tg.step(replace(_STATE, iteration=v), _Y_WIN, _CFG)),
    "step windows": (
        "windows of state.w", 2, 0, "positive",
        lambda v: tg.step(replace(_STATE, w=_W_SEQ[:v], beta=_BETA[:v - 1]), _Y_WIN[:v], _CFG)),
}
# the cases whose count is itself an argument, not an array's extent
COUNT_ARGUMENTS = ["n_edges", "edge_pairs", "select_consistent_nodes top_k", "segment_of_window",
                   "step iteration"]
NON_INTEGER = {"float": 2.5, "nan": np.nan, "text": "3", "complex": 3 + 0j, "bool": True}


@pytest.mark.parametrize("name, valid, bad, wording, call", COUNT_CASES.values(),
                         ids=COUNT_CASES.keys())
def test_count_out_of_range_gets_its_one_wording(name, valid, bad, wording, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)
        call(np.int64(valid))
        match = rf"^{re.escape(name)} must be {wording}, got {bad}$"
        with pytest.raises(ValueError, match=match):
            call(bad)


@pytest.mark.parametrize("bad", NON_INTEGER.values(), ids=NON_INTEGER.keys())
@pytest.mark.parametrize("case", COUNT_ARGUMENTS)
def test_non_integer_count_is_refused_by_name(case, bad):
    name, valid, _, _, call = COUNT_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)
        match = rf"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=match):
            call(bad)


_X3 = tg.window_signals(_Y[:, :6], 2)  # 3 windows of 2 samples
_Y_WIN4 = tg.window_signals(np.vstack([_Y, _Y[:1]]), 4)  # 4 nodes, 2 windows
_STATE4 = replace(_STATE, w=np.zeros((2, 6)), beta=np.zeros((1, 6)))  # 4 nodes
_BETA3 = np.zeros((2, 3))

# Each case calls one public function with ``a`` as one array argument: the
# valid array must run, and the mis-shaped one must be refused with the full
# wording of the rank or the shape rule, naming that argument.
SHAPE_CASES = {
    "update_x y_block": (
        _Y, _Y[:2], "y_block must have shape (3, *), got (2, 8)",
        lambda a: tg.update_x(a, _W, 1.0, 0.0)),
    "objective x_windows": (
        _Y_WIN, _Y_WIN[:1], "x_windows must have shape (2, 3, *), got (1, 3, 4)",
        lambda a: tg.objective(_Y_WIN, a, _W_SEQ, **_OBJ)),
    "objective y_windows": (
        _Y_WIN, _Y_WIN[..., :3], "y_windows must have shape (2, 3, 4), got (2, 3, 3)",
        lambda a: tg.objective(a, _Y_WIN, _W_SEQ, **_OBJ)),
    "smoothness_term x": (
        _Y, _Y[0], "x must be 2-D, got 1-D", lambda a: tg.smoothness_term(_W, a)),
    "energy_penalty_term x": (
        _Y, _Y[:2], "x must have shape (3, *), got (2, 8)",
        lambda a: tg.energy_penalty_term(_W, a)),
    "prox_l1_linear beta": (
        _W, _W[:2], "beta must have shape (3,), got (2,)",
        lambda a: tg.prox_l1_linear(_W, 0.1, a, 1.0)),
    "select_consistent_nodes": (
        _Y[::-1], _Y[:, :6], "trials[1] must have shape (3, 8), got (3, 6)",
        lambda a: tg.select_consistent_nodes([_Y, a], 1)),
    "consensus": (
        _W_SEQ, _W_SEQ[np.newaxis], "graph_per_trial must be 2-D, got 3-D",
        lambda a: tg.consensus(a, 0.5, 0)),
    # two (6, 6) stacks, estimate and truth alike
    "edge_f1 estimated": (
        _W, np.eye(6), "estimated must be 1-D, got 2-D",
        lambda a: tg.edge_f1(a, np.ones_like(a), 1)),
    "edge_f1 truth": (
        _TRUTH, _TRUTH[:2], "truth must have shape (3,), got (2,)",
        lambda a: tg.edge_f1(_W, a, 1)),
    "grad_w x": (_X3, _X3[0], "x must be 3-D, got 2-D", lambda a: tg.grad_w(a, _BETA3, _CFG)),
    "grad_w beta": (
        _BETA3, _BETA3[:1], "beta must have shape (2, 3), got (1, 3)",
        lambda a: tg.grad_w(_X3, a, _CFG)),
    "grad_w beta of one window": (
        _BETA3, _BETA3[0], "beta must be 2-D, got 1-D", lambda a: tg.grad_w(_X3, a, _CFG)),
    "step": (
        _Y_WIN, _Y_WIN[:1], "y_windows must have shape (2, 3, *), got (1, 3, 4)",
        lambda a: tg.step(_STATE, a, _CFG)),
    # the record's nodes follow state.w's edge count, not update_x's check
    "step y_windows nodes": (
        _Y_WIN4, _Y_WIN, "y_windows must have shape (2, 4, *), got (2, 3, 4)",
        lambda a: tg.step(_STATE4, a, _CFG)),
    "step state.w": (
        _W_SEQ, _W, "state.w must be 2-D, got 1-D",
        lambda a: tg.step(replace(_STATE, w=a), _Y_WIN, _CFG)),
    "step state.beta": (
        _BETA, _BETA3, "state.beta must have shape (1, 3), got (2, 3)",
        lambda a: tg.step(replace(_STATE, beta=a), _Y_WIN, _CFG)),
    "step state.kappa": (
        np.zeros(2), np.zeros(5), "state.kappa must have shape (2,), got (5,)",
        lambda a: tg.step(replace(_STATE, kappa=a), _Y_WIN, _CFG)),
    "step state.steps": (
        (0.5, 0.01), (0.5, 0.01, 0.01), "state.steps must have shape (2,), got (3,)",
        lambda a: tg.step(replace(_STATE, steps=a), _Y_WIN, _CFG)),
    "project_capped_simplex raw": (
        _W_SEQ, _W_SEQ[np.newaxis], "raw must be 2-D, got 3-D",
        lambda a: tg.project_capped_simplex(a, 1.0)),
    "project_capped_simplex start": (
        np.zeros(2), np.zeros(5), "start must have shape (2,), got (5,)",
        lambda a: tg.project_capped_simplex(_W_SEQ, 1.0, start=a)),
    "project_capped_simplex start of one vector": (
        0.0, np.zeros(1), "start must be 0-D, got 1-D",
        lambda a: tg.project_capped_simplex(_W, 1.0, start=a)),
}


@pytest.mark.parametrize("valid, bad, message, call", SHAPE_CASES.values(),
                         ids=SHAPE_CASES.keys())
def test_mis_shaped_array_is_refused_by_name(valid, bad, message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            call(bad)


_NOT_AN_EDGE_COUNT = "must be n*(n-1)/2 for an integer n >= 2"
_DAYS = np.array(["2020-01-01", "2020-01-02", "2020-01-03"], "datetime64[D]")

# Each case calls one public function with ``a`` as one argument: the valid
# value must run, and the refused one must raise with the full wording of
# its rule, naming that argument.
VALUE_CASES = {
    "weight_matrix object": (
        [0.5, 1.0, 2.0], [None, 1.0, 2.0], "weights must be real, got object", tg.weight_matrix),
    "weight_matrix ragged": (
        [0.5, 1.0, 2.0], [0.5, [1.0], 2.0], "weights cannot be converted to float64",
        tg.weight_matrix),
    "weight_matrix text": (
        [0.5, 1.0, 2.0], ["0.5", "1", "2"], "weights must be real, got <U3", tg.weight_matrix),
    "project_capped_simplex datetime64": (
        _W, _DAYS, "raw must be real, got datetime64[D]",
        lambda a: tg.project_capped_simplex(a, 1.0)),
    "step state.steps text": (
        (0.5, 0.01), ("0.5", 0.01), "state.steps must be real, got <U32",
        lambda a: tg.step(replace(_STATE, steps=a), _Y_WIN, _CFG)),
    "step state.steps non-positive": (
        (0.5, 0.01), (-1.0, 0.1), "state.steps must be positive and finite, got -1.0",
        lambda a: tg.step(replace(_STATE, steps=a), _Y_WIN, _CFG)),
    "step state.steps complex": (
        (0.5, 0.01), (0.5, 0.01j), "state.steps must be real, got complex128",
        lambda a: tg.step(replace(_STATE, steps=a), _Y_WIN, _CFG)),
    "objective gamma": (
        1.0, np.nan, "gamma must be non-negative and finite, got nan",
        lambda a: tg.objective(_Y_WIN, _Y_WIN, _W_SEQ, gamma=a, eta=0.0, alpha=0.1)),
    "objective eta": (
        0.0, -0.1, "eta must be non-negative and finite, got -0.1",
        lambda a: tg.objective(_Y_WIN, _Y_WIN, _W_SEQ, gamma=1.0, eta=a, alpha=0.1)),
    "objective alpha": (
        0.1, None, "alpha must be a real number, got None",
        lambda a: tg.objective(_Y_WIN, _Y_WIN, _W_SEQ, gamma=1.0, eta=0.0, alpha=a)),
    # an edge vector's length must be n*(n-1)/2, named by the array it counts
    "weight_matrix edges": (
        _W, np.zeros(5), f"edges of weights {_NOT_AN_EDGE_COUNT}, got 5", tg.weight_matrix),
    "smoothness_term edges": (
        _W, np.zeros(5), f"edges of weights {_NOT_AN_EDGE_COUNT}, got 5",
        lambda a: tg.smoothness_term(a, _Y)),
    "energy_penalty_term edges": (
        _W, np.zeros(5), f"edges of weights {_NOT_AN_EDGE_COUNT}, got 5",
        lambda a: tg.energy_penalty_term(a, _Y)),
    "update_x edges": (
        _W, np.zeros(5), f"edges of weights {_NOT_AN_EDGE_COUNT}, got 5",
        lambda a: tg.update_x(_Y, a, 1.0, 0.0)),
    "objective edges": (
        _W_SEQ, np.zeros((2, 5)), f"edges of w_seq {_NOT_AN_EDGE_COUNT}, got 5",
        lambda a: tg.objective(_Y_WIN, _Y_WIN, a, **_OBJ)),
    "step edges": (
        _W_SEQ, np.zeros((2, 5)), f"edges of state.w {_NOT_AN_EDGE_COUNT}, got 5",
        lambda a: tg.step(replace(_STATE, w=a), _Y_WIN, _CFG)),
}


@pytest.mark.parametrize("valid, bad, message, call", VALUE_CASES.values(),
                         ids=VALUE_CASES.keys())
def test_refused_value_is_worded_by_argument(valid, bad, message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            call(bad)


def test_step_takes_a_list_record_as_it_takes_the_array():
    from_array = tg.step(_STATE, _Y_WIN, _CFG)
    from_list = tg.step(_STATE, _Y_WIN.tolist(), _CFG)
    for field in ("x", "w", "z", "beta", "kappa"):
        assert getattr(from_list, field).tobytes() == getattr(from_array, field).tobytes()
    assert (from_list.objective, from_list.residual, from_list.steps) == (
        from_array.objective, from_array.residual, from_array.steps)


def _read_only(array):
    array.flags.writeable = False
    return array


_SHARED = np.zeros(30)  # an X stack over the last 24 entries, state.w over 6 of them
_SHARED[18:24] = _W_SEQ.ravel()
X_OUT_CASES = {
    "wrong shape": (np.empty((2, 3, 5)), _STATE, "x_out must have shape (2, 3, 4), got (2, 3, 5)"),
    "wrong rank": (np.empty((2, 12)), _STATE, "x_out must be 3-D, got 2-D"),
    "float32": (np.zeros((2, 3, 4), np.float32), _STATE,
                "x_out must be a float64 numpy.ndarray, got ndarray of float32"),
    "int": (np.zeros((2, 3, 4), np.int64), _STATE,
            "x_out must be a float64 numpy.ndarray, got ndarray of int64"),
    "list": (np.zeros((2, 3, 4)).tolist(), _STATE,
             "x_out must be a float64 numpy.ndarray, got list"),
    "complex": (np.zeros((2, 3, 4), complex), _STATE, "x_out must be real, got complex128"),
    "read-only": (_read_only(np.empty((2, 3, 4))), _STATE, "x_out must be writable"),
    "the record": (_Y_WIN, _STATE, "x_out must not share memory with y_windows"),
    "a view of the record": (
        _Y_WIN[::-1], _STATE, "x_out must not share memory with y_windows"),
    "state.w": (
        _SHARED[6:].reshape(2, 3, 4), replace(_STATE, w=_SHARED[18:24].reshape(2, 3)),
        "x_out must not share memory with state.w"),
    "state.beta": (
        _SHARED[6:].reshape(2, 3, 4), replace(_STATE, beta=_SHARED[20:23].reshape(1, 3)),
        "x_out must not share memory with state.beta"),
}


@pytest.mark.parametrize("x_out, state, message", X_OUT_CASES.values(), ids=X_OUT_CASES.keys())
def test_step_refuses_an_x_out_it_may_not_write(x_out, state, message):
    before = np.array(x_out, copy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tg.step(state, _Y_WIN, _CFG)  # the state itself is valid
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            tg.step(state, _Y_WIN, _CFG, x_out=x_out)
    np.testing.assert_array_equal(np.asarray(x_out), before)  # refused before any write
