import codecs
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from tvglearn.cli import (
    _CLI_DEFAULTS,
    _OPTIONS,
    _RENAMED,
    _build_parser,
    _fit_files,
    _pgm,
    _read_graph_csv,
    _write,
    ingest_csv,
    run,
)
from tvglearn.errors import DataError
from tvglearn.graphs import edge_pairs
from tvglearn.solver import FitReport, SolverConfig
from tvglearn.synthetic import ScenarioSpec


class TestIngestCsv:
    def test_plain_matrix(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n4,5,6\n")
        mat = ingest_csv(path)
        np.testing.assert_array_equal(mat, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("n1,n2,n3\n1,2,3\n4,5,6\n")
        assert ingest_csv(path).shape == (2, 3)

    def test_header_leaves_too_few_rows(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("n1,n2,n3\n1,2,3\n")
        with pytest.raises(DataError, match="need at least 2 node rows, got 1"):
            ingest_csv(path)

    def test_nan_cell_named(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n4,nan,6\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            ingest_csv(path)

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2\n3,4\nx,6\n")
        with pytest.raises(DataError, match="row 3, column 1"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("")
        with pytest.raises(DataError, match="need at least 2 node rows, got 0"):
            ingest_csv(path)

    @pytest.mark.parametrize("text, where", [
        # a typo in the first node row: not a header, since 1 and 2 are numbers
        ("1,2,3x\n4,5,6\n7,8,9\n", "row 1, column 3"),
        # blank lines count in the file line
        ("1,2,3\n\n\n4,x,6\n7,8,9\n", "row 4, column 2"),
    ])
    def test_error_names_the_file_line(self, tmp_path, text, where):
        path = tmp_path / "y.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=where):
            ingest_csv(path)


def test_graph_file_skips_blank_lines_and_names_file_lines(tmp_path):
    path = tmp_path / "graph_1.csv"
    path.write_text("i,j,w\n\n1,2,0.5\n1,3,0\n\n2,3,1\n")
    np.testing.assert_array_equal(_read_graph_csv(path), [0.5, 0.0, 1.0])
    path.write_text("i,j,w\n\n1,2,0.5\n1,3,x\n2,3,1\n")
    with pytest.raises(DataError, match="row 4, column 3"):
        _read_graph_csv(path)


class TestEmit:
    def _report(self, changes=()):
        return FitReport(
            converged=True,
            iterations=3,
            final_objective=1.25,
            final_residual=0.0,
            per_window_change=tuple(changes),
        )

    def test_single_window_file_set(self, tmp_path):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        w = np.array([[0.5, 0.25, 0.25]])
        x = np.zeros((1, 3, 4))
        _write(tmp_path, _fit_files(w, x, self._report(), cfg, seed=0, mode="static"))
        graph_text = (tmp_path / "graph_1.csv").read_text()
        assert graph_text == "i,j,w\n1,2,0.5\n1,3,0.25\n2,3,0.25\n"
        assert not (tmp_path / "graph_2.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["config"]["k_budget"] == 1.0
        assert report["config"]["lambda"] == 1.0
        assert report["n_windows"] == 1
        assert (tmp_path / "change_profile.csv").read_text() == "t,l1_change\n"

    def test_graph_csv_roundtrip(self, tmp_path):
        cfg = SolverConfig(k_budget=2.0, window_len=2)
        rng = np.random.default_rng(0)
        w = rng.uniform(size=(2, 10))
        x = np.zeros((2, 5, 2))
        _write(tmp_path, _fit_files(w, x, self._report([1.0]), cfg, seed=0, mode="dynamic"))
        back = _read_graph_csv(tmp_path / "graph_2.csv")
        np.testing.assert_allclose(back, w[1], rtol=1e-8)

    def test_pgm_identical_sequence_all_white(self):
        blob = _pgm(np.ones((3, 3)))
        assert blob.startswith(b"P5\n3 3\n255\n")
        assert blob[-9:] == b"\xff" * 9


MALFORMED_CSVS = {
    "empty": "",
    "header-only": "n1,n2,n3\n",
    "blank-lines": "\n  \n\n",
    "ragged": "1,2,3\n4,5\n6,7,8\n",
    "semicolons": "1;2;3\n4;5;6\n7;8;9\n",
    "nan": "1,2,3\n4,nan,6\n",
    "overflow": "1,2,3\n4,1e999,6\n",
    "first-row-typo": "1,2,3x\n4,5,6\n7,8,9\n",
}


# Each input file kind: a writer of its file and the run that reads it, and
# the exit code of a file that is not UTF-8.  The writer encodes the file's
# text with ``encode`` and returns (path, arguments without --out).
def _signal_input(root, encode):
    path = root / "y.csv"
    path.write_bytes(encode("1,2,3,4\n2,1,0,3\n0,1,1,2\n"))
    return path, ["--mode", "static", "--input", str(path), "--k", "1"]


def _graph_input(root, encode):
    fit = root / "fit"
    fit.mkdir()
    (fit / "graph_1.csv").write_text("i,j,w\n1,2,0.5\n1,3,0\n2,3,1\n")
    path = fit / "graph_2.csv"
    path.write_bytes(encode("i,j,w\n1,2,1\n1,3,0.5\n2,3,0\n"))
    return path, ["--mode", "analyze", "--input", str(fit)]


def _config_input(root, encode):
    path = root / "run.cfg"
    path.write_bytes(encode(
        "n_nodes=4\nk_true=2\nn_segments=1\nwindows_per_segment=2\nwindow_len=5\n"
    ))
    return path, ["--mode", "synth", "--config", str(path)]


INPUT_FILES = {
    "signals": (_signal_input, 2),
    "graph": (_graph_input, 2),
    "config": (_config_input, 1),
}


@pytest.mark.parametrize("kind", sorted(INPUT_FILES))
class TestInputEncoding:
    def test_byte_order_mark_is_skipped(self, tmp_path, kind):
        write, _ = INPUT_FILES[kind]
        outputs = []
        for name, prefix in [("plain", b""), ("bom", codecs.BOM_UTF8)]:
            root = tmp_path / name
            root.mkdir()
            _, args = write(root, lambda text: prefix + text.encode())
            assert run(args + ["--out", str(root / "o")]) == 0
            outputs.append({p.name: p.read_bytes() for p in (root / "o").iterdir()})
        assert outputs[0] == outputs[1]

    def test_undecodable_byte_names_the_file(self, tmp_path, capsys, kind):
        write, code = INPUT_FILES[kind]
        path, args = write(tmp_path, lambda text: text.encode().replace(b"\n", b"\n\xff", 1))
        assert run(args + ["--out", str(tmp_path / "o")]) == code
        assert f"cannot read {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# (class, field, option) of every float field the CLI sets, read through the
# parser's own option table, so that a field added later is covered too
FLOAT_FIELDS = [
    (cls, f.name, _RENAMED.get(f.name, f.name))
    for cls in (SolverConfig, ScenarioSpec)
    for f in fields(cls)
    if _OPTIONS[_RENAMED.get(f.name, f.name)][0] is float
]

# the same for every int field
INT_FIELDS = [
    (cls, f.name)
    for cls in (SolverConfig, ScenarioSpec)
    for f in fields(cls)
    if _OPTIONS[_RENAMED.get(f.name, f.name)][0] is int
]

VALID_KWARGS = {
    SolverConfig: {"k_budget": 2, "window_len": 8},
    ScenarioSpec: {"n_nodes": 6, "k_true": 4},
}


@pytest.mark.parametrize("value", [2.5, 8.0, float("nan"), True])
@pytest.mark.parametrize(
    "cls, name", INT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in INT_FIELDS]
)
def test_non_integer_int_field_is_rejected(cls, name, value):
    valid = VALID_KWARGS[cls]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cls(**{**valid, name: value})
    # numpy integers are integers
    cls(**{**valid, name: np.int64(getattr(cls(**valid), name))})


@pytest.mark.parametrize("value", [0.5 + 1j, "0.5", True, 10**400],
                         ids=["complex", "text", "bool", "past the float range"])
@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls, name, _ in FLOAT_FIELDS],
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in FLOAT_FIELDS],
)
def test_non_real_float_field_is_refused(cls, name, value):
    valid = VALID_KWARGS[cls]
    match = rf"^{name} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match):
        cls(**{**valid, name: value})
    # numpy floats are real numbers
    cls(**{**valid, name: np.float64(0.5)})


class TestRun:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED_CSVS))
    def test_malformed_csv_is_data_error_naming_the_file(self, tmp_path, capsys, mode, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_text(MALFORMED_CSVS[kind])
        args = ["--mode", mode, "--input", str(path), "--out", str(tmp_path / "o"),
                "--k", "1"]
        if mode == "dynamic":
            args += ["--window-len", "2"]
        assert run(args) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def _write_signals(self, tmp_path, data=None):
        path = tmp_path / "y.csv"
        if data is None:
            rng = np.random.default_rng(3)
            data = rng.normal(size=(4, 24))
        lines = "\n".join(",".join(f"{v:.12g}" for v in row) for row in data)
        path.write_text(lines + "\n")
        return path

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["--mode", "dynamic", "--out", str(tmp_path / "o"),
                    "--k", "2", "--window-len", "6"]) == 1

    def test_missing_mode_is_usage_error(self, tmp_path):
        assert run(["--out", str(tmp_path)]) == 1

    def test_bad_csv_is_data_error(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2\n3,nan\n")
        assert run(["--mode", "static", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "1"]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["--mode", "static", "--input", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "o"), "--k", "1"]) == 2

    def test_singular_system_is_numeric_error(self, tmp_path, capsys):
        path = self._write_signals(tmp_path, np.ones((2, 6)))
        code = run(["--mode", "static", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "1",
                    "--gamma", "0", "--eta", "1"])
        assert code == 3
        assert "window 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_warnings_print_as_warning_lines_before_the_error(self, tmp_path, capsys):
        # the eta bound warns, then the singular system fails the fit
        path = self._write_signals(tmp_path, np.ones((2, 6)))
        assert run(["--mode", "static", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "1",
                    "--gamma", "0", "--eta", "1"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("warning: eta=1.0 violates the sufficient bound")
        assert lines[1].startswith("error: ")
        assert len(lines) == 2

    def test_overflowing_step_is_numeric_error(self, tmp_path, capsys):
        # a record near 1e153 keeps a finite objective but overflows the
        # second step's W-gradient
        data = 10**153.3 * np.random.default_rng(0).normal(size=(3, 16))
        path = self._write_signals(tmp_path, data)
        code = run(["--mode", "dynamic", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "1",
                    "--window-len", "8", "--eta", "0.45", "--max-iter", "30"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_record_too_small_for_the_step_rule_is_numeric_error(self, tmp_path, capsys):
        # a record near 1e-160 has a subnormal gradient spread, so the rule's
        # tau1 = C1 / S overflows and the first W step is non-finite
        data = 1e-160 * np.random.default_rng(0).normal(size=(3, 16))
        path = self._write_signals(tmp_path, data)
        code = run(["--mode", "dynamic", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "1", "--window-len", "8"])
        assert code == 3
        assert "non-finite at iteration 1; rescale the input" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rule_sized_tau1_is_not_blamed(self, tmp_path, capsys):
        # the objective's smoothness and energy sums overflow (inf - inf) at
        # iteration 2; the gradient rule sized tau1, so the hint names the
        # scale and eta only
        data = np.random.default_rng(0).normal(size=(4, 20))
        data[0] *= 10**152.5
        path = self._write_signals(tmp_path, data)
        code = run(["--mode", "dynamic", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "3", "--eta", "0.3",
                    "--gamma", "0.01", "--window-len", "10", "--max-iter", "20"])
        assert code == 3
        err = capsys.readouterr().err
        assert "objective became non-finite" in err
        assert "rescale the input or reduce eta" in err and "tau1" not in err
        assert not (tmp_path / "o").exists()

    def test_infeasible_budget_is_usage_error(self, tmp_path):
        path = self._write_signals(tmp_path)
        assert run(["--mode", "static", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "99"]) == 1

    def test_window_longer_than_record_is_usage_error(self, tmp_path):
        path = self._write_signals(tmp_path)
        assert run(["--mode", "dynamic", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "2",
                    "--window-len", "500"]) == 1

    def test_malformed_graph_file_in_analyze_is_data_error(self, tmp_path):
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        # 4 edge rows match no node count
        for t in (1, 2):
            (fit_dir / f"graph_{t}.csv").write_text(
                "i,j,w\n1,2,0.5\n1,3,0.5\n2,3,0.5\n1,4,0.5\n"
            )
        assert run(["--mode", "analyze", "--input", str(fit_dir),
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("1,2,0.5\n1,3,0.5\n2,3,0.5\n", "expected an i,j,w graph file"),
        ("i,j,w\n1,2,0.5\n1,3\n2,3,0.5\n", "row 3 is not i,j,w"),
        ("i,j,w\n1,2,0.5\n3,1,0.5\n2,3,0.5\n", "edge (3,1) is not upper-triangular"),
        ("i,j,w\n1,2,0.5\n1,2,0.5\n2,3,0.5\n", "row 3 repeats edge (1,2) of row 2"),
        ("i,j,w\n1,2,0.5\n1,3,0.5\n",
         "edge rows must be n*(n-1)/2 for an integer n >= 2, got 2"),
    ], ids=["no header", "short row", "lower triangle", "repeated edge", "edge count"])
    def test_malformed_graph_row_is_data_error(self, tmp_path, capsys, text, message):
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        for t in (1, 2):
            (fit_dir / f"graph_{t}.csv").write_text(text)
        assert run(["--mode", "analyze", "--input", str(fit_dir),
                    "--out", str(tmp_path / "o")]) == 2
        assert f"{fit_dir / 'graph_1.csv'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["analyze", "consensus"])
    def test_too_few_graph_files_is_data_error(self, tmp_path, capsys, mode):
        # analyze needs two windows; consensus needs one trial subdirectory
        directory = tmp_path / "in"
        self._write_graph(directory, 1, 3)
        assert run(["--mode", mode, "--input", str(directory),
                    "--out", str(tmp_path / "o")]) == 2
        assert str(directory) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["analyze", "consensus"])
    @pytest.mark.parametrize("numbers, problem", [
        (["1", "3"], "window 2 is missing"),
        (["2", "3"], "window 1 is missing"),
        (["1", "01", "2"], "graph_01.csv and graph_1.csv are both window 1"),
        (["1", "\u0661", "2"], "graph_1.csv and graph_\u0661.csv are both window 1"),
        (["0", "1", "2"], "graph_0.csv is window 0"),
    ], ids=["gap", "no-first", "leading-zero", "arabic-indic-digit", "zero"])
    def test_graph_numbering_gap_or_repeat_is_data_error(
        self, tmp_path, capsys, mode, numbers, problem
    ):
        # trial "a" has windows 1-3; trial "b", numbered otherwise, would
        # pair some window of its own with the wrong window of "a"
        root = tmp_path / "in"
        for t in (1, 2, 3):
            self._write_graph(root / "a", t, 3)
        bad = root / "b"
        for t in numbers:
            self._write_graph(bad, t, 3)
        directory = root if mode == "consensus" else bad
        assert run(["--mode", mode, "--input", str(directory),
                    "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}: graph_<t>.csv files must number 1..T; {problem}" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _write_graph(directory, t, n):
        directory.mkdir(parents=True, exist_ok=True)
        rows = [f"{i},{j},0.5" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        (directory / f"graph_{t}.csv").write_text("\n".join(["i,j,w"] + rows) + "\n")

    def test_mismatched_edge_counts_in_analyze_is_data_error(self, tmp_path, capsys):
        fit_dir = tmp_path / "fit"
        self._write_graph(fit_dir, 1, 3)  # 3 edges
        self._write_graph(fit_dir, 2, 4)  # 6 edges
        assert run(["--mode", "analyze", "--input", str(fit_dir),
                    "--out", str(tmp_path / "o")]) == 2
        assert str(fit_dir / "graph_2.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["analyze", "consensus"])
    @pytest.mark.parametrize("bad_row", ["1,3,nan", "1,3,inf", "1,2,0.25"])
    def test_non_finite_or_repeated_graph_row_is_data_error(
        self, tmp_path, capsys, mode, bad_row
    ):
        # a bad file in a later window fails the run before anything is
        # written, as one in the first window does
        for bad_windows in [(1, 2), (2,)]:
            root = tmp_path / f"from_window_{bad_windows[0]}"
            good = root / "in" / "good"
            bad = root / "in" / "bad"
            for t in (1, 2):
                self._write_graph(good, t, 3)
                self._write_graph(bad, t, 3)
            for t in bad_windows:
                (bad / f"graph_{t}.csv").write_text(f"i,j,w\n1,2,0.5\n{bad_row}\n2,3,0.5\n")
            directory = root / "in" if mode == "consensus" else bad
            assert run(["--mode", mode, "--input", str(directory),
                        "--out", str(root / "o"), "--heatmap"]) == 2
            err = capsys.readouterr().err
            assert f"{bad / f'graph_{bad_windows[0]}.csv'}: row 3" in err
            assert not (root / "o").exists()

    def test_mismatched_edge_counts_in_consensus_is_data_error(self, tmp_path, capsys):
        trials = tmp_path / "trials"
        self._write_graph(trials / "t0", 1, 3)
        self._write_graph(trials / "t1", 1, 4)
        assert run(["--mode", "consensus", "--input", str(trials),
                    "--out", str(tmp_path / "o")]) == 2
        assert str(trials / "t1" / "graph_1.csv") in capsys.readouterr().err

    def test_non_finite_hyperparameter_is_usage_error(self, tmp_path):
        path = self._write_signals(tmp_path)
        assert run(["--mode", "static", "--input", str(path),
                    "--out", str(tmp_path / "o"), "--k", "2",
                    "--gamma", "nan"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "cls, name, option", FLOAT_FIELDS,
        ids=[f"{cls.__name__}.{name}" for cls, name, _ in FLOAT_FIELDS],
    )
    def test_non_finite_float_field_is_usage_error(
        self, tmp_path, capsys, cls, name, option, value
    ):
        out = tmp_path / "o"
        if cls is ScenarioSpec:
            args = ["--mode", "synth"]
        else:
            args = ["--mode", "dynamic", "--input", str(self._write_signals(tmp_path)),
                    "--k", "2", "--window-len", "8"]
        # the last flag wins, so --k nan replaces --k 2
        args += ["--out", str(out), "--" + option.replace("_", "-"), value]
        assert run(args) == 1
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unstable_dual_step_is_usage_error(self, tmp_path, capsys):
        y = 1e3 * np.random.default_rng(0).normal(size=(4, 24))
        path = self._write_signals(tmp_path, y)
        out = tmp_path / "o"
        assert run(["--mode", "dynamic", "--input", str(path), "--out", str(out),
                    "--k", "2", "--window-len", "8", "--lambda", "0.5",
                    "--tau2", "5"]) == 1
        assert "tau2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [
        ["--z-mode", "anchored"], ["--dual-sign", "ascent"],
        "z_mode=anchored", "dual_sign=ascent",
    ])
    def test_removed_update_rule_options_are_usage_errors(self, tmp_path, capsys, option):
        # the paper-literal Z iteration and dual descent are not offered, and
        # neither are the switches that chose them
        path = self._write_signals(tmp_path)
        args = ["--mode", "dynamic", "--input", str(path), "--out", str(tmp_path / "o"),
                "--k", "2", "--window-len", "8"]
        if isinstance(option, str):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(option + "\n")
            args += ["--config", str(cfg_file)]
        else:
            args += option
        assert run(args) == 1
        err = capsys.readouterr().err
        assert ("unknown option" in err) if isinstance(option, str) else (option[0] in err)
        assert not (tmp_path / "o").exists()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "tvglearn" in out
        assert "--z-mode" not in out and "--dual-sign" not in out
        # the synth scenario's defaults are ScenarioSpec's, printed as its others
        assert "ScenarioSpec.n_nodes=20" in out and "ScenarioSpec.k_true=19" in out

    def test_help_prints_every_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        for cls in (SolverConfig, ScenarioSpec):
            for f in fields(cls):
                if f.default is not MISSING:
                    assert f"{cls.__name__}.{f.name}={f.default!r}" in text
        for value in _CLI_DEFAULTS.values():
            assert f"(default {value})" in text

    def test_dynamic_fit_writes_all_windows(self, tmp_path):
        path = self._write_signals(tmp_path)
        out = tmp_path / "fit"
        code = run(["--mode", "dynamic", "--input", str(path), "--out", str(out),
                    "--k", "2", "--window-len", "8", "--gamma", "0.05",
                    "--max-iter", "60"])
        assert code == 0
        for t in (1, 2, 3):
            assert (out / f"graph_{t}.csv").exists()
        profile = (out / "change_profile.csv").read_text().splitlines()
        assert profile[0] == "t,l1_change"
        assert len(profile) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "dynamic"
        assert report["n_windows"] == 3
        assert len(report["per_window_change"]) == 2

    def test_stop_reason_in_report_and_max_iter_warning(self, tmp_path, capsys):
        path = self._write_signals(tmp_path)
        capped = tmp_path / "capped"
        assert run(["--mode", "dynamic", "--input", str(path), "--out", str(capped),
                    "--k", "2", "--window-len", "8", "--gamma", "0.05",
                    "--max-iter", "3"]) == 0
        report = json.loads((capped / "report.json").read_text())
        assert report["stop_reason"] == "max_iter" and report["converged"] is False
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "max_iter=3" in err

        converged = tmp_path / "converged"
        assert run(["--mode", "static", "--input", str(path), "--out", str(converged),
                    "--k", "2", "--gamma", "0.05"]) == 0
        report = json.loads((converged / "report.json").read_text())
        assert report["stop_reason"] == "tolerance" and report["converged"] is True
        assert "warning:" not in capsys.readouterr().err

    def test_synth_minimal_invocation(self, tmp_path):
        # only --mode, --seed and --out: every scenario field has a default
        assert run(["--mode", "synth", "--seed", "7",
                    "--out", str(tmp_path / "d")]) == 0
        signals = ingest_csv(tmp_path / "d" / "signals.csv")
        assert signals.shape == (20, 800)  # 20 nodes, 2x4 windows of 100

    @pytest.mark.parametrize("window_len", ["0", "-5"])
    def test_synth_nonpositive_window_len_is_usage_error(self, tmp_path, capsys, window_len):
        assert run(["--mode", "synth", "--window-len", window_len,
                    "--out", str(tmp_path / "d")]) == 1
        assert "window_len must be positive" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @pytest.mark.parametrize("window_len", ["0", "-5"])
    def test_fit_nonpositive_window_len_is_usage_error(
        self, tmp_path, capsys, mode, window_len
    ):
        # a static fit ignores window_len, but the config still rejects it
        path = self._write_signals(tmp_path)
        assert run(["--mode", mode, "--input", str(path), "--out", str(tmp_path / "o"),
                    "--k", "2", "--window-len", window_len]) == 1
        assert "window_len must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["synth", "static", "dynamic"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, mode):
        # fits only echo the seed in report.json, but under the same rule
        fit = [] if mode == "synth" else [
            "--input", str(self._write_signals(tmp_path)), "--k", "2", "--window-len", "8"]
        assert run(["--mode", mode, "--seed", "-1", "--out", str(tmp_path / "o"), *fit]) == 1
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_synth_overflowing_smoothing_is_usage_error(self, tmp_path, capsys):
        # I + smooth_gamma * L overflows, so no clean record can be drawn
        assert run(["--mode", "synth", "--n-nodes", "5", "--k-true", "4",
                    "--smooth-gamma", "1e308", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "must not overflow" in err and "warning" not in err
        assert not (tmp_path / "d").exists()

    def test_synth_overflowing_noise_is_usage_error(self, tmp_path, capsys):
        # the scaled noise would write inf cells that ingest refuses
        assert run(["--mode", "synth", "--noise-sigma", "1e308",
                    "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "error: noise_sigma must not overflow the record, got 1e+308" in err
        assert "warning" not in err
        assert not (tmp_path / "d").exists()

    def test_synth_zero_node_fraction_of_one_is_usage_error(self, tmp_path, capsys):
        assert run(["--mode", "synth", "--zero-node-fraction", "1",
                    "--out", str(tmp_path / "d")]) == 1
        assert "error: zero_node_fraction must be in [0, 1), got 1.0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_synth_singular_smoothing_is_numeric_error(self, tmp_path, capsys):
        # I + smooth_gamma * L is finite but rounds to a singular matrix
        assert run(["--mode", "synth", "--n-nodes", "5", "--k-true", "4",
                    "--smooth-gamma", "1e200", "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert "window 0:" in err and "smaller gamma" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("smooth_gamma, code", [("1e200", 3), ("1e308", 1)])
    def test_synth_refused_smoothing_names_smooth_gamma(self, tmp_path, capsys,
                                                        smooth_gamma, code):
        assert run(["--mode", "synth", "--smooth-gamma", smooth_gamma,
                    "--out", str(tmp_path / "d")]) == code
        err = capsys.readouterr().err
        assert "smooth_gamma must " in err and f"got {float(smooth_gamma)}" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("mode, window_len", [("static", None), ("dynamic", 8)])
    def test_unset_options_take_the_library_defaults(self, tmp_path, mode, window_len):
        path = self._write_signals(tmp_path)
        args = ["--mode", mode, "--input", str(path), "--out", str(tmp_path / "o"),
                "--k", "2"]
        if window_len is not None:
            args += ["--window-len", str(window_len)]
        assert run(args) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"] == {
            "k_budget": 2.0, "gamma": 1.0, "eta": 0.0, "alpha": 0.1, "lambda": 1.0,
            "tau1": None, "tau2": None, "max_iter": 5000, "tol_obj": 1e-6,
            "tol_residual": 1e-4, "window_len": window_len,
        }

    def test_report_has_the_steps_the_fit_used(self, tmp_path):
        path = self._write_signals(tmp_path)
        base = ["--mode", "dynamic", "--input", str(path), "--k", "2",
                "--window-len", "8"]
        assert run(base + ["--out", str(tmp_path / "auto")]) == 0
        report = json.loads((tmp_path / "auto" / "report.json").read_text())
        assert report["config"]["tau1"] is None and report["config"]["tau2"] is None
        assert report["tau1"] > 0 and report["tau2"] > 0
        assert run(base + ["--tau1", "0.05", "--out", str(tmp_path / "set")]) == 0
        report = json.loads((tmp_path / "set" / "report.json").read_text())
        assert report["config"]["tau1"] == report["tau1"] == 0.05
        assert report["config"]["tau2"] is None and report["tau2"] > 0

    def test_synth_deterministic_bytes(self, tmp_path):
        args = ["--mode", "synth", "--seed", "7", "--n-nodes", "8",
                "--k-true", "6", "--window-len", "20"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("signals.csv", "clean.csv", "truth_graph_1.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_signal_roundtrip_precision(self, tmp_path):
        run(["--mode", "synth", "--seed", "5", "--n-nodes", "6", "--k-true", "4",
             "--window-len", "15", "--out", str(tmp_path / "s")])
        from tvglearn.synthetic import ScenarioSpec, generate

        truth = generate(ScenarioSpec(n_nodes=6, k_true=4, window_len=15, seed=5))
        back = ingest_csv(tmp_path / "s" / "signals.csv")
        np.testing.assert_allclose(back, truth.signals, rtol=1e-9)

    def test_analyze_and_heatmap(self, tmp_path):
        path = self._write_signals(tmp_path)
        fit_dir = tmp_path / "fit"
        assert run(["--mode", "dynamic", "--input", str(path), "--out", str(fit_dir),
                    "--k", "2", "--window-len", "8", "--gamma", "0.05",
                    "--max-iter", "40"]) == 0
        out = tmp_path / "analysis"
        assert run(["--mode", "analyze", "--input", str(fit_dir),
                    "--out", str(out), "--heatmap"]) == 0
        corr = np.array([
            [float(v) for v in line.split(",")]
            for line in (out / "graph_corr.csv").read_text().splitlines()
        ])
        assert corr.shape == (3, 3)
        np.testing.assert_allclose(np.diag(corr), 1.0)
        assert (out / "graph_corr.pgm").exists()

    def test_analyze_holds_at_any_graph_scale(self, tmp_path, capsys):
        # weights near 1e200 would overflow raw correlation products into nan
        # cells; the matrix is the unscaled graphs' one, with no warning
        weights = np.random.default_rng(12).uniform(size=(3, 6))
        corr = {}
        for name, scale in (("plain", 1.0), ("huge", 1e200)):
            fit_dir, out = tmp_path / name, tmp_path / f"{name}-analysis"
            fit_dir.mkdir()
            for t, w in enumerate(weights * scale, start=1):
                rows = [f"{i + 1},{j + 1},{v:.17g}" for i, j, v in zip(*edge_pairs(4), w)]
                (fit_dir / f"graph_{t}.csv").write_text("\n".join(["i,j,w", *rows]) + "\n")
            assert run(["--mode", "analyze", "--input", str(fit_dir),
                        "--out", str(out), "--heatmap"]) == 0
            text = (out / "graph_corr.csv").read_text()
            assert "nan" not in text
            corr[name] = np.array([[float(v) for v in line.split(",")]
                                   for line in text.splitlines()])
        assert "warning:" not in capsys.readouterr().err
        np.testing.assert_allclose(corr["huge"], corr["plain"], rtol=0, atol=1e-8)

    def test_consensus_counts(self, tmp_path):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        report = FitReport(True, 1, 0.0, 0.0, ())
        for trial, w in enumerate(([0.9, 0.1, 0.0], [0.8, 0.6, 0.0], [0.7, 0.0, 0.2])):
            _write(tmp_path / "trials" / f"t{trial}", _fit_files(
                np.array([w]), np.zeros((1, 3, 4)), report, cfg, seed=0, mode="dynamic",
            ))
        out = tmp_path / "consensus"
        assert run(["--mode", "consensus", "--input", str(tmp_path / "trials"),
                    "--out", str(out), "--prob-threshold", "0.5",
                    "--count-threshold", "2"]) == 0
        lines = (out / "consensus_1.csv").read_text().splitlines()
        assert lines[0] == "i,j,count,kept"
        assert lines[1] == "1,2,3,1"  # edge (1,2): 3 of 3 trials
        assert lines[2] == "1,3,1,0"  # edge (1,3): 1 trial
        assert lines[3] == "2,3,0,0"

    @pytest.mark.parametrize("threshold, warns", [("1", False), (None, True)],
                             ids=["below the trials", "default"])
    def test_consensus_warns_when_no_edge_can_be_kept(self, tmp_path, capsys,
                                                      threshold, warns):
        # two trials that agree on every edge: only a count_threshold below 2
        # can keep one, and the default of 5 keeps none
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        report = FitReport(True, 1, 0.0, 0.0, ())
        for trial in ("a", "b"):
            _write(tmp_path / "trials" / trial, _fit_files(
                np.array([[0.9, 0.1, 0.0]]), np.zeros((1, 3, 4)), report, cfg, seed=0,
                mode="dynamic",
            ))
        out = tmp_path / "consensus"
        flags = [] if threshold is None else ["--count-threshold", threshold]
        assert run(["--mode", "consensus", "--input", str(tmp_path / "trials"),
                    "--out", str(out), *flags]) == 0
        err = capsys.readouterr().err
        kept = "1" if threshold == "1" else "0"
        assert (out / "consensus_1.csv").read_text().splitlines()[1:] == \
            [f"1,2,2,{kept}", "1,3,0,0", "2,3,0,0"]
        if warns:
            assert err == ("warning: count_threshold=5 keeps no edge: an edge must "
                           "be in more trials than that, and there are 2\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_prob_threshold_is_usage_error(self, tmp_path, capsys, threshold):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        report = FitReport(True, 1, 0.0, 0.0, ())
        _write(tmp_path / "trials" / "t0", _fit_files(
            np.array([[0.9, 0.1, 0.0]]), np.zeros((1, 3, 4)), report, cfg, seed=0,
            mode="dynamic",
        ))
        out = tmp_path / "consensus"
        assert run(["--mode", "consensus", "--input", str(tmp_path / "trials"),
                    "--out", str(out), "--prob-threshold", threshold]) == 1
        assert "prob_threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_threshold_is_usage_error(self, tmp_path, capsys):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        report = FitReport(True, 1, 0.0, 0.0, ())
        _write(tmp_path / "trials" / "t0", _fit_files(
            np.array([[0.9, 0.1, 0.0]]), np.zeros((1, 3, 4)), report, cfg, seed=0,
            mode="dynamic",
        ))
        out = tmp_path / "consensus"
        assert run(["--mode", "consensus", "--input", str(tmp_path / "trials"),
                    "--out", str(out), "--count-threshold", "-1"]) == 1
        assert "count_threshold must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_cli_override(self, tmp_path):
        path = self._write_signals(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# fit settings\nk=2\nwindow_len=8\ngamma=0.5\nmax_iter=30\n"
        )
        out = tmp_path / "o"
        code = run(["--mode", "dynamic", "--input", str(path), "--out", str(out),
                    "--config", str(cfg_file), "--gamma", "0.25",
                    "--lambda", "0.5"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["gamma"] == 0.25  # flag wins
        assert report["config"]["k_budget"] == 2.0  # from file
        assert report["config"]["max_iter"] == 30
        assert report["config"]["lambda"] == 0.5

    def test_config_value_with_a_leading_minus(self, tmp_path):
        # the key=value form keeps the sign that "--prob-threshold -5e-1"
        # would lose to argparse
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        report = FitReport(True, 1, 0.0, 0.0, ())
        _write(tmp_path / "trials" / "t0", _fit_files(
            np.array([[0.9, 0.1, 0.0]]), np.zeros((1, 3, 4)), report, cfg, seed=0,
            mode="dynamic",
        ))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("prob_threshold=-5e-1\ncount_threshold=0\n")
        out = tmp_path / "consensus"
        assert run(["--mode", "consensus", "--input", str(tmp_path / "trials"),
                    "--out", str(out), "--config", str(cfg_file)]) == 0
        # every weight is at least -0.5, so every edge is kept
        assert (out / "consensus_1.csv").read_text().splitlines()[1:] == \
            ["1,2,1,1", "1,3,1,1", "2,3,1,1"]

    @pytest.mark.parametrize("line", ["heatmap=ture", "mode=bogus", "heatmap"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, line):
        fit_dir = tmp_path / "fit"
        for t in (1, 2):
            self._write_graph(fit_dir, t, 3)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        assert run(["--mode", "analyze", "--input", str(fit_dir),
                    "--out", str(tmp_path / "o"), "--config", str(cfg_file)]) == 1
        assert f"{cfg_file}:1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus=1\n")
        assert run(["--mode", "synth", "--out", str(tmp_path / "o"),
                    "--config", str(cfg_file)]) == 1

    def test_scenario_defined_in_config_file(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(
            "mode=synth\nseed=3\nn_nodes=7\nk_true=5\nn_segments=1\n"
            "windows_per_segment=2\nwindow_len=10\nnoise_sigma=0\n"
        )
        out = tmp_path / "s"
        assert run(["--config", str(cfg_file), "--out", str(out)]) == 0
        signals = ingest_csv(out / "signals.csv")
        assert signals.shape == (7, 20)
        truth = json.loads((out / "truth.json").read_text())
        assert truth["scenario"]["k_true"] == 5
        assert truth["boundaries"] == []
        # noise_sigma=0 makes the noisy and clean records identical
        assert (out / "signals.csv").read_bytes() == (out / "clean.csv").read_bytes()


@pytest.mark.parametrize(
    "args, code", [(["--help"], 0), (["--mode", "synth"], 1)], ids=["help", "no-out"]
)
def test_module_entry_point_exits_with_the_run_code(tmp_path, args, code):
    # python -m tvglearn goes through cli.main, which exits with run()'s code
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tvglearn", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    if code == 0:
        assert proc.stdout.startswith("usage: tvglearn")
    else:
        assert "error: mode 'synth' requires: --out" in proc.stderr
    assert list(tmp_path.iterdir()) == []


CONFIG_KEYS = {
    "mode", "input", "out", "window_len", "k", "gamma", "eta", "alpha", "lambda",
    "tau1", "tau2", "max_iter", "tol_obj", "tol_res", "seed",
    "heatmap", "n_nodes", "k_true", "n_segments", "windows_per_segment",
    "noise_sigma", "smooth_gamma", "zero_node_fraction", "prob_threshold",
    "count_threshold",
}


def _flags():
    return {
        s for action in _build_parser()._actions for s in action.option_strings
    } - {"-h", "--help"}


def test_flags_and_config_keys_are_pinned():
    assert set(_OPTIONS) == CONFIG_KEYS
    assert _flags() == {"--config"} | {"--" + k.replace("_", "-") for k in CONFIG_KEYS}


def test_readme_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("## CLI", 1)[1]
    paragraph = cli_section[cli_section.index("Flags:"):].split("\n\n", 1)[0]
    assert _flags() <= set(re.findall(r"--[a-z0-9-]+", paragraph))
