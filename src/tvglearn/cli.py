"""Command line front end: ingest signals, run fits, write result files.

Modes
-----
static     one graph over the whole record
dynamic    one graph per window
synth      generate a synthetic benchmark scenario
analyze    correlation matrix of an emitted graph sequence
consensus  cross-trial consensus graphs from per-trial fit directories

All output layouts are fixed: graphs go to ``graph_<t>.csv`` (1-based window,
1-based node pairs, 9 significant digits), run metadata to ``report.json``,
temporal changes to ``change_profile.csv``, correlation matrices to
``graph_corr.csv`` and optionally a P5 ``graph_corr.pgm`` heatmap.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import consensus as consensus_graph
from .analysis import graph_correlation_matrix
from .errors import (
    CsvParseError,
    CsvShapeError,
    DataError,
    DivergenceError,
    InfeasibleBudgetError,
    SingularSystemError,
    UsageError,
)
from .graphs import edge_pairs, n_nodes_for_edges
from .solver import SolverConfig, fit_dynamic, fit_static
from .synthetic import ScenarioSpec, generate

__all__ = ["RunConfig", "ingest_csv", "emit_results", "run", "main"]

MODES = ("static", "dynamic", "synth", "analyze", "consensus")

# The flags and config-file keys are the SolverConfig and ScenarioSpec field
# names ("--window-len" sets window_len) except these: field -> option name.
_RENAMED = {"k_budget": "k", "lam": "lambda", "tol_residual": "tol_res"}

# Options that no dataclass field declares: name -> (type, help).
_CLI_ONLY = {
    "mode": (str, "what to run"),
    "input": (str, "signal CSV (fits) or directory (analyze/consensus)"),
    "out": (str, "output directory, created if missing"),
    "heatmap": (bool, "analyze: also write graph_corr.pgm"),
    "prob_threshold": (float, "consensus: a trial has an edge where w >= this"),
    "count_threshold": (int, "consensus: keep edges in more trials than this"),
}

# Values of unset options that no dataclass default supplies.
_CLI_DEFAULTS = {"heatmap": False, "prob_threshold": 0.5, "count_threshold": 5,
                 "n_nodes": 20, "k_true": 19}

_CHOICES = {"mode": MODES}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _field_options() -> dict:
    """name -> (type, help) for the fields of SolverConfig and ScenarioSpec."""
    options = {}
    for cls in (SolverConfig, ScenarioSpec):
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            # int | None -> int
            typ = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
            target = f"{cls.__name__}.{f.name}"
            if f.default is not MISSING:
                target += f"={f.default!r}"
            name = _RENAMED.get(f.name, f.name)
            if name in options:  # window_len sets both
                target = f"{options[name][1]}, {target}"
            options[name] = (typ, target)
    return options


# name -> (type, help); the names are the config-file keys and, with "-" for
# "_", the flags
_OPTIONS = _CLI_ONLY | _field_options()


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options of one CLI invocation."""

    mode: str
    input_path: str | None
    output_dir: str
    solver: SolverConfig
    seed: int
    heatmap: bool
    scenario: ScenarioSpec | None
    prob_threshold: float
    count_threshold: int


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    # unset flags stay out of the namespace, so the config file and the
    # dataclass defaults can fill them
    p = _Parser(prog="tvglearn", description=__doc__.splitlines()[0],
                argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="flat key=value file; flags override it")
    for name, (typ, help_) in _OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        if name in _CLI_DEFAULTS:
            help_ += f" (default {_CLI_DEFAULTS[name]})"
        if typ is bool:
            p.add_argument(flag, action="store_true", help=help_)
        else:
            p.add_argument(flag, type=typ, choices=_CHOICES.get(name), help=help_)
    return p


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        typ, _ = _OPTIONS[key]
        try:
            values[key] = _BOOLS[value.lower()] if typ is bool else typ(value)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if key in _CHOICES and value not in _CHOICES[key]:
            raise UsageError(
                f"{path}:{lineno}: {key} must be one of {', '.join(_CHOICES[key])}"
            )
    return values


def _resolve(argv) -> dict:
    """Set options, flags over the config file; unset ones are left out."""
    flags = vars(_build_parser().parse_args(argv))
    config = flags.pop("config", None)
    file_values = _parse_config_file(config) if config else {}
    return {**_CLI_DEFAULTS, **file_values, **flags}


def _require(resolved: dict, *names: str) -> None:
    missing = [n for n in names if n not in resolved]
    if missing:
        raise UsageError(
            f"mode {resolved['mode']!r} requires: "
            + ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        )


def _kwargs(cls, resolved: dict) -> dict:
    """The set options that are fields of ``cls``, keyed by field name."""
    return {
        f.name: resolved[_RENAMED.get(f.name, f.name)]
        for f in fields(cls)
        if _RENAMED.get(f.name, f.name) in resolved
    }


def _run_config(resolved: dict) -> RunConfig:
    mode = resolved.get("mode")
    if mode is None:
        raise UsageError("--mode is required")
    _require(resolved, "out")

    solver = None
    scenario = None
    if mode in ("static", "dynamic"):
        _require(resolved, "input", "k")
        if mode == "dynamic":
            _require(resolved, "window_len")
        solver = SolverConfig(**_kwargs(SolverConfig, resolved))
    elif mode == "synth":
        scenario = ScenarioSpec(**_kwargs(ScenarioSpec, resolved))
    else:
        _require(resolved, "input")

    return RunConfig(
        mode=mode,
        input_path=resolved.get("input"),
        output_dir=resolved["out"],
        solver=solver,
        seed=resolved.get("seed", ScenarioSpec.seed),  # fits echo it in report.json
        heatmap=resolved["heatmap"],
        scenario=scenario,
        prob_threshold=resolved["prob_threshold"],
        count_threshold=resolved["count_threshold"],
    )


def ingest_csv(path) -> np.ndarray:
    """Read a nodes-by-samples numeric CSV into a signal matrix.

    An initial header row (any non-numeric token) is skipped.  Ragged rows
    and non-finite cells raise :class:`CsvParseError` with 1-based
    coordinates; fewer than 2 node rows raises :class:`CsvShapeError`.
    """
    try:
        with open(path, newline="") as fh:
            raw = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    start = 0
    if raw:
        try:
            [float(tok) for tok in raw[0]]
        except ValueError:
            start = 1

    data = []
    width = None
    for file_row, row in enumerate(raw[start:], start=start + 1):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CsvParseError(
                f"{path}: row {file_row} has {len(row)} values, expected {width}"
            )
        values = []
        for col, tok in enumerate(row, start=1):
            try:
                v = float(tok)
            except ValueError as exc:
                raise CsvParseError(
                    f"{path}: row {file_row}, column {col}: cannot parse {tok.strip()!r}"
                ) from exc
            if not math.isfinite(v):
                raise CsvParseError(
                    f"{path}: row {file_row}, column {col}: non-finite value "
                    f"{tok.strip()!r}"
                )
            values.append(v)
        data.append(values)

    if len(data) < 2:
        raise CsvShapeError(f"{path}: need at least 2 node rows, got {len(data)}")
    return np.asarray(data, dtype=np.float64)


def _write_graph_csv(path: Path, weights: np.ndarray) -> None:
    n = n_nodes_for_edges(weights.shape[0])
    i_idx, j_idx = edge_pairs(n)
    lines = ["i,j,w"]
    for e in range(weights.shape[0]):
        lines.append(f"{i_idx[e] + 1},{j_idx[e] + 1},{weights[e]:.9g}")
    path.write_text("\n".join(lines) + "\n")


def _read_graph_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:3] != ["i", "j", "w"]:
        raise CsvParseError(f"{path}: expected an i,j,w graph file")
    entries = []
    for file_row, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise CsvParseError(f"{path}: row {file_row} is not i,j,w")
        try:
            i, j, w = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise CsvParseError(f"{path}: row {file_row}: {exc}") from exc
        if not math.isfinite(w):
            raise CsvParseError(f"{path}: row {file_row}: non-finite weight {row[2]!r}")
        entries.append((file_row, i, j, w))
    try:
        n = n_nodes_for_edges(len(entries))
    except ValueError as exc:
        raise CsvParseError(f"{path}: {exc}") from exc
    i_idx, j_idx = edge_pairs(n)
    index_of = {(int(i) + 1, int(j) + 1): e for e, (i, j) in enumerate(zip(i_idx, j_idx))}
    weights = np.zeros(len(entries))
    row_of = {}
    for file_row, i, j, w in entries:
        if (i, j) not in index_of:
            raise CsvParseError(f"{path}: edge ({i},{j}) is not upper-triangular")
        if (i, j) in row_of:
            raise CsvParseError(
                f"{path}: row {file_row} repeats edge ({i},{j}) of row {row_of[i, j]}"
            )
        row_of[i, j] = file_row
        weights[index_of[i, j]] = w
    return weights


def _write_matrix_csv(path: Path, matrix: np.ndarray, fmt: str = "%.12g") -> None:
    lines = [",".join(fmt % v for v in row) for row in np.atleast_2d(matrix)]
    path.write_text("\n".join(lines) + "\n")


def _write_pgm(path: Path, corr: np.ndarray) -> None:
    pixels = np.rint(255.0 * (corr + 1.0) / 2.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())


def emit_results(w_seq, x_windows, report, out_dir, solver_cfg, seed, mode) -> list[Path]:
    """Write the fixed fit output set; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    w_seq = np.atleast_2d(np.asarray(w_seq, dtype=np.float64))
    written = []
    for t in range(w_seq.shape[0]):
        path = out / f"graph_{t + 1}.csv"
        _write_graph_csv(path, w_seq[t])
        written.append(path)

    profile_path = out / "change_profile.csv"
    lines = ["t,l1_change"]
    for t, change in enumerate(report.per_window_change, start=1):
        lines.append(f"{t},{change:.9g}")
    profile_path.write_text("\n".join(lines) + "\n")
    written.append(profile_path)

    x_windows = np.asarray(x_windows, dtype=np.float64)
    if x_windows.ndim == 2:
        x_flat = x_windows
    else:
        x_flat = x_windows.transpose(1, 0, 2).reshape(x_windows.shape[1], -1)
    denoised_path = out / "denoised.csv"
    _write_matrix_csv(denoised_path, x_flat)
    written.append(denoised_path)

    report_path = out / "report.json"
    payload = {
        "mode": mode,
        "seed": seed,
        "n_windows": int(w_seq.shape[0]),
        "n_nodes": n_nodes_for_edges(w_seq.shape[1]),
        "config": solver_cfg.to_dict(),
        **report.to_dict(),
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(report_path)
    return written


def _cmd_fit(cfg: RunConfig) -> None:
    y = ingest_csv(cfg.input_path)
    if cfg.mode == "dynamic":
        w_seq, x_windows, report = fit_dynamic(y, cfg.solver)
    else:
        w, x, report = fit_static(y, cfg.solver)
        w_seq, x_windows = w[np.newaxis], x
    if report.stop_reason == "max_iter":
        print(
            f"warning: stopped at max_iter={cfg.solver.max_iter} before the "
            f"stopping criteria were met (final residual "
            f"{report.final_residual:.3g})",
            file=sys.stderr,
        )
    emit_results(
        w_seq, x_windows, report, cfg.output_dir, cfg.solver, cfg.seed, cfg.mode
    )


def _cmd_synth(cfg: RunConfig) -> None:
    truth = generate(cfg.scenario)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(out / "signals.csv", truth.signals)
    _write_matrix_csv(out / "clean.csv", truth.clean)
    for s in range(truth.segments.shape[0]):
        _write_graph_csv(out / f"truth_graph_{s + 1}.csv", truth.segments[s])
    spec = cfg.scenario
    payload = {
        "scenario": {f.name: getattr(spec, f.name) for f in fields(spec)},
        "boundaries": list(truth.boundaries),
        "n_windows": spec.n_windows,
        "n_samples": spec.n_samples,
    }
    with open(out / "truth.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _graph_files(directory: Path) -> list[Path]:
    files = []
    for path in directory.glob("graph_*.csv"):
        stem = path.stem.split("_", 1)[1]
        if stem.isdigit():
            files.append((int(stem), path))
    return [p for _, p in sorted(files)]


def _read_graph_stack(files: list[Path]) -> np.ndarray:
    """Stack graph files into one array; they must share one edge count."""
    graphs = [_read_graph_csv(p) for p in files]
    m = graphs[0].shape[0]
    for path, weights in zip(files, graphs):
        if weights.shape[0] != m:
            raise CsvShapeError(
                f"{path}: {weights.shape[0]} edges, but {files[0]} has {m}"
            )
    return np.stack(graphs)


def _cmd_analyze(cfg: RunConfig) -> None:
    directory = Path(cfg.input_path)
    files = _graph_files(directory)
    if len(files) < 2:
        raise DataError(f"{directory}: need at least 2 graph_<t>.csv files")
    w_seq = _read_graph_stack(files)
    corr = graph_correlation_matrix(w_seq)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(out / "graph_corr.csv", corr, fmt="%.9g")
    if cfg.heatmap:
        _write_pgm(out / "graph_corr.pgm", corr)


def _cmd_consensus(cfg: RunConfig) -> None:
    root = Path(cfg.input_path)
    trial_dirs = sorted(d for d in root.iterdir() if d.is_dir() and _graph_files(d))
    if not trial_dirs:
        raise DataError(f"{root}: no trial subdirectories with graph_<t>.csv files")
    per_trial = [_graph_files(d) for d in trial_dirs]
    n_windows = min(len(files) for files in per_trial)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t in range(n_windows):
        graphs = _read_graph_stack([files[t] for files in per_trial])
        result = consensus_graph(graphs, cfg.prob_threshold, cfg.count_threshold)
        n = n_nodes_for_edges(graphs.shape[1])
        i_idx, j_idx = edge_pairs(n)
        lines = ["i,j,count,kept"]
        for e in range(graphs.shape[1]):
            lines.append(
                f"{i_idx[e] + 1},{j_idx[e] + 1},{result.counts[e]},{result.kept[e]}"
            )
        (out / f"consensus_{t + 1}.csv").write_text("\n".join(lines) + "\n")


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 usage, 2 data, 3 numeric)."""
    try:
        resolved = _resolve(argv if argv is not None else sys.argv[1:])
        cfg = _run_config(resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _build_parser().print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (InfeasibleBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.mode in ("static", "dynamic"):
            _cmd_fit(cfg)
        elif cfg.mode == "synth":
            _cmd_synth(cfg)
        elif cfg.mode == "analyze":
            _cmd_analyze(cfg)
        else:
            _cmd_consensus(cfg)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InfeasibleBudgetError, UsageError, ValueError) as exc:
        # parameter problems surfaced after data was read, e.g. a window
        # longer than the record or a budget above the edge count
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
