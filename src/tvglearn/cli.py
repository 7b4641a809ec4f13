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
from dataclasses import dataclass, fields
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

# name -> (type, default); booleans resolve None -> False
_OPTIONS = {
    "mode": (str, None),
    "input": (str, None),
    "out": (str, None),
    "window_len": (int, None),
    "k": (float, None),
    "gamma": (float, 1.0),
    "eta": (float, 0.0),
    "alpha": (float, 0.1),
    "lambda": (float, 1.0),
    "tau1": (float, 1e-2),
    "tau2": (float, 1e-2),
    "max_iter": (int, 5000),
    "tol_obj": (float, 1e-6),
    "tol_res": (float, 1e-4),
    "z_mode": (str, "anchored"),
    "dual_sign": (str, "ascent"),
    "seed": (int, 0),
    "heatmap": (bool, False),
    "n_nodes": (int, 20),
    "k_true": (int, 19),
    "n_segments": (int, 2),
    "windows_per_segment": (int, 4),
    "noise_sigma": (float, 0.1),
    "smooth_gamma": (float, 5.0),
    "zero_node_fraction": (float, 0.0),
    "prob_threshold": (float, 0.5),
    "count_threshold": (int, 5),
}


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
    p = _Parser(prog="tvglearn", description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--input", help="signal CSV (fits) or directory (analyze/consensus)")
    p.add_argument("--out", help="output directory, created if missing")
    p.add_argument("--config", help="flat key=value file; flags override it")
    p.add_argument("--window-len", type=int, dest="window_len")
    p.add_argument("--k", type=float, help="edge weight budget K")
    p.add_argument("--gamma", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", type=float, dest="lambda_")
    p.add_argument("--tau1", type=float)
    p.add_argument("--tau2", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--tol-obj", type=float, dest="tol_obj")
    p.add_argument("--tol-res", type=float, dest="tol_res")
    p.add_argument("--z-mode", choices=("anchored", "paper-literal"), dest="z_mode")
    p.add_argument("--dual-sign", choices=("ascent", "paper-literal"), dest="dual_sign")
    p.add_argument("--seed", type=int)
    p.add_argument("--heatmap", action="store_true", default=None)
    p.add_argument("--n-nodes", type=int, dest="n_nodes")
    p.add_argument("--k-true", type=int, dest="k_true")
    p.add_argument("--n-segments", type=int, dest="n_segments")
    p.add_argument("--windows-per-segment", type=int, dest="windows_per_segment")
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--smooth-gamma", type=float, dest="smooth_gamma")
    p.add_argument("--zero-node-fraction", type=float, dest="zero_node_fraction")
    p.add_argument("--prob-threshold", type=float, dest="prob_threshold")
    p.add_argument("--count-threshold", type=int, dest="count_threshold")
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
            if typ is bool:
                values[key] = value.lower() in ("1", "true", "yes")
            else:
                values[key] = typ(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _resolve(argv) -> dict:
    parser = _build_parser()
    args = parser.parse_args(argv)
    file_values = _parse_config_file(args.config) if args.config else {}
    resolved = {}
    for name, (typ, default) in _OPTIONS.items():
        attr = "lambda_" if name == "lambda" else name
        cli_value = getattr(args, attr)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in file_values:
            resolved[name] = file_values[name]
        else:
            resolved[name] = default
    return resolved


def _require(resolved: dict, *names: str) -> None:
    missing = [n for n in names if resolved[n] is None]
    if missing:
        raise UsageError(
            f"mode {resolved['mode']!r} requires: "
            + ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        )


def _run_config(resolved: dict) -> RunConfig:
    mode = resolved["mode"]
    if mode is None:
        raise UsageError("--mode is required")
    _require(resolved, "out")

    solver = None
    scenario = None
    if mode in ("static", "dynamic"):
        _require(resolved, "input", "k")
        if mode == "dynamic":
            _require(resolved, "window_len")
        solver = SolverConfig(
            k_budget=resolved["k"],
            gamma=resolved["gamma"],
            eta=resolved["eta"],
            alpha=resolved["alpha"],
            lam=resolved["lambda"],
            tau1=resolved["tau1"],
            tau2=resolved["tau2"],
            max_iter=resolved["max_iter"],
            tol_obj=resolved["tol_obj"],
            tol_residual=resolved["tol_res"],
            z_update_mode=resolved["z_mode"],
            dual_sign=resolved["dual_sign"],
            window_len=resolved["window_len"],
        )
    elif mode == "synth":
        scenario = ScenarioSpec(
            n_nodes=resolved["n_nodes"],
            k_true=resolved["k_true"],
            n_segments=resolved["n_segments"],
            windows_per_segment=resolved["windows_per_segment"],
            window_len=resolved["window_len"] or 100,
            noise_sigma=resolved["noise_sigma"],
            smooth_gamma=resolved["smooth_gamma"],
            zero_node_fraction=resolved["zero_node_fraction"],
            seed=resolved["seed"],
        )
    else:
        _require(resolved, "input")

    return RunConfig(
        mode=mode,
        input_path=resolved["input"],
        output_dir=resolved["out"],
        solver=solver,
        seed=resolved["seed"],
        heatmap=bool(resolved["heatmap"]),
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
            entries.append((int(row[0]), int(row[1]), float(row[2])))
        except ValueError as exc:
            raise CsvParseError(f"{path}: row {file_row}: {exc}") from exc
    try:
        n = n_nodes_for_edges(len(entries))
    except ValueError as exc:
        raise CsvParseError(f"{path}: {exc}") from exc
    i_idx, j_idx = edge_pairs(n)
    index_of = {(int(i) + 1, int(j) + 1): e for e, (i, j) in enumerate(zip(i_idx, j_idx))}
    weights = np.zeros(len(entries))
    for i, j, w in entries:
        try:
            weights[index_of[(i, j)]] = w
        except KeyError:
            raise CsvParseError(f"{path}: edge ({i},{j}) is not upper-triangular")
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
