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

Each mode reads and computes its whole output before the output directory is
created, so a run that fails a check writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import typing
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .analysis import consensus as consensus_graph
from .analysis import graph_correlation_matrix
from .errors import (
    CsvParseError,
    CsvShapeError,
    DataError,
    DivergenceError,
    SingularSystemError,
    UsageError,
)
from .graphs import edge_pairs, n_nodes_for_edges
from .solver import SolverConfig, fit_dynamic, fit_static
from .synthetic import ScenarioSpec, generate

__all__ = ["ingest_csv", "run", "main"]

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
_CLI_DEFAULTS = {"heatmap": False, "prob_threshold": 0.5, "count_threshold": 5}

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
            p.add_argument(flag, type=typ, choices=MODES if name == "mode" else None,
                           help=help_)
    return p


def _read_text(path, error) -> str:
    """The UTF-8 text of ``path``, a leading byte order mark skipped; a file
    that cannot be read or decoded raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _parse_config_file(parser: _Parser, path: str) -> dict:
    """The options in the ``key=value`` file at ``path``, parsed as ``--key=value``."""
    values = {}
    for lineno, line in enumerate(_read_text(path, UsageError).splitlines(), start=1):
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
        try:
            if _OPTIONS[key][0] is bool:  # a switch flag takes no value
                values[key] = _BOOLS[value.lower()]
            else:
                values |= vars(parser.parse_args([f"--{key.replace('_', '-')}={value}"]))
        except KeyError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return values


def _resolve(parser: _Parser, argv) -> dict:
    """Set options, flags over the config file; unset ones are left out."""
    flags = vars(parser.parse_args(argv))
    config = flags.pop("config", None)
    file_values = _parse_config_file(parser, config) if config else {}
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


def _rows(path):
    """(1-based file line, cells) of each non-blank row of the CSV at ``path``."""
    reader = csv.reader(io.StringIO(_read_text(path, DataError), newline=""))
    for row in reader:
        if any(cell.strip() for cell in row):
            yield reader.line_num, row


def _cell(path, line: int, column: int, token: str, typ):
    """``token`` as ``typ``; CsvParseError names a cell that fails or is not finite."""
    where = f"{path}: row {line}, column {column}"
    try:
        value = typ(token)
    except ValueError as exc:
        raise CsvParseError(f"{where}: cannot parse {token.strip()!r}") from exc
    if not math.isfinite(value):
        raise CsvParseError(f"{where}: non-finite value {token.strip()!r}")
    return value


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def ingest_csv(path) -> np.ndarray:
    """Read a nodes-by-samples numeric CSV into a signal matrix.

    The file is UTF-8; a leading byte order mark and blank lines are skipped.
    The first row is a header, and skipped, only when none of its tokens is
    a number, so a typo in the first node row is an error, not a header.
    Ragged rows, cells that do not parse and non-finite cells raise
    :class:`CsvParseError` naming the 1-based file line and column; fewer
    than 2 node rows raises :class:`CsvShapeError`.
    """
    rows = list(_rows(path))
    if rows and not any(map(_is_number, rows[0][1])):
        del rows[0]
    width = len(rows[0][1]) if rows else 0
    data = []
    for line, row in rows:
        if len(row) != width:
            raise CsvParseError(f"{path}: row {line} has {len(row)} values, expected {width}")
        data.append([_cell(path, line, c, tok, float) for c, tok in enumerate(row, start=1)])

    if len(data) < 2:
        raise CsvShapeError(f"{path}: need at least 2 node rows, got {len(data)}")
    return np.asarray(data, dtype=np.float64)


def _read_graph_csv(path: Path) -> np.ndarray:
    rows = list(_rows(path))
    if not rows or rows[0][1][:3] != ["i", "j", "w"]:
        raise CsvParseError(f"{path}: expected an i,j,w graph file")
    entries = []
    for line, row in rows[1:]:
        if len(row) != 3:
            raise CsvParseError(f"{path}: row {line} is not i,j,w")
        i, j, w = (_cell(path, line, col, tok, typ)
                   for col, tok, typ in zip((1, 2, 3), row, (int, int, float)))
        entries.append((line, i, j, w))
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


def _edge_csv(header: str, *columns) -> str:
    """``header``, then one row per edge: its 1-based node pair and ``columns``."""
    i_idx, j_idx = edge_pairs(n_nodes_for_edges(len(columns[0])))
    rows = zip(i_idx + 1, j_idx + 1, *columns)
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _matrix_csv(matrix: np.ndarray, fmt: str = "%.12g") -> str:
    return "\n".join(",".join(fmt % v for v in row) for row in matrix) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _pgm(corr: np.ndarray) -> bytes:
    pixels = np.rint(255.0 * (corr + 1.0) / 2.0).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def _write(out_dir, files: dict) -> None:
    """Create ``out_dir`` and write each name -> text or bytes into it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        path = out / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def _fit_files(w_seq, x_windows, report, solver_cfg, seed, mode) -> dict:
    """The fixed fit output set, file name -> text.

    ``w_seq`` is the (b, m) stack of window graphs and ``x_windows`` the
    (b, n, s) stack of denoised windows, with b = 1 for a static fit.
    """
    files = {
        f"graph_{t}.csv": _edge_csv("i,j,w", [f"{v:.9g}" for v in w])
        for t, w in enumerate(w_seq, start=1)
    }
    files["change_profile.csv"] = "\n".join(
        ["t,l1_change"]
        + [f"{t},{change:.9g}" for t, change in enumerate(report.per_window_change, start=1)]
    ) + "\n"
    # windows side by side: the denoised record, nodes by samples
    files["denoised.csv"] = _matrix_csv(
        x_windows.transpose(1, 0, 2).reshape(x_windows.shape[1], -1)
    )
    files["report.json"] = _json({
        "mode": mode,
        "seed": seed,
        "n_windows": int(w_seq.shape[0]),
        "n_nodes": n_nodes_for_edges(w_seq.shape[1]),
        "config": solver_cfg.to_dict(),
        **report.to_dict(),
    })
    return files


def _cmd_fit(opts: dict) -> dict:
    dynamic = opts["mode"] == "dynamic"
    _require(opts, "input", "k", *(["window_len"] if dynamic else []))
    cfg = SolverConfig(**_kwargs(SolverConfig, opts))
    y = ingest_csv(opts["input"])
    if dynamic:
        w_seq, x_windows, report = fit_dynamic(y, cfg)
    else:
        w, x, report = fit_static(y, cfg)
        w_seq, x_windows = w[np.newaxis], x[np.newaxis]
    if report.stop_reason == "max_iter":
        warnings.warn(
            f"stopped at max_iter={cfg.max_iter} before the "
            f"stopping criteria were met (final residual "
            f"{report.final_residual:.3g})"
        )
    # fits echo the seed in report.json
    seed = opts.get("seed", ScenarioSpec.seed)
    return _fit_files(w_seq, x_windows, report, cfg, seed, opts["mode"])


def _cmd_synth(opts: dict) -> dict:
    spec = ScenarioSpec(**_kwargs(ScenarioSpec, opts))
    truth = generate(spec)
    files = {"signals.csv": _matrix_csv(truth.signals), "clean.csv": _matrix_csv(truth.clean)}
    for s, segment in enumerate(truth.segments, start=1):
        files[f"truth_graph_{s}.csv"] = _edge_csv("i,j,w", [f"{v:.9g}" for v in segment])
    files["truth.json"] = _json({
        "scenario": {f.name: getattr(spec, f.name) for f in fields(spec)},
        "boundaries": list(truth.boundaries),
        "n_windows": spec.n_windows,
        "n_samples": spec.n_samples,
    })
    return files


def _graph_files(directory: Path) -> list[Path]:
    """The ``graph_<t>.csv`` files of ``directory`` in window order.

    Their numbers must be exactly 1..T, or the windows of two directories
    would be paired wrongly: a gap, a repeat (``graph_1.csv`` next to
    ``graph_01.csv``) or a window 0 raises DataError naming the first.
    """
    numbered = sorted(
        (int(stem), path)
        for path in directory.glob("graph_*.csv")
        if (stem := path.stem.split("_", 1)[1]).isdecimal()
    )
    for t, (number, path) in enumerate(numbered, start=1):
        if number > t:
            problem = f"window {t} is missing"
        elif number == 0:
            problem = f"{path.name} is window 0"
        elif number < t:
            problem = f"{numbered[t - 2][1].name} and {path.name} are both window {number}"
        else:
            continue
        raise DataError(f"{directory}: graph_<t>.csv files must number 1..T; {problem}")
    return [p for _, p in numbered]


def _read_graph_stack(files) -> np.ndarray:
    """Stack graph files into one array; they must share one edge count."""
    graphs = [_read_graph_csv(p) for p in files]
    m = graphs[0].shape[0]
    for path, weights in zip(files, graphs):
        if weights.shape[0] != m:
            raise CsvShapeError(
                f"{path}: {weights.shape[0]} edges, but {files[0]} has {m}"
            )
    return np.stack(graphs)


def _cmd_analyze(opts: dict) -> dict:
    _require(opts, "input")
    directory = Path(opts["input"])
    files = _graph_files(directory)
    if len(files) < 2:
        raise DataError(f"{directory}: need at least 2 graph_<t>.csv files")
    corr = graph_correlation_matrix(_read_graph_stack(files))
    out = {"graph_corr.csv": _matrix_csv(corr, fmt="%.9g")}
    if opts["heatmap"]:
        out["graph_corr.pgm"] = _pgm(corr)
    return out


def _cmd_consensus(opts: dict) -> dict:
    _require(opts, "input")
    root = Path(opts["input"])
    per_trial = [
        files for d in sorted(root.iterdir()) if d.is_dir() and (files := _graph_files(d))
    ]
    if not per_trial:
        raise DataError(f"{root}: no trial subdirectories with graph_<t>.csv files")
    out = {}
    # window t of every trial, up to the shortest trial
    for t, window in enumerate(zip(*per_trial), start=1):
        result = consensus_graph(
            _read_graph_stack(window), opts["prob_threshold"], opts["count_threshold"]
        )
        out[f"consensus_{t}.csv"] = _edge_csv("i,j,count,kept", result.counts, result.kept)
    return out


# mode -> command: each reads its input and returns {file name: text or bytes}
_COMMANDS = {
    "static": _cmd_fit,
    "dynamic": _cmd_fit,
    "synth": _cmd_synth,
    "analyze": _cmd_analyze,
    "consensus": _cmd_consensus,
}

MODES = tuple(_COMMANDS)


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 usage, 2 data, 3 numeric).

    Each warning raised while the mode computes is printed to stderr as
    ``warning: <message>`` when it is raised, so before any error message.
    """
    parser = _build_parser()
    try:
        opts = _resolve(parser, argv)  # argparse reads sys.argv[1:] for None
        if "mode" not in opts:
            raise UsageError("--mode is required")
        _require(opts, "out")
        with warnings.catch_warnings():
            # shown once per place, whatever filters the caller had set
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            files = _COMMANDS[opts["mode"]](opts)
        _write(opts["out"], files)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # bad parameters (InfeasibleBudgetError is one), including those only
        # the data reveals, e.g. a window longer than the record or a budget
        # above the edge count
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
