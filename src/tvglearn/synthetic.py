"""Ground-truth scenario generator and recovery metrics.

Builds piecewise-constant sequences of random sparse graphs together with
signals that are smooth on the active graph, so that solver output can be
scored against a known answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .errors import as_float_array, check_budget, check_finite, check_integer
from .graphs import edge_pairs, n_edges, window_signals
from .solver import update_x

__all__ = ["ScenarioSpec", "GroundTruth", "generate", "edge_f1"]


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of a synthetic piecewise-constant graph scenario."""

    n_nodes: int = 20
    k_true: int = 19
    n_segments: int = 2
    windows_per_segment: int = 4
    window_len: int = 100
    noise_sigma: float = 0.1
    smooth_gamma: float = 5.0
    zero_node_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_nodes", 2), ("k_true", None), ("n_segments", 1),
                              ("windows_per_segment", 1), ("window_len", 1),
                              ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        check_budget("k_true", self.k_true, n_edges(self.n_nodes))
        check_finite("noise_sigma", self.noise_sigma)
        check_finite("smooth_gamma", self.smooth_gamma, bound="positive")
        check_finite("zero_node_fraction", self.zero_node_fraction)
        if self.zero_node_fraction >= 1.0:
            raise ValueError(
                f"zero_node_fraction must be in [0, 1), got {self.zero_node_fraction}")

    @property
    def n_windows(self) -> int:
        return self.n_segments * self.windows_per_segment

    @property
    def n_samples(self) -> int:
        return self.n_windows * self.window_len


@dataclass(frozen=True)
class GroundTruth:
    """Noisy record, its clean version, and the graphs that generated it.

    ``boundaries`` holds the indices t at which windows t and t+1 straddle a
    segment change, matching the indexing of :func:`graphs.change_profile`.
    """

    segments: np.ndarray  # (n_segments, n_edges) 0/1 edge vectors
    signals: np.ndarray  # (n_nodes, n_samples) noisy record
    clean: np.ndarray  # (n_nodes, n_samples) noiseless record
    boundaries: tuple
    window_len: int

    def segment_of_window(self, t: int) -> int:
        """The segment that generated window ``t``; ValueError for a ``t``
        that is not an integer in [0, n_windows)."""
        n_windows = self.signals.shape[1] // self.window_len
        t = check_integer("t", t, 0, n_windows - 1)
        return t // (n_windows // self.segments.shape[0])


def generate(spec: ScenarioSpec) -> GroundTruth:
    """Draw a scenario; deterministic for a fixed spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_nodes
    m = n_edges(n)
    i_idx, j_idx = edge_pairs(n)

    n_zero = int(spec.zero_node_fraction * n)
    zero_nodes = rng.choice(n, size=n_zero, replace=False) if n_zero else np.empty(0, int)
    zero_mask = np.zeros(n, dtype=bool)
    zero_mask[zero_nodes] = True
    allowed = np.flatnonzero(~zero_mask[i_idx] & ~zero_mask[j_idx])
    check_budget("k_true", spec.k_true, allowed.size)  # edges between nonzero nodes

    segments = np.zeros((spec.n_segments, m))
    for s in range(spec.n_segments):
        chosen = rng.choice(allowed, size=spec.k_true, replace=False)
        segments[s, chosen] = 1.0

    # zeros, not empty: window_signals checks that the record is finite;
    # each window is written through its view of the record
    clean = np.zeros((n, spec.n_samples))
    for t, block in enumerate(window_signals(clean, spec.window_len)):
        eps = rng.standard_normal((n, spec.window_len))
        segment = segments[t // spec.windows_per_segment]
        try:
            block[...] = update_x(eps, segment, spec.smooth_gamma, 0.0, window=t)
        except SingularSystemError as err:  # I + gamma*L rounds to singular
            raise SingularSystemError(
                f"window {t}: smooth_gamma must leave I + gamma*L positive definite "
                f"(try a smaller gamma), got {spec.smooth_gamma}", window=t) from err
        except ValueError as err:  # the segment is 0/1, so only gamma overflows
            raise ValueError(
                f"smooth_gamma must not overflow I + gamma*L, got {spec.smooth_gamma}"
            ) from err
    clean[zero_mask] = 0.0

    signals = rng.standard_normal(clean.shape)  # the noise, scaled in place
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        signals *= spec.noise_sigma
        signals += clean
    # min and max find an inf without a record-sized temporary
    if not (np.isfinite(signals.min()) and np.isfinite(signals.max())):
        raise ValueError(f"noise_sigma must not overflow the record, got {spec.noise_sigma}")

    boundaries = tuple(
        s * spec.windows_per_segment - 1 for s in range(1, spec.n_segments)
    )
    return GroundTruth(
        segments=segments,
        signals=signals,
        clean=clean,
        boundaries=boundaries,
        window_len=spec.window_len,
    )


def edge_f1(estimated, truth, k: int) -> float:
    """F1 score of the top-k estimated edges against a binary truth vector.

    Ties in the estimate break toward the lower edge index.
    """
    estimated = as_float_array("estimated", estimated, (None,), finite=True)
    truth = as_float_array("truth", truth, estimated.shape)
    if not np.all((truth == 0.0) | (truth == 1.0)):
        raise ValueError("truth must be a 0/1 edge vector")
    check_integer("k", k)
    check_budget("k", k, estimated.shape[0])

    top = np.argsort(-estimated, kind="stable")[:k]
    true_set = truth > 0.0
    hits = int(true_set[top].sum())
    n_true = int(true_set.sum())
    if hits == 0:
        return 0.0
    precision = hits / k
    recall = hits / n_true
    return 2.0 * precision * recall / (precision + recall)

