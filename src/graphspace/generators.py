"""Synthetic graph families for benchmarks and demos.

``binomial`` draws independent 0/1 edges, ``full_heavy_tailed`` fills every
edge with a Student-t(1) (Cauchy) weight, and ``letter_like`` distorts a
small hand-drawn capital-letter prototype, jittering node coordinates and
flipping edges, optionally dropping nodes so corpus sizes vary.

All randomness flows through explicit generators; ``trial_rng`` derives an
independent stream per trial index from one master seed so batched runs
give identical results regardless of execution order or parallelism.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

__all__ = [
    "binomial",
    "full_heavy_tailed",
    "letter_like",
    "generate",
    "trial_rng",
    "LETTER_A_COORDS",
    "LETTER_A_EDGES",
]

FAMILIES = ("binomial", "full_heavy_tailed", "letter_like")

# Five-node capital 'A': two feet, two mid joints, an apex, and a crossbar.
LETTER_A_COORDS = np.array(
    [[0.0, 0.0], [0.5, 1.0], [1.0, 2.0], [1.5, 1.0], [2.0, 0.0]]
)
LETTER_A_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial ``index`` of a seeded batch."""
    _check_seed(master_seed)
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def binomial(n: int, rng, p: float = 0.5) -> Graph:
    """Undirected Erdos-Renyi graph: each edge present with probability p."""
    _check_p(p)
    if n < 1:
        raise ValueError("n must be positive")
    rng = _as_rng(rng)
    upper = (rng.random((n, n)) < p).astype(float)
    adj = np.triu(upper, k=1)
    return Graph(adj + adj.T)


def full_heavy_tailed(n: int, rng) -> Graph:
    """Fully connected graph with i.i.d. Student-t(1) edge weights."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _as_rng(rng)
    upper = np.triu(rng.standard_t(df=1, size=(n, n)), k=1)
    return Graph(upper + upper.T)


def letter_like(rng, coord_noise: float = 0.15, edge_noise: float = 0.05,
                node_drop: float = 0.0) -> Graph:
    """Distorted copy of the capital-A prototype with 2-d coordinates as attributes.

    Each node survives with probability 1 - node_drop (at least two always
    survive), every coordinate gets Gaussian jitter, and every surviving
    node pair flips its edge indicator with probability ``edge_noise``.
    """
    _check_distortion(coord_noise, edge_noise, node_drop)
    rng = _as_rng(rng)
    n0 = LETTER_A_COORDS.shape[0]
    adj0 = np.zeros((n0, n0))
    for i, j in LETTER_A_EDGES:
        adj0[i, j] = adj0[j, i] = 1.0

    keep = rng.random(n0) >= node_drop
    if keep.sum() < 2:
        keep = np.zeros(n0, dtype=bool)
        keep[:2] = True
    idx = np.flatnonzero(keep)
    adj = adj0[np.ix_(idx, idx)]
    pos = LETTER_A_COORDS[idx] + rng.normal(scale=coord_noise, size=(len(idx), 2))

    n = len(idx)
    flips = np.triu(rng.random((n, n)) < edge_noise, k=1)
    adj = adj.copy()
    adj[flips] = 1.0 - adj[flips]
    adj = np.triu(adj, k=1)
    return Graph(adj + adj.T, node_attrs=pos)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")


def _check_distortion(coord_noise: float, edge_noise: float, node_drop: float) -> None:
    for name, value, ok, rule in (
            ("coord_noise", coord_noise, 0 <= coord_noise < np.inf, "be finite and nonnegative"),
            ("edge_noise", edge_noise, 0 <= edge_noise <= 1, "lie in [0, 1]"),
            ("node_drop", node_drop, 0 <= node_drop < 1, "lie in [0, 1)")):
        if not ok:
            raise ValueError(f"invalid distortion parameters: {name} must {rule}, got {value}")


def _check_generate(family: str, n_range, p: float, coord_noise: float, edge_noise: float,
                    node_drop: float) -> None:
    """Refuse, before any draw, what ``generate`` refuses for these arguments,
    with the same ``ValueError``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if family == "letter_like":
        _check_distortion(coord_noise, edge_noise, node_drop)
        return
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid size range [{lo}, {hi}]")
    if family == "binomial":
        _check_p(p)


def generate(family: str, n_range, rng, *, p: float = 0.5,
             coord_noise: float = 0.15, edge_noise: float = 0.05,
             node_drop: float = 0.0) -> Graph:
    """Draw one graph of the given family with size uniform in ``n_range``.

    ``letter_like`` takes its size from the prototype (modulated by
    ``node_drop``), so ``n_range`` is ignored for that family.
    """
    _check_generate(family, n_range, p, coord_noise, edge_noise, node_drop)
    rng = _as_rng(rng)
    if family == "letter_like":
        return letter_like(rng, coord_noise=coord_noise, edge_noise=edge_noise,
                           node_drop=node_drop)
    lo, hi = int(n_range[0]), int(n_range[1])
    n = int(rng.integers(lo, hi + 1))
    if family == "binomial":
        return binomial(n, rng, p=p)
    return full_heavy_tailed(n, rng)
