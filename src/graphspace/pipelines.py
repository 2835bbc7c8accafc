"""Batch pipelines: distance matrices, a 1-NN classifier, and the
permutation-recovery benchmark.

Pair and trial computations are independent; with ``workers > 1`` they run
on a thread pool, and because every trial draws from its own seed-derived
stream the results are identical regardless of scheduling.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .assignment import BRUTE_FORCE_MAX_NODES
from .generators import generate, trial_rng
from .graphs import Graph, _check_corpus, _numbered, pad_pair, permute
from .matching import MatchConfig, _faq_objectives, graph_distance

__all__ = [
    "RecoveryReport",
    "symmetric_match",
    "symmetric_distance",
    "pairwise_distances",
    "distance_csv",
    "knn_classify",
    "bench_recovery",
]


def _run_indexed(tasks, workers: int):
    """Evaluate no-arg callables, preserving order; threads when workers > 1."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


def symmetric_match(g1: Graph, g2: Graph, cfg: MatchConfig | None = None):
    """Best registration over both directions.

    Heuristic solvers are not direction-symmetric, so the symmetrized
    distance is min(d_g(g1 -> g2), d_g(g2 -> g1)).  Returns
    ``(d_g, result, direction)`` with direction "forward" when the result
    registers g1 onto g2.
    """
    cfg = cfg or MatchConfig()
    fwd = graph_distance(g1, g2, cfg)
    bwd = graph_distance(g2, g1, cfg)
    if fwd.d_g <= bwd.d_g:
        return fwd.d_g, fwd, "forward"
    return bwd.d_g, bwd, "backward"


def symmetric_distance(g1: Graph, g2: Graph, cfg: MatchConfig | None = None) -> float:
    return symmetric_match(g1, g2, cfg)[0]


# floats in one (B, n, n) array of a stack, at most; a larger group of
# pairs is solved as several stacks
_STACK_FLOATS = 1 << 18


def _symmetric_distances(pairs, cfg: MatchConfig, workers: int) -> list[float]:
    """``symmetric_distance`` of every pair, both directions in same-shape stacks.

    Under ``faq`` the ordered pairs of both directions are grouped by
    their exact sizes (n1, n2), and each group runs through
    ``_faq_objectives`` as one stack, split into chunks that bound its
    memory and, with ``workers > 1``, spread over the thread pool.  Every
    entry of a stack is solved as it would be alone, so the values equal
    those of ``symmetric_distance`` pair by pair.  Other solvers match
    pair by pair.
    """
    if cfg.solver != "faq":
        return _run_indexed(
            [lambda a=a, b=b: symmetric_distance(a, b, cfg) for a, b in pairs], workers)
    ordered = [o for a, b in pairs for o in ((a, b), (b, a))]
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (a, b) in enumerate(ordered):
        groups.setdefault((a.n, b.n), []).append(k)
    chunks = []
    for (n1, n2), members in groups.items():
        cap = max(1, _STACK_FLOATS // max(1, (n1 + n2) ** 2))
        parts = max(-(-len(members) // cap), min(workers, len(members)))
        chunks.extend(c.tolist() for c in np.array_split(members, parts))
    values = _run_indexed(
        [lambda c=c: _faq_objectives(cfg, [ordered[k] for k in c]) for c in chunks], workers)
    objective = [0.0] * len(ordered)
    for c, objs in zip(chunks, values):
        for k, obj in zip(c, objs):
            objective[k] = obj
    d_g = [math.sqrt(obj) for obj in objective]
    return [min(d_g[2 * i], d_g[2 * i + 1]) for i in range(len(pairs))]


def pairwise_distances(corpus, cfg: MatchConfig | None = None,
                       workers: int = 1) -> np.ndarray:
    """Symmetrized quotient distances between all corpus pairs.

    Zero diagonal, symmetric by construction; each value is
    ``symmetric_distance`` of its pair.
    """
    corpus = list(corpus)
    cfg = cfg or MatchConfig()
    _check_corpus(corpus, cfg.lam, _numbered("graph", len(corpus)))
    m = len(corpus)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    values = _symmetric_distances([(corpus[i], corpus[j]) for i, j in pairs], cfg, workers)
    out = np.zeros((m, m))
    for (i, j), d in zip(pairs, values):
        out[i, j] = out[j, i] = d
    return out


def distance_csv(matrix: np.ndarray, ids) -> str:
    """Render a distance matrix as CSV with a header row of graph ids."""
    ids = [str(x) for x in ids]
    if matrix.shape != (len(ids), len(ids)):
        raise ValueError("matrix shape does not match number of ids")
    lines = ["id," + ",".join(ids)]
    for name, row in zip(ids, matrix):
        lines.append(name + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def knn_classify(train, train_labels, test, k: int,
                 cfg: MatchConfig | None = None, workers: int = 1):
    """k-nearest-neighbour vote under the symmetrized quotient distance.

    Classes tied on votes are broken by the smallest mean distance among
    each tied class's contributing neighbours, then lexicographically.
    Returns ``(predictions, distance_matrix)`` with the test x train
    distances.
    """
    train, test = list(train), list(test)
    train_labels = [str(x) for x in train_labels]
    if len(train) != len(train_labels):
        raise ValueError("one label per training graph required")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must lie in 1..{len(train)}, got {k}")
    cfg = cfg or MatchConfig()
    _check_corpus(train, cfg.lam, _numbered("training graph", len(train)))
    _check_corpus(test, cfg.lam, _numbered("test graph", len(test)), like=train[0])

    flat = _symmetric_distances([(a, b) for a in test for b in train], cfg, workers)
    dists = np.array(flat).reshape(len(test), len(train))

    predictions = []
    for row in dists:
        order = np.lexsort((np.arange(len(row)), row))[:k]
        votes: dict[str, list[float]] = {}
        for idx in order:
            votes.setdefault(train_labels[idx], []).append(float(row[idx]))
        best = max(len(v) for v in votes.values())
        tied = [lab for lab, v in votes.items() if len(v) == best]
        tied.sort(key=lambda lab: (float(np.mean(votes[lab])), lab))
        predictions.append(tied[0])
    return predictions, dists


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of the planted-permutation recovery benchmark."""

    graph_family: str
    size_range: tuple[int, int]
    trials: int
    fraction_exact_registration: float
    mean_objective_gap_vs_oracle: float | None
    max_objective_gap_vs_oracle: float | None
    n_gap_trials: int
    wall_time_stats: dict

    def to_document(self, include_timing: bool = False) -> dict:
        doc = {
            "graph_family": self.graph_family,
            "size_range": list(self.size_range),
            "trials": self.trials,
            "fraction_exact_registration": self.fraction_exact_registration,
            "mean_objective_gap_vs_oracle": self.mean_objective_gap_vs_oracle,
            "max_objective_gap_vs_oracle": self.max_objective_gap_vs_oracle,
            "n_gap_trials": self.n_gap_trials,
        }
        if include_timing:
            doc["wall_time_stats"] = self.wall_time_stats
        return doc


# the exact optimum of the unpadded pair, against which solver gaps are scored
_ORACLE = MatchConfig(solver="brute", padding="none")


def _recovery_trial(family: str, size_range, cfg: MatchConfig, seed: int,
                    index: int, p: float, oracle_max_n: int):
    rng = trial_rng(seed, index)
    g = generate(family, size_range, rng, p=p)
    n = g.n
    p_true = rng.permutation(n)
    g2 = permute(g, p_true)
    # the benchmark always adds null nodes, even for this equal-size pair
    g1p, g2p = pad_pair(g, g2, "two_way")
    t0 = time.perf_counter()
    res = graph_distance(g1p, g2p, replace(cfg, padding="none"))
    elapsed = time.perf_counter() - t0
    exact = bool(np.array_equal(res.p.perm[:n], p_true))
    gap = None
    if n <= oracle_max_n:
        oracle = graph_distance(g, g2, _ORACLE)
        gap = res.objective - oracle.objective
    return exact, gap, elapsed


def bench_recovery(family: str, size_range, trials: int,
                   cfg: MatchConfig | None = None, seed: int = 0,
                   p: float = 0.5, workers: int = 1,
                   oracle_max_n: int = 8) -> RecoveryReport:
    """Fraction of planted permutations recovered exactly by the solver.

    Per trial: draw a graph, permute its nodes, two-way pad the pair, and
    solve.  A trial succeeds when every real node maps to its true image
    (null-to-null slots never count against a trial).  For sizes up to
    ``oracle_max_n`` the solver objective is also compared against the
    brute-force optimum of the unpadded pair.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    cfg = cfg or MatchConfig()
    if not 0 <= oracle_max_n <= BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"oracle_max_n must be between 0 and {BRUTE_FORCE_MAX_NODES}, got {oracle_max_n}")
    tasks = [
        lambda t=t: _recovery_trial(family, size_range, cfg, seed, t, p, oracle_max_n)
        for t in range(trials)
    ]
    results = _run_indexed(tasks, workers)
    frac = sum(1 for ok, _, _ in results if ok) / trials
    gaps = [g for _, g, _ in results if g is not None]
    times = [t for _, _, t in results]
    return RecoveryReport(
        graph_family=family,
        size_range=(int(size_range[0]), int(size_range[1])),
        trials=trials,
        fraction_exact_registration=frac,
        mean_objective_gap_vs_oracle=(math.fsum(gaps) / len(gaps)) if gaps else None,
        max_objective_gap_vs_oracle=max(gaps) if gaps else None,
        n_gap_trials=len(gaps),
        wall_time_stats={
            "total_s": math.fsum(times),
            "mean_trial_s": math.fsum(times) / trials,
            "max_trial_s": max(times),
        },
    )
