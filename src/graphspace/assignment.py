"""Linear assignment, the exact matching objective and the exhaustive oracle.

``_lap_raw`` is the one linear assignment solver every matcher calls (the
Frank-Wolfe vertex steps, the final projection and Umeyama): scipy's O(n^3)
shortest-augmenting-path solver on a square or rectangular cost matrix.
``objective_value`` evaluates the matching objective exactly (fsum), so it
does not depend on summation order.  The exhaustive oracle is the search
of the ``brute`` solver in ``matching.graph_distance``, the ground truth
for the approximate matchers: an exact branch and bound over the
permutations of a padded graph pair.  Every term of the objective is
nonnegative, so the cost of a partial assignment bounds all of its
completions from below, and a prefix that already costs more than a known
permutation is pruned; all n! permutations are scored only in the worst
case, when nothing can be pruned.  The known permutation, the incumbent,
is the pair's first Frank-Wolfe candidate refined by greedy two-exchange
(``graph_distance`` computes it); it only prunes, so the result does not
depend on it.  The search yields the surviving leaves in blocks of at most
``_BLOCK``, and each block is scored and merged into the running minimum
as it is yielded.  It refuses instances above 10 nodes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import Graph, _squared_distance

__all__ = ["objective_value"]

BRUTE_FORCE_MAX_NODES = 10
_TIE_REPORT_LIMIT = 10_000
_BLOCK = 4096
_SLACK = 1e-9


def _lap_raw(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment as ``(rows, cols)`` index vectors (scipy JV).

    Every row or every column of a rectangular ``c`` is assigned, whichever
    side is smaller; ``rows`` is sorted, so for square ``c`` it is
    ``arange(n)`` and ``cols`` is the row->column permutation.
    """
    return linear_sum_assignment(c)


def objective_value(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                    lam: float, perm: np.ndarray) -> float:
    """Exact matching objective ||P A1 P^T - A2||^2 + lam * Tr(P D).

    ``perm[i]`` is the slot of source node i, so the edge term compares
    ``a1[i, j]`` with ``a2[perm[i], perm[j]]`` and the node term sums
    ``d[i, perm[i]]``.  Uses fsum so the value is independent of summation
    order (symmetric in the two graphs for the optimal permutation).
    """
    perm = np.asarray(perm)
    total = _squared_distance(a1, a2[perm[:, None], perm])
    if lam != 0.0 and d is not None:
        total += lam * math.fsum(d[np.arange(len(perm)), perm].tolist())
    return total


def _objective_values(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                      lam: float, perms: np.ndarray) -> list[float]:
    """``objective_value`` of every entry of (B, n, n) stacks and (B, n)
    ``perms``, bit for bit: the differences of all entries are gathered at
    once, and each entry keeps its own fsums."""
    lead = np.arange(len(perms))[:, None]
    diff = a1 - a2[lead[:, :, None], perms[:, :, None], perms[:, None, :]]
    nonzero = diff != 0.0
    vals = diff[nonzero]
    squares = (vals * vals).tolist()
    ends = np.cumsum(nonzero.sum(axis=(1, 2))).tolist()
    totals = [math.fsum(squares[start:end]) for start, end in zip([0, *ends], ends)]
    if lam != 0.0 and d is not None:
        node = d[lead, np.arange(perms.shape[1]), perms].tolist()
        totals = [total + lam * math.fsum(row) for total, row in zip(totals, node)]
    return totals


def _surviving_leaves(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                      lam: float, directed: bool, ub: float):
    """Yield, in lexicographic order, blocks of permutations the bound keeps.

    Depth-first branch and bound over prefixes ``perm[:k]``, bounded by
    their partial cost: ``(a1[i, j] - a2[perm_i, perm_j])^2`` over assigned
    pairs plus ``lam * d[i, perm_i]``.  A child is pruned when its bound
    exceeds the incumbent ``ub`` (an exact objective) by more than a slack
    that covers the rounding of the bounds and of ``_chunk_scores``, so
    every permutation scoring the minimum survives.  Prefixes are expanded
    ``_BLOCK`` at a time, and children keep lexicographic order.
    """
    n = a1.shape[0]
    node = lam * d if lam != 0.0 and d is not None else np.zeros((n, n))
    # The scores round relative to |A1|^2 + |A2|^2 plus the largest node
    # term, not to the optimum, which may be 0; the slack scales with both.
    scale = 1.0 + float(np.sum(a1 * a1) + np.sum(a2 * a2) + node.max(axis=1, initial=0.0).sum())

    stack = [(np.zeros((1, 0), dtype=np.int64), np.zeros(1), np.ones((1, n), dtype=bool))]
    while stack:
        prefixes, costs, free = stack.pop()
        k = prefixes.shape[1]
        if k == n:
            yield prefixes
            continue
        rows, slots = np.nonzero(free)
        parents = prefixes[rows]
        bound = costs[rows] + node[k, slots]
        if k:
            # pairs (i, k) and (k, i) for every assigned i < k; one sum when
            # both graphs are symmetric
            out = a1[:k, k] - a2[parents, slots[:, None]]
            if directed:
                inn = a1[k, :k] - a2[slots[:, None], parents]
                bound += np.einsum("ij,ij->i", out, out) + np.einsum("ij,ij->i", inn, inn)
            else:
                bound += 2.0 * np.einsum("ij,ij->i", out, out)
        keep = np.flatnonzero(bound <= ub + _SLACK * (scale + ub))
        rows, slots, bound = rows[keep], slots[keep], bound[keep]
        children = np.concatenate([parents[keep], slots[:, None]], axis=1)
        free = free[rows]
        free[np.arange(len(rows)), slots] = False
        if k + 1 == n and len(bound):
            best = int(np.argmin(bound))
            if bound[best] < ub:
                ub = min(ub, objective_value(a1, a2, d, lam, children[best]))
        for start in reversed(range(0, len(rows), _BLOCK)):
            stop = start + _BLOCK
            stack.append((children[start:stop], bound[start:stop], free[start:stop]))


def _chunk_scores(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                  lam: float, perms: np.ndarray) -> np.ndarray:
    # Score differing from the objective by the constant |A1|^2 + |A2|^2:
    # -2 * sum_ij a1_ij a2[p_i, p_j]  (+ lam * node term).
    n = a1.shape[0]
    m = perms.shape[0]
    a2_flat = a2.ravel()
    acc = np.zeros(m)
    base = perms * n
    for i in range(n):
        row = a1[i]
        bi = base[:, i]
        for j in np.flatnonzero(row):
            acc += row[j] * a2_flat[bi + perms[:, j]]
    score = -2.0 * acc
    if lam != 0.0 and d is not None:
        d_flat = d.ravel()
        node = np.zeros(m)
        for i in range(n):
            node += d_flat[i * n + perms[:, i]]
        score += lam * node
    return score


def brute_force_match(g1: Graph, g2: Graph, d: np.ndarray | None, lam: float, ub: float):
    """Exact global minimizers of the matching objective, by branch and bound.

    ``g1`` and ``g2`` are an equal-size (padded) pair of at most
    ``BRUTE_FORCE_MAX_NODES`` nodes with node cost ``d``; prefixes are
    pruned against ``ub``, the exact objective of a known permutation
    (``inf`` if none), improved by each better leaf.  Each block of
    survivors is scored as the search yields it, in lexicographic order: a
    lower minimum restarts the ties, an equal one extends them.  The result
    is that of scanning all n! permutations, which happens only when
    nothing prunes.

    Returns ``(perm, co_optimal, n_co_optimal)``: the first minimizer, the
    first 10000 permutation vectors attaining the minimum (ties arise with
    discrete weights or attributes; detected by exact float equality of the
    scores) and their count.
    """
    n = g1.n
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force refuses n={n} > {BRUTE_FORCE_MAX_NODES} (factorial blow-up)"
        )
    a1, a2 = g1.adjacency, g2.adjacency
    best, ties, n_ties = math.inf, [], 0
    for perms in _surviving_leaves(a1, a2, d, lam, g1.directed, ub):
        scores = _chunk_scores(a1, a2, d, lam, perms)
        low = scores.min()
        if low <= best:
            if low < best:
                best, ties, n_ties = low, [], 0
            idx = np.flatnonzero(scores == low)
            ties.extend(perms[idx[: _TIE_REPORT_LIMIT - len(ties)]])
            n_ties += len(idx)
    return ties[0], ties, n_ties
