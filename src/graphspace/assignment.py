"""Linear assignment and exhaustive matching oracles.

``solve_lap`` wraps scipy's O(n^3) shortest-augmenting-path solver and adds
deterministic tie-breaking: among all optimal assignments it returns the
lexicographically smallest one, found by restricting to the tight-edge
subgraph of an optimal dual solution and verified against the optimal value
with exact (fsum) summation.  ``brute_force_match`` is the ground-truth
oracle for the approximate matchers: an exact branch and bound over the
permutations of a padded graph pair.  Every term of the objective is
nonnegative, so the cost of a partial assignment bounds all of its
completions from below, and a prefix that already costs more than a known
permutation is pruned; all n! permutations are scored only in the worst
case, when nothing can be pruned.  It refuses instances above 10 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import Graph, Permutation

__all__ = ["AssignmentResult", "solve_lap", "brute_force_match", "objective_value"]

BRUTE_FORCE_MAX_NODES = 10
_TIE_REPORT_LIMIT = 10_000
_CHUNK = 100_000
_BLOCK = 4096
_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class AssignmentResult:
    """An assignment ``row i -> column assignment[i]`` and its total cost."""

    assignment: Permutation
    cost: float


def _selection_cost(c: np.ndarray, perm: np.ndarray) -> float:
    # fsum: exact real sum, so equal-cost assignments compare equal in floats
    return math.fsum(c[np.arange(len(perm)), perm].tolist())


def _lap_raw(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment as ``(rows, cols)`` index vectors (scipy JV).

    Every row or every column of a rectangular ``c`` is assigned, whichever
    side is smaller; ``rows`` is sorted, so for square ``c`` it is
    ``arange(n)`` and ``cols`` is the row->column permutation.
    """
    return linear_sum_assignment(c)


def _duals(c: np.ndarray, perm: np.ndarray, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    # Feasible duals for the optimal matching, from the difference
    # constraints v_j - v_{perm_i} <= c_ij - c_{i,perm_i} (Bellman-Ford).
    n = c.shape[0]
    w = c - c[np.arange(n), perm][:, None]
    v = np.zeros(n)
    for _ in range(rounds):
        cand = (v[perm][:, None] + w).min(axis=0)
        v_new = np.minimum(v, cand)
        if np.array_equal(v_new, v):
            break
        v = v_new
    u = c[np.arange(n), perm] - v[perm]
    return u, v


def _lex_smallest_matching(tight: np.ndarray, perm0: np.ndarray) -> np.ndarray | None:
    """Lexicographically smallest perfect matching inside a tight-edge graph.

    Starts from the known perfect matching ``perm0`` and, row by row, swaps
    in the smallest admissible column, repairing the remainder with an
    augmenting-path search.  Returns None if the bookkeeping ever fails
    (cannot happen for a consistent tight graph; guarded anyway).
    """
    n = len(perm0)
    col_of = perm0.copy()
    row_of = np.full(n, -1, dtype=int)
    row_of[perm0] = np.arange(n)
    fixed = np.zeros(n, dtype=bool)

    def augment(row: int, visited: np.ndarray) -> bool:
        for j in np.flatnonzero(tight[row] & ~fixed & ~visited):
            visited[j] = True
            r = row_of[j]
            if r == -1 or augment(r, visited):
                row_of[j] = row
                col_of[row] = j
                return True
        return False

    for i in range(n):
        chosen = -1
        for j in np.flatnonzero(tight[i] & ~fixed):
            if j >= col_of[i]:
                chosen = col_of[i]
                break
            # Tentatively claim j for row i and re-route the row that held it.
            r = row_of[j]
            old = col_of[i]
            col_of[i] = j
            row_of[j] = i
            row_of[old] = -1
            visited = fixed.copy()
            visited[j] = True
            if r == -1 or augment(r, visited):
                chosen = j
                break
            # Revert.
            col_of[i] = old
            row_of[old] = i
            row_of[j] = r
        if chosen == -1:
            return None
        fixed[chosen] = True
    return col_of


def solve_lap(cost, sense: str = "min", lexicographic: bool = True) -> AssignmentResult:
    """Globally optimal linear assignment for a square cost matrix.

    With ``lexicographic=True`` (the default) ties are broken toward the
    lexicographically smallest optimal assignment vector; candidates are
    accepted only if their exact total equals the optimal value, so the
    refinement can never degrade the solution.

    Optimality is that of floating-point assignment arithmetic: totals
    that differ by less than about one ulp may be interchanged.  For
    exactly representable costs (integers, 0/1 weights) and for generic
    continuous costs the returned total is the exact optimum.
    """
    c = np.array(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    n = c.shape[0]
    if n == 0:
        return AssignmentResult(Permutation(np.arange(0)), 0.0)

    work = -c if sense == "max" else c
    _, perm = _lap_raw(work)
    best_total = _selection_cost(work, perm)

    if lexicographic and n > 1:
        u, v = _duals(work, perm, rounds=n)
        reduced = work - u[:, None] - v[None, :]
        scale = 1.0 + float(np.abs(work).max())
        for eps in (1e-9 * scale, 0.0):
            tight = reduced <= eps
            tight[np.arange(n), perm] = True
            cand = _lex_smallest_matching(tight, perm)
            if cand is not None and _selection_cost(work, cand) == best_total:
                perm = cand
                break

    return AssignmentResult(Permutation(perm), _selection_cost(c, perm))


def objective_value(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                    lam: float, perm: np.ndarray) -> float:
    """Exact matching objective ||P A1 P^T - A2||^2 + lam * Tr(P D).

    ``perm[i]`` is the slot of source node i, so the edge term compares
    ``a1[i, j]`` with ``a2[perm[i], perm[j]]`` and the node term sums
    ``d[i, perm[i]]``.  Uses fsum so the value is independent of summation
    order (symmetric in the two graphs for the optimal permutation).
    """
    diff = a1 - a2[np.ix_(perm, perm)]
    # Zero differences add nothing to fsum's correctly rounded exact sum.
    diff = diff[diff != 0.0]
    total = math.fsum((diff * diff).tolist())
    if lam != 0.0 and d is not None:
        total += lam * math.fsum(d[np.arange(len(perm)), perm].tolist())
    return total


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


def _batches(blocks):
    """Concatenate consecutive blocks into batches of at least ``_CHUNK`` rows."""
    pending, size = [], 0
    for block in blocks:
        pending.append(block)
        size += len(block)
        if size >= _CHUNK:
            yield np.concatenate(pending)
            pending, size = [], 0
    if size:
        yield np.concatenate(pending)


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


def brute_force_match(g1: Graph, g2: Graph, lam: float = 0.0):
    """Exact global minimizer of the matching objective, by branch and bound.

    Both graphs must already have equal (padded) size, at most
    ``BRUTE_FORCE_MAX_NODES`` nodes.  The objective sums squared edge
    differences and ``lam`` times squared attribute distances (zero on null
    nodes), all nonnegative, so a prefix ``perm[:k]`` costs at least its
    assigned pairs' terms whatever the completion.  Prefixes are pruned
    against a two-exchange local optimum from the identity, improved by each
    better leaf; the surviving permutations are scored in lexicographic
    order, so the result is that of scanning all n! of them, which happens
    only when nothing prunes (e.g. every permutation ties).

    Returns a MatchResult whose ``co_optimal`` field lists every
    permutation attaining the minimum (ties arise with discrete weights or
    attributes; detected by exact float equality of the scores, the first
    10000 in lexicographic order), counted in ``n_co_optimal``.
    """
    from .matching import SolverTrace, build_match_result, greedy_two_exchange

    if g1.n != g2.n:
        raise ValueError(f"brute_force_match requires equal sizes, got {g1.n} vs {g2.n}")
    if g1.directed != g2.directed:
        raise ValueError("cannot match directed against undirected graphs")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    n = g1.n
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force refuses n={n} > {BRUTE_FORCE_MAX_NODES} (factorial blow-up)"
        )

    d = None
    if lam != 0.0:
        from .graphs import node_distance_matrix

        d = node_distance_matrix(g1, g2, extended=True)

    a1, a2 = g1.adjacency, g2.adjacency
    ub = math.inf
    if n >= 2:
        start = np.arange(n)
        _, _, ub = greedy_two_exchange(a1, a2, d, lam, start,
                                       objective_value(a1, a2, d, lam, start))

    best_score = math.inf
    best_perm = None
    ties: list[np.ndarray] = []
    n_ties = 0
    for perms in _batches(_surviving_leaves(a1, a2, d, lam, g1.directed, ub)):
        scores = _chunk_scores(a1, a2, d, lam, perms)
        chunk_min = scores.min()
        if chunk_min < best_score:
            best_score = chunk_min
            idx = np.flatnonzero(scores == chunk_min)
            best_perm = perms[idx[0]].copy()
            ties = [perms[k].copy() for k in idx[:_TIE_REPORT_LIMIT]]
            n_ties = len(idx)
        elif chunk_min == best_score:
            idx = np.flatnonzero(scores == chunk_min)
            ties.extend(perms[k].copy() for k in idx[: max(0, _TIE_REPORT_LIMIT - len(ties))])
            n_ties += len(idx)

    trace = SolverTrace(solver="brute", iterations=0, objectives=(), step_sizes=(),
                        converged=True)
    obj = objective_value(a1, a2, d, lam, best_perm)
    result = build_match_result(g1, g2, best_perm, lam, obj, trace)
    return replace(result, co_optimal=tuple(Permutation._trusted(t) for t in ties),
                   n_co_optimal=n_ties)
