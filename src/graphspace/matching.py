"""Approximate graph matching and the quotient metric.

``graph_distance`` is the one registration entry point.  It minimizes the
objective

    J(P) = ||P A1 P^T - A2||^2 + lambda * Tr(P D)

over permutations of a padded graph pair with one of three solvers: an
exact branch and bound (``brute``, in ``assignment``), a spectral method
(``umeyama``: absolute eigenvector similarity scored through a linear
assignment) and a Frank-Wolfe descent over the doubly stochastic polytope
projected back to a permutation (``faq``).  The solvers only propose
candidate permutations; ``graph_distance`` scores each one exactly,
improves a heuristic one by greedy two-node exchanges if asked, keeps the
best and assembles the result.  The quotient distance
between graphs is the square root of the minimized objective; with
lambda = 0 it is exactly the ambient distance after optimal registration.

The Frank-Wolfe relaxation descends f(P) = -Tr(A2 P A1^T P^T) + lambda
Tr(P D), whose linearization at a permutation agrees with J up to an
additive constant (the node term enters the relaxed objective with weight
lambda rather than J's effective lambda/2; the reported objective is
always J itself, recomputed exactly from the final permutation).

Null rows and columns of a padded pair are zero and cost nothing, so f,
its gradient and the line search depend only on the n2 x n1 block X of P
that maps real nodes to real slots.  Frank-Wolfe therefore runs on the
unpadded graphs: each vertex step is a rectangular assignment (a partial
one under two-way padding, where a real node may park on a null slot at
zero cost), and padding only shapes the returned permutation.

Each Frank-Wolfe iteration costs one dense product on an undirected pair
and two on a directed one.  The loop keeps M = A2 X A1^T (and, directed,
N = A2^T X A1) current along its steps instead of recomputing them, by two
identities.  The gradient is -(M + N) plus the node term, and N = M when
both adjacencies are symmetric.  The vertex Q pairs real nodes ``rows``
with slots ``cols``, so A2^T Q A1 = A2[cols]^T A1[rows] is a single
product, and the step to X + eta (Q - X) moves M by eta (A2 Q A1^T - M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import BRUTE_FORCE_MAX_NODES, _lap_raw, brute_force_match, objective_value
from .graphs import (
    Graph,
    Permutation,
    node_distance_matrix,
    pad_pair,
    permute,
)

__all__ = [
    "MatchConfig",
    "MatchResult",
    "SolverTrace",
    "graph_distance",
    "geodesic",
]

_PADDINGS = ("two_way", "one_way", "none")
_SOLVERS = ("faq", "umeyama", "brute")
_FAQ_INITS = ("barycenter", "identity")


@dataclass(frozen=True)
class MatchConfig:
    """Options shared by the matching solvers.

    ``faq_init`` picks the first Frank-Wolfe start: the barycenter (the
    flat doubly stochastic matrix) or the identity.  ``restarts`` adds that
    many extra Frank-Wolfe runs started from seeded random permutation
    matrices; the best objective wins.
    """

    lam: float = 0.0
    padding: str = "two_way"
    solver: str = "faq"
    refinement: bool = False
    faq_init: str = "barycenter"
    restarts: int = 0
    max_iter: int = 100
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")
        if self.padding not in _PADDINGS:
            raise ValueError(f"padding must be one of {_PADDINGS}, got {self.padding!r}")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        if self.faq_init not in _FAQ_INITS:
            raise ValueError(f"faq_init must be one of {_FAQ_INITS}, got {self.faq_init!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


@dataclass(frozen=True)
class SolverTrace:
    """Per-run diagnostics.

    For the Frank-Wolfe solver, ``objectives`` holds the relaxed objective
    before the first step and after every accepted step (length
    ``iterations + 1``) and ``step_sizes`` the exact line-search steps.
    ``refinement_objectives`` records the exact objective after each
    applied two-exchange swap.
    """

    solver: str
    iterations: int
    objectives: tuple = ()
    step_sizes: tuple = ()
    converged: bool = True
    restart_index: int = 0
    refinement_objectives: tuple = ()


@dataclass(frozen=True, eq=False)
class MatchResult:
    """A registered graph pair.

    ``p`` maps nodes of the padded first graph to slots of the padded
    second one, so ``permute(g1_padded, p) == g1_registered`` is aligned
    entrywise with ``g2_padded``.  ``objective`` is the exact matching
    objective of ``p`` and ``d_g`` its square root (the quotient distance
    for an exact solver; an upper bound for heuristics).
    """

    p: Permutation
    g1_registered: Graph
    g2_padded: Graph
    objective: float
    d_g: float
    solver_trace: SolverTrace
    lam: float = 0.0
    co_optimal: tuple = ()
    n_co_optimal: int = 0


def build_match_result(g1_padded: Graph, g2_padded: Graph, perm: np.ndarray,
                       lam: float, objective: float, trace: SolverTrace,
                       co_optimal: tuple = (), n_co_optimal: int = 0) -> MatchResult:
    """Assemble a result; ``objective`` must be the exact J of ``perm``."""
    p = Permutation._trusted(perm)
    return MatchResult(
        p=p,
        g1_registered=permute(g1_padded, p),
        g2_padded=g2_padded,
        objective=objective,
        d_g=math.sqrt(objective),
        solver_trace=trace,
        lam=lam,
        co_optimal=co_optimal,
        n_co_optimal=n_co_optimal,
    )


def _pad_for(cfg: MatchConfig, g1: Graph, g2: Graph):
    if cfg.padding == "two_way":
        return pad_pair(g1, g2, "two_way")
    if cfg.padding == "one_way":
        return pad_pair(g1, g2, "to_size", size=max(g1.n, g2.n))
    if g1.n != g2.n:
        raise ValueError(
            f"padding 'none' requires equal sizes, got {g1.n} vs {g2.n}"
        )
    return g1, g2


def _swap_deltas(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                 lam: float, perm: np.ndarray, directed: bool) -> np.ndarray:
    """Objective change for every pairwise swap of ``perm``.

    With C[i, j] = a2[perm_i, perm_j] the edge objective is
    ||a1||^2 + ||a2||^2 - 2 T(perm), T = sum_ij a1_ij C_ij, and swapping
    slots a, b changes T by an expression in X = a1 C^T and Y = a1^T C plus
    a 2x2-block correction (zero diagonals assumed).  Undirected a1 and C
    are exactly symmetric, so there Y = X and a sweep costs one product;
    a directed pair costs two.
    """
    c = a2[np.ix_(perm, perm)]
    x = a1 @ c.T
    xd = np.diag(x)
    if directed:
        y = a1.T @ c
        yd = np.diag(y)
        d_t = (x + x.T - xd[:, None] - xd[None, :]
               + y + y.T - yd[:, None] - yd[None, :]
               + (a1 + a1.T) * (c + c.T))
    else:
        d_t = 2.0 * (x + x.T - xd[:, None] - xd[None, :] + 2.0 * a1 * c)
    deltas = -2.0 * d_t
    if lam != 0.0 and d is not None:
        dp = d[:, perm]
        dd = np.diag(dp)
        deltas = deltas + lam * (dp + dp.T - dd[:, None] - dd[None, :])
    np.fill_diagonal(deltas, np.inf)
    return deltas


def greedy_two_exchange(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                        lam: float, perm: np.ndarray, obj: float, directed: bool):
    """Apply the single best improving node swap until none improves.

    ``obj`` is the exact objective of the starting ``perm``, which every
    caller has already computed, and ``directed`` says whether the
    adjacencies may be asymmetric.  Each sweep scans all pairs with an O(n)
    incremental delta (evaluated for all pairs at once through matrix
    products); the accepted swap is re-verified against the exactly
    recomputed objective, which guarantees termination under floating
    point.  Returns ``(perm, objectives, obj)``: the final permutation, the
    exact objective after each applied swap, and the exact objective of
    ``perm``.
    """
    perm = np.array(perm, dtype=int)
    objectives = []
    while True:
        deltas = _swap_deltas(a1, a2, d, lam, perm, directed)
        flat = int(np.argmin(deltas))
        a, b = divmod(flat, len(perm))
        if deltas[a, b] >= 0.0:
            break
        cand = perm.copy()
        cand[a], cand[b] = cand[b], cand[a]
        cand_obj = objective_value(a1, a2, d, lam, cand)
        if cand_obj >= obj:
            break
        perm, obj = cand, cand_obj
        objectives.append(obj)
    return perm, tuple(objectives), obj


def _vertex(c: np.ndarray, partial: bool):
    """Minimum-cost node->slot pairs ``(rows, cols)`` for the cost ``c``.

    ``partial`` lets nodes stay unmatched at zero cost: solving on min(c, 0)
    and dropping the pairs whose cost is not negative attains the optimum
    of the zero-padded square assignment.  Otherwise every node of the
    smaller side is matched.
    """
    if not partial:
        return _lap_raw(c)
    rows, cols = _lap_raw(np.minimum(c, 0.0))
    keep = c[rows, cols] < 0.0
    return rows[keep], cols[keep]


def _null_average(x: np.ndarray, size: int) -> np.ndarray:
    """Real block of the padded iterate averaged over null relabelings.

    Relabeling null nodes or null slots leaves J unchanged.  After
    averaging, a real slot's unused mass s_i spreads evenly over the
    ``size - n1`` null nodes and a real node's unused mass r_j over the
    ``size - n2`` null slots, so an assignment's score is a constant plus
    the sum of the returned weights over its real-to-real pairs.
    """
    n2, n1 = x.shape
    w = x
    if size > n2:
        w = w - (1.0 - x.sum(axis=0)) / (size - n2)
    if size > n1:
        s = 1.0 - x.sum(axis=1)
        w = w - s[:, None] / (size - n1)
        if size > n2:
            w = w + ((size - n1) - s.sum()) / ((size - n1) * (size - n2))
    return w


def _lift(rows: np.ndarray, cols: np.ndarray, n1: int, n2: int, size: int) -> np.ndarray:
    """Padded permutation from real node->slot pairs.

    Unmatched real nodes go to the first null slots; null nodes then fill
    the remaining slots in increasing order.
    """
    perm = np.full(size, -1)
    perm[rows] = cols
    taken = np.zeros(size, dtype=bool)
    taken[cols] = True
    parked = np.flatnonzero(perm[:n1] < 0)
    perm[parked] = np.arange(n2, n2 + len(parked))
    taken[n2:n2 + len(parked)] = True
    perm[n1:] = np.flatnonzero(~taken)
    return perm


def _faq_descent(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                 lam: float, p0: np.ndarray, max_iter: int, tol: float,
                 size: int, directed: bool):
    """Frank-Wolfe over the doubly stochastic polytope with exact line search.

    Runs on the real block of a pair padded to ``size`` nodes: ``a1`` and
    ``a2`` are the unpadded adjacencies, ``d`` the n1 x n2 node cost and
    ``p0`` the n2 x n1 real block of the padded start; ``directed`` says
    whether the adjacencies may be asymmetric.  Returns the padded
    permutation with the relaxed objectives, step sizes and convergence.

    The loop keeps M = A2 P A1^T and N = A2^T P A1 current along its steps:
    the gradient is -(M + N) + lam D^T and the line search's slope is
    <grad, Q - P>.  The vertex Q pairs nodes ``rows`` with slots ``cols``,
    so A2^T Q A1 = A2[cols]^T A1[rows] is one product, as is A2 Q A1^T.
    Undirected adjacencies are exactly symmetric, so there N = M and an
    iteration costs one dense product; a directed pair costs two.
    """
    n1, n2 = a1.shape[0], a2.shape[0]
    partial = size >= n1 + n2
    c_t = np.ascontiguousarray(lam * d.T) if (d is not None and lam != 0.0) else None

    def relaxed(m_p, p):
        f = -float(np.vdot(m_p, p))
        return f + float(np.vdot(c_t, p)) if c_t is not None else f

    p = p0.copy()
    m_p = a2 @ p @ a1.T
    n_p = a2.T @ p @ a1 if directed else m_p
    f = relaxed(m_p, p)
    objectives = [f]
    steps = []
    converged = False
    for _ in range(max_iter):
        grad = -(m_p + n_p)
        if c_t is not None:
            grad += c_t
        # vertex minimizing <grad, Q> over (partial) permutation matrices
        rows, cols = _vertex(grad.T, partial)
        n_q = a2[cols].T @ a1[rows]
        m_r = (a2[:, cols] @ a1[:, rows].T if directed else n_q) - m_p
        # f(P + eta R) = f + eta b + eta^2 a with R = Q - P
        a_coef = float(np.vdot(m_r, p)) - float(m_r[cols, rows].sum())
        b_coef = float(grad[cols, rows].sum()) - float(np.vdot(grad, p))
        if a_coef > 0.0:
            eta = min(1.0, max(0.0, -b_coef / (2.0 * a_coef)))
        else:
            # concave or flat along the segment: the vertex end is no worse
            eta = 1.0
        if eta == 0.0:
            converged = True
            break
        p *= 1.0 - eta
        p[cols, rows] += eta
        m_p = m_p + eta * m_r
        n_p = n_p + eta * (n_q - n_p) if directed else m_p
        f_new = relaxed(m_p, p)
        objectives.append(f_new)
        steps.append(eta)
        if abs(f_new - f) <= tol * max(1.0, abs(f)):
            f = f_new
            converged = True
            break
        f = f_new
    # project the doubly stochastic iterate back to a permutation
    rows, cols = _vertex(-_null_average(p, size).T, partial)
    return _lift(rows, cols, n1, n2, size), tuple(objectives), tuple(steps), converged


def _faq_inits(cfg: MatchConfig, n: int):
    """The configured start, then ``cfg.restarts`` seeded random permutation matrices."""
    yield np.eye(n) if cfg.faq_init == "identity" or not n else np.full((n, n), 1.0 / n)
    for r in range(1, cfg.restarts + 1):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, r]))
        m = np.zeros((n, n))
        m[rng.permutation(n), np.arange(n)] = 1.0
        yield m


def _faq_candidates(cfg: MatchConfig, g1: Graph, g2: Graph, d: np.ndarray | None,
                    size: int):
    """One Frank-Wolfe run per start, on the real block of the padded pair."""
    n1, n2 = g1.n, g2.n
    d_real = None if d is None else d[:n1, :n2]
    for p0 in _faq_inits(cfg, size):
        yield _faq_descent(g1.adjacency, g2.adjacency, d_real, cfg.lam, p0[:n2, :n1],
                           cfg.max_iter, cfg.tol, size, g1.directed)


def _umeyama_candidates(cfg: MatchConfig, g1p: Graph, g2p: Graph, d: np.ndarray | None):
    """The one spectral assignment of a padded undirected pair.

    Eigendecomposes both adjacency matrices with eigenvalues in descending
    order, forms the similarity |U1| |U2|^T minus ``lam``-weighted node
    distances, and solves one linear assignment.  Exact for isomorphic
    graphs; repeated eigenvalues (including the zero block introduced by
    padding) make the absolute eigenvector basis ambiguous, which the
    optional two-exchange refinement mitigates.
    """
    _, u1 = np.linalg.eigh(g1p.adjacency)
    _, u2 = np.linalg.eigh(g2p.adjacency)
    # eigh sorts ascending; reverse columns for descending eigenvalues
    score = np.abs(u1[:, ::-1]) @ np.abs(u2[:, ::-1]).T
    if d is not None:
        score = score - cfg.lam * d
    _, perm = _lap_raw(-score)
    return [(perm, None, (), True)]


def graph_distance(g1: Graph, g2: Graph, cfg: MatchConfig | None = None) -> MatchResult:
    """Register ``g1`` to ``g2`` with the configured solver.

    Pads the pair as ``cfg.padding`` says.  ``brute`` proposes the
    branch-and-bound optimum, searched against a two-exchange incumbent,
    and lists every co-optimal permutation.  ``umeyama`` proposes one
    spectral assignment, ``faq`` one Frank-Wolfe run per start (the
    ``cfg.faq_init`` start, then ``cfg.restarts`` random ones), each
    stopping when the relative change of the relaxed objective drops below
    ``cfg.tol`` or after ``cfg.max_iter`` steps (flagged in the trace).
    Each distinct candidate is scored by its exact objective and, with
    ``cfg.refinement``, a heuristic one is improved by greedy two-exchange;
    the first candidate with the lowest objective wins.

    The returned ``d_g`` is sqrt of the minimized objective; with
    ``lam=0`` this is the quotient metric (exactly, for the brute solver;
    an upper bound for the heuristics).  Heuristic results need not be
    symmetric in the argument order; take the minimum over both directions
    when a symmetric value is required.
    """
    cfg = cfg or MatchConfig()
    if g1.directed != g2.directed:
        raise ValueError("cannot match a directed graph against an undirected one")
    if cfg.solver == "umeyama" and g1.directed:
        raise ValueError(
            "spectral matching requires symmetric adjacency matrices; "
            "use the 'faq' solver for directed graphs"
        )
    g1p, g2p = _pad_for(cfg, g1, g2)
    d = None if cfg.lam == 0.0 else node_distance_matrix(g1p, g2p, extended=True)
    a1, a2 = g1p.adjacency, g2p.adjacency
    co_optimal, n_co_optimal = (), 0
    if cfg.solver == "brute":
        n, ub = g1p.n, math.inf
        if 2 <= n <= BRUTE_FORCE_MAX_NODES:  # larger pairs are refused below
            start = np.arange(n)
            ub = greedy_two_exchange(a1, a2, d, cfg.lam, start,
                                     objective_value(a1, a2, d, cfg.lam, start),
                                     g1.directed)[2]
        perm, ties, n_co_optimal = brute_force_match(g1p, g2p, d, cfg.lam, ub)
        co_optimal = tuple(Permutation._trusted(t) for t in ties)
        candidates = [(perm, (), (), True)]
    elif cfg.solver == "umeyama":
        candidates = _umeyama_candidates(cfg, g1p, g2p, d)
    else:
        candidates = _faq_candidates(cfg, g1, g2, d, g1p.n)

    best, seen = None, set()
    for index, (perm, objectives, steps, converged) in enumerate(candidates):
        key = perm.tobytes()
        if key in seen:  # scores and refines as before, so it cannot win
            continue
        seen.add(key)
        obj = objective_value(a1, a2, d, cfg.lam, perm)
        if objectives is None:  # no relaxation: trace the exact objective
            objectives = (obj,)
        refined = ()
        if cfg.refinement and cfg.solver != "brute":
            perm, refined, obj = greedy_two_exchange(a1, a2, d, cfg.lam, perm, obj,
                                                     g1.directed)
        if best is None or obj < best[0]:
            best = (obj, perm, index, objectives, steps, converged, refined)
    obj, perm, index, objectives, steps, converged, refined = best
    trace = SolverTrace(
        solver=cfg.solver,
        iterations=len(steps),
        objectives=objectives,
        step_sizes=steps,
        converged=converged,
        restart_index=index,
        refinement_objectives=refined,
    )
    return build_match_result(g1p, g2p, perm, cfg.lam, obj, trace, co_optimal, n_co_optimal)


def geodesic(m: MatchResult, t: float) -> Graph:
    """Point at time ``t`` on the straight-line path between registered graphs.

    Adjacency is (1 - t) * A1_registered + t * A2.  Attributes interpolate
    likewise, except that a node that is null on one side only starts (or
    ends) at its partner's attribute, so padding nodes slide in place
    rather than from the origin.  At t = 0 and t = 1 the registered
    endpoint graphs are returned as-is.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t}")
    ga, gb = m.g1_registered, m.g2_padded
    if t == 0.0:
        return ga
    if t == 1.0:
        return gb

    adj = (1.0 - t) * ga.adjacency + t * gb.adjacency
    mask = ga.null_mask & gb.null_mask
    attrs = None
    if ga.node_attrs is not None and gb.node_attrs is not None:
        a = ga.node_attrs.copy()
        b = gb.node_attrs.copy()
        a[ga.null_mask] = b[ga.null_mask]
        b[gb.null_mask] = a[gb.null_mask]
        attrs = (1.0 - t) * a + t * b
    # Fresh arrays, valid by construction: convex combinations of exactly
    # symmetric matrices stay exactly symmetric, and both endpoints are zero
    # on the diagonal and on nodes null on both sides.
    return Graph._trusted(adj, attrs, ga.directed, mask)
