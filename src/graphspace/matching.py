"""Approximate graph matching and the quotient metric.

``graph_distance`` is the one registration entry point.  It minimizes the
objective

    J(P) = ||P A1 P^T - A2||^2 + lambda * Tr(P D)

over permutations of a padded graph pair with one of three solvers: an
exact branch and bound (``brute``, in ``assignment``), a spectral method
(``umeyama``: absolute eigenvector similarity scored through a linear
assignment) and a Frank-Wolfe descent over the doubly stochastic polytope
projected back to a permutation (``faq``).  A heuristic proposes
candidates; ``graph_distance`` scores each one exactly, improves it by
greedy two-node exchanges if asked and keeps the best.  The exact search
scores each leaf it keeps once and returns the ``brute`` result.  The
quotient distance is the square root of the minimized objective; with
lambda = 0 it is exactly the ambient distance after optimal registration.

The Frank-Wolfe relaxation descends f(P) = -Tr(A2 P A1^T P^T) + (lambda/2)
Tr(P D), which on permutations is J/2 up to an additive constant; the
reported objective is always J itself, recomputed exactly from the final
permutation.

Null rows and columns of a padded pair are zero and cost nothing, so f,
its gradient and the line search depend only on the n2 x n1 block X of P
that maps real nodes to real slots.  Frank-Wolfe therefore runs on the
unpadded graphs: each vertex step is a rectangular assignment (a partial
one under two-way padding, where a real node may park on a null slot at
zero cost), and padding only shapes the returned permutation.  f is
unchanged when the pair is swapped and P transposed, so Frank-Wolfe runs
the smaller graph first (``_faq_rounds``), and a vertex is its nodes' slots.

Each Frank-Wolfe iteration costs one dense product on an undirected pair
and two on a directed one.  The loop keeps M = A2 X A1^T (and, directed,
N = A2^T X A1) current along its steps instead of recomputing them, by two
identities.  The gradient is -(M + N) plus the node term, and N = M when
both adjacencies are symmetric.  The vertex Q sends node i to slot s_i,
so A2^T Q A1 = A2[s]^T A1 is a single product, and the step to
X + eta (Q - X) moves M by eta (A2 Q A1^T - M).

On a flat start X = c 1 1^T, such as the barycenter, M = c r2 r1^T and
N = c s2 s1^T are outer products of the row sums r and the column sums
s, so the run starts without a dense product.  On an undirected pair
without node costs the first gradient, -2 c r2 r1^T, is then of rank
one, and its vertex is a sort (``_rank_one_vertex``, by the
rearrangement inequality) instead of a LAP: positive sums pair with the
largest positive sums, negative with the most negative.  Its ties are
broken by one round of colour refinement: both sides are ordered by
(r, A r, node index).

Frank-Wolfe can zig-zag between two vertices with ever shorter steps and
never meet its stopping test.  So a run whose new vertex repeats the one
before last, but not the last, steps instead to the exact minimizer of
the relaxed objective over the triangle of the iterate and those two
vertices (Holloway's simplicial decomposition): a quadratic in two
weights, whose coefficients the tracked products of the two vertices
give by dot products and gathers alone.

The Frank-Wolfe loop (``_faq_stack``) and the two-exchange loop
(``_two_exchange_stack``) run on a stack of same-shape pairs, the shape a
batch of many tiny matches needs: each iteration or sweep takes the dense
products of all unfinished pairs at once, one LAP per pair, and one
gathered product and sum over the vertices of the whole stack.  A node
a vertex leaves unmatched (slot -1) adds a zero row or term, the same in
a stack as alone.
Around the LAPs, the vertex step (``_vertices``), the lift of the final
projection to padded permutations (``_lifts``) and the exact scoring of a
round of candidates (``assignment._objective_values``) are array work over
the whole stack.  Every pair keeps its own line search and stopping test,
and all pairs of a Frank-Wolfe stack share the round's one start, so a
pair runs exactly as it would alone; it leaves the stack through the one
drop step ``_drop``.  ``_best_candidates`` scores and refines a stack
of pairs as it does one pair; ``pipelines`` groups a batch by shape.  A
single pair is a stack of one: ``_faq_descent`` and ``greedy_two_exchange``
are its 2-D entry points into the same loops.  It keeps 2-D twins only
where a stack of one measured slower: ``_vertex`` and the face test's
byte compare per iteration, ``objective_value`` per candidate and
two-exchange's 2-D blocks per sweep.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .assignment import (
    BRUTE_FORCE_MAX_NODES,
    _lap_raw,
    _objective_values,
    brute_force_match,
    objective_value,
)
from .graphs import (
    _PADDINGS,
    Graph,
    Permutation,
    _check_weights,
    _null_costs,
    _padded_size,
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

_SOLVERS = ("faq", "umeyama", "brute")
_FAQ_INITS = ("barycenter", "identity")


@dataclass(frozen=True)
class MatchConfig:
    """Options shared by the matching solvers.

    ``faq_init`` picks the first Frank-Wolfe start: the barycenter (the
    flat doubly stochastic matrix) or the identity.  From the barycenter,
    an undirected pair at ``lam`` = 0 takes its first vertex in closed form,
    by sorting nodes on their degree (weighted row sum), then on the sum of
    their neighbours' degrees, then on their index.  ``restarts`` adds up
    to that many extra Frank-Wolfe runs started from seeded random
    permutation matrices; the best objective wins.  The starts stop once a
    candidate scores J = 0: J is never negative, and a later candidate
    wins only by scoring strictly lower.  A Frank-Wolfe run stops when the
    relative change of its relaxed objective is at most ``tol``, or
    unconverged after ``max_iter`` steps; a run that returns to the vertex
    before last steps exactly over the face of its last two vertices,
    which ends the two-vertex zig-zag that would otherwise use them all.
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
        real = (numbers.Real, "a real number", float)
        integer = (numbers.Integral, "an integer", int)
        kinds = {"lam": real, "tol": real, "max_iter": integer, "restarts": integer,
                 "seed": integer, "refinement": ((bool, np.bool_), "a bool", bool)}
        for field, (kind, what, cast) in kinds.items():
            value = getattr(self, field)
            if not isinstance(value, kind) or (isinstance(value, bool) and field != "refinement"):
                raise ValueError(f"{'lambda' if field == 'lam' else field} must be {what}, "
                                 f"got {value!r}")
            # a NumPy scalar would carry its own precision into every result
            object.__setattr__(self, field, cast(value))
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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SolverTrace:
    """Per-run diagnostics.

    For the Frank-Wolfe solver, ``objectives`` holds the relaxed objective
    before the first step and after every accepted step (length
    ``iterations + 1``) and ``step_sizes`` the exact line-search steps (a
    step over a face records its total weight).
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
    for an exact solver; an upper bound for heuristics).  Under ``brute``,
    ``co_optimal`` lists the first 10000 permutations (``p`` first) whose
    exact objective is ``objective`` and ``n_co_optimal`` counts them.
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


def _swap_deltas(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                 lam: float, perm: np.ndarray, directed: bool) -> np.ndarray:
    """Objective change for every pairwise swap of ``perm``.

    With C[i, j] = a2[perm_i, perm_j] the edge objective is
    ||a1||^2 + ||a2||^2 - 2 T(perm), T = sum_ij a1_ij C_ij, and swapping
    slots a, b changes T by an expression in X = a1 C^T and Y = a1^T C plus
    a 2x2-block correction (zero diagonals assumed).  Undirected a1 and C
    are exactly symmetric, so there Y = X and a sweep costs one product;
    a directed pair costs two.  Every argument may carry a leading stack
    axis, and each entry of a stack gets the deltas it gets alone.
    """
    n = perm.shape[-1]
    lead = (np.arange(len(perm))[:, None, None],) if perm.ndim > 1 else ()
    c = a2[(*lead, perm[..., :, None], perm[..., None, :])]
    x = a1 @ c.swapaxes(-1, -2)
    xd = x.diagonal(axis1=-2, axis2=-1)
    d_t = x + x.swapaxes(-1, -2) - xd[..., :, None] - xd[..., None, :]
    if directed:
        y = a1.swapaxes(-1, -2) @ c
        yd = y.diagonal(axis1=-2, axis2=-1)
        d_t = (d_t + y + y.swapaxes(-1, -2) - yd[..., :, None] - yd[..., None, :]
               + (a1 + a1.swapaxes(-1, -2)) * (c + c.swapaxes(-1, -2)))
    else:
        d_t = 2.0 * (d_t + 2.0 * a1 * c)
    deltas = -2.0 * d_t
    if lam != 0.0 and d is not None:
        dp = d[(*lead, np.arange(n)[:, None], perm[..., None, :])]
        dd = dp.diagonal(axis1=-2, axis2=-1)
        deltas = deltas + lam * (dp + dp.swapaxes(-1, -2) - dd[..., :, None]
                                 - dd[..., None, :])
    deltas.reshape(*deltas.shape[:-2], n * n)[..., ::n + 1] = np.inf
    return deltas


def _drop(ids: list, done: list, *arrays):
    """Drop the finished rows ``done`` of a shrinking stack: the surviving
    entry ids, then each of ``arrays`` without those rows (None stays None)."""
    keep = np.ones(len(ids), dtype=bool)
    keep[done] = False
    return ([e for e, kept in zip(ids, keep.tolist()) if kept],
            *(None if x is None else x[keep] for x in arrays))


def _two_exchange_stack(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                        lam: float, perms, objs, directed: bool):
    """Greedy two-exchange on a stack of equal-size padded pairs.

    ``a1``, ``a2`` and ``d`` are (B, n, n) stacks, or 2-D for a single
    pair, ``perms`` the B starting permutations and ``objs`` their exact
    objectives.  One ``_swap_deltas`` sweep scores every swap of every
    unfinished entry; each entry then takes its best swap, re-verified
    against its exactly recomputed objective, and finishes when that swap
    does not improve.  ``_drop`` shrinks the stack only when entries finish.
    Returns ``(perm, objectives, obj)`` per entry, as
    ``greedy_two_exchange`` does for one pair.
    """
    single = a1.ndim == 2
    cur = np.array(perms, dtype=int)
    n = cur.shape[1]
    if n < 2:  # no two slots to swap
        return [(p, (), o) for p, o in zip(cur, objs)]
    objs = list(objs)
    trails = [[] for _ in objs]
    final = [None] * len(objs)
    ids = list(range(len(objs)))
    while True:
        deltas = _swap_deltas(a1, a2, d, lam, cur[0] if single else cur,
                              directed).reshape(len(ids), n * n)
        done = []
        for j, k in enumerate(deltas.argmin(axis=1).tolist()):
            e = ids[j]
            if deltas[j, k] >= 0.0:
                done.append(j)
                continue
            a, b = divmod(k, n)
            cand = cur[j].copy()
            cand[a], cand[b] = cand[b], cand[a]
            cand_obj = (objective_value(a1, a2, d, lam, cand) if single else
                        objective_value(a1[j], a2[j], None if d is None else d[j], lam, cand))
            if cand_obj >= objs[e]:
                done.append(j)
                continue
            cur[j], objs[e] = cand, cand_obj
            trails[e].append(cand_obj)
        for j in done:
            final[ids[j]] = cur[j].copy()
        if len(done) == len(ids):
            return [(p, tuple(t), o) for p, t, o in zip(final, trails, objs)]
        if done:
            ids, cur, a1, a2, d = _drop(ids, done, cur, a1, a2, d)


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
    ``perm``.  ``_two_exchange_stack`` on the pair's 2-D blocks.
    """
    return _two_exchange_stack(a1, a2, d, lam, [perm], [obj], directed)[0]


def _vertex(c: np.ndarray, partial: bool) -> np.ndarray:
    """Minimum-cost node->slot assignment for the n1 x n2 cost ``c``, n1 <= n2,
    as the slot of every node, -1 for a node left unmatched.

    ``partial`` lets nodes stay unmatched at zero cost: solving on min(c, 0)
    and keeping the pairs whose cost is negative attains the optimum of the
    zero-padded square assignment.  Otherwise every node is matched.
    """
    if not partial:
        return _lap_raw(c)[1]
    slots = _lap_raw(np.minimum(c, 0.0))[1]
    return np.where(c[np.arange(len(slots)), slots] < 0.0, slots, -1)


def _vertices(c: np.ndarray, partial: bool) -> np.ndarray:
    """``_vertex`` of every entry of a (B, n1, n2) cost stack, one LAP each:
    the (B, n1) slots."""
    slots = np.array([_lap_raw(x)[1] for x in (np.minimum(c, 0.0) if partial else c)])
    if partial:
        slots[c[np.arange(len(c))[:, None], np.arange(c.shape[1]), slots] >= 0.0] = -1
    return slots


def _rank_one_vertex(r1: np.ndarray, r2: np.ndarray, t1: np.ndarray, t2: np.ndarray,
                     partial: bool) -> np.ndarray:
    """``_vertex`` of the rank-one cost c_ij = -k r1_i r2_j, k > 0, n1 <= n2,
    in closed form: the LAP of a flat start's first Frank-Wolfe step on an
    undirected pair without node costs, where r1 and r2 are the row sums.

    By the rearrangement inequality a node of positive sum pairs with the
    largest sums of the other side, and one of negative sum with the most
    negative.  Under ``partial`` only pairs of one sign are kept, the
    largest positive sums of both sides in order and likewise the most
    negative; otherwise every node is matched, its positive nodes to the
    other side's largest sums, the rest to its smallest.  Of the co-optimal
    vertices this takes the one that orders both sides by the key (r, t,
    node index), where t = A r sums the neighbours' sums, one round of
    colour refinement.  ``r1`` and ``t1`` are (n1,) and ``r2`` and ``t2``
    (n2,), giving the slots as ``_vertex`` does, or (B, n) stacks, giving
    them as ``_vertices`` does.
    """
    single = r1.ndim == 1
    r1, r2, t1, t2 = (np.atleast_2d(x) for x in (r1, r2, t1, t2))
    # each side's nodes in ascending key order; lexsort is stable, so the
    # node index breaks the remaining ties
    small, large = np.lexsort((t1, r1), axis=-1), np.lexsort((t2, r2), axis=-1)
    (b, n1), n2 = small.shape, large.shape[1]
    top = (r1 > 0.0).sum(axis=1)
    if partial:
        top = np.minimum(top, (r2 > 0.0).sum(axis=1))
    # the i-th smallest node of the first side pairs with the i-th smallest
    # of the second, or, among its top nodes, with the same rank from the top
    i, at = np.arange(n1), np.arange(b)[:, None]
    upper = i >= (n1 - top)[:, None]
    picked = large[at, i + (n2 - n1) * upper]
    if partial:
        bottom = np.minimum((r1 < 0.0).sum(axis=1), (r2 < 0.0).sum(axis=1))
        picked = np.where(upper | (i < bottom[:, None]), picked, -1)
    slots = np.empty_like(picked)
    slots[at, small] = picked
    return slots[0] if single else slots


def _null_average(x: np.ndarray, size: int) -> np.ndarray:
    """Real block of the padded iterate averaged over null relabelings.

    Relabeling null nodes or null slots leaves J unchanged.  After
    averaging, a real slot's unused mass s_i spreads evenly over the
    ``size - n1`` null nodes and a real node's unused mass r_j over the
    ``size - n2`` null slots, so an assignment's score is a constant plus
    the sum of the returned weights over its real-to-real pairs.  ``x`` is
    one n2 x n1 block or a stack of them.
    """
    n2, n1 = x.shape[-2:]
    w = x
    if size > n2:
        w = w - (1.0 - x.sum(axis=-2))[..., None, :] / (size - n2)
    if size > n1:
        s = 1.0 - x.sum(axis=-1)
        w = w - s[..., :, None] / (size - n1)
        if size > n2:
            w = w + (((size - n1) - s.sum(axis=-1)) / ((size - n1) * (size - n2)))[..., None, None]
    return w


def _lifts(slots: np.ndarray, n2: int, size: int) -> np.ndarray:
    """The (B, size) padded permutations of a stack's (B, n1) vertices, from
    ``_vertices``' output: an entry's kept slots, its unmatched real nodes
    on null slots n2, n2 + 1, ... in node order, and its null nodes on the
    remaining slots in ascending order.  A single pair lifts as a stack of
    one, once per Frank-Wolfe run."""
    b, n1 = slots.shape
    if n1 == size:
        return slots
    # the i-th unmatched real node of an entry parks on null slot n2 + i
    unmatched = slots < 0
    real = np.where(unmatched, n2 - 1 + np.cumsum(unmatched, axis=1), slots)
    taken = np.zeros((b, size), dtype=bool)
    taken[np.arange(b)[:, None], real] = True
    return np.concatenate([real, np.nonzero(~taken)[1].reshape(b, size - n1)], axis=1)


def _dots(x: np.ndarray, y: np.ndarray) -> list[float]:
    """``np.vdot`` of every entry pair of two stacks, or of two single blocks.

    A (1, K) @ (K, 1) product per entry is the same BLAS dot that ``vdot``
    calls, so an entry's value equals its run alone on kernels whose dot
    ignores the alignment of its operands.  OpenBLAS's Prescott ``ddot``
    rounds by their 16-byte alignment, and entry e of a stack starts at
    byte offset e * n2 * n1 * 8, so there an entry that sits 8 bytes off
    may differ from its run alone in the last bit.
    """
    if x.ndim == 2 or len(x) == 1:
        return [float(np.vdot(x, y))]
    b, k = len(x), x.shape[1] * x.shape[2]
    return (x.reshape(b, 1, k) @ y.reshape(b, k, 1)).ravel().tolist()


def _vertex_products(x2: np.ndarray, x1: np.ndarray, lead: tuple, slots: np.ndarray,
                     partial: bool) -> np.ndarray:
    """X2[slots]^T X1 for the vertex of every entry, ``lead`` being the
    stack's index column (empty for a 2-D pair); a node the vertex leaves
    unmatched adds a zero row, the same in a stack as alone."""
    y = x2[(*lead, slots)]
    if partial:
        y[slots < 0] = 0.0
    return y.swapaxes(-1, -2) @ x1


def _vertex_sums(x: np.ndarray, pairs: tuple, slots: np.ndarray, partial: bool) -> list[float]:
    """sum(x[slots_i, i]) over the vertex of every entry, ``pairs`` indexing
    its pairs; a node the vertex leaves unmatched adds a zero term."""
    y = x[pairs]
    if partial:
        y[slots < 0] = 0.0
    return np.atleast_1d(y.sum(axis=-1)).tolist()


def _start_product(x2: np.ndarray, x1: np.ndarray, p: np.ndarray, flat: bool, c: float):
    """X2 P X1^T of every entry from the stack's one start; from a ``flat``
    start P = c 1 1^T, the outer product c (X2 1)(X1 1)^T of the row sums."""
    if flat:
        return c * x2.sum(axis=-1)[..., :, None] * x1.sum(axis=-1)[..., None, :]
    return x2 @ p @ x1.swapaxes(-1, -2)


def _relaxed(m_p: np.ndarray, p: np.ndarray, c_t: np.ndarray | None) -> list[float]:
    """The relaxed objective -<M, P> + <(lam/2) D^T, P> of every entry."""
    if c_t is None:
        return [-v for v in _dots(m_p, p)]
    return [c - v for v, c in zip(_dots(m_p, p), _dots(c_t, p))]


def _line_min(a: float, b: float) -> float:
    """The t in [0, 1] minimizing b t + a t^2; where that is concave or flat,
    the end t = 1, which is no worse when b <= 0, as on a Frank-Wolfe segment."""
    return min(1.0, max(0.0, -b / (2.0 * a))) if a > 0.0 else 1.0


def _face_weights(b1: float, b2: float, a11: float, a12: float, a22: float):
    """The weights (alpha, beta) minimizing

        phi = b1 alpha + b2 beta + a11 alpha^2 + a12 alpha beta + a22 beta^2

    over alpha, beta >= 0, alpha + beta <= 1.  A positive definite phi has
    one stationary point, its minimum where it is feasible.  Otherwise the
    minimum lies on the boundary, at a vertex or at an edge's clamped 1-D
    minimum.  Every candidate is scored by phi, and of those within
    rounding of the least, the first of least total weight wins: on a
    degenerate triangle, one whose corners are collinear, many weights give
    one point, and this keeps the choice, and so the step taken, from
    resting on rounding.  Where the iterate sits on the previous vertex,
    that choice is the line search toward the current one.
    """
    cands = []
    det = 4.0 * a11 * a22 - a12 * a12
    if a11 > 0.0 and det > 0.0:
        alpha = (a12 * b2 - 2.0 * a22 * b1) / det
        beta = (a12 * b1 - 2.0 * a11 * b2) / det
        if alpha >= 0.0 and beta >= 0.0 and alpha + beta <= 1.0:
            cands.append((alpha, beta))
    # on the edge alpha + beta = 1, beta = s: phi(1, 0) + s c + s^2 q; with
    # 1 - alpha exact, the two weights sum to exactly 1
    alpha = 1.0 - _line_min(a11 + a22 - a12, b2 - b1 + a12 - 2.0 * a11)
    cands += [(0.0, _line_min(a22, b2)), (_line_min(a11, b1), 0.0), (alpha, 1.0 - alpha),
              (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    phi = [w * (b1 + a11 * w + a12 * v) + v * (b2 + a22 * v) for w, v in cands]
    cut = min(phi) + 1e-12 * (abs(b1) + abs(b2) + abs(a11) + abs(a12) + abs(a22))
    return min((c for c, value in zip(cands, phi) if value <= cut), key=sum)


def _slot_pairs(slots: np.ndarray):
    """The (rows, cols) pairs of a vertex given as the slot of every real
    node, -1 for a node left unmatched; rows ascend, as ``_lap_raw``'s do."""
    rows = np.flatnonzero(slots >= 0)
    return rows, slots[rows]


def _face_step(p, grad, m_p, n_p, m_r, n_q, m_1, n_1, q1, q2, a22: float, b2: float,
               gp: float, directed: bool) -> float:
    """Move one entry in place to the minimizer of the relaxed objective
    over the triangle hull{P, Q1, Q2}; returns the total weight it moved.

    Q1 is the entry's previous vertex, with tracked products ``m_1`` =
    A2 Q1 A1^T and ``n_1`` = A2^T Q1 A1 (None when undirected), and Q2 its
    current vertex, whose line search along R2 = Q2 - P has quadratic
    coefficient ``a22``, slope ``b2``, ``m_r`` = M(R2) and ``n_q`` =
    A2^T Q2 A1; ``gp`` is <grad, P>.  ``q1`` and ``q2`` are the vertices
    as the slot of every real node (-1 for none).  With R1 = Q1 - P,

        f(P + alpha R1 + beta R2) = f(P) + b1 alpha + b2 beta
                                    + a11 alpha^2 + a12 alpha beta + a22 beta^2,

    b1 = <grad, R1>, a11 = -<M(R1), R1> and a12 = -<M(R1) + N(R1), R2>,
    so the step costs dot products and gathers, and no dense product.
    """
    (r1, c1), (r2, c2) = _slot_pairs(q1), _slot_pairs(q2)
    m_r1 = m_1 - m_p
    d1 = float(np.vdot(m_r1, p))
    cross = float(m_r1[c2, r2].sum()) - d1
    if directed:
        n_r1 = n_1 - n_p
        cross += float(n_r1[c2, r2].sum()) - float(np.vdot(n_r1, p))
    else:
        cross *= 2.0
    alpha, beta = _face_weights(float(grad[c1, r1].sum()) - gp, b2,
                                d1 - float(m_r1[c1, r1].sum()), -cross, a22)
    p *= 1.0 - (alpha + beta)
    p[c1, r1] += alpha
    p[c2, r2] += beta
    if directed:
        n_p += alpha * n_r1 + beta * (n_q - n_p)
    m_p += alpha * m_r1 + beta * m_r
    return alpha + beta


def _faq_stack(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None, lam: float,
               p0: np.ndarray, max_iter: int, tol: float, size: int, directed: bool):
    """Frank-Wolfe over the doubly stochastic polytope with exact line search,
    on a stack of same-shape pairs padded to ``size`` nodes.

    ``a1`` (B, n1, n1) and ``a2`` (B, n2, n2), n1 <= n2, are the unpadded
    adjacencies, ``d`` (B, n1, n2) the real blocks of the node costs (None
    without them), which the relaxation weighs by ``lam``/2, and ``p0``
    (n2, n1) the real block of the padded start that every entry shares;
    ``directed`` says whether the adjacencies may be asymmetric.  A single pair may come as
    2-D blocks without the stack axis, which spares it the stack's
    indexing.  Returns per entry the padded permutation with the relaxed
    objectives, step sizes and convergence.

    Every entry has its own line search and stopping test, and runs
    exactly as it would alone: dense products and inner products are taken
    per entry, each entry's vertex is one LAP (``_vertices`` over the
    stack, which clips and filters the whole stack's costs at once) or a
    flat start's first vertex in closed form (below), and the vertices'
    gathered products and sums are taken once for the whole stack.  A
    vertex is the slot of every real node, -1 for a node it leaves
    unmatched under a ``partial`` assignment, which adds a zero row to the
    products and a zero term to the sums and the step, the same in a stack
    as alone.  The final projection is one LAP per entry too, lifted to
    padded permutations by ``_lifts`` for the whole stack.  An entry's state is ``objectives[e]``
    (the last item is the current relaxed objective), ``steps[e]``,
    ``converged[e]``, once it stops row ``e`` of ``final``, and, as rows
    of arrays that ``_drop`` shrinks with the iterates, its last two
    vertices ``prev`` and ``older`` and the products ``m_prev`` =
    A2 Q A1^T and (directed) ``n_prev`` = A2^T Q A1 of ``prev``.  One
    array comparison of the slots finds the entries whose vertex repeats
    ``older`` but not ``prev``; a 2-D pair compares the slots' bytes and
    takes ``_vertex`` instead, per iteration, and copies nothing.

    An entry steps by an exact line search toward its vertex Q, or, when
    Q repeats ``older`` but not ``prev``, to the minimizer over the
    triangle hull{P, ``prev``, Q} (``_face_step``), whose total weight is
    its step size.  It stops on a zero step, when the relative change of
    its relaxed objective is at most ``tol``, or after ``max_iter`` steps
    unconverged.

    The loop keeps M = A2 P A1^T and N = A2^T P A1 current along its steps:
    the gradient is -(M + N) + (lam/2) D^T and the line search's slope is
    <grad, Q - P>.  The vertex Q sends node i to slot s_i, so
    A2^T Q A1 = A2[s]^T A1 is one product, as is A2 Q A1^T.
    Undirected adjacencies are exactly symmetric, so there N = M and an
    iteration costs one dense product; a directed pair costs two.

    The start is flat when all its entries equal one c > 0, one test for
    the whole stack.  Then every entry's M and N start as the outer
    products of ``_start_product``, and on an undirected stack without
    node costs every entry's first vertex is ``_rank_one_vertex``'s, one
    sort for the whole stack.  Every other vertex is a LAP.
    """
    n2, n1 = p0.shape
    nb = len(a1) if a1.ndim == 3 else 1
    at = np.arange(nb)[:, None] if a1.ndim == 3 else None
    partial, nodes = size >= n1 + n2, np.arange(n1)
    c_t = (np.ascontiguousarray(0.5 * lam * d.swapaxes(-1, -2))
           if (d is not None and lam != 0.0) else None)
    p = p0.copy() if at is None else np.repeat(p0[None], nb, axis=0)
    final = None if at is None else np.empty_like(p)  # each entry's last iterate
    c = p0[0, 0] if p0.size else 1.0  # an empty start is flat for any c
    flat = bool(c > 0.0 and (p0 == c).all())
    m_p = _start_product(a2, a1, p, flat, c)
    n_p = _start_product(a2.swapaxes(-1, -2), a1.swapaxes(-1, -2), p, flat, c) if directed else m_p
    first = None
    if flat and not directed and c_t is None:
        r1, r2 = a1.sum(axis=-1), a2.sum(axis=-1)
        first = _rank_one_vertex(r1, r2, (a1 * r1[..., None, :]).sum(axis=-1),
                                 (a2 * r2[..., None, :]).sum(axis=-1), partial)
    objectives = [[v] for v in _relaxed(m_p, p, c_t)]
    steps = [[] for _ in range(nb)]
    converged = [False] * nb
    ids = list(range(nb))
    prev = older = m_prev = n_prev = None
    for _ in range(max_iter):
        grad = -(m_p + n_p) if directed else -2.0 * m_p
        if c_t is not None:
            grad += c_t
        # vertex minimizing <grad, Q> over (partial) permutation matrices
        if first is not None:
            vertex = first
        elif at is None:
            vertex = _vertex(grad.T, partial)
        else:
            vertex = _vertices(grad.swapaxes(-1, -2), partial)
        first = None
        lead = () if at is None else (at,)
        pairs = (*lead, vertex, nodes)
        # the entries whose vertex is the one before last but not the last
        if older is None:
            faces = []
        elif at is None:
            key = vertex.tobytes()
            faces = [0] if key == older.tobytes() and key != prev.tobytes() else []
        else:
            faces = np.flatnonzero(
                (vertex == older).all(axis=1) & (vertex != prev).any(axis=1)).tolist()
        n_q = _vertex_products(a2, a1, lead, vertex, partial)
        m_q = (_vertex_products(a2.swapaxes(-1, -2), a1.swapaxes(-1, -2), lead, vertex, partial)
               if directed else n_q)
        m_r = m_q - m_p
        # f(P + eta R) = f + eta b + eta^2 a with R = Q - P
        lines = [(mp - mq, gq - gp, gp) for mp, mq, gq, gp in zip(
            _dots(m_r, p), _vertex_sums(m_r, pairs, vertex, partial),
            _vertex_sums(grad, pairs, vertex, partial),
            _dots(grad, p))]
        eta = [_line_min(a_coef, b_coef) for a_coef, b_coef, _ in lines]
        # an entry on a face steps over it in place, and no further below
        along = eta
        if faces:
            along = eta.copy()
            for j in faces:
                sel = ... if at is None else j  # a view of the entry's blocks
                blocks = (None if x is None else x[sel]
                          for x in (p, grad, m_p, n_p, m_r, n_q, m_prev, n_prev, prev, vertex))
                eta[j] = _face_step(*blocks, *lines[j], directed)
                along[j] = 0.0
        # a zero step leaves its entry unchanged, and the entry stops below;
        # a stack of one steps by a float, and a pair not kept by none
        step = along[0] if len(along) == 1 else np.array(along)[:, None, None]
        p *= 1.0 - step
        add = step if len(along) == 1 else step[:, 0]
        p[pairs] += np.where(vertex >= 0, add, 0.0) if partial else add
        m_p = m_p + step * m_r
        n_p = n_p + step * (n_q - n_p) if directed else m_p
        older, prev, m_prev, n_prev = prev, vertex, m_q, n_q if directed else None
        done = []
        for j, (e, s, new) in enumerate(zip(ids, eta, _relaxed(m_p, p, c_t))):
            old = objectives[e][-1]  # the current objective of a running entry
            if s != 0.0:
                objectives[e].append(new)
                steps[e].append(s)
            if s == 0.0 or abs(new - old) <= tol * max(1.0, abs(old)):
                converged[e] = True
                done.append(j)
        if len(done) == len(ids):
            break
        if done:
            final[[ids[j] for j in done]] = p[done]
            ids, p, m_p, n_p, a1, a2, c_t, prev, older, m_prev, n_prev = _drop(
                ids, done, p, m_p, n_p, a1, a2, c_t, prev, older, m_prev, n_prev)
            at = at[:len(ids)]
    # project each doubly stochastic iterate back to a permutation
    if at is None:
        perms = _lifts(_vertex(-_null_average(p, size).T, partial)[None], n2, size)
    else:
        final[ids] = p
        perms = _lifts(_vertices(-_null_average(final, size).swapaxes(-1, -2), partial),
                       n2, size)
    return [(perm, tuple(objectives[e]), tuple(steps[e]), converged[e])
            for e, perm in enumerate(perms)]


def _faq_descent(a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                 lam: float, p0: np.ndarray, max_iter: int, tol: float,
                 size: int, directed: bool):
    """Frank-Wolfe on one pair: ``_faq_stack`` on its 2-D blocks.

    ``a1`` and ``a2`` are the unpadded adjacencies, n1 <= n2, ``d`` the
    n1 x n2 node cost and ``p0`` the n2 x n1 real block of the padded
    start.  Returns the padded permutation with the relaxed objectives,
    step sizes and convergence.
    """
    return _faq_stack(a1, a2, d, lam, p0, max_iter, tol, size, directed)[0]


@functools.lru_cache(maxsize=1024)
def _restart_perm(seed: int, r: int, n: int) -> np.ndarray:
    """The seeded permutation of restart ``r``; drawn once per (seed, r, n)."""
    perm = np.random.default_rng(np.random.SeedSequence([seed, r])).permutation(n)
    perm.setflags(write=False)
    return perm


def _faq_inits(cfg: MatchConfig, n: int):
    """The configured start, then ``cfg.restarts`` seeded random permutation matrices."""
    yield np.eye(n) if cfg.faq_init == "identity" or not n else np.full((n, n), 1.0 / n)
    for r in range(1, cfg.restarts + 1):
        m = np.zeros((n, n))
        m[_restart_perm(cfg.seed, r, n), np.arange(n)] = 1.0
        yield m


def _faq_rounds(cfg: MatchConfig, a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                size: int, directed: bool):
    """One Frank-Wolfe round per start: the candidates of a pair (2-D
    unpadded adjacencies ``a1`` and ``a2``, through ``_faq_descent``) or of
    a (B, n, n) stack of same-shape pairs, on the real block of ``d``, the
    node cost padded to ``size``.  A larger ``a1`` runs swapped, with ``d``
    transposed and the starts of ``graph_distance(g2, g1)``, and its
    permutations inverted: the two argument orders give inverse candidates."""
    n1, n2 = a1.shape[-1], a2.shape[-1]
    d_real = None if d is None else d[..., :n1, :n2]
    swap = n1 > n2
    if swap:
        a1, a2, n1, n2 = a2, a1, n2, n1
        d_real = None if d_real is None else d_real.swapaxes(-1, -2)
    for p0 in _faq_inits(cfg, size):
        args = (a1, a2, d_real, cfg.lam, p0[:n2, :n1], cfg.max_iter, cfg.tol, size, directed)
        cands = [_faq_descent(*args)] if a1.ndim == 2 else _faq_stack(*args)
        yield [(np.argsort(perm), *rest) for perm, *rest in cands] if swap else cands


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


def _best_candidates(lam: float, a1: np.ndarray, a2: np.ndarray, d: np.ndarray | None,
                     rounds, refine: bool, directed: bool):
    """The first candidate of least exact objective, per entry of a stack
    of padded pairs.

    ``a1``, ``a2`` and ``d`` are (B, n, n) stacks, or 2-D for a single
    pair, and ``rounds`` yields per start one ``(perm, objectives, steps,
    converged)`` candidate for each entry.  Each distinct candidate of an
    entry is scored by its exact objective and, given ``refine``, improved
    by greedy two-exchange (``directed`` says whether the adjacencies may
    be asymmetric): a single pair through ``objective_value`` and
    ``greedy_two_exchange``, a stack through ``_objective_values`` and
    ``_two_exchange_stack`` over a round's fresh entries.  Returns per
    entry ``(obj, perm, index, objectives, steps, converged, refined)``.

    No more rounds are taken once every entry's best objective is 0: every
    term of J is nonnegative and a later candidate wins only by scoring
    strictly lower, so the result is the one all rounds give.  ``rounds``
    is lazy, so the Frank-Wolfe runs of the rounds not taken never start.
    """
    single = a1.ndim == 2
    nb = 1 if single else len(a1)
    seen = [set() for _ in range(nb)]
    best = [None] * nb
    for index, cands in enumerate(rounds):
        fresh = []
        for e, cand in enumerate(cands):
            key = cand[0].tobytes()
            if key not in seen[e]:  # a repeat scores and refines as before: it cannot win
                seen[e].add(key)
                fresh.append(e)
        if not fresh:
            continue
        perms = [cands[e][0] for e in fresh]
        if single:
            scores = [objective_value(a1, a2, d, lam, perms[0])]
            if refine:
                out = [greedy_two_exchange(a1, a2, d, lam, perms[0], scores[0], directed)]
        else:
            sub = (a1[fresh], a2[fresh], None if d is None else d[fresh])
            scores = _objective_values(*sub, lam, np.array(perms))
            if refine:
                out = _two_exchange_stack(*sub, lam, perms, scores, directed)
        objs, refined = scores, [()] * len(fresh)
        if refine:
            perms, refined, objs = zip(*out)
        for e, perm, obj, score, trail in zip(fresh, perms, objs, scores, refined):
            _, objectives, steps, converged = cands[e]
            if objectives is None:  # no relaxation: trace the exact objective
                objectives = (score,)
            if best[e] is None or obj < best[e][0]:
                best[e] = (obj, perm, index, objectives, steps, converged, trail)
        if all(b is not None and b[0] == 0.0 for b in best):
            break  # J >= 0: no later candidate scores strictly lower
    return best


def graph_distance(g1: Graph, g2: Graph, cfg: MatchConfig | None = None) -> MatchResult:
    """Register ``g1`` to ``g2`` with the configured solver.

    Each graph must pass ``graphs._check_weights`` at ``cfg.lam``, which
    keeps every node cost and objective finite; a ``ValueError`` names the
    argument that breaks this.

    Pads the pair as ``cfg.padding`` says.  ``brute`` returns what the
    branch and bound returns: its first minimizer, exact minimum and
    co-optimal permutations, with the trace ``SolverTrace("brute", 0)``.
    It searches against an incumbent, the first Frank-Wolfe candidate
    refined by greedy two-exchange, which only prunes.  ``umeyama``
    proposes one spectral assignment, ``faq`` one Frank-Wolfe run per
    start (the ``cfg.faq_init`` start, then ``cfg.restarts`` random ones),
    the barycenter's first vertex taken in closed form on an undirected
    pair at ``lam`` = 0 (a sort on degree, then neighbours' degrees, then
    node index, in place of the LAP),
    each stepping over the face of its last two vertices when it returns
    to the one before last, and stopping when the relative change of the
    relaxed objective drops below ``cfg.tol`` or after ``cfg.max_iter``
    steps (flagged in the trace).
    Each distinct heuristic candidate is scored by its exact objective
    and, with ``cfg.refinement``, improved by greedy two-exchange; the
    first candidate with the lowest objective wins.  Once one scores
    J = 0 the remaining starts are not run: J is never negative, so no
    later candidate could win.

    The returned ``d_g`` is sqrt of the minimized objective; with
    ``lam=0`` this is the quotient metric (exactly, for the brute solver;
    an upper bound for the heuristics).  ``faq`` registers the smaller graph
    into the larger, so an unequal-size pair without refinement gets inverse
    permutations and one objective and trace in both argument orders; other
    pairs may break ties apart in the two orders, and ``symmetric_match``
    fixes one per pair.
    """
    cfg = cfg or MatchConfig()
    _check_weights(g1, "g1", cfg.lam)
    _check_weights(g2, "g2", cfg.lam)
    g1p, g2p = pad_pair(g1, g2, cfg.padding)
    if cfg.solver == "umeyama" and g1.directed:
        raise ValueError(
            "spectral matching requires symmetric adjacency matrices; "
            "use the 'faq' solver for directed graphs"
        )
    d = None if cfg.lam == 0.0 else node_distance_matrix(g1p, g2p)
    a1, a2 = g1p.adjacency, g2p.adjacency
    if cfg.solver == "umeyama":
        rounds = [_umeyama_candidates(cfg, g1p, g2p, d)]
    else:
        rounds = _faq_rounds(cfg, g1.adjacency, g2.adjacency, d, g1p.n, g1.directed)
    if cfg.solver == "brute":
        ub = math.inf
        if 2 <= g1p.n <= BRUTE_FORCE_MAX_NODES:  # larger pairs are refused below
            ub = _best_candidates(cfg.lam, a1, a2, d, [next(rounds)], True, g1.directed)[0][0]
        perm, ties, n_co_optimal, obj = brute_force_match(g1p, g2p, d, cfg.lam, ub)
        return build_match_result(g1p, g2p, perm, cfg.lam, obj, SolverTrace("brute", 0),
                                  tuple(Permutation._trusted(t) for t in ties), n_co_optimal)
    obj, perm, index, objectives, steps, converged, refined = _best_candidates(
        cfg.lam, a1, a2, d, rounds, cfg.refinement, g1.directed)[0]
    trace = SolverTrace(
        solver=cfg.solver,
        iterations=len(steps),
        objectives=objectives,
        step_sizes=steps,
        converged=converged,
        restart_index=index,
        refinement_objectives=refined,
    )
    return build_match_result(g1p, g2p, perm, cfg.lam, obj, trace)


def _padded(stack: np.ndarray, shape, fill=0.0) -> np.ndarray:
    """A (B, ...) stack padded at the end of each entry axis with ``fill``
    to (B, *shape): what ``np.pad`` returns, without its per-call cost."""
    out = np.full((len(stack), *shape), fill, dtype=stack.dtype)
    out[(slice(None), *map(slice, stack.shape[1:]))] = stack
    return out


def _node_costs(g1s, g2s, size: int) -> np.ndarray:
    """``node_distance_matrix`` of every pair padded to ``size``."""
    def padded(graphs):
        return (_padded(np.array([g.node_attrs for g in graphs]), (size, graphs[0].attr_dim)),
                _padded(np.array([g.null_mask for g in graphs]), (size,), True))

    return _null_costs(*padded(g1s), *padded(g2s))


def _faq_objectives(cfg: MatchConfig, pairs) -> list[float]:
    """``graph_distance(g1, g2, cfg).objective`` for every ``(g1, g2)`` of
    ``pairs``, solved as one stack.

    The solver must be ``faq``, and all pairs must share the directedness
    and the sizes n1 and n2; with ``cfg.lam > 0`` every graph needs node
    attributes of one dimension.  Each start is one ``_faq_stack`` run
    that all pairs share, which ``_best_candidates`` scores and refines.
    """
    g1s, g2s = [g for g, _ in pairs], [g for _, g in pairs]
    n1, n2, directed = g1s[0].n, g2s[0].n, g1s[0].directed
    size = _padded_size(cfg.padding, n1, n2)
    adj1 = np.array([g.adjacency for g in g1s])
    adj2 = np.array([g.adjacency for g in g2s])
    a1, a2 = _padded(adj1, (size, size)), _padded(adj2, (size, size))
    d = None if cfg.lam == 0.0 else _node_costs(g1s, g2s, size)
    rounds = _faq_rounds(cfg, adj1, adj2, d, size, directed)
    return [best[0] for best in _best_candidates(cfg.lam, a1, a2, d, rounds,
                                                 cfg.refinement, directed)]


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
