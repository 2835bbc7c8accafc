import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import oracle, random_directed_graph, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    geodesic,
    graph_distance,
    node_distance_matrix,
    pad_pair,
    permute,
)
import graphspace.matching as matching
from graphspace.assignment import _lap_raw, _objective_values, objective_value
from graphspace.generators import generate, trial_rng
from graphspace.graphs import _MAX_SQUARED_WEIGHT, _padded_size
from graphspace.matching import (
    SolverTrace,
    _faq_descent,
    _faq_inits,
    _faq_rounds,
    _face_weights,
    _faq_stack,
    _lifts,
    _null_average,
    _rank_one_vertex,
    _swap_deltas,
    _two_exchange_stack,
    _vertex,
    _vertices,
    greedy_two_exchange,
)
from graphspace.pipelines import symmetric_match


def _kept(slots):
    """The pairs ``(rows, cols)`` that a vertex, the slot of every node (-1
    for none), keeps."""
    rows = np.flatnonzero(slots >= 0)
    return rows, slots[rows]


def _slots(rows, cols, n1):
    """The vertex, the slot of every one of ``n1`` nodes (-1 for none), that
    takes nodes ``rows`` to slots ``cols``."""
    slots = np.full(n1, -1)
    slots[rows] = cols
    return slots


def assert_lift_rule(perm, rows, cols, n1, n2):
    """``perm`` is the padded permutation that takes real nodes ``rows`` to
    slots ``cols``, parks the other real nodes on null slots n2, n2 + 1, ...
    in node order, and fills the remaining slots with the null nodes in
    ascending order."""
    size = len(perm)
    assert sorted(perm.tolist()) == list(range(size))
    assert np.array_equal(perm[rows], cols)
    unmatched = np.setdiff1d(np.arange(n1), rows)
    assert np.array_equal(perm[unmatched], np.arange(n2, n2 + len(unmatched)))
    assert np.array_equal(perm[n1:], np.sort(perm[n1:]))


def four_product_faq_descent(a1, a2, d, lam, p0, max_iter, tol, size, vertices):
    """Frank-Wolfe recomputing every product from the iterate (the descent
    ``_faq_descent`` must agree with): four dense products per iteration,
    two for the gradient and two for the search direction, and one more on
    a step over a face.

    It steps toward the vertices (slots) drawn from ``vertices``,
    the ones the loop under test chose, after checking that each minimizes
    the linear cost of the recomputed gradient, and projects onto the last
    one drawn, after checking that it is a nearest permutation.  Following
    them keeps both runs on one path through exact vertex ties, which
    Frank-Wolfe makes itself: after an interior line-search step from a
    vertex, the gradient scores both ends of that segment equally, and a
    step over a face can end halfway between two vertices that a
    symmetric pair scores alike.  A vertex that repeats the one before
    last, but not the last, takes the exact step over the triangle of the
    iterate and those two vertices, with the quadratic's coefficients
    recomputed from dense products.
    """
    n1, n2 = a1.shape[0], a2.shape[0]
    partial = size >= n1 + n2
    d_t = d.T if (d is not None and lam != 0.0) else None

    def follow(c):
        """The next vertex drawn, checked to minimize the cost ``c``."""
        rows, cols = _kept(_vertex(c, partial))
        best = c[rows, cols].sum()
        rows, cols = _kept(next(vertices))
        assert math.isclose(c[rows, cols].sum(), best, rel_tol=1e-9, abs_tol=1e-12)
        return rows, cols

    def node_term(m):
        # the relaxation is J/2, so the node term weighs lam / 2
        return 0.5 * lam * float((m * d_t).sum()) if d_t is not None else 0.0

    def matrix(rows, cols):
        q = np.zeros((n2, n1))
        q[list(cols), list(rows)] = 1.0
        return q

    p = p0.copy()
    f = -float(((a2 @ p @ a1.T) * p).sum()) + node_term(p)
    objectives, steps, converged, seen = [f], [], False, [None, None]
    for _ in range(max_iter):
        m_p = a2 @ p @ a1.T
        grad = -m_p - a2.T @ p @ a1
        if d_t is not None:
            grad = grad + 0.5 * lam * d_t
        rows, cols = follow(grad.T)
        r = matrix(rows, cols) - p
        m_r = a2 @ r @ a1.T
        a_coef = -float((m_r * r).sum())
        b_coef = -float((m_r * p).sum()) - float((m_p * r).sum()) + node_term(r)
        vertex = (tuple(rows.tolist()), tuple(cols.tolist()))
        if vertex == seen[-2] and vertex != seen[-1]:
            r1 = matrix(*seen[-1]) - p
            m_r1 = a2 @ r1 @ a1.T
            alpha, beta = _face_weights(
                float((grad * r1).sum()), b_coef, -float((m_r1 * r1).sum()),
                -float((m_r1 * r).sum()) - float((m_r * r1).sum()), a_coef)
            eta, move = alpha + beta, alpha * r1 + beta * r
        else:
            eta = min(1.0, max(0.0, -b_coef / (2.0 * a_coef))) if a_coef > 0.0 else 1.0
            move = eta * r
        seen.append(vertex)
        if eta == 0.0:
            converged = True
            break
        p = p + move
        f_new = -float(((a2 @ p @ a1.T) * p).sum()) + node_term(p)
        objectives.append(f_new)
        steps.append(eta)
        if abs(f_new - f) <= tol * max(1.0, abs(f)):
            converged = True
            break
        f = f_new
    rows, cols = follow(-_null_average(p, size).T)
    perm = _lifts(_slots(rows, cols, n1)[None], n2, size)[0]
    return perm, objectives, steps, converged


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert cfg.solver == "faq" and cfg.padding == "two_way"
        assert cfg.max_iter == 100 and cfg.tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -0.1},
            {"padding": "both"},
            {"solver": "magic"},
            {"faq_init": "zeros"},
            {"max_iter": 0},
            {"tol": 0.0},
            {"restarts": -1},
            {"lam": math.inf},
            {"lam": math.nan},
            {"tol": math.nan},
            # rejected when the config is built, not when a restart first draws
            {"seed": -1},
            # types, rejected when the config is built, not inside a solver
            {"max_iter": 2.5},
            {"restarts": 1.5},
            {"seed": 1.0},
            {"max_iter": True},
            {"refinement": "no"},
            {"refinement": 1},
            {"lam": "1"},
            {"tol": None},
        ],
    )
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match="lambda" if field == "lam" else field):
            MatchConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = MatchConfig(lam=np.float64(0.5), tol=np.float32(1e-6), max_iter=np.int64(7),
                          restarts=np.int32(1), seed=np.uint8(3))
        g = Graph(np.ones((2, 2)) - np.eye(2), node_attrs=np.zeros((2, 1)))
        assert graph_distance(g, g, cfg).objective == 0.0

    def test_numpy_numbers_stored_as_python_numbers(self):
        cfg = MatchConfig(lam=np.float16(0.7), tol=np.float32(1e-6), max_iter=np.int64(7),
                          restarts=np.int32(1), seed=np.uint8(3), refinement=np.bool_(True))
        assert [type(getattr(cfg, f)) for f in ("lam", "tol", "max_iter", "restarts", "seed",
                                               "refinement")] == [float, float, int, int, int, bool]
        # two letters of unequal size; a float16 lambda once made the objective a float16
        a, b = (generate("letter_like", (0, 0), trial_rng(3, i), node_drop=0.2) for i in (0, 1))
        got = graph_distance(a, b, MatchConfig(lam=np.float16(0.7))).objective
        want = graph_distance(a, b, MatchConfig(lam=float(np.float16(0.7)))).objective
        assert type(got) is float and got.hex() == want.hex()


class TestUmeyama:
    def test_isomorphic_pairs_recovered(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = random_symmetric_graph(n, rng)
            g2 = permute(g, rng.permutation(n))
            res = graph_distance(
                g, g2, MatchConfig(solver="umeyama", padding="none", refinement=True)
            )
            assert res.objective == 0.0 and res.d_g == 0.0

    def test_self_match(self):
        rng = np.random.default_rng(1)
        g = random_symmetric_graph(6, rng)
        res = graph_distance(g, g, MatchConfig(solver="umeyama", padding="none"))
        assert res.objective == 0.0

    def test_directed_rejected(self):
        rng = np.random.default_rng(2)
        g = random_directed_graph(4, rng)
        with pytest.raises(ValueError, match="faq"):
            graph_distance(g, g, MatchConfig(solver="umeyama"))

    def test_never_beats_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g1 = random_symmetric_graph(6, rng)
            g2 = random_symmetric_graph(6, rng)
            cfg = MatchConfig(solver="umeyama", padding="none", refinement=True)
            res = graph_distance(g1, g2, cfg)
            assert res.objective >= oracle(g1, g2).objective - 1e-9

    @pytest.mark.parametrize("lam, solver, restarts", [
        pytest.param(0.0, "umeyama", 0, id="0.0"),
        pytest.param(0.8, "umeyama", 0, id="0.8"),
        pytest.param(0.0, "faq", 0, id="faq-0.0"),
        pytest.param(0.8, "faq", 0, id="faq-0.8"),
        # restarts that land on an earlier start's permutation are not rescored
        pytest.param(0.0, "faq", 5, id="faq-0.0-restarts"),
        pytest.param(0.8, "faq", 5, id="faq-0.8-restarts"),
    ])
    def test_refinement_scores_each_permutation_once(self, monkeypatch, lam, solver,
                                                     restarts):
        # one run per scored candidate: its score, then its refinement's
        # scores (two runs may still meet at the same local optimum)
        runs, refining = [], []
        refine = matching.greedy_two_exchange

        def spy(a1, a2, d, lam_, perm):
            if not refining:
                runs.append([])
            runs[-1].append(tuple(np.asarray(perm).tolist()))
            return objective_value(a1, a2, d, lam_, perm)

        def refine_spy(*args):
            refining.append(True)
            try:
                return refine(*args)
            finally:
                refining.pop()

        monkeypatch.setattr(matching, "objective_value", spy)
        monkeypatch.setattr(matching, "greedy_two_exchange", refine_spy)
        rng = np.random.default_rng(5)
        cfg = MatchConfig(solver=solver, lam=lam, refinement=True, restarts=restarts)
        for _ in range(10):
            attrs = rng.normal(size=(6, 2)) if lam else None
            g1 = Graph(random_symmetric_graph(6, rng).adjacency, node_attrs=attrs)
            g2 = Graph(random_symmetric_graph(5, rng).adjacency,
                       node_attrs=attrs[:5] if lam else None)
            runs.clear()
            graph_distance(g1, g2, cfg)
            assert runs and all(len(run) == len(set(run)) for run in runs)
            starts = [run[0] for run in runs]
            assert len(starts) == len(set(starts))
            if not restarts:
                assert len(runs) == 1


class TestFaq:
    def test_heavy_tailed_planted_recovery(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(30):
            n = int(rng.integers(5, 11))
            w = np.triu(rng.standard_t(1, size=(n, n)), 1)
            g = Graph(w + w.T)
            p = rng.permutation(n)
            res = graph_distance(g, permute(g, p), MatchConfig())
            if np.array_equal(res.p.perm[:n], p):
                hits += 1
        assert hits >= 29

    def test_binomial_small_reaches_oracle(self):
        rng = np.random.default_rng(5)
        cfg = MatchConfig(padding="none", refinement=True, restarts=30)
        for _ in range(15):
            n = int(rng.integers(5, 9))
            upper = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            g = Graph(upper + upper.T)
            g2 = permute(g, rng.permutation(n))
            g1p, g2p = pad_pair(g, g2, "two_way")
            res = graph_distance(g1p, g2p, cfg)
            assert res.objective == 0.0

    def test_oracle_lower_bound_with_refinement(self):
        rng = np.random.default_rng(6)
        equal = 0
        for _ in range(30):
            n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
            g1 = random_symmetric_graph(n1, rng)
            g2 = random_symmetric_graph(n2, rng)
            p1, p2 = pad_pair(g1, g2, "two_way")
            cfg = MatchConfig(padding="none", refinement=True, restarts=5)
            res = graph_distance(p1, p2, cfg)
            best = oracle(p1, p2)
            gap = res.objective - best.objective
            assert gap >= -1e-9
            if gap <= 1e-9 * (1.0 + best.objective):
                equal += 1
        assert equal >= 27

    def test_lambda_positive_respects_oracle_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 4
            w1 = np.triu((rng.random((n, n)) < 0.6).astype(float), 1)
            w2 = np.triu((rng.random((n, n)) < 0.6).astype(float), 1)
            g1 = Graph(w1 + w1.T, node_attrs=rng.normal(size=(n, 2)))
            g2 = Graph(w2 + w2.T, node_attrs=rng.normal(size=(n, 2)))
            cfg = MatchConfig(lam=0.5, refinement=True, restarts=3)
            res = graph_distance(g1, g2, cfg)
            p1, p2 = pad_pair(g1, g2, "two_way")
            assert res.objective >= oracle(p1, p2, lam=0.5).objective - 1e-9

    def test_monotone_descent_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            g1 = random_symmetric_graph(n, rng)
            g2 = random_symmetric_graph(n, rng)
            res = graph_distance(g1, g2, MatchConfig())
            objs = res.solver_trace.objectives
            assert len(objs) == res.solver_trace.iterations + 1
            for a, b in zip(objs, objs[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))
            for eta in res.solver_trace.step_sizes:
                assert 0.0 < eta <= 1.0

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(9)
        g1 = random_symmetric_graph(8, rng)
        g2 = random_symmetric_graph(8, rng)
        res = graph_distance(g1, g2, MatchConfig(max_iter=1, tol=1e-300))
        assert not res.solver_trace.converged

    def test_directed_graphs_supported(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            g = random_directed_graph(n, rng)
            p = rng.permutation(n)
            res = graph_distance(g, permute(g, p), MatchConfig(refinement=True, restarts=3))
            assert res.objective <= 1e-18

    def test_objective_recompute_invariant(self):
        rng = np.random.default_rng(11)
        w1 = np.triu(rng.random((5, 5)), 1)
        w2 = np.triu(rng.random((4, 4)), 1)
        g1 = Graph(w1 + w1.T, node_attrs=rng.normal(size=(5, 2)))
        g2 = Graph(w2 + w2.T, node_attrs=rng.normal(size=(4, 2)))
        res = graph_distance(g1, g2, MatchConfig(lam=0.7))
        a1 = res.g1_registered
        a2 = res.g2_padded
        inv = res.p.inverse().perm
        naive = 0.0
        n = a1.n
        for i in range(n):
            for j in range(n):
                naive += (a1.adjacency[i, j] - a2.adjacency[i, j]) ** 2
        for i in range(n):
            # node i of the padded source sits at slot res.p.perm[i]
            src = inv[i]
            if not a1.null_mask[i] and not a2.null_mask[i]:
                naive += 0.7 * float(
                    ((a1.node_attrs[i] - a2.node_attrs[i]) ** 2).sum()
                )
        assert abs(naive - res.objective) <= 1e-9 * (1.0 + abs(res.objective))
        assert sorted(res.p.perm.tolist()) == list(range(n))


@st.composite
def _seeded_pairs(draw):
    """(g1, g2, lam, directed, padding, seed): 2-8 nodes per side, normal
    weights and attributes from a seeded stream, so ties in the data are
    improbable."""
    directed = draw(st.booleans())
    padding = draw(st.sampled_from(["two_way", "one_way", "none"]))
    lam = draw(st.sampled_from([0.0, 0.7]))
    n1 = draw(st.integers(2, 8))
    n2 = n1 if padding == "none" else draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def graph(n):
        w = rng.normal(size=(n, n))
        np.fill_diagonal(w, 0.0)
        if not directed:
            w = np.triu(w, 1)
            w = w + w.T
        return Graph(w, node_attrs=rng.normal(size=(n, 2)), directed=directed)

    return graph(n1), graph(n2), lam, directed, padding, seed


def _attributed_graph(rng, n):
    w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.4), 1)
    return Graph(w + w.T, node_attrs=rng.normal(size=(n, 2)))


@st.composite
def _cost_blocks(draw):
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 6))
    entries = draw(st.lists(st.floats(-10.0, 10.0), min_size=n1 * n2,
                            max_size=n1 * n2))
    return np.array(entries).reshape(n1, n2)


@st.composite
def _partial_matchings(draw):
    n1 = draw(st.integers(0, 6))
    n2 = draw(st.integers(0, 6))
    k = draw(st.integers(0, min(n1, n2)))
    rows = draw(st.permutations(range(n1)))[:k]
    cols = draw(st.permutations(range(n2)))[:k]
    return np.array(rows, dtype=int), np.array(cols, dtype=int), n1, n2


class TestRealBlock:
    """Frank-Wolfe on the real n2 x n1 block against the padded problem."""

    @settings(max_examples=200, deadline=None)
    @given(_cost_blocks(), st.booleans())
    def test_vertex_matches_padded_lap(self, c, two_way):
        # two-way padding (n1 + n2 slots) allows a partial assignment,
        # one-way padding (max(n1, n2) slots) forces a complete one; the
        # smaller side comes first, as Frank-Wolfe orients every pair
        if c.shape[0] > c.shape[1]:
            c = c.T
        n1, n2 = c.shape
        m = n1 + n2 if two_way else max(n1, n2)
        padded = np.zeros((m, m))
        padded[:n1, :n2] = c
        rows, cols = _lap_raw(padded)
        vr, vc = _kept(_vertex(c, partial=two_way))
        assert len(set(vr.tolist())) == len(vr) and len(set(vc.tolist())) == len(vc)
        if two_way:
            assert np.all(c[vr, vc] < 0.0)
        else:
            assert len(vr) == min(n1, n2)
        assert math.isclose(c[vr, vc].sum(), padded[rows, cols].sum(),
                            rel_tol=1e-12, abs_tol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(_partial_matchings())
    def test_lift_is_bijection_parking_unmatched_on_null_slots(self, case):
        rows, cols, n1, n2 = case
        if n1 > n2:  # the smaller side comes first
            rows, cols, n1, n2 = cols, rows, n2, n1
        (perm,) = _lifts(_slots(rows, cols, n1)[None], n2, n1 + n2)
        assert_lift_rule(perm, rows, cols, n1, n2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_null_average_scores_every_permutation(self, n1, n2, two_way, seed):
        # <P_avg, Q> = const + sum of the weights over Q's real-to-real pairs,
        # where P_avg is a doubly stochastic P averaged over null relabelings
        rng = np.random.default_rng(seed)
        m = n1 + n2 if two_way else max(n1, n2)
        p = np.zeros((m, m))
        for w in rng.dirichlet(np.ones(3)):
            p[rng.permutation(m), np.arange(m)] += w
        avg = p.copy()
        avg[:n2, n1:] = p[:n2, n1:].mean(axis=1, keepdims=True) if m > n1 else 0.0
        avg[n2:, :n1] = p[n2:, :n1].mean(axis=0, keepdims=True) if m > n2 else 0.0
        avg[n2:, n1:] = p[n2:, n1:].mean() if m > n1 and m > n2 else 0.0
        weights = _null_average(p[:n2, :n1], m)
        offsets = []
        for _ in range(5):
            q = rng.permutation(m)
            real = np.flatnonzero((np.arange(m) < n1) & (q < n2))
            offsets.append(avg[q, np.arange(m)].sum() - weights[q[real], real].sum())
        assert np.allclose(offsets, offsets[0], atol=1e-9)

    @pytest.mark.parametrize("lam, pinned_hits", [(0.5, 50), (2.0, 60)])
    def test_attributed_two_way_oracle_gap(self, lam, pinned_hits):
        # 60 attributed pairs of 2-5 nodes per side (at most 8 padded), scored
        # against the brute-force optimum of the same two-way padded pair.
        # The pinned hit counts are those of the padded Frank-Wolfe solver.
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(60):
            n1 = int(rng.integers(2, 6))
            n2 = int(rng.integers(2, 9 - n1))
            g1, g2 = _attributed_graph(rng, n1), _attributed_graph(rng, n2)
            res = graph_distance(g1, g2, MatchConfig(lam=lam))
            oracle = graph_distance(g1, g2, MatchConfig(lam=lam, solver="brute"))
            gap = res.objective - oracle.objective
            assert gap >= -1e-9
            hits += gap <= 1e-9 * (1.0 + oracle.objective)
        assert hits >= pinned_hits


def _settled(objectives, steps, tol):
    """The trace without a last step that changed the objective by at most
    ``tol``.  Near a stationary point the size of that step is set by the
    rounding of the line search's slope, which may also round to a zero
    step, ending the run one step earlier."""
    objectives, steps = list(objectives), list(steps)
    if steps and abs(objectives[-1] - objectives[-2]) <= tol * max(1.0, abs(objectives[-2])):
        return objectives[:-1], steps[:-1]
    return objectives, steps


class TestTrackedProducts:
    """The products the Frank-Wolfe loop and the two-exchange sweep update
    in place of recomputing, against references that recompute them."""

    @settings(max_examples=150, deadline=None)
    @given(_seeded_pairs(), st.sampled_from(["barycenter", "identity"]))
    def test_faq_descent_matches_four_product_loop(self, pair, faq_init):
        g1, g2, lam, directed, padding, seed = pair
        if g1.n > g2.n:  # the smaller graph comes first, as in graph_distance
            g1, g2 = g2, g1
        cfg = MatchConfig(lam=lam, padding=padding, faq_init=faq_init, restarts=1,
                          seed=seed)
        g1p, g2p = pad_pair(g1, g2, padding)
        n1, n2, size = g1.n, g2.n, g1p.n
        d = node_distance_matrix(g1p, g2p)[:n1, :n2] if lam else None
        for p0 in _faq_inits(cfg, size):
            args = (g1.adjacency, g2.adjacency, d, lam, p0[:n2, :n1], cfg.max_iter,
                    cfg.tol, size)
            chosen = []

            def spy(vertex):
                def chosen_vertex(*args):
                    chosen.append(vertex(*args))
                    return chosen[-1]
                return chosen_vertex

            with pytest.MonkeyPatch.context() as mp:
                # a flat start's first vertex comes in closed form
                mp.setattr(matching, "_vertex", spy(_vertex))
                mp.setattr(matching, "_rank_one_vertex", spy(_rank_one_vertex))
                perm, objectives, steps, converged = _faq_descent(*args, directed)
            # the last call projects the final iterate back to a permutation
            ref_perm, ref_objectives, ref_steps, ref_converged = (
                four_product_faq_descent(*args, iter(chosen)))
            got = _settled(objectives, steps, cfg.tol)
            want = _settled(ref_objectives, ref_steps, cfg.tol)
            assert [len(v) for v in got] == [len(v) for v in want]
            for x, y in zip(got[0] + got[1], want[0] + want[1]):
                assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
            assert converged == ref_converged
            assert np.array_equal(perm, ref_perm)

    @settings(max_examples=150, deadline=None)
    @given(_seeded_pairs())
    def test_swap_deltas_are_objective_changes(self, pair):
        g1, g2, lam, directed, padding, seed = pair
        g1p, g2p = pad_pair(g1, g2, padding)
        a1, a2, n = g1p.adjacency, g2p.adjacency, g1p.n
        d = node_distance_matrix(g1p, g2p) if lam else None
        perm = np.random.default_rng(seed).permutation(n)
        base = objective_value(a1, a2, d, lam, perm)
        deltas = _swap_deltas(a1, a2, d, lam, perm, directed)
        assert np.all(np.isinf(np.diag(deltas)))
        for a, b in zip(*np.nonzero(np.isfinite(deltas))):
            swapped = perm.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            change = objective_value(a1, a2, d, lam, swapped) - base
            assert abs(deltas[a, b] - change) <= 1e-9 * (1.0 + abs(base))


@st.composite
def _stacks(draw):
    """(a1, a2, d, lam, size, directed, seed): a stack of 1-6 random pairs
    of one shape (1-12 nodes per side, so vertices reach the 9 pairs from
    which numpy sums in blocks), padded as drawn, with node costs."""
    directed = draw(st.booleans())
    padding = draw(st.sampled_from(["two_way", "one_way", "none"]))
    n1 = draw(st.integers(1, 12))
    n2 = n1 if padding == "none" else draw(st.integers(1, 12))
    b = draw(st.integers(1, 6))
    lam = draw(st.sampled_from([0.0, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def adjacency(n):
        w = rng.normal(size=(b, n, n)) * (rng.random((b, n, n)) < 0.7)
        w[:, np.arange(n), np.arange(n)] = 0.0
        return w if directed else np.triu(w, 1) + np.swapaxes(np.triu(w, 1), 1, 2)

    size = _padded_size(padding, n1, n2)
    return adjacency(n1), adjacency(n2), rng.random((b, size, size)), lam, size, directed, seed


def _padded(a, size):
    out = np.zeros((len(a), size, size))
    out[:, :a.shape[1], :a.shape[1]] = a
    return out


class TestStacks:
    """Each entry of a stacked Frank-Wolfe run or two-exchange equals the
    run of that entry alone, the stack of one behind ``_faq_descent`` and
    ``greedy_two_exchange``, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(_stacks(), st.sampled_from([1, 2, 3, 100]), st.booleans())
    def test_faq_stack_entries_run_as_alone(self, stack, max_iter, random_starts):
        a1, a2, d, lam, size, directed, seed = stack
        b, n1, n2 = len(a1), a1.shape[1], a2.shape[1]
        rng = np.random.default_rng(seed + 1)
        if random_starts:
            p0 = np.eye(size)[rng.permutation(size)][:n2, :n1]
        else:
            p0 = np.full((n2, n1), 1.0 / size)
        d = d[:, :n1, :n2]
        if n1 > n2:  # the smaller side comes first
            a1, a2, d, p0 = a2, a1, d.swapaxes(1, 2), p0.T
        got = _faq_stack(a1, a2, d, lam, p0, max_iter, 1e-8, size, directed)
        for e in range(b):
            perm, objectives, steps, converged = _faq_descent(
                a1[e], a2[e], d[e], lam, p0, max_iter, 1e-8, size, directed)
            assert np.array_equal(got[e][0], perm)
            assert got[e][1:] == (objectives, steps, converged)

    def test_faq_stack_entries_stop_apart(self):
        # one stack whose entries stop after different numbers of steps,
        # one of them at max_iter without converging
        rng = np.random.default_rng(8)
        a1 = np.stack([random_symmetric_graph(5, rng).adjacency for _ in range(8)])
        a2 = np.stack([random_symmetric_graph(5, rng).adjacency for _ in range(8)])
        p0 = np.full((5, 5), 0.1)
        got = _faq_stack(a1, a2, None, 0.0, p0, 4, 1e-8, 10, False)
        assert len({len(steps) for _, _, steps, _ in got}) > 1
        assert {converged for *_, converged in got} == {True, False}
        for e in range(8):
            alone = _faq_descent(a1[e], a2[e], None, 0.0, p0, 4, 1e-8, 10, False)
            assert np.array_equal(got[e][0], alone[0]) and got[e][1:] == alone[1:]

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_two_exchange_stack_entries_run_as_alone(self, stack):
        a1, a2, d, lam, size, directed, seed = stack
        a1, a2 = _padded(a1, size), _padded(a2, size)
        d = d if lam else None
        rng = np.random.default_rng(seed + 1)
        perms = [rng.permutation(size) for _ in range(len(a1))]
        objs = [objective_value(a1[e], a2[e], None if d is None else d[e], lam, perms[e])
                for e in range(len(a1))]
        got = _two_exchange_stack(a1, a2, d, lam, perms, objs, directed)
        for e, (perm, objectives, obj) in enumerate(got):
            alone = greedy_two_exchange(a1[e], a2[e], None if d is None else d[e], lam,
                                        perms[e], objs[e], directed)
            assert np.array_equal(perm, alone[0])
            assert (objectives, obj) == alone[1:]


_COEFFICIENTS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e-300, -1e-300, 1e-12]))


@st.composite
def _face_quadratics(draw):
    """(b1, b2, a11, a12, a22) of a quadratic over the weights of a triangle:
    free coefficients (indefinite, flat or definite), or those of a
    degenerate triangle, whose directions R2 = -c R1 are collinear."""
    b1, b2 = draw(_COEFFICIENTS), draw(_COEFFICIENTS)
    if draw(st.booleans()):
        return b1, b2, draw(_COEFFICIENTS), draw(_COEFFICIENTS), draw(_COEFFICIENTS)
    a, c = draw(_COEFFICIENTS), draw(st.floats(0.0, 10.0))
    return b1, -c * b1 if draw(st.booleans()) else b2, a, -2.0 * c * a, c * c * a


class TestFaceSteps:
    """The exact step over the face a Frank-Wolfe run zig-zags on."""

    @settings(max_examples=500, deadline=None)
    @given(_face_quadratics())
    def test_face_weights_minimize_over_the_triangle(self, coefs):
        b1, b2, a11, a12, a22 = coefs

        def phi(w, v):
            return b1 * w + b2 * v + a11 * w * w + a12 * w * v + a22 * v * v

        alpha, beta = _face_weights(*coefs)
        assert alpha >= 0.0 and beta >= 0.0 and alpha + beta <= 1.0
        best = phi(alpha, beta)
        slack = 1e-9 * (1.0 + sum(abs(c) for c in coefs))
        grid = [(i / 20, j / 20) for i in range(21) for j in range(21 - i)]
        for w, v in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), *grid]:
            assert best <= phi(w, v) + slack

    @pytest.mark.parametrize("kind", ["undirected", "directed", "attributed"])
    def test_zigzag_pairs_converge(self, monkeypatch, kind):
        # each pair runs all max_iter steps, unconverged, without face steps
        g1, g2, lam = _zigzag_pair(kind)
        faces, face_step = [], matching._face_step
        monkeypatch.setattr(matching, "_face_step",
                            lambda *args: faces.append(1) or face_step(*args))
        cfg = MatchConfig(lam=lam)
        trace = graph_distance(g1, g2, cfg).solver_trace
        assert faces and trace.converged and trace.iterations < cfg.max_iter

    @pytest.mark.parametrize("kind", ["undirected", "directed", "attributed"])
    def test_zigzag_entry_of_a_stack_runs_as_alone(self, kind):
        g1, g2, lam = _zigzag_pair(kind)
        rng = np.random.default_rng(12)
        pairs = [(g1, g2)] + [(_like(g1, rng), _like(g2, rng)) for _ in range(3)]
        if g1.n > g2.n:  # the smaller graph comes first, as in graph_distance
            g1, g2 = g2, g1
            pairs = [(b, a) for a, b in pairs]
        size = g1.n + g2.n
        a1 = np.stack([a.adjacency for a, _ in pairs])
        a2 = np.stack([b.adjacency for _, b in pairs])
        d = np.stack([node_distance_matrix(*pad_pair(a, b, "two_way"))[:g1.n, :g2.n]
                      for a, b in pairs]) if lam else None
        p0 = np.full((g2.n, g1.n), 1.0 / size)
        got = _faq_stack(a1, a2, d, lam, p0, 100, 1e-8, size, g1.directed)
        assert got[0][3] and len(got[0][2]) < 100
        for e in range(len(pairs)):
            alone = _faq_descent(a1[e], a2[e], None if d is None else d[e], lam, p0,
                                 100, 1e-8, size, g1.directed)
            assert np.array_equal(got[e][0], alone[0]) and got[e][1:] == alone[1:]


def _zigzag_pair(kind):
    """A pair whose barycenter Frank-Wolfe run, under the default config,
    alternates between two vertices until max_iter unless it steps over
    their face: graphs 0 and 25 of ``graphspace generate --family binomial
    --sizes 10 16 --count 30 --seed 0``; graphs 0 and 27 with each edge
    given a seeded direction; graphs 0 and 18 with seeded normal
    attributes, at lambda 0.1."""
    graphs = {i: generate("binomial", (10, 16), trial_rng(0, i)) for i in (0, 18, 25, 27)}
    if kind == "undirected":
        return graphs[0], graphs[25], 0.0
    if kind == "directed":
        def oriented(i):
            a = np.triu(graphs[i].adjacency, 1)
            up = np.random.default_rng(i).random(a.shape) < 0.5
            return Graph(np.where(up, a, 0.0) + np.where(up, 0.0, a).T, directed=True)
        return oriented(0), oriented(27), 0.0
    def attributed(i):
        g = graphs[i]
        return Graph(g.adjacency, node_attrs=trial_rng(100, i).normal(size=(g.n, 2)))
    return attributed(0), attributed(18), 0.1


def _like(g, rng):
    """A random graph of ``g``'s size, directedness and attribute dimension."""
    w = (rng.random((g.n, g.n)) < 0.5).astype(float)
    np.fill_diagonal(w, 0.0)
    if not g.directed:
        w = np.triu(w, 1) + np.triu(w, 1).T
    attrs = None if g.node_attrs is None else rng.normal(size=g.node_attrs.shape)
    return Graph(w, node_attrs=attrs, directed=g.directed)


@st.composite
def _row_sums(draw):
    """(r1, r2, t1, t2): signed integer row sums (many ties) or real ones,
    0-7 nodes per side, with tie keys on a grid of 3 values."""
    n1, n2 = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = (st.integers(-3, 3).map(float) if draw(st.booleans()) else
              st.floats(-5.0, 5.0).filter(lambda x: x == 0.0 or abs(x) > 1e-6))
    keys = st.integers(0, 2).map(float)

    def vector(n, elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    return vector(n1, values), vector(n2, values), vector(n1, keys), vector(n2, keys)


class TestFlatStart:
    """The closed-form first vertex of a flat Frank-Wolfe start."""

    @settings(max_examples=500, deadline=None)
    @given(_row_sums(), st.booleans())
    def test_rank_one_vertex_is_an_optimal_assignment(self, sums, partial):
        # the cost -r1 r2^T against scipy on the same cost, zero-padded to a
        # square under partial assignment, as two-way padding does
        r1, r2, t1, t2 = sums
        if len(r1) > len(r2):  # the smaller side comes first
            r1, r2, t1, t2 = r2, r1, t2, t1
        n1, n2 = len(r1), len(r2)
        c = -np.outer(r1, r2)
        rows, cols = _kept(_rank_one_vertex(r1, r2, t1, t2, partial))
        assert np.all(np.diff(rows) > 0) and len(set(cols.tolist())) == len(cols)
        assert np.all((0 <= cols) & (cols < n2)) and np.all((0 <= rows) & (rows < n1))
        if partial:
            assert np.all(c[rows, cols] < 0.0)
            padded = np.zeros((n1 + n2, n1 + n2))
            padded[:n1, :n2] = c
            c_opt = padded
        else:
            assert len(rows) == min(n1, n2)
            c_opt = c
        best = c_opt[linear_sum_assignment(c_opt)].sum()
        assert math.isclose(c[rows, cols].sum(), best, rel_tol=1e-12, abs_tol=1e-9)

    def test_path_letters_register_exactly(self):
        # two isomorphic 4-node path letters: graphs 4 and 15 of ``graphspace
        # generate --family letter_like --count 16 --seed 201 --node-drop
        # 0.2``, which the default config once registered at J = 4
        g4, g15 = (generate("letter_like", (2, 5), trial_rng(201, i), node_drop=0.2)
                   for i in (4, 15))
        assert g4.n == g15.n == 4
        d, res, _ = symmetric_match(g4, g15)
        assert res.objective == 0.0 and d == 0.0


@st.composite
def _cost_stacks(draw):
    """(B, n1, n2) costs of 0-6 nodes per side on a grid of 5 values, so
    that exact ties, zero costs and entries without a negative cost occur."""
    b = draw(st.integers(1, 5))
    n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1.0]),
                            min_size=b * n1 * n2, max_size=b * n1 * n2))
    return np.array(entries).reshape(b, n1, n2)


@st.composite
def _vertex_stacks(draw):
    """(rows, cols, keep, n1, n2, size): B vertices as LAP pairs, rows
    ascending, with keep masks under two-way padding and none under one-way."""
    b = draw(st.integers(1, 5))
    n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    two_way = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(n1, n2)
    rows = np.stack([np.sort(rng.permutation(n1)[:k]) for _ in range(b)])
    cols = np.stack([rng.permutation(n2)[:k] for _ in range(b)])
    keep = rng.random((b, k)) < 0.6 if two_way else None
    return rows, cols, keep, n1, n2, n1 + n2 if two_way else max(n1, n2)


class TestStackedHelpers:
    """The whole-stack vertex, lift and scoring helpers against the
    per-entry functions they replace in a stack, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(_cost_stacks(), st.booleans())
    def test_vertices_are_per_entry_vertices(self, c, partial):
        if c.shape[1] > c.shape[2]:  # the smaller side comes first
            c = c.swapaxes(1, 2)
        slots = _vertices(c, partial)
        assert slots.shape == c.shape[:2] and (partial or np.all(slots >= 0))
        for e, x in enumerate(c):
            assert np.array_equal(slots[e], _vertex(x, partial))

    @settings(max_examples=200, deadline=None)
    @given(_vertex_stacks())
    def test_lifts_are_per_entry_lifts(self, case):
        rows, cols, keep, n1, n2, size = case
        if n1 > n2:  # the smaller side comes first
            rows, cols, n1, n2 = cols, rows, n2, n1
        kept = np.ones(rows.shape, dtype=bool) if keep is None else keep
        slots = np.stack([_slots(r[k], c[k], n1) for r, c, k in zip(rows, cols, kept)])
        perms = _lifts(slots, n2, size)
        assert perms.shape == (len(rows), size)
        for e in range(len(rows)):
            assert_lift_rule(perms[e], *_kept(slots[e]), n1, n2)
            alone = _lifts(slots[e:e + 1], n2, size)[0]
            assert perms[e].dtype == alone.dtype == np.int64
            assert perms[e].tobytes() == alone.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_objective_values_are_objective_value(self, stack):
        a1, a2, d, lam, size, _, seed = stack
        a1, a2 = _padded(a1, size), _padded(a2, size)
        rng = np.random.default_rng(seed + 1)
        perms = np.stack([rng.permutation(size) for _ in range(len(a1))])
        for lam_ in (0.0, lam, 2.5):
            got = _objective_values(a1, a2, d, lam_, perms)
            for e in range(len(a1)):
                assert got[e] == objective_value(a1[e], a2[e], d[e], lam_, perms[e])


class TestGraphDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(12)
        g = random_symmetric_graph(6, rng)
        res = graph_distance(g, g, MatchConfig())
        assert res.d_g == 0.0

    def test_orbit_membership_gives_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            g = random_symmetric_graph(n, rng)
            res = graph_distance(g, permute(g, rng.permutation(n)), MatchConfig())
            assert res.d_g == 0.0

    def test_two_node_exact_value(self):
        g1 = Graph([[0.0, 1.0], [1.0, 0.0]])
        g2 = Graph([[0.0, 3.0], [3.0, 0.0]])
        res = graph_distance(g1, g2, MatchConfig(solver="brute", padding="none"))
        assert res.d_g == math.sqrt(8.0)

    def test_padding_none_requires_equal_sizes(self):
        with pytest.raises(ValueError, match="equal sizes"):
            graph_distance(
                Graph(np.zeros((2, 2))),
                Graph(np.zeros((3, 3))),
                MatchConfig(padding="none"),
            )

    @pytest.mark.parametrize("solver", ["faq", "umeyama", "brute"])
    @pytest.mark.parametrize("padding", ["two_way", "one_way", "none"])
    def test_directed_against_undirected_rejected(self, padding, solver):
        rng = np.random.default_rng(18)
        directed = random_directed_graph(3, rng)
        undirected = random_symmetric_graph(3, rng)
        cfg = MatchConfig(solver=solver, padding=padding)
        for g1, g2 in ((directed, undirected), (undirected, directed)):
            with pytest.raises(ValueError, match="directed graph against an undirected"):
                graph_distance(g1, g2, cfg)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("solver", ["faq", "brute"])
    @pytest.mark.parametrize("padding, per_lam", [
        ("two_way", 0.0),  # every real node parks on a null slot
        ("one_way", 30_000.0),  # equal sizes: no null slot to park on
        ("none", 30_000.0),
    ])
    def test_real_nodes_park_on_null_slots_only_two_way(self, padding, per_lam, solver, lam):
        g1 = Graph(np.zeros((3, 3)), node_attrs=np.zeros((3, 1)))
        g2 = Graph(np.zeros((3, 3)), node_attrs=np.full((3, 1), 100.0))
        res = graph_distance(g1, g2, MatchConfig(lam=lam, solver=solver, padding=padding))
        assert res.objective == lam * per_lam

    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_overflowing_edge_weights_name_the_argument(self, name):
        # squared weights past the float limit would make the objective
        # infinite; the pair is refused before numpy can warn
        big, small = Graph([[0.0, 1e200], [1e200, 0.0]]), Graph([[0.0, 1.0], [1.0, 0.0]])
        pair = (big, small) if name == "g1" else (small, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"edge weights of {name} are too large"):
                graph_distance(*pair)

    @pytest.mark.parametrize("padding", ["two_way", "one_way"])
    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_overflowing_node_costs_name_the_argument(self, name, padding):
        # one-node graphs at the float limit: their node cost overflows at
        # lambda > 0, so the pair is refused before numpy can warn; at
        # lambda 0 the rule does not weigh attributes
        big, other = Graph([[0.0]], node_attrs=[[1e308]]), Graph([[0.0]], node_attrs=[[-1.0]])
        pair = (big, other) if name == "g1" else (other, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"node attributes of {name} are too large"):
                graph_distance(*pair, MatchConfig(lam=1.0, padding=padding))
            assert graph_distance(*pair, MatchConfig(padding=padding)).objective == 0.0

    def test_attribute_rule_weighs_lambda_above_one(self):
        # squared attribute norms of 0.6 times the limit pass at lambda <= 1,
        # where the rule weighs them by 1, and the node cost stays finite
        x = math.sqrt(0.6 * _MAX_SQUARED_WEIGHT)
        g1, g2 = Graph([[0.0]], node_attrs=[[x]]), Graph([[0.0]], node_attrs=[[-x]])
        for lam in (1e-3, 1.0):
            res = graph_distance(g1, g2, MatchConfig(lam=lam, padding="none"))
            assert math.isfinite(res.objective) and res.objective > 0.0
        with pytest.raises(ValueError, match="node attributes of g1 are too large"):
            graph_distance(g1, g2, MatchConfig(lam=2.0, padding="none"))

    def test_lambda_requires_attributes(self):
        g = Graph(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="attributes"):
            graph_distance(g, g, MatchConfig(lam=1.0))

    def test_brute_metric_axioms_small(self):
        rng = np.random.default_rng(14)
        cfg = MatchConfig(solver="brute", padding="none")
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = random_symmetric_graph(n, rng)
            b = random_symmetric_graph(n, rng)
            c = random_symmetric_graph(n, rng)
            dab = graph_distance(a, b, cfg).d_g
            dba = graph_distance(b, a, cfg).d_g
            dac = graph_distance(a, c, cfg).d_g
            dcb = graph_distance(c, b, cfg).d_g
            assert dab == dba
            assert dab <= dac + dcb + 1e-9

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("padding", ["two_way", "one_way", "none"])
    def test_brute_is_its_first_co_optimum_with_or_without_refinement(self, padding, directed):
        # the result is the search's own: its first tie, its exact minimum
        # (bit for bit that of objective_value) and the trace of no steps
        rng = np.random.default_rng(19)
        for k in range(12):
            n1 = int(rng.integers(1, 5))
            n2 = n1 if padding == "none" else int(rng.integers(1, 5))
            if k % 2:  # 0/1 weights and no attributes: many ties
                w1, w2 = ((rng.random((n, n)) < 0.5) * (1.0 - np.eye(n)) for n in (n1, n2))
                if not directed:
                    w1, w2 = (np.triu(w, 1) + np.triu(w, 1).T for w in (w1, w2))
                g1, g2, lam = Graph(w1, directed=directed), Graph(w2, directed=directed), 0.0
            else:
                g1, g2, lam = _attributed_graph(rng, n1), _attributed_graph(rng, n2), 0.7
                if directed:
                    g1, g2 = (Graph(g.adjacency + np.triu(rng.random((g.n, g.n)), 1),
                                    node_attrs=g.node_attrs, directed=True) for g in (g1, g2))
            g1p, g2p = pad_pair(g1, g2, padding)
            d = node_distance_matrix(g1p, g2p) if lam else None
            plain, refined = (
                graph_distance(g1, g2, MatchConfig(lam=lam, solver="brute", padding=padding,
                                                   refinement=refinement))
                for refinement in (False, True))
            for res in (plain, refined):
                assert res.p.perm.tolist() == res.co_optimal[0].perm.tolist()
                assert res.n_co_optimal >= len(res.co_optimal) >= 1
                assert res.solver_trace == SolverTrace("brute", 0)
                assert res.objective == objective_value(g1p.adjacency, g2p.adjacency, d, lam,
                                                        res.p.perm)
            assert refined.p.perm.tolist() == plain.p.perm.tolist()
            assert refined.objective == plain.objective
            assert refined.solver_trace == plain.solver_trace
            assert refined.n_co_optimal == plain.n_co_optimal
            assert ([t.perm.tolist() for t in refined.co_optimal]
                    == [t.perm.tolist() for t in plain.co_optimal])


def _floor_pair(kind, directed, rng):
    """A graph and a relabeled copy: ``planted`` as is, ``perturbed`` with
    edge noise, ``attributed`` with node attributes, noisy in about half
    the draws.  Edges weigh 1/4, so a start that misplaces a few of them
    can score below 1 and still lose to a later one."""
    n = int(rng.integers(4, 9))
    w = 0.25 * (rng.random((n, n)) < 0.5)
    noise = rng.normal(scale=0.1, size=(n, n)) * (kind == "perturbed")
    if not directed:
        w, noise = np.triu(w, 1), np.triu(noise, 1)
        w, noise = w + w.T, noise + noise.T
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(noise, 0.0)
    attrs = attrs2 = None
    if kind == "attributed":
        attrs = rng.normal(size=(n, 2))
        attrs2 = attrs + rng.normal(scale=0.1, size=(n, 2)) * int(rng.integers(2))
    g2 = Graph(w + noise, node_attrs=attrs2, directed=directed)
    return Graph(w, node_attrs=attrs, directed=directed), permute(g2, rng.permutation(n))


@st.composite
def _unequal_pairs(draw):
    """(g1, g2, cfg): a seeded pair of unequal sizes in either order, of
    binomial, heavy-tailed or letter graphs, undirected or directed (each
    edge given a seeded direction), with a Frank-Wolfe config without
    refinement: lambda 0 or 0.7, two-way or one-way padding, and the
    barycenter, the identity or two restarts."""
    family = draw(st.sampled_from(["binomial", "full_heavy_tailed", "letter_like"]))
    directed, lam = draw(st.booleans()), draw(st.sampled_from([0.0, 0.7]))
    padding = draw(st.sampled_from(["two_way", "one_way"]))
    start = draw(st.sampled_from([{}, {"faq_init": "identity"}, {"restarts": 2}]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if family == "letter_like":
        # a full 5-node letter and one cut to 2-4 nodes
        big, small = (generate(family, (0, 0), rng, node_drop=0.0) for _ in range(2))
        k = draw(st.integers(2, 4))
        sizes = [(big.adjacency, big.node_attrs),
                 (small.adjacency[:k, :k], small.node_attrs[:k])]
    else:
        n1 = draw(st.integers(2, 9))
        n2 = n1 + draw(st.integers(1, 5))
        sizes = [(g.adjacency, rng.normal(size=(g.n, 2)))
                 for g in (generate(family, (n, n), rng) for n in (n1, n2))]
    if draw(st.booleans()):
        sizes.reverse()

    def graph(adjacency, attrs):
        if directed:
            upper = np.triu(adjacency, 1)
            up = rng.random(upper.shape) < 0.5
            adjacency = np.where(up, upper, 0.0) + np.where(up, 0.0, upper).T
        return Graph(adjacency, node_attrs=attrs, directed=directed)

    cfg = MatchConfig(lam=lam, padding=padding, seed=seed % 1000, **start)
    return *(graph(*x) for x in sizes), cfg


class TestArgumentOrder:
    """Frank-Wolfe registers the smaller graph into the larger, so without
    refinement the two argument orders of an unequal-size pair are one run."""

    @staticmethod
    def assert_one_run(g1, g2, cfg):
        a, b = graph_distance(g1, g2, cfg), graph_distance(g2, g1, cfg)
        assert np.array_equal(np.argsort(a.p.perm), b.p.perm)
        assert a.objective.hex() == b.objective.hex()
        assert a.solver_trace == b.solver_trace
        return a

    @settings(max_examples=150, deadline=None)
    @given(_unequal_pairs())
    def test_swapped_pair_gives_the_inverse_registration(self, case):
        self.assert_one_run(*case)

    def test_larger_first_pair_runs_smaller_first(self):
        # graphs 46 and 47 of trial seed 77 (12 and 6 nodes), which the
        # default config once registered at J = 52 and J = 56 in the two orders
        g1, g2 = (generate("binomial", (4, 14), trial_rng(77, i)) for i in (46, 47))
        assert (g1.n, g2.n) == (12, 6)
        assert self.assert_one_run(g1, g2, MatchConfig()).objective == 56.0


class TestFloorRule:
    """No permutation scores J < 0, so the Frank-Wolfe starts stop once a
    candidate scores J = 0, with the result of running them all."""

    def test_one_run_when_the_first_start_scores_zero(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _faq_descent(*args)

        monkeypatch.setattr(matching, "_faq_descent", counted)
        rng = np.random.default_rng(31)
        g = random_symmetric_graph(7, rng)
        res = graph_distance(g, permute(g, rng.permutation(7)),
                             MatchConfig(restarts=5, refinement=True))
        assert (res.objective, res.solver_trace.restart_index) == (0.0, 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("kind", ["planted", "perturbed", "attributed"])
    def test_matches_running_every_start(self, kind, directed):
        rng = np.random.default_rng(32)
        lam = 0.7 if kind == "attributed" else 0.0
        cfg = MatchConfig(lam=lam, restarts=5, refinement=True, seed=4)
        for _ in range(8):
            g1, g2 = _floor_pair(kind, directed, rng)
            g1p, g2p = pad_pair(g1, g2, cfg.padding)
            d = node_distance_matrix(g1p, g2p) if lam else None
            a1, a2 = g1p.adjacency, g2p.adjacency
            best = None
            for index, [(perm, objectives, steps, converged)] in enumerate(
                    list(_faq_rounds(cfg, g1.adjacency, g2.adjacency, d, g1p.n, directed))):
                score = objective_value(a1, a2, d, lam, perm)
                perm, trail, obj = greedy_two_exchange(a1, a2, d, lam, perm, score, directed)
                if best is None or obj < best[0]:
                    best = (obj, perm, SolverTrace("faq", len(steps), objectives, steps,
                                                   converged, index, trail))
            res = graph_distance(g1, g2, cfg)
            assert res.p.perm.tolist() == best[1].tolist()
            assert res.objective == best[0]
            assert res.solver_trace == best[2]


class TestGeodesic:
    def _registered_pair(self, rng, n=5):
        g1 = random_symmetric_graph(n, rng)
        g2 = random_symmetric_graph(n, rng)
        return graph_distance(g1, g2, MatchConfig(solver="brute", padding="none"))

    def test_endpoints_exact(self):
        rng = np.random.default_rng(15)
        m = self._registered_pair(rng)
        assert geodesic(m, 0.0) is m.g1_registered
        assert geodesic(m, 1.0) is m.g2_padded

    def test_midpoint_weight(self):
        g1 = Graph([[0.0, 1.0], [1.0, 0.0]])
        g2 = Graph([[0.0, 3.0], [3.0, 0.0]])
        m = graph_distance(g1, g2, MatchConfig(solver="brute", padding="none"))
        mid = geodesic(m, 0.5)
        assert mid.adjacency[0, 1] == 2.0

    def test_linearity_of_path(self):
        from graphspace import ambient_distance

        rng = np.random.default_rng(16)
        for _ in range(10):
            m = self._registered_pair(rng)
            total = ambient_distance(m.g1_registered, m.g2_padded)
            for t in (0.25, 0.5, 0.75):
                d = ambient_distance(m.g1_registered, geodesic(m, t))
                assert abs(d - t * total) <= 1e-9 * (1.0 + total)

    def test_attribute_interpolation_with_nulls(self):
        g1 = Graph(np.zeros((1, 1)), node_attrs=[[0.0, 0.0]])
        g2 = Graph(np.zeros((2, 2)), node_attrs=[[4.0, 0.0], [0.0, 4.0]])
        m = graph_distance(g1, g2, MatchConfig(solver="brute", padding="one_way", lam=1.0))
        mid = geodesic(m, 0.5)
        # the null slot of g1 starts at its partner's position: no sliding
        null_slot = int(np.flatnonzero(m.g1_registered.null_mask)[0])
        assert np.array_equal(mid.node_attrs[null_slot], m.g2_padded.node_attrs[null_slot])

    def test_t_out_of_range(self):
        rng = np.random.default_rng(17)
        m = self._registered_pair(rng)
        with pytest.raises(ValueError, match="0, 1"):
            geodesic(m, 1.5)
