import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    assignment,
    graph_distance,
    matching,
    node_distance_matrix,
    objective_value,
    pad_pair,
    permute,
)
from graphspace.assignment import _TIE_REPORT_LIMIT


def exhaustive_match(g1, g2, lam):
    """Score every permutation in lexicographic order by ``objective_value``
    (the scan the oracle must agree with): (best perm, objective,
    n_co_optimal, co_optimal)."""
    n = g1.n
    d = node_distance_matrix(g1, g2) if lam != 0.0 else None
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    scores = np.array([objective_value(g1.adjacency, g2.adjacency, d, lam, p) for p in perms])
    idx = np.flatnonzero(scores == scores.min())
    best = perms[idx[0]]
    return best.tolist(), float(scores.min()), len(idx), perms[idx[:_TIE_REPORT_LIMIT]].tolist()


# Few distinct values make ties common; floats exercise rounding.
_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -0.75]),
                     st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False))


@st.composite
def _oracle_pairs(draw):
    """(g1, g2, lam) of at most 7 nodes: directed or not, negative weights,
    attributes when lam > 0, or a two_way-padded pair with null nodes."""
    directed = draw(st.booleans())
    lam = draw(st.sampled_from([0.0, 0.0, 0.5, 2.0]))

    def graph(n):
        a = np.array(draw(st.lists(_WEIGHTS, min_size=n * n, max_size=n * n))).reshape(n, n)
        if not directed:
            a = np.triu(a, k=1)
            a = a + a.T
        np.fill_diagonal(a, 0.0)
        attrs = None
        if lam:
            attrs = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5]),
                                           min_size=n, max_size=n))).reshape(n, 1)
        return Graph(a, node_attrs=attrs, directed=directed)

    if draw(st.booleans()):
        n1 = draw(st.integers(1, 4))
        n2 = draw(st.integers(1, 7 - n1))
        g1, g2 = pad_pair(graph(n1), graph(n2), "two_way")
        return g1, g2, lam
    n = draw(st.integers(0, 7))
    return graph(n), graph(n), lam


@st.composite
def _tie_heavy_pairs(draw):
    """(g1, g2, padding): 0/1 pairs of at most 6 nodes after padding, directed
    or not, unpadded or two_way-padded, so that many permutations tie."""
    directed = draw(st.booleans())
    padding = draw(st.sampled_from(["none", "two_way"]))

    def graph(n):
        a = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                   min_size=n * n, max_size=n * n))).reshape(n, n)
        if not directed:
            a = np.triu(a, k=1)
            a = a + a.T
        np.fill_diagonal(a, 0.0)
        return Graph(a, directed=directed)

    if padding == "none":
        n = draw(st.integers(0, 6))
        return graph(n), graph(n), padding
    return graph(draw(st.integers(0, 3))), graph(draw(st.integers(0, 3))), padding


@st.composite
def _metric_triples(draw):
    """(a, b, c, pi): three equal-size graphs of at most 6 nodes, directed or
    not, with tie-prone or real weights, and a relabeling of ``a``."""
    directed = draw(st.booleans())
    n = draw(st.integers(0, 6))

    def graph():
        a = np.array(draw(st.lists(_WEIGHTS, min_size=n * n, max_size=n * n))).reshape(n, n)
        if not directed:
            a = np.triu(a, k=1)
            a = a + a.T
        np.fill_diagonal(a, 0.0)
        return Graph(a, directed=directed)

    return graph(), graph(), graph(), draw(st.permutations(range(n)))


# A pair whose two best permutations have exact objectives 19.481043282170695
# and 19.4810432821707, apart only in the last bit: a score that rounds them
# alike ties them, and d_g then depends on the labeling
_LAST_BIT_A = Graph([[0.0, 0.0, 2.5], [0.0, 0.0, -1.0], [2.5, -1.0, 0.0]])
_LAST_BIT_B = Graph([[0.0, 0.0, 1.175494351e-38], [0.0, 0.0, -2.868293778045987],
                     [1.175494351e-38, -2.868293778045987, 0.0]])


class TestObjectiveValue:
    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a1 = rng.normal(size=(n, n))
            a2 = rng.normal(size=(n, n))
            d = rng.random((n, n))
            lam = float(rng.random())
            p = rng.permutation(n)
            naive = 0.0
            for i in range(n):
                for j in range(n):
                    naive += (a1[i, j] - a2[p[i], p[j]]) ** 2
                naive += lam * d[i, p[i]]
            got = objective_value(a1, a2, d, lam, p)
            assert abs(got - naive) <= 1e-9 * (1.0 + abs(naive))

    @settings(max_examples=150, deadline=None)
    @given(_oracle_pairs(), st.randoms(use_true_random=False))
    def test_equals_full_matrix_fsum(self, pair, rnd):
        # zero differences are skipped; the correctly rounded sum must not move
        g1, g2, lam = pair
        perm = np.array(rnd.sample(range(g1.n), g1.n), dtype=int)
        d = node_distance_matrix(g1, g2) if lam else None
        diff = g1.adjacency - g2.adjacency[np.ix_(perm, perm)]
        expected = math.fsum((diff * diff).ravel().tolist())
        if lam:
            expected += lam * math.fsum(d[np.arange(g1.n), perm].tolist())
        assert objective_value(g1.adjacency, g2.adjacency, d, lam, perm) == expected


class TestBruteForceMatch:
    def test_self_match_identity(self):
        rng = np.random.default_rng(5)
        g = random_symmetric_graph(5, rng)
        res = oracle(g, g)
        assert res.objective == 0.0
        assert res.p.perm.tolist() == [0, 1, 2, 3, 4]
        assert res.n_co_optimal == 1

    def test_recovers_planted_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_symmetric_graph(n, rng)
            p = rng.permutation(n)
            res = oracle(g, permute(g, p))
            assert res.objective == 0.0
            assert np.array_equal(res.p.perm, p)

    def test_two_node_tie_reported(self):
        g1 = Graph([[0.0, 1.0], [1.0, 0.0]])
        g2 = Graph([[0.0, 3.0], [3.0, 0.0]])
        res = oracle(g1, g2)
        assert res.objective == 8.0
        assert res.n_co_optimal == 2
        assert sorted(t.perm.tolist() for t in res.co_optimal) == [[0, 1], [1, 0]]

    def test_cost_symmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g1 = random_symmetric_graph(n, rng)
            g2 = random_symmetric_graph(n, rng)
            assert oracle(g1, g2).objective == oracle(g2, g1).objective

    def test_with_node_attributes(self):
        # edge-free graphs: the optimum is the assignment oracle on attr costs
        attrs1 = [[0.0], [1.0], [5.0]]
        attrs2 = [[1.1], [4.8], [0.2]]
        g1 = Graph(np.zeros((3, 3)), node_attrs=attrs1)
        g2 = Graph(np.zeros((3, 3)), node_attrs=attrs2)
        lam = 2.0
        res = oracle(g1, g2, lam=lam)
        cost = np.array([[(a[0] - b[0]) ** 2 for b in attrs2] for a in attrs1])
        perm, best = None, None
        for p in itertools.permutations(range(3)):
            tot = sum(cost[i][p[i]] for i in range(3))
            if best is None or tot < best:
                best, perm = tot, p
        assert abs(res.objective - lam * best) <= 1e-12
        assert res.p.perm.tolist() == list(perm)

    def test_all_zero_graphs_tie_over_everything(self):
        g = Graph(np.zeros((3, 3)))
        res = oracle(g, g)
        assert res.n_co_optimal == 6

    def test_ties_are_exact_objective_ties(self):
        # the identity and the swap of nodes 1 and 2 score 19.481043282170695
        # and 19.4810432821707: no tie, whichever graph is relabeled
        for g1, g2 in ((_LAST_BIT_A, _LAST_BIT_B),
                       (permute(_LAST_BIT_A, np.array([0, 2, 1])), _LAST_BIT_B)):
            res = oracle(g1, g2)
            assert res.n_co_optimal == 1
            assert res.objective == 19.481043282170695
            assert [t.perm.tolist() for t in res.co_optimal] == [res.p.perm.tolist()]

    def test_size_guard(self):
        g = Graph(np.zeros((11, 11)))
        with pytest.raises(ValueError, match="refuses"):
            oracle(g, g)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError, match="equal sizes"):
            oracle(Graph(np.zeros((2, 2))), Graph(np.zeros((3, 3))))

    def test_empty_and_single_node(self):
        for n, perm in ((0, []), (1, [0])):
            g = Graph(np.zeros((n, n)))
            res = oracle(g, g)
            assert res.p.perm.tolist() == perm
            assert res.objective == 0.0
            assert res.n_co_optimal == 1
            assert [t.perm.tolist() for t in res.co_optimal] == [perm]

    def test_no_pruning_reports_lexicographic_truncation(self):
        # every permutation ties, so nothing can be pruned
        g = Graph(np.zeros((8, 8)))
        res = oracle(g, g)
        assert res.objective == 0.0
        assert res.n_co_optimal == 40320
        first = list(itertools.islice(itertools.permutations(range(8)), _TIE_REPORT_LIMIT))
        assert [tuple(t.perm.tolist()) for t in res.co_optimal] == first
        # trusted like public permutations: frozen int vectors
        assert all(not t.perm.flags.writeable and t.perm.dtype == int for t in res.co_optimal)
        assert res.p.perm.tolist() == list(range(8))

    @settings(max_examples=150, deadline=None)
    @given(_oracle_pairs())
    def test_equals_exhaustive_scan(self, pair):
        g1, g2, lam = pair
        res = oracle(g1, g2, lam=lam)
        perm, obj, n_ties, ties = exhaustive_match(g1, g2, lam)
        assert res.p.perm.tolist() == perm
        assert res.objective == obj
        assert res.n_co_optimal == n_ties
        assert [t.perm.tolist() for t in res.co_optimal] == ties

    @settings(max_examples=60, deadline=None)
    @given(_tie_heavy_pairs(), st.sampled_from([3, _TIE_REPORT_LIMIT]))
    def test_ties_merge_across_blocks(self, pair, limit):
        # the search yields leaves in blocks of _BLOCK; the minimizer, the
        # listed ties (in order, up to the limit) and their count must not
        # depend on where the block boundaries fall
        g1, g2, padding = pair
        cfg = MatchConfig(solver="brute", padding=padding)
        seen = []
        for block in (1, 3, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(assignment, "_BLOCK", block)
                mp.setattr(assignment, "_TIE_REPORT_LIMIT", limit)
                res = graph_distance(g1, g2, cfg)
            seen.append((res.p.perm.tolist(), [t.perm.tolist() for t in res.co_optimal],
                         res.n_co_optimal, res.objective))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][1][0] == seen[0][0] and len(seen[0][1]) == min(limit, seen[0][2])

    def test_padded_pair_tie_includes_null_swaps(self):
        rng = np.random.default_rng(8)
        g = random_symmetric_graph(2, rng)
        p1, p2 = pad_pair(g, g, "two_way")
        res = oracle(p1, p2)
        assert res.objective == 0.0
        # the two null nodes of each side permute freely: at least 2!*... ties
        assert res.n_co_optimal >= 2

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_oracle_pairs().map(lambda c: (*c, "none")),
                     _tie_heavy_pairs().map(lambda c: (c[0], c[1], 0.0, c[2]))))
    @example((Graph(np.zeros((0, 0))), Graph([[0.0, 1.0], [1.0, 0.0]]), 0.0, "two_way"))
    @example((Graph(np.zeros((3, 3)), directed=True), Graph(np.zeros((0, 0)), directed=True),
              0.0, "two_way"))
    def test_result_does_not_depend_on_incumbent(self, case):
        # the incumbent only prunes: searching without one (ub = inf) must
        # find the same minimizer, objective, ties in order and tie count
        g1, g2, lam, padding = case
        cfg = MatchConfig(solver="brute", padding=padding, lam=lam)
        seeded = graph_distance(g1, g2, cfg)
        search = matching.brute_force_match
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "brute_force_match",
                       lambda a, b, d, lam, ub: search(a, b, d, lam, math.inf))
            unseeded = graph_distance(g1, g2, cfg)
        assert seeded.p.perm.tolist() == unseeded.p.perm.tolist()
        assert seeded.objective == unseeded.objective
        assert ([t.perm.tolist() for t in seeded.co_optimal]
                == [t.perm.tolist() for t in unseeded.co_optimal])
        assert seeded.n_co_optimal == unseeded.n_co_optimal
        assert seeded.solver_trace == unseeded.solver_trace


class TestQuotientMetric:
    """The metric axioms and relabeling invariance of the exact quotient
    distance: equal-size pairs, no padding, no node term."""

    @settings(max_examples=80, deadline=None)
    @given(_metric_triples())
    @example((_LAST_BIT_A, _LAST_BIT_B, Graph(np.zeros((3, 3))), [0, 2, 1]))
    def test_metric_axioms_and_relabeling_invariance(self, triple):
        a, b, c, pi = triple
        pi = np.array(pi, dtype=int)

        def dist(x, y):
            return oracle(x, y).d_g

        assert dist(a, a) == 0.0
        assert dist(a, b) == dist(b, a)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
        assert dist(permute(a, pi), b) == dist(a, b)
        assert dist(a, permute(b, pi)) == dist(a, b)
