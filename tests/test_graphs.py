import math

import numpy as np
import pytest

from conftest import random_nonnegative_graph, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    Permutation,
    ambient_distance,
    from_laplacian,
    geodesic,
    graph_distance,
    karcher_mean,
    node_distance_matrix,
    pad_pair,
    pad_to_size,
    permute,
    to_laplacian,
)


class TestConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph([[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_asymmetric_undirected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph([[0.0, 1.0], [2.0, 0.0]])

    def test_directed_allows_asymmetry(self):
        g = Graph([[0.0, 1.0], [2.0, 0.0]], directed=True)
        assert g.directed and g.n == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Graph([[0.0, np.inf], [np.inf, 0.0]])

    def test_rejects_attr_row_mismatch(self):
        with pytest.raises(ValueError, match="one row per node"):
            Graph(np.zeros((3, 3)), node_attrs=[[1.0], [2.0]])

    def test_rejects_non_square_adjacency(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            Graph(np.zeros((2, 3)))

    def test_rejects_attrs_without_columns(self):
        with pytest.raises(ValueError, match="at least one column"):
            Graph(np.zeros((2, 2)), node_attrs=np.zeros((2, 0)))

    def test_rejects_nonfinite_attrs(self):
        with pytest.raises(ValueError, match="node_attrs contains non-finite entries"):
            Graph(np.zeros((2, 2)), node_attrs=[[1.0], [np.nan]])

    def test_rejects_null_mask_of_wrong_length(self):
        with pytest.raises(ValueError, match="null_mask must have length n=2"):
            Graph(np.zeros((2, 2)), null_mask=[False, False, True])

    def test_null_nodes_must_be_isolated(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="null"):
            Graph(adj, null_mask=[True, False])

    def test_null_nodes_must_have_zero_attrs(self):
        with pytest.raises(ValueError, match="null"):
            Graph(np.zeros((2, 2)), node_attrs=[[1.0], [0.0]], null_mask=[True, False])

    def test_arrays_are_read_only(self):
        g = Graph(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 1.0

    def test_derived_graphs_are_read_only_and_valid(self):
        g = Graph([[0.0, 2.0], [2.0, 0.0]], node_attrs=[[1.0], [3.0]])
        tri = Graph([[0.0, 0.3, 0.7], [0.3, 0.0, 0.1], [0.7, 0.1, 0.0]],
                    node_attrs=[[0.5], [2.0], [-1.0]])
        cfg = MatchConfig(lam=0.5)
        match = graph_distance(g, tri, cfg)
        derived = [permute(g, [1, 0]), pad_to_size(g, 4)]
        # the Karcher template, with a slot that only null nodes fill
        mu = karcher_mean([pad_to_size(g, 3), pad_to_size(permute(g, [1, 0]), 3)], cfg).mu
        assert mu.null_mask.tolist() == [False, False, True]
        derived.append(mu)
        derived += [geodesic(match, t) for t in (0.25, 0.5)]
        for h in derived:
            for arr in (h.adjacency, h.node_attrs, h.null_mask):
                assert not arr.flags.writeable
            # these skip validation; the public checks must still pass
            Graph(h.adjacency, node_attrs=h.node_attrs, directed=h.directed,
                  null_mask=h.null_mask)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation([0, 0, 2])

    @pytest.mark.parametrize("perm", [[0.0, 1.7], [True, False], [math.nan, 0.0],
                                      [math.inf, 0.0], np.array([1.5, 0.0]), ["1", "0"],
                                      [True, 0], [0, np.True_, 2], (1.0, False)])
    def test_rejects_non_integer_entries(self, perm):
        with pytest.raises(ValueError, match="entries must be integers"):
            Permutation(perm)

    @pytest.mark.parametrize("perm,expected", [([1.0, 0.0], [1, 0]), ([], []),
                                               (np.array([2, 0, 1], dtype=np.uint8), [2, 0, 1]),
                                               ([np.int64(1), np.uint8(0)], [1, 0]),
                                               ((np.int32(0), 2.0, 1), [0, 2, 1]),
                                               (np.array([], dtype=np.int64), [])])
    def test_integral_entries_accepted(self, perm, expected):
        p = Permutation(perm)
        assert p.perm.tolist() == expected and p.perm.dtype == int

    def test_rejects_two_dimensional_vector(self):
        with pytest.raises(ValueError, match="1-d integer vector"):
            Permutation([[0, 1], [1, 0]])

    def test_compose_rejects_different_sizes(self):
        with pytest.raises(ValueError, match="different sizes"):
            Permutation.identity(2).compose(Permutation.identity(3))

    def test_matrix_orientation(self):
        p = Permutation([1, 2, 0])
        m = p.matrix()
        for i, j in enumerate(p.perm):
            assert m[j, i] == 1.0
        assert np.array_equal(m @ m.T, np.eye(3))

    def test_inverse_and_compose(self):
        rng = np.random.default_rng(0)
        p = Permutation(rng.permutation(7))
        q = p.inverse()
        assert np.array_equal(p.compose(q).perm, np.arange(7))
        assert np.array_equal(q.compose(p).perm, np.arange(7))


class TestPermute:
    def test_identity_returns_equal_graph(self):
        rng = np.random.default_rng(1)
        g = random_symmetric_graph(5, rng)
        out = permute(g, Permutation.identity(5))
        assert np.array_equal(out.adjacency, g.adjacency)
        assert np.array_equal(out.null_mask, g.null_mask)

    def test_symmetric_two_node_edge_invariant_under_swap(self):
        g = Graph([[0.0, 1.0], [1.0, 0.0]])
        out = permute(g, [1, 0])
        assert np.array_equal(out.adjacency, g.adjacency)

    def test_three_node_path_under_cycle(self):
        # path 0-1-2, cycle 0->1, 1->2, 2->0 gives edges (1,2) and (2,0)
        g = Graph([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        out = permute(g, [1, 2, 0])
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert np.array_equal(out.adjacency, expected)

    def test_matches_matrix_conjugation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_symmetric_graph(n, rng)
            p = Permutation.random(n, rng)
            m = p.matrix()
            assert np.array_equal(permute(g, p).adjacency, m @ g.adjacency @ m.T)

    def test_group_law_exact(self):
        rng = np.random.default_rng(3)
        g = random_symmetric_graph(6, rng)
        p = Permutation.random(6, rng)
        q = Permutation.random(6, rng)
        lhs = permute(permute(g, p), q)
        rhs = permute(g, q.compose(p))
        assert np.array_equal(lhs.adjacency, rhs.adjacency)

    def test_reorders_attrs_and_mask(self):
        g = Graph(
            np.zeros((3, 3)),
            node_attrs=[[1.0], [2.0], [0.0]],
            null_mask=[False, False, True],
        )
        out = permute(g, [2, 0, 1])
        assert out.node_attrs[:, 0].tolist() == [2.0, 0.0, 1.0]
        assert out.null_mask.tolist() == [False, True, False]

    def test_size_mismatch_rejected(self):
        g = Graph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="match graph size"):
            permute(g, [0, 1])


class TestPadding:
    def test_two_way_blocks(self):
        rng = np.random.default_rng(4)
        g1 = random_symmetric_graph(2, rng)
        g2 = random_symmetric_graph(3, rng)
        p1, p2 = pad_pair(g1, g2, "two_way")
        assert p1.n == p2.n == 5
        assert np.array_equal(p1.adjacency[:2, :2], g1.adjacency)
        assert np.all(p1.adjacency[2:, :] == 0) and np.all(p1.adjacency[:, 2:] == 0)
        assert np.array_equal(p2.adjacency[:3, :3], g2.adjacency)
        assert np.all(p2.adjacency[3:, :] == 0)
        assert p1.null_mask.tolist() == [False, False, True, True, True]
        assert p2.null_mask.tolist() == [False, False, False, True, True]

    @pytest.mark.parametrize("mode", ["one_way", "none"])
    def test_noop_at_own_size(self, mode):
        rng = np.random.default_rng(5)
        g = random_symmetric_graph(4, rng)
        p1, p2 = pad_pair(g, g, mode)
        assert p1 is g and p2 is g

    def test_none_rejects_unequal_sizes(self):
        rng = np.random.default_rng(6)
        g1 = random_symmetric_graph(4, rng)
        g2 = random_symmetric_graph(2, rng)
        with pytest.raises(ValueError, match="padding 'none' requires equal sizes"):
            pad_pair(g1, g2, "none")

    def test_unknown_mode_rejected(self):
        g = Graph(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="unknown padding mode 'to_size'"):
            pad_pair(g, g, "to_size")

    @pytest.mark.parametrize("mode", ["two_way", "one_way", "none"])
    def test_graph_distance_pads_as_pad_pair(self, mode):
        rng = np.random.default_rng(10)
        g1 = random_symmetric_graph(3, rng)
        g2 = random_symmetric_graph(3 if mode == "none" else 5, rng)
        want = pad_pair(g1, g2, mode)[1]
        got = graph_distance(g1, g2, MatchConfig(padding=mode)).g2_padded
        assert got.n == want.n
        assert np.array_equal(got.null_mask, want.null_mask)

    def test_pad_to_smaller_size_rejected(self):
        with pytest.raises(ValueError, match="cannot pad graph of size 3 down to 2"):
            pad_to_size(Graph(np.zeros((3, 3))), 2)

    def test_pads_attrs_with_zero_rows(self):
        g = Graph(np.zeros((2, 2)), node_attrs=[[1.0, 2.0], [3.0, 4.0]])
        out = pad_to_size(g, 4)
        assert out.node_attrs.shape == (4, 2)
        assert np.all(out.node_attrs[2:] == 0.0)
        assert out.null_mask.tolist() == [False, False, True, True]

    def test_padding_is_distance_neutral(self):
        # zero blocks contribute nothing: padded distance equals the original
        rng = np.random.default_rng(7)
        for _ in range(10):
            g1 = random_symmetric_graph(4, rng)
            g2 = random_symmetric_graph(4, rng)
            p1, p2 = pad_pair(g1, g2, "two_way")
            assert ambient_distance(p1, p2) == ambient_distance(g1, g2)


class TestAmbientDistance:
    def test_identical_graphs(self):
        rng = np.random.default_rng(8)
        g = random_symmetric_graph(5, rng)
        assert ambient_distance(g, g) == 0.0

    def test_two_node_hand_value(self):
        # both ordered entries differ by 2: sqrt(2 * (3-1)^2) = 2*sqrt(2)
        g1 = Graph([[0.0, 1.0], [1.0, 0.0]])
        g2 = Graph([[0.0, 3.0], [3.0, 0.0]])
        assert ambient_distance(g1, g2) == math.sqrt(8.0)

    def test_isometry_under_joint_relabeling(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g1 = random_symmetric_graph(n, rng)
            g2 = random_symmetric_graph(n, rng)
            p = Permutation.random(n, rng)
            d0 = ambient_distance(g1, g2)
            d1 = ambient_distance(permute(g1, p), permute(g2, p))
            assert abs(d1 - d0) <= 1e-12 * (1.0 + d0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            ambient_distance(Graph(np.zeros((2, 2))), Graph(np.zeros((3, 3))))

    def test_directed_against_undirected_rejected(self):
        with pytest.raises(ValueError, match="cannot compare directed with undirected"):
            ambient_distance(Graph(np.zeros((2, 2)), directed=True), Graph(np.zeros((2, 2))))


class TestNodeDistanceMatrix:
    def test_aligned_identical_attrs_zero_diagonal(self):
        attrs = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        g = Graph(np.zeros((3, 3)), node_attrs=attrs)
        d = node_distance_matrix(g, g)
        assert np.all(np.diag(d) == 0.0)

    def test_squared_euclidean_hand_value(self):
        g1 = Graph(np.zeros((1, 1)), node_attrs=[[0.0, 0.0]])
        g2 = Graph(np.zeros((1, 1)), node_attrs=[[3.0, 4.0]])
        assert node_distance_matrix(g1, g2)[0, 0] == 25.0

    def test_extended_zeroes_null_rows_and_columns(self):
        g1 = Graph(np.zeros((1, 1)), node_attrs=[[1.0]])
        g2 = Graph(np.zeros((1, 1)), node_attrs=[[4.0]])
        p1, p2 = pad_pair(g1, g2, "two_way")
        d = node_distance_matrix(p1, p2)
        assert d.shape == (2, 2)
        assert d[0, 0] == 9.0
        assert d[0, 1] == d[1, 0] == d[1, 1] == 0.0

    def test_missing_attrs_rejected(self):
        g1 = Graph(np.zeros((2, 2)))
        g2 = Graph(np.zeros((2, 2)), node_attrs=[[1.0], [2.0]])
        with pytest.raises(ValueError, match="attributes"):
            node_distance_matrix(g1, g2)

    def test_dimension_mismatch_rejected(self):
        g1 = Graph(np.zeros((1, 1)), node_attrs=[[1.0]])
        g2 = Graph(np.zeros((1, 1)), node_attrs=[[1.0, 2.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            node_distance_matrix(g1, g2)


class TestLaplacian:
    def test_single_edge(self):
        g = Graph([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(to_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            g = random_nonnegative_graph(int(rng.integers(2, 10)), rng)
            back = from_laplacian(to_laplacian(g))
            assert np.array_equal(back.adjacency, g.adjacency)

    def test_equivariance_with_relabeling(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            g = random_nonnegative_graph(n, rng)
            p = Permutation.random(n, rng)
            m = p.matrix()
            lhs = to_laplacian(permute(g, p))
            rhs = m @ to_laplacian(g) @ m.T
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_path_correspondence(self):
        # the straight edge path maps to the straight Laplacian path
        rng = np.random.default_rng(12)
        g1 = random_nonnegative_graph(6, rng)
        g2 = random_nonnegative_graph(6, rng)
        l1, l2 = to_laplacian(g1), to_laplacian(g2)
        for t in (0.0, 0.25, 0.5, 1.0):
            mix = Graph((1 - t) * g1.adjacency + t * g2.adjacency)
            assert np.max(np.abs(to_laplacian(mix) - ((1 - t) * l1 + t * l2))) <= 1e-12

    def test_non_isometry_witness(self):
        # regression witness: the Laplacian map changes Frobenius distances
        g1 = Graph([[0.0, 1.0], [1.0, 0.0]])
        g2 = Graph([[0.0, 2.0], [2.0, 0.0]])
        d_adj = np.linalg.norm(g1.adjacency - g2.adjacency)
        d_lap = np.linalg.norm(to_laplacian(g1) - to_laplacian(g2))
        assert d_adj == math.sqrt(2.0)
        assert d_lap == 2.0
        assert d_adj != d_lap

    def test_rejects_negative_weights(self):
        g = Graph([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            to_laplacian(g)

    def test_rejects_directed(self):
        g = Graph([[0.0, 1.0], [2.0, 0.0]], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            to_laplacian(g)

    def test_from_laplacian_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"Laplacian must be square, got shape \(2, 3\)"):
            from_laplacian(np.zeros((2, 3)))

    def test_from_laplacian_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            from_laplacian([[1.0, -1.0], [0.0, 1.0]])

    def test_from_laplacian_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to zero"):
            from_laplacian([[2.0, -1.0], [-1.0, 1.0]])

    def test_from_laplacian_rejects_positive_off_diagonal(self):
        with pytest.raises(ValueError, match="nonpositive"):
            from_laplacian([[-1.0, 1.0], [1.0, -1.0]])
