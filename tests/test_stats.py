import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphspace.stats as stats_module
from conftest import perturbed_corpus, random_directed_graph, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    components_for_variance,
    fit_gaussian,
    generate,
    graph_pca,
    karcher_mean,
    letter_like,
    pad_to_size,
    permute,
    reconstruct,
    sample_graphs,
    sample_scores,
    truncate_components,
)


class TestKarcherMean:
    def test_single_graph_is_its_own_mean(self):
        rng = np.random.default_rng(0)
        g = random_symmetric_graph(5, rng)
        gm = karcher_mean([g])
        assert np.array_equal(gm.mu.adjacency, g.adjacency)
        assert gm.energy_trace[-1] == 0.0

    def test_two_permuted_copies_zero_energy(self):
        rng = np.random.default_rng(1)
        g = random_symmetric_graph(6, rng)
        g2 = permute(g, rng.permutation(6))
        gm = karcher_mean([g, g2], MatchConfig(refinement=True, restarts=3))
        assert gm.energy_trace[-1] == 0.0
        # the mean is isomorphic to the input (equal as a registered average)
        assert np.allclose(
            sorted(gm.mu.adjacency.ravel()), sorted(g.adjacency.ravel()), atol=1e-12
        )

    def test_energy_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            base = random_symmetric_graph(int(rng.integers(5, 8)), rng)
            corpus = perturbed_corpus(base, 8, rng, scale=0.2)
            gm = karcher_mean(corpus, MatchConfig(refinement=True))
            tr = gm.energy_trace
            for a, b in zip(tr, tr[1:]):
                assert b <= a + 1e-9 * (1.0 + a)

    def test_mean_equals_average_of_registered(self):
        rng = np.random.default_rng(3)
        corpus = perturbed_corpus(random_symmetric_graph(6, rng), 7, rng)
        gm = karcher_mean(corpus, MatchConfig(refinement=True))
        avg = np.mean([r.graph.adjacency for r in gm.registrations], axis=0)
        assert np.max(np.abs(avg - gm.mu.adjacency)) <= 1e-9

    def test_mixed_sizes_one_way_padding(self):
        rng = np.random.default_rng(4)
        corpus = [
            random_symmetric_graph(4, rng),
            random_symmetric_graph(6, rng),
            random_symmetric_graph(5, rng),
        ]
        gm = karcher_mean(corpus, MatchConfig(refinement=True))
        assert gm.mu.n == 6
        assert all(r.graph.n == 6 for r in gm.registrations)

    def test_attribute_averaging_over_real_matches(self):
        # two single-node graphs with attributes: mean attr is their average
        g1 = Graph(np.zeros((1, 1)), node_attrs=[[2.0]])
        g2 = Graph(np.zeros((1, 1)), node_attrs=[[4.0]])
        gm = karcher_mean([g1, g2], MatchConfig(lam=1.0))
        assert gm.mu.node_attrs[0, 0] == 3.0

    def test_all_null_slot_stays_null(self):
        g1 = Graph(np.zeros((1, 1)), node_attrs=[[1.0]])
        big = Graph(
            np.array([[0.0, 1.0], [1.0, 0.0]]), node_attrs=[[1.0], [9.0]]
        )
        gm = karcher_mean([big, g1], MatchConfig(lam=1.0))
        # g1 is padded with one null node; whichever slot collects only
        # nulls must stay null in the mean
        counts = sum((~r.graph.null_mask).astype(int) for r in gm.registrations)
        assert np.array_equal(gm.mu.null_mask, counts == 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            karcher_mean([])

    def test_mixed_directedness_rejected(self):
        g1 = Graph(np.zeros((2, 2)))
        g2 = Graph(np.zeros((2, 2)), directed=True)
        with pytest.raises(ValueError, match="mix"):
            karcher_mean([g1, g2])


def _sparse_graph(n, rng, directed, with_attrs):
    """Random graph with about half its edges, uniform weights, 2-d attributes."""
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    if not directed:
        w = np.triu(w, k=1)
        w = w + w.T
    attrs = rng.normal(size=(n, 2)) if with_attrs else None
    return Graph(w, node_attrs=attrs, directed=directed)


class TestKarcherWarmStart:
    """Later ``faq`` passes start from each sample's current registration."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 5),
        smallest=st.integers(2, 6),
        spread=st.integers(0, 3),
        directed=st.booleans(),
        lam=st.sampled_from([0.0, 0.5, 2.0]),
        refinement=st.booleans(),
        restarts=st.integers(0, 2),
    )
    def test_registrations_compose_to_the_input(self, seed, count, smallest, spread,
                                                directed, lam, refinement, restarts):
        rng = np.random.default_rng(seed)
        corpus = [
            _sparse_graph(int(rng.integers(smallest, smallest + spread + 1)), rng,
                          directed, lam > 0)
            for _ in range(count)
        ]
        cfg = MatchConfig(lam=lam, refinement=refinement, restarts=restarts, seed=seed)
        gm = karcher_mean(corpus, cfg)
        m = gm.mu.n
        for g, reg in zip(corpus, gm.registrations):
            expect = permute(pad_to_size(g, m), reg.permutation)
            assert expect.adjacency.tobytes() == reg.graph.adjacency.tobytes()
            assert expect.null_mask.tobytes() == reg.graph.null_mask.tobytes()
            if lam > 0:
                assert expect.node_attrs.tobytes() == reg.graph.node_attrs.tobytes()
            diff = reg.graph.adjacency - gm.mu.adjacency
            assert reg.edge_energy == math.fsum((diff * diff).ravel().tolist())
        avg = np.mean([r.graph.adjacency for r in gm.registrations], axis=0)
        assert np.array_equal(gm.mu.adjacency, avg)
        tr = gm.energy_trace
        assert all(b <= a + 1e-9 * (1.0 + a) for a, b in zip(tr, tr[1:]))

    @pytest.mark.parametrize("solver", ["faq", "umeyama"])
    def test_which_graph_each_pass_registers(self, monkeypatch, solver):
        calls = []
        real = stats_module.graph_distance

        def spy(g1, g2, cfg):
            calls.append((g1, cfg))
            return real(g1, g2, cfg)

        monkeypatch.setattr(stats_module, "graph_distance", spy)
        rng = np.random.default_rng(5)
        corpus = perturbed_corpus(random_symmetric_graph(7, rng), 6, rng, scale=0.5)
        gm = karcher_mean(corpus, MatchConfig(solver=solver, refinement=True))
        k = len(corpus)
        assert len(calls) == k * len(gm.energy_trace) > k
        for j, (g1, cfg) in enumerate(calls):
            if j < k or solver == "umeyama":
                # equal sizes: the padded input is the input graph itself
                assert g1 is corpus[j % k]
                assert cfg.faq_init == "barycenter"
            else:
                assert cfg.faq_init == "identity"
        if solver == "faq":
            # some later pass starts from an adopted, non-identity alignment
            assert any(g1 is not corpus[j % k] for j, (g1, _) in enumerate(calls))

    @pytest.mark.parametrize("solver, directed", [
        ("faq", False), ("faq", True), ("umeyama", False), ("brute", False)])
    def test_objective_is_edge_energy_at_lam_0(self, monkeypatch, solver, directed):
        # the keep rule takes each registration's objective for its edge
        # energy against the template when lam = 0
        seen = []
        real = stats_module.graph_distance

        def spy(g1, g2, cfg):
            result = real(g1, g2, cfg)
            seen.append((result.objective, stats_module._squared_distance(
                result.g1_registered.adjacency, g2.adjacency)))
            return result

        monkeypatch.setattr(stats_module, "graph_distance", spy)
        rng = np.random.default_rng(9)
        corpus = [_sparse_graph(int(rng.integers(4, 8)), rng, directed, False)
                  for _ in range(5)]
        karcher_mean(corpus, MatchConfig(solver=solver, refinement=True, restarts=1))
        assert len(seen) > len(corpus)
        assert all(obj == energy for obj, energy in seen)


class TestGraphPca:
    def test_identical_graphs_zero_singular_values(self):
        rng = np.random.default_rng(5)
        g = random_symmetric_graph(5, rng)
        model = graph_pca(karcher_mean([g, g, g]))
        assert np.all(model.singular_values <= 1e-12)

    def test_two_graph_closed_form(self):
        rng = np.random.default_rng(6)
        g1 = random_symmetric_graph(5, rng)
        g2 = random_symmetric_graph(5, rng)
        gm = karcher_mean([g1, g2], MatchConfig(solver="brute", padding="none"))
        model = graph_pca(gm)
        nonzero = model.singular_values[model.singular_values > 1e-12]
        assert len(nonzero) == 1
        iu = np.triu_indices(5, k=1)
        r1 = (gm.registrations[0].graph.adjacency - model.mu.adjacency)[iu]
        r2 = (gm.registrations[1].graph.adjacency - model.mu.adjacency)[iu]
        d = float(np.linalg.norm(r1 - r2))
        s = model.scores[:, 0]
        assert abs(abs(s[0]) - d / 2) <= 1e-9
        assert abs(s[0] + s[1]) <= 1e-9

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        corpus = perturbed_corpus(random_symmetric_graph(6, rng), 6, rng)
        gm = karcher_mean(corpus, MatchConfig(refinement=True))
        model = graph_pca(gm)
        for i, reg in enumerate(gm.registrations):
            back = reconstruct(model, model.scores[i])
            assert np.max(np.abs(back.adjacency - reg.graph.adjacency)) <= 1e-9

    def test_zero_scores_give_mean(self):
        rng = np.random.default_rng(8)
        corpus = perturbed_corpus(random_symmetric_graph(5, rng), 5, rng)
        model = graph_pca(karcher_mean(corpus, MatchConfig(refinement=True)))
        back = reconstruct(model, np.zeros(0))
        assert np.max(np.abs(back.adjacency - model.mu.adjacency)) <= 1e-9

    def test_variance_identity(self):
        rng = np.random.default_rng(9)
        corpus = perturbed_corpus(random_symmetric_graph(6, rng), 8, rng)
        gm = karcher_mean(corpus, MatchConfig(refinement=True))
        model = graph_pca(gm)
        m = model.n_samples
        iu = np.triu_indices(model.size, k=1)
        resids = np.vstack(
            [(r.graph.adjacency - model.mu.adjacency)[iu] for r in gm.registrations]
        )
        total_var = float(np.var(resids, axis=0, ddof=1).sum())
        assert abs(float((model.singular_values**2).sum()) / (m - 1) - total_var) <= 1e-9 * (
            1 + total_var
        )

    def test_scores_are_centered(self):
        rng = np.random.default_rng(10)
        corpus = perturbed_corpus(random_symmetric_graph(5, rng), 6, rng)
        model = graph_pca(karcher_mean(corpus))
        assert np.max(np.abs(model.scores.mean(axis=0))) <= 1e-9

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(11)
        corpus = perturbed_corpus(random_symmetric_graph(6, rng), 5, rng)
        model = graph_pca(karcher_mean(corpus))
        gram = model.basis @ model.basis.T
        assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-9

    def test_explained_variance_sums_to_one(self):
        rng = np.random.default_rng(12)
        corpus = perturbed_corpus(random_symmetric_graph(5, rng), 7, rng)
        model = graph_pca(karcher_mean(corpus))
        assert abs(float(model.explained_variance_ratio.sum()) - 1.0) <= 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        base = random_symmetric_graph(5, rng)
        corpus = perturbed_corpus(base, 6, rng, scale=0.3)
        cfg = MatchConfig(solver="brute", padding="none")
        model_a = graph_pca(karcher_mean(corpus, cfg))
        relabeled = [permute(g, rng.permutation(g.n)) for g in corpus]
        model_b = graph_pca(karcher_mean(relabeled, cfg))
        assert np.max(np.abs(model_a.singular_values - model_b.singular_values)) <= 1e-6
        da = np.linalg.norm(model_a.scores[:, None] - model_a.scores[None, :], axis=-1)
        db = np.linalg.norm(model_b.scores[:, None] - model_b.scores[None, :], axis=-1)
        assert np.max(np.abs(da - db)) <= 1e-6

    def test_include_nodes_requires_lambda(self):
        rng = np.random.default_rng(14)
        corpus = perturbed_corpus(random_symmetric_graph(4, rng), 3, rng)
        with pytest.raises(ValueError, match="lambda"):
            graph_pca(karcher_mean(corpus), include_nodes=True)

    def test_include_nodes_requires_attributes(self):
        # a mean of unattributed graphs that claims a positive lambda
        rng = np.random.default_rng(14)
        corpus = perturbed_corpus(random_symmetric_graph(4, rng), 3, rng)
        mean = replace(karcher_mean(corpus), lam=1.0)
        with pytest.raises(ValueError, match="include_nodes requires node attributes"):
            graph_pca(mean, include_nodes=True)

    def test_needs_two_graphs(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="two"):
            graph_pca(karcher_mean([random_symmetric_graph(4, rng)]))

    def test_include_nodes_round_trip(self):
        rng = np.random.default_rng(16)
        corpus = [letter_like(rng, coord_noise=0.2, edge_noise=0.0) for _ in range(5)]
        cfg = MatchConfig(lam=1.0, refinement=True)
        gm = karcher_mean(corpus, cfg)
        model = graph_pca(gm, include_nodes=True)
        for i, reg in enumerate(gm.registrations):
            back = reconstruct(model, model.scores[i])
            assert np.max(np.abs(back.adjacency - reg.graph.adjacency)) <= 1e-9
            real = ~reg.graph.null_mask & ~model.mu.null_mask
            assert np.max(np.abs(back.node_attrs[real] - reg.graph.node_attrs[real])) <= 1e-9

    def test_attribute_weight_comes_from_the_mean(self):
        # lambda != 1, so scaling the attribute block by any other weight shows
        rng = np.random.default_rng(17)
        corpus = [letter_like(rng, coord_noise=0.2, edge_noise=0.0) for _ in range(5)]
        gm = karcher_mean(corpus, MatchConfig(lam=0.7, refinement=True))
        model = graph_pca(gm, include_nodes=True)
        assert gm.lam == model.lam == 0.7
        for i, reg in enumerate(gm.registrations):
            back = reconstruct(model, model.scores[i])
            assert np.max(np.abs(back.adjacency - reg.graph.adjacency)) <= 1e-9
            real = ~reg.graph.null_mask & ~model.mu.null_mask
            assert np.max(np.abs(back.node_attrs[real] - reg.graph.node_attrs[real])) <= 1e-9

    @pytest.mark.parametrize("lam, include_nodes", [(0.0, False), (0.7, True)])
    def test_directed_round_trip(self, lam, include_nodes):
        # directed residuals cover the full off-diagonal, not one triangle
        rng = np.random.default_rng(19)
        corpus = [Graph(random_directed_graph(n, rng).adjacency, directed=True,
                        node_attrs=rng.normal(size=(n, 2)))
                  for n in rng.integers(4, 7, size=8).tolist()]
        gm = karcher_mean(corpus, MatchConfig(lam=lam, refinement=True))
        model = graph_pca(gm, include_nodes=include_nodes)
        assert model.directed
        for i, reg in enumerate(gm.registrations):
            back = reconstruct(model, model.scores[i])
            assert np.max(np.abs(back.adjacency - reg.graph.adjacency)) <= 1e-12
            if include_nodes:
                real = ~reg.graph.null_mask & ~model.mu.null_mask
                assert np.max(np.abs(back.node_attrs[real] - reg.graph.node_attrs[real])) <= 1e-12

    def test_threshold_drops_weak_edges(self):
        rng = np.random.default_rng(17)
        corpus = perturbed_corpus(random_symmetric_graph(5, rng), 5, rng)
        model = graph_pca(karcher_mean(corpus))
        g = reconstruct(model, model.scores[0], threshold=1e9)
        assert np.all(g.adjacency == 0.0)

    def test_nonnegative_corpus_clamps(self):
        rng = np.random.default_rng(18)
        ws = [np.triu(rng.random((5, 5)), 1) for _ in range(5)]
        corpus = [Graph(w + w.T) for w in ws]
        model = graph_pca(karcher_mean(corpus, MatchConfig(refinement=True)))
        assert model.nonnegative
        extreme = -50.0 * np.ones(model.n_components)
        g = reconstruct(model, extreme)
        assert g.adjacency.min() >= 0.0


class TestGaussianModel:
    def _model(self, rng, count=8, k=3):
        corpus = perturbed_corpus(random_symmetric_graph(6, rng), count, rng)
        pca = graph_pca(karcher_mean(corpus, MatchConfig(refinement=True)))
        return fit_gaussian(pca, k)

    def test_score_mean_near_zero(self):
        model = self._model(np.random.default_rng(19))
        assert np.max(np.abs(model.score_mean)) <= 1e-9

    def test_negative_seed_rejected(self):
        model = self._model(np.random.default_rng(26))
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            sample_scores(model, seed=-1, count=2)

    def test_sampled_covariance_matches(self):
        model = self._model(np.random.default_rng(20))
        s = sample_scores(model, seed=11, count=20000)
        emp = np.atleast_2d(np.cov(s, rowvar=False, ddof=1))
        scale = np.sqrt(np.outer(np.diag(model.score_cov), np.diag(model.score_cov)))
        assert np.max(np.abs(emp - model.score_cov) / (scale + 1e-30)) <= 0.05

    @pytest.mark.parametrize("family, lam, include_nodes", [
        ("letter_like", 0.0, False),
        ("letter_like", 0.7, True),
        ("binomial", 0.0, False),
    ], ids=["letter", "letter-nodes", "binomial"])
    def test_closed_form_is_the_sample_estimate(self, family, lam, include_nodes):
        # the mean and covariance np.cov would estimate from the scores are
        # the closed form N(0, diag(s^2 / (N - 1))) the model samples from
        rng = np.random.default_rng(30)
        corpus = [generate(family, (5, 7), rng, node_drop=0.2) for _ in range(8)]
        pca = graph_pca(karcher_mean(corpus, MatchConfig(lam=lam, refinement=True)),
                        include_nodes=include_nodes)
        model = fit_gaussian(pca, pca.n_components)
        scores = pca.scores
        top = float(pca.component_variances.max())
        assert top > 0
        assert np.array_equal(model.score_cov, np.diag(pca.component_variances))
        assert np.max(np.abs(np.cov(scores, rowvar=False, ddof=1) - model.score_cov)) \
            <= 1e-12 * top
        assert np.max(np.abs(scores.mean(axis=0))) <= 1e-12 * math.sqrt(top)

    def test_draws_scale_standard_normals(self):
        model = self._model(np.random.default_rng(31))
        z = np.random.default_rng(8).standard_normal((5, model.k))
        assert np.array_equal(sample_scores(model, seed=8, count=5),
                              z * np.sqrt(model.pca.component_variances))

    def test_degenerate_covariance_sampling(self):
        # duplicated rows leave components of about zero variance, which
        # still sample
        rng = np.random.default_rng(21)
        g = random_symmetric_graph(5, rng)
        corpus = perturbed_corpus(g, 3, rng) + [g, g]
        pca = graph_pca(karcher_mean(corpus, MatchConfig(refinement=True)))
        model = fit_gaussian(pca, min(4, pca.n_components))
        out = sample_graphs(model, seed=0, count=4)
        assert len(out) == 4

    def test_k_validation(self):
        model_src = np.random.default_rng(22)
        corpus = perturbed_corpus(random_symmetric_graph(5, model_src), 4, model_src)
        pca = graph_pca(karcher_mean(corpus))
        with pytest.raises(ValueError, match="at least 1"):
            fit_gaussian(pca, 0)
        with pytest.raises(ValueError, match="exceeds"):
            fit_gaussian(pca, pca.n_components + 1)

    def test_reconstruct_rejects_too_many_scores(self):
        model = self._model(np.random.default_rng(27))
        k = model.pca.n_components
        with pytest.raises(ValueError, match=f"scores must be a vector of length <= {k}"):
            reconstruct(model.pca, np.zeros(k + 1))

    def test_fit_needs_two_samples(self):
        pca = self._model(np.random.default_rng(28)).pca
        with pytest.raises(ValueError, match="at least two samples"):
            fit_gaussian(replace(pca, scores=pca.scores[:1]), 1)

    def test_negative_count_rejected(self):
        model = self._model(np.random.default_rng(29))
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample_scores(model, seed=0, count=-1)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        model = self._model(np.random.default_rng(24))
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            fit_gaussian(model.pca, 2, threshold=threshold)
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            reconstruct(model.pca, model.score_mean, threshold=threshold)

    def test_sample_graphs_shapes(self):
        model = self._model(np.random.default_rng(23))
        out = sample_graphs(model, seed=5, count=6)
        assert len(out) == 6
        assert all(g.n == model.pca.size for g in out)
        assert all(not g.directed for g in out)

    def test_components_for_variance(self):
        rng = np.random.default_rng(24)
        corpus = perturbed_corpus(random_symmetric_graph(6, rng), 10, rng)
        pca = graph_pca(karcher_mean(corpus, MatchConfig(refinement=True)))
        k = components_for_variance(pca, 0.8)
        cums = np.cumsum(pca.explained_variance_ratio)
        assert cums[k - 1] >= 0.8 - 1e-9
        if k > 1:
            assert cums[k - 2] < 0.8
        k_all = components_for_variance(pca, 1.0)
        assert cums[k_all - 1] >= 1.0 - 1e-9
        with pytest.raises(ValueError):
            components_for_variance(pca, 0.0)
        assert components_for_variance(truncate_components(pca, 0), 0.8) == 0

    def test_truncate_components_bounds(self):
        rng = np.random.default_rng(25)
        corpus = perturbed_corpus(random_symmetric_graph(5, rng), 4, rng)
        pca = graph_pca(karcher_mean(corpus))
        cut = truncate_components(pca, 2)
        assert cut.n_components == 2 and cut.scores.shape[1] == 2
        with pytest.raises(ValueError):
            truncate_components(pca, pca.n_components + 1)
