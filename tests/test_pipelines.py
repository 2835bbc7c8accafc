import numpy as np
import pytest

from conftest import oracle, random_symmetric_graph
from graphspace import (
    MatchConfig,
    bench_recovery,
    binomial,
    distance_csv,
    full_heavy_tailed,
    generate,
    knn_classify,
    letter_like,
    pairwise_distances,
    symmetric_match,
    trial_rng,
)


class TestGenerators:
    def test_binomial_zero_probability_is_empty(self):
        g = binomial(6, trial_rng(0, 0), p=0.0)
        assert np.all(g.adjacency == 0.0)

    def test_binomial_one_probability_is_complete(self):
        g = binomial(5, trial_rng(0, 1), p=1.0)
        off = ~np.eye(5, dtype=bool)
        assert np.all(g.adjacency[off] == 1.0)

    def test_binomial_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            binomial(5, trial_rng(0, 0), p=1.5)

    def test_heavy_tailed_seeded_determinism(self):
        a = full_heavy_tailed(5, trial_rng(7, 3))
        b = full_heavy_tailed(5, trial_rng(7, 3))
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_letter_like_has_coordinates(self):
        g = letter_like(trial_rng(1, 0))
        assert g.attr_dim == 2 and g.n == 5

    def test_letter_like_node_drop_varies_size(self):
        sizes = {letter_like(trial_rng(2, i), node_drop=0.3).n for i in range(20)}
        assert len(sizes) > 1 and min(sizes) >= 2

    def test_generate_sizes_in_range(self):
        for i in range(10):
            g = generate("binomial", (4, 7), trial_rng(3, i))
            assert 4 <= g.n <= 7

    def test_generate_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            generate("weird", (2, 3), trial_rng(0, 0))


class TestDistances:
    def test_symmetric_match_zero_for_duplicates(self):
        rng = np.random.default_rng(0)
        g = random_symmetric_graph(5, rng)
        d, res, direction = symmetric_match(g, g)
        assert d == 0.0 and direction == "forward"

    def test_pairwise_duplicated_corpus(self):
        rng = np.random.default_rng(1)
        g = random_symmetric_graph(4, rng)
        m = pairwise_distances([g, g])
        assert np.array_equal(m, np.zeros((2, 2)))

    def test_pairwise_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        corpus = [random_symmetric_graph(4, rng) for _ in range(4)]
        m = pairwise_distances(corpus, MatchConfig(refinement=True))
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_pairwise_matches_brute_oracle(self):
        rng = np.random.default_rng(3)
        corpus = [random_symmetric_graph(5, rng) for _ in range(6)]
        cfg = MatchConfig(padding="none", refinement=True, restarts=5)
        m = pairwise_distances(corpus, cfg)
        for i in range(6):
            for j in range(i + 1, 6):
                best = oracle(corpus[i], corpus[j]).d_g
                assert abs(m[i, j] - best) <= 1e-9 * (1.0 + best)

    def test_workers_do_not_change_results(self):
        rng = np.random.default_rng(4)
        corpus = [random_symmetric_graph(4, rng) for _ in range(4)]
        a = pairwise_distances(corpus, workers=1)
        b = pairwise_distances(corpus, workers=4)
        assert np.array_equal(a, b)

    def test_distance_csv_format(self):
        m = np.array([[0.0, 1.5], [1.5, 0.0]])
        text = distance_csv(m, ["a", "b"])
        assert text == "id,a,b\na,0.0,1.5\nb,1.5,0.0\n"


class TestKnn:
    def test_exact_duplicate_wins(self):
        rng = np.random.default_rng(5)
        train = [random_symmetric_graph(4, rng) for _ in range(4)]
        labels = ["a", "b", "c", "d"]
        preds, dists = knn_classify(train, labels, [train[2]], k=1)
        assert preds == ["c"]
        assert dists[0, 2] == 0.0

    def test_k_equal_to_train_size_predicts_majority(self):
        rng = np.random.default_rng(6)
        train = [random_symmetric_graph(4, rng) for _ in range(5)]
        labels = ["x", "x", "x", "y", "y"]
        preds, _ = knn_classify(train, labels, [random_symmetric_graph(4, rng)], k=5)
        assert preds == ["x"]

    def test_separated_families(self):
        sparse = [binomial(10, trial_rng(7, i), p=0.1) for i in range(5)]
        dense = [binomial(10, trial_rng(8, i), p=0.9) for i in range(5)]
        test = [binomial(10, trial_rng(9, i), p=0.1) for i in range(4)] + [
            binomial(10, trial_rng(10, i), p=0.9) for i in range(4)
        ]
        preds, _ = knn_classify(sparse + dense, ["lo"] * 5 + ["hi"] * 5, test, k=1)
        assert preds == ["lo"] * 4 + ["hi"] * 4

    def test_k_validation(self):
        rng = np.random.default_rng(11)
        train = [random_symmetric_graph(3, rng)]
        with pytest.raises(ValueError, match="k must lie"):
            knn_classify(train, ["a"], train, k=2)


class TestBenchRecovery:
    def test_small_binomial_report(self):
        cfg = MatchConfig(refinement=True, restarts=5)
        rep = bench_recovery("binomial", (4, 6), 20, cfg, seed=0)
        assert rep.trials == 20
        assert 0.0 <= rep.fraction_exact_registration <= 1.0
        assert rep.n_gap_trials == 20
        assert rep.mean_objective_gap_vs_oracle >= 0.0
        assert set(rep.wall_time_stats) == {"total_s", "mean_trial_s", "max_trial_s"}

    def test_deterministic_given_seed(self):
        cfg = MatchConfig()
        a = bench_recovery("full_heavy_tailed", (4, 6), 10, cfg, seed=3)
        b = bench_recovery("full_heavy_tailed", (4, 6), 10, cfg, seed=3, workers=4)
        assert a.fraction_exact_registration == b.fraction_exact_registration
        assert a.mean_objective_gap_vs_oracle == b.mean_objective_gap_vs_oracle

    def test_gap_skipped_above_oracle_limit(self):
        rep = bench_recovery("full_heavy_tailed", (9, 10), 3, MatchConfig(), seed=1)
        assert rep.n_gap_trials == 0
        assert rep.mean_objective_gap_vs_oracle is None

    def test_document_excludes_timing_by_default(self):
        rep = bench_recovery("binomial", (4, 5), 2, MatchConfig(), seed=0)
        doc = rep.to_document()
        assert "wall_time_stats" not in doc
        assert "wall_time_stats" in rep.to_document(include_timing=True)

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            bench_recovery("binomial", (4, 5), 0)
