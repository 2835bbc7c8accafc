import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import graphspace.assignment as assignment
import graphspace.matching as matching
import graphspace.pipelines as pipelines
from conftest import oracle, random_directed_graph, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    bench_recovery,
    binomial,
    distance_csv,
    full_heavy_tailed,
    generate,
    graph_distance,
    knn_classify,
    letter_like,
    node_distance_matrix,
    objective_value,
    pad_pair,
    pairwise_distances,
    permute,
    symmetric_distance,
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

    @pytest.mark.parametrize("family", [binomial, full_heavy_tailed])
    def test_size_must_be_positive(self, family):
        with pytest.raises(ValueError, match="n must be positive"):
            family(0, trial_rng(0, 0))

    @pytest.mark.parametrize("kwargs", [{"coord_noise": -0.1}, {"edge_noise": 1.5},
                                        {"node_drop": 1.0}])
    def test_letter_like_distortions_validated(self, kwargs):
        with pytest.raises(ValueError, match="invalid distortion parameters"):
            letter_like(trial_rng(0, 0), **kwargs)

    @pytest.mark.parametrize("name, value", [("coord_noise", math.nan), ("coord_noise", math.inf),
                                             ("coord_noise", -math.inf), ("edge_noise", math.nan),
                                             ("edge_noise", math.inf), ("node_drop", math.nan)])
    def test_letter_like_non_finite_distortions_named(self, name, value):
        with pytest.raises(ValueError, match=rf"invalid distortion parameters: {name} .*, "
                                             rf"got {value}$"):
            letter_like(trial_rng(0, 0), **{name: value})

    def test_heavy_tailed_seeded_determinism(self):
        a = full_heavy_tailed(5, trial_rng(7, 3))
        b = full_heavy_tailed(5, trial_rng(7, 3))
        assert np.array_equal(a.adjacency, b.adjacency)

    @pytest.mark.parametrize("draw", [lambda rng: binomial(6, rng),
                                      lambda rng: full_heavy_tailed(6, rng),
                                      lambda rng: letter_like(rng, node_drop=0.3)],
                             ids=["binomial", "full_heavy_tailed", "letter_like"])
    def test_integer_seed_is_a_fresh_generator(self, draw):
        a, b = draw(11), draw(np.random.default_rng(11))
        assert np.array_equal(a.adjacency, b.adjacency)
        assert (a.node_attrs is None and b.node_attrs is None) or np.array_equal(
            a.node_attrs, b.node_attrs)

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

    def test_trial_rng_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            trial_rng(-3, 0)


class TestDistances:
    def test_symmetric_match_zero_for_duplicates(self):
        rng = np.random.default_rng(0)
        g = random_symmetric_graph(5, rng)
        d, res, direction = symmetric_match(g, g)
        assert d == 0.0 and direction == "forward"

    @pytest.mark.parametrize("isomorphic", [True, False])
    def test_symmetric_match_skips_the_backward_solve_at_zero(self, isomorphic, monkeypatch):
        # one solve per pair, isomorphic or not, in its fixed orientation
        rng = np.random.default_rng(5)
        g = random_symmetric_graph(6, rng)
        h = permute(g, rng.permutation(6)) if isomorphic else random_symmetric_graph(6, rng)
        cfg = MatchConfig(restarts=5, refinement=True)
        first, second = sorted((g, h), key=pipelines._solve_order)
        want = graph_distance(first, second, cfg)
        calls = []

        def counted(*args):
            calls.append(args[:2])
            return graph_distance(*args)

        monkeypatch.setattr(pipelines, "graph_distance", counted)
        for a, b in ((g, h), (h, g)):
            d, res, direction = symmetric_match(a, b, cfg)
            assert (d, direction) == (want.d_g, "forward" if a is first else "backward")
            assert res.p.perm.tolist() == want.p.perm.tolist()
            assert (res.objective, res.solver_trace) == (want.objective, want.solver_trace)
        assert len(calls) == 2 and all(a is first and b is second for a, b in calls)

    def test_oversized_weights_keep_the_callers_name(self):
        # the 2-node graph is solved first, yet the error names it as passed
        big = Graph([[0.0, 1e200], [1e200, 0.0]])
        small = random_symmetric_graph(3, np.random.default_rng(6))
        assert pipelines._solve_order(big) < pipelines._solve_order(small)
        with pytest.raises(ValueError, match="edge weights of g2 are too large"):
            symmetric_match(small, big)

    def test_overflowing_attributes_keep_the_callers_name(self):
        # at lambda 1 the attribute rule names the graph as passed too
        big = Graph([[0.0]], node_attrs=[[1e308]])
        small = Graph(np.zeros((2, 2)), node_attrs=[[1.0], [2.0]])
        assert pipelines._solve_order(big) < pipelines._solve_order(small)
        with pytest.raises(ValueError, match="node attributes of g2 are too large"):
            symmetric_match(small, big, MatchConfig(lam=1.0))

    @pytest.mark.parametrize("family, lam", [
        ("full_heavy_tailed", 0.0), ("letter_like", 0.0), ("letter_like", 1.0)])
    def test_argument_order_does_not_change_the_match(self, family, lam):
        cfg = MatchConfig(lam=lam, refinement=True)
        for k in range(16):
            rng = trial_rng(40, k)
            g, h = (generate(family, (4, 6), rng, node_drop=0.2) for _ in range(2))
            if k % 4 == 0:  # an equal-size pair: a relabeled copy
                h = permute(g, rng.permutation(g.n))
            if np.array_equal(g.adjacency, h.adjacency):
                continue  # an identical pair is forward in both orders
            d1, r1, dir1 = symmetric_match(g, h, cfg)
            d2, r2, dir2 = symmetric_match(h, g, cfg)
            assert (d1, r1.objective) == (d2, r2.objective)
            assert r1.p.perm.tolist() == r2.p.perm.tolist()
            assert {dir1, dir2} == {"forward", "backward"}

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_brute_objective_ignores_argument_order(self, lam):
        rng = np.random.default_rng(41)
        corpus = _letters(41, 4) + [
            Graph(random_symmetric_graph(n, rng).adjacency, node_attrs=rng.normal(size=(n, 2)))
            for n in (2, 3, 4, 4, 5)]
        cfg = MatchConfig(lam=lam, solver="brute")
        for i, g in enumerate(corpus):
            for h in corpus[i + 1:]:
                assert graph_distance(g, h, cfg).objective == graph_distance(h, g, cfg).objective

    @pytest.mark.parametrize("family, lam, refinement", [
        ("binomial", 0.0, True), ("letter_like", 0.0, False), ("letter_like", 1.0, True)])
    def test_reversed_corpus_gives_the_reversed_matrix(self, family, lam, refinement):
        corpus = [generate(family, (6, 9), trial_rng(42, k), node_drop=0.2) for k in range(12)]
        cfg = MatchConfig(lam=lam, refinement=refinement)
        m = pairwise_distances(corpus, cfg)
        assert pairwise_distances(corpus[::-1], cfg).tobytes() == m[::-1, ::-1].tobytes()

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

    def test_distance_csv_quotes_ids(self):
        # a bare join would write a 5-field header over 4-field rows
        ids = ["a,b.json", 'q"uote.json', "x.json"]
        m = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 2.0], [1.0, 2.0, 0.0]])
        rows = list(csv.reader(distance_csv(m, ids).splitlines()))
        assert rows[0] == ["id", *ids]
        assert [row[0] for row in rows[1:]] == ids
        assert np.array_equal([[float(v) for v in row[1:]] for row in rows[1:]], m)

    def test_distance_csv_rejects_a_matrix_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="matrix shape does not match number of ids"):
            distance_csv(np.zeros((2, 2)), ["a", "b", "c"])


def _letters(seed, count):
    return [letter_like(trial_rng(seed, k), node_drop=0.2) for k in range(count)]


def _assert_matches_pair_by_pair(corpus, cfg, workers=1):
    """pairwise_distances and knn_classify, which solve same-shape pairs as
    one stack, equal symmetric_distance pair by pair, byte for byte."""
    m = len(corpus)
    want = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            want[i, j] = want[j, i] = symmetric_distance(corpus[i], corpus[j], cfg)
    assert pairwise_distances(corpus, cfg, workers=workers).tobytes() == want.tobytes()
    if m:
        train, test = corpus[:(m + 1) // 2], corpus[(m + 1) // 2:]
        _, dists = knn_classify(train, ["a"] * len(train), test, 1, cfg, workers=workers)
        want = np.array([[symmetric_distance(g, h, cfg) for h in train] for g in test])
        assert dists.tobytes() == want.reshape(len(test), len(train)).tobytes()


class TestStackedBatches:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("refinement", [False, True])
    def test_letters(self, lam, refinement):
        corpus = _letters(21, 14)
        assert len({g.n for g in corpus}) > 1
        _assert_matches_pair_by_pair(corpus, MatchConfig(lam=lam, refinement=refinement))

    def test_directed_binomial(self):
        rng = np.random.default_rng(22)
        corpus = [random_directed_graph(int(rng.integers(2, 7)), rng) for _ in range(10)]
        _assert_matches_pair_by_pair(corpus, MatchConfig(refinement=True))

    @pytest.mark.parametrize("padding", ["two_way", "one_way"])
    def test_restarts(self, padding):
        cfg = MatchConfig(lam=0.5, padding=padding, restarts=2, refinement=True, seed=3)
        _assert_matches_pair_by_pair(_letters(23, 10), cfg)

    def test_restarts_stop_on_duplicates(self, monkeypatch):
        # the only 7-node graphs are a graph and a relabeled copy, whose
        # one-pair stack, solved in one orientation, scores 0 at the first start
        rng = np.random.default_rng(34)
        w = np.triu(rng.random((7, 7)), 1)
        g = Graph(w + w.T, node_attrs=rng.normal(size=(7, 2)))
        letters = _letters(33, 8)
        corpus = [*letters, letters[2], g, permute(g, rng.permutation(7))]
        cfg = MatchConfig(lam=0.5, restarts=2, refinement=True, seed=3)
        _assert_matches_pair_by_pair(corpus, cfg)
        runs, faq_stack = [], matching._faq_stack

        def counted(a1, a2, d, lam, p0, *rest):
            runs.append((len(a1), *p0.shape))
            return faq_stack(a1, a2, d, lam, p0, *rest)

        monkeypatch.setattr(matching, "_faq_stack", counted)
        pairwise_distances(corpus, cfg)
        assert runs.count((1, 7, 7)) == 1
        assert all(runs.count(shape) == 3 for shape in set(runs) - {(1, 7, 7)})

    @pytest.mark.parametrize("solver", ["umeyama", "brute"])
    def test_other_solvers(self, solver):
        rng = np.random.default_rng(24)
        corpus = [random_symmetric_graph(int(rng.integers(2, 6)), rng) for _ in range(6)]
        _assert_matches_pair_by_pair(corpus, MatchConfig(solver=solver, refinement=True))

    @pytest.mark.parametrize("sizes", [[], [4], [5] * 6, [1, 1, 2, 1, 3], [0, 3, 1, 0]],
                             ids=["empty", "single", "same-size", "one-node", "no-node"])
    def test_edge_corpora(self, sizes):
        rng = np.random.default_rng(25)
        corpus = [random_symmetric_graph(n, rng) for n in sizes]
        _assert_matches_pair_by_pair(corpus, MatchConfig(refinement=True))
        _assert_matches_pair_by_pair(corpus, MatchConfig(padding="none" if len(set(sizes)) < 2
                                                         else "one_way"))

    def test_workers_split_stacks_without_changing_values(self):
        corpus = _letters(26, 12)
        cfg = MatchConfig(lam=1.0, refinement=True)
        _assert_matches_pair_by_pair(corpus, cfg, workers=3)

    def test_orientation_keys_built_once_per_graph(self, monkeypatch):
        corpus = _letters(28, 6)
        keyed, solve_order = [], pipelines._solve_order
        monkeypatch.setattr(pipelines, "_solve_order",
                            lambda g: keyed.append(g) or solve_order(g))
        pairwise_distances(corpus, MatchConfig())
        assert len(keyed) == 6 and {id(g) for g in keyed} == {id(g) for g in corpus}
        keyed.clear()
        knn_classify(corpus[:4], ["a"] * 4, corpus[4:], 1, MatchConfig())
        assert len(keyed) == 6

    def test_padding_none_rejects_unequal_sizes(self):
        rng = np.random.default_rng(27)
        corpus = [random_symmetric_graph(n, rng) for n in (3, 3, 4)]
        with pytest.raises(ValueError, match="padding 'none' requires equal sizes"):
            pairwise_distances(corpus, MatchConfig(padding="none"))


class TestCorpusChecks:
    """A corpus with a pair that cannot be matched is rejected before any
    matching, naming the first graph at fault."""

    def test_missing_attributes_named_by_index(self):
        corpus = _letters(28, 3) + [random_symmetric_graph(4, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="graph 3 has none"):
            pairwise_distances(corpus, MatchConfig(lam=1.0))
        pairwise_distances(corpus, MatchConfig(lam=0.0))

    def test_knn_names_training_or_test_graph(self):
        letters = _letters(29, 3)
        plain = random_symmetric_graph(4, np.random.default_rng(1))
        cfg = MatchConfig(lam=1.0)
        with pytest.raises(ValueError, match="training graph 1 has none"):
            knn_classify([letters[0], plain], ["a", "b"], letters[1:], 1, cfg)
        with pytest.raises(ValueError, match="test graph 2 has none"):
            knn_classify(letters[:1], ["a"], [*letters[1:], plain], 1, cfg)

    def test_attribute_dimension_mismatch(self):
        letters = _letters(30, 2)
        other = Graph(letters[0].adjacency, node_attrs=np.zeros((letters[0].n, 3)))
        with pytest.raises(ValueError, match="dimension mismatch: graph 2 has 3, expected 2"):
            pairwise_distances([*letters, other], MatchConfig(lam=1.0))

    def test_mixed_directedness(self):
        rng = np.random.default_rng(31)
        corpus = [random_symmetric_graph(3, rng), random_directed_graph(3, rng)]
        with pytest.raises(ValueError, match=r"against an undirected one \(graph 1\)"):
            pairwise_distances(corpus)


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

    def test_one_label_per_training_graph(self):
        rng = np.random.default_rng(12)
        train = [random_symmetric_graph(3, rng) for _ in range(2)]
        with pytest.raises(ValueError, match="one label per training graph"):
            knn_classify(train, ["a"], train, k=1)


@st.composite
def _planted_pairs(draw):
    """(g, perm, lam): a graph of at most 7 nodes, directed or not, with
    negative and real weights, some declared null nodes, node attributes
    when lam > 0, and a random relabeling of it."""
    n = draw(st.integers(0, 7))
    directed = draw(st.booleans())
    lam = draw(st.sampled_from([0.0, 0.5, 2.0]))
    weights = st.one_of(st.sampled_from([0.0, 1.0, -1.0, -0.75]),
                        st.floats(-3.0, 3.0, allow_nan=False))
    a = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    if not directed:
        a = np.triu(a, k=1)
        a = a + a.T
    np.fill_diagonal(a, 0.0)
    null = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    a[null] = 0.0
    a[:, null] = 0.0
    attrs = None
    if lam:
        attrs = np.array(draw(st.lists(weights, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        attrs[null] = 0.0
    g = Graph(a, node_attrs=attrs, directed=directed, null_mask=null)
    return g, np.array(draw(st.permutations(range(n))), dtype=np.int64), lam


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

    @pytest.mark.parametrize("oracle_max_n", [-1, 11])
    def test_oracle_max_n_validated(self, oracle_max_n):
        with pytest.raises(ValueError, match="oracle_max_n must be between 0 and 10"):
            bench_recovery("binomial", (4, 5), 1, oracle_max_n=oracle_max_n)

    @pytest.mark.parametrize("sizes", [(5, 6), (3, 7)])
    def test_brute_sizes_past_the_limit_refused_before_any_trial(self, sizes, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(pipelines, "_recovery_trial", no_trial)
        with pytest.raises(ValueError, match=rf"size range \[{sizes[0]}, {sizes[1]}\].*"
                                             r"pads two-way to 2n nodes"):
            bench_recovery("binomial", sizes, 2, MatchConfig(solver="brute"))

    def test_brute_runs_up_to_half_the_limit(self):
        rep = bench_recovery("binomial", (3, 5), 4, MatchConfig(solver="brute"), seed=2)
        assert rep.n_gap_trials == 4
        # letter_like ignores the size range: its graphs have five nodes
        rep = bench_recovery("letter_like", (3, 9), 2, MatchConfig(solver="brute"))
        assert rep.n_gap_trials == 2
        assert rep.size_range == (5, 5)

    @pytest.mark.parametrize("family, size_range, cfg", [
        ("binomial", (1, 9), MatchConfig()),
        ("binomial", (6, 9), MatchConfig(restarts=5, refinement=True)),
        ("full_heavy_tailed", (1, 9), MatchConfig()),
        ("full_heavy_tailed", (6, 9), MatchConfig(restarts=5, refinement=True)),
        ("letter_like", (5, 5), MatchConfig(lam=1.0)),
        ("letter_like", (5, 5), MatchConfig(lam=1.0, restarts=5, refinement=True)),
        ("binomial", (4, 9), MatchConfig(solver="umeyama")),
    ])
    def test_gap_equals_the_unpadded_brute_registration(self, family, size_range, cfg):
        """Each trial's gap is the solver objective minus that of
        ``graph_distance`` under ``brute`` on the unpadded pair at lam 0."""
        for index in range(8):
            rng = trial_rng(4, index)
            g = generate(family, size_range, rng)
            g2 = permute(g, rng.permutation(g.n))
            res = graph_distance(*pad_pair(g, g2, "two_way"), replace(cfg, padding="none"))
            reference = res.objective - oracle(g, g2).objective
            _, gap, _ = pipelines._recovery_trial(family, size_range, cfg, 4, index, 0.5, 9)
            assert gap == reference

    def test_trial_runs_no_oracle(self, monkeypatch):
        """A trial's gap is its solver objective, found with no branch and
        bound: only the solver's own Frank-Wolfe start runs."""
        def no_search(*args):
            raise AssertionError("the oracle's branch and bound ran")

        calls, results = [], []
        faq_descent, solve = matching._faq_descent, pipelines.graph_distance

        def counted(*args):
            calls.append(1)
            return faq_descent(*args)

        def recorded(*args):
            results.append(solve(*args))
            return results[-1]

        monkeypatch.setattr(assignment, "_surviving_leaves", no_search)
        monkeypatch.setattr(matching, "_faq_descent", counted)
        monkeypatch.setattr(pipelines, "graph_distance", recorded)
        _, gap, _ = pipelines._recovery_trial("binomial", (7, 7), MatchConfig(), 0, 0, 0.5, 9)
        assert len(results) == 1
        assert gap == results[0].objective
        assert len(calls) == 1

    @seed(31)
    @settings(max_examples=100, deadline=None)
    @given(_planted_pairs())
    def test_planted_copy_has_optimum_zero(self, case):
        """The invariant the gap rests on: J of the planted permutation is
        exactly 0.0 at any lam, and so is the exact oracle's optimum."""
        g, perm, lam = case
        g2 = permute(g, perm)
        d = node_distance_matrix(g, g2) if g.node_attrs is not None else None
        assert objective_value(g.adjacency, g2.adjacency, None, 0.0, perm) == 0.0
        assert objective_value(g.adjacency, g2.adjacency, d, lam, perm) == 0.0
        for cfg_lam in {0.0, lam}:
            res = graph_distance(g, g2, MatchConfig(lam=cfg_lam, solver="brute", padding="none"))
            assert res.objective == 0.0
