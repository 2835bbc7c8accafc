"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import graphspace
from conftest import oracle, perturbed_corpus, random_nonnegative_graph, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    Permutation,
    ambient_distance,
    bench_recovery,
    binomial,
    components_for_variance,
    document_to_graph,
    fit_gaussian,
    from_laplacian,
    geodesic,
    graph_distance,
    graph_pca,
    graph_to_document,
    karcher_mean,
    knn_classify,
    letter_like,
    pad_pair,
    permute,
    reconstruct,
    sample_graphs,
    sample_scores,
    to_laplacian,
    trial_rng,
)


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(101)
    cfg = MatchConfig(padding="none", faq_init="barycenter", restarts=5,
                      refinement=True)
    t0 = time.perf_counter()
    equal = 0
    min_gap = math.inf
    for _ in range(100):
        n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
        g1 = random_symmetric_graph(n1, rng)
        g2 = random_symmetric_graph(n2, rng)
        p1, p2 = pad_pair(g1, g2, "two_way")
        res = graph_distance(p1, p2, cfg)
        best = oracle(p1, p2)
        gap = res.objective - best.objective
        min_gap = min(min_gap, gap)
        if gap <= 1e-9 * (1.0 + abs(best.objective)):
            equal += 1
    elapsed = time.perf_counter() - t0
    ok = equal >= 95 and min_gap >= -1e-9 and elapsed < 120.0
    _report(1, ok,
            f"FAQ == brute optimum on {equal}/100 padded pairs (<=8 nodes), "
            f"min gap {min_gap:.2e}, {elapsed:.1f}s")


def test_c02_table1_reproduction():
    t0 = time.perf_counter()
    plain = MatchConfig()
    light = MatchConfig(refinement=True, restarts=5)
    heavy_small = bench_recovery("full_heavy_tailed", (5, 10), 200, light, seed=210)
    heavy_large = bench_recovery("full_heavy_tailed", (50, 60), 200, plain, seed=211)
    binom_large = bench_recovery("binomial", (50, 60), 200, plain, seed=212)
    ties = MatchConfig(refinement=True, restarts=30)
    binom_small = bench_recovery("binomial", (5, 10), 200, ties, seed=213)
    elapsed = time.perf_counter() - t0
    ok = (
        heavy_small.fraction_exact_registration >= 0.99
        and heavy_large.fraction_exact_registration >= 0.99
        and binom_large.fraction_exact_registration >= 0.95
        and binom_small.n_gap_trials > 0
        and binom_small.max_objective_gap_vs_oracle == 0.0
        and elapsed < 600.0
    )
    _report(2, ok,
            f"recovery heavy[5,10]={heavy_small.fraction_exact_registration:.3f} "
            f"heavy[50,60]={heavy_large.fraction_exact_registration:.3f} "
            f"binom[50,60]={binom_large.fraction_exact_registration:.3f} "
            f"binom[5,10]={binom_small.fraction_exact_registration:.3f} "
            f"(no threshold; gap=0 on {binom_small.n_gap_trials} oracle trials), "
            f"{elapsed:.0f}s")


def test_c03_isometry_and_metric_axioms():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        g1 = random_symmetric_graph(n, rng)
        g2 = random_symmetric_graph(n, rng)
        p = Permutation.random(n, rng)
        d0 = ambient_distance(g1, g2)
        d1 = ambient_distance(permute(g1, p), permute(g2, p))
        worst = max(worst, abs(d1 - d0) / (1.0 + d0))
    isometry_ok = worst <= 1e-12

    sym_ok = True
    tri_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a, b, c = (random_symmetric_graph(n, rng) for _ in range(3))
        dab = oracle(a, b).d_g
        dba = oracle(b, a).d_g
        dac = oracle(a, c).d_g
        dcb = oracle(c, b).d_g
        sym_ok = sym_ok and (dab == dba)
        tri_ok = tri_ok and (dab <= dac + dcb + 1e-9)
    ok = isometry_ok and sym_ok and tri_ok
    _report(3, ok,
            f"relabeling isometry worst rel err {worst:.2e} over 1000 triples; "
            f"brute d_g symmetric (exact) and triangle holds on 200 triples")


def test_c04_laplacian_suite():
    rng = np.random.default_rng(104)
    graphs = [random_nonnegative_graph(int(rng.integers(2, 12)), rng)
              for _ in range(100)]
    round_trip_ok = all(
        np.array_equal(from_laplacian(to_laplacian(g)).adjacency, g.adjacency)
        for g in graphs
    )
    equiv_worst = 0.0
    for g in graphs:
        p = Permutation.random(g.n, rng)
        m = p.matrix()
        equiv_worst = max(
            equiv_worst,
            float(np.max(np.abs(to_laplacian(permute(g, p)) - m @ to_laplacian(g) @ m.T))),
        )
    path_worst = 0.0
    for g1, g2 in zip(graphs[::2], graphs[1::2]):
        if g1.n != g2.n:
            continue
        l1, l2 = to_laplacian(g1), to_laplacian(g2)
        for t in (0.0, 0.25, 0.5, 1.0):
            mix = Graph((1 - t) * g1.adjacency + t * g2.adjacency)
            path_worst = max(
                path_worst,
                float(np.max(np.abs(to_laplacian(mix) - ((1 - t) * l1 + t * l2)))),
            )
    ok = round_trip_ok and equiv_worst <= 1e-12 and path_worst <= 1e-12
    _report(4, ok,
            f"round trip exact on 100 graphs; equivariance worst {equiv_worst:.2e}; "
            f"path correspondence worst {path_worst:.2e}")


def test_c05_mean_monotonicity():
    rng = np.random.default_rng(105)
    cfg = MatchConfig(refinement=True)
    monotone = True
    for _ in range(20):
        base = random_symmetric_graph(int(rng.integers(5, 9)), rng)
        corpus = perturbed_corpus(base, 10, rng, scale=0.25)
        gm = karcher_mean(corpus, cfg)
        tr = gm.energy_trace
        monotone = monotone and all(
            b <= a + 1e-9 * (1.0 + a) for a, b in zip(tr, tr[1:])
        )
    g = random_symmetric_graph(6, rng)
    two_copy = karcher_mean(
        [g, permute(g, rng.permutation(6))],
        MatchConfig(refinement=True, restarts=3),
    )
    zero_ok = two_copy.energy_trace[-1] == 0.0
    ok = monotone and zero_ok
    _report(5, ok,
            f"energy trace non-increasing on 20 corpora of 10 graphs; "
            f"two-copy corpus energy {two_copy.energy_trace[-1]}")


def test_c06_pca_suite():
    rng = np.random.default_rng(106)
    corpus = perturbed_corpus(random_symmetric_graph(6, rng), 10, rng, scale=0.3)
    gm = karcher_mean(corpus, MatchConfig(refinement=True, restarts=3))
    model = graph_pca(gm)
    recon_worst = 0.0
    for i, reg in enumerate(gm.registrations):
        back = reconstruct(model, model.scores[i])
        recon_worst = max(
            recon_worst, float(np.max(np.abs(back.adjacency - reg.graph.adjacency)))
        )
    recon_ok = recon_worst <= 1e-9

    base_corpus = perturbed_corpus(random_symmetric_graph(5, rng), 10, rng, scale=0.3)
    cfg = MatchConfig(solver="brute", padding="none")
    model_a = graph_pca(karcher_mean(base_corpus, cfg))
    relabeled = [permute(g, rng.permutation(g.n)) for g in base_corpus]
    model_b = graph_pca(karcher_mean(relabeled, cfg))
    sv_err = float(np.max(np.abs(model_a.singular_values - model_b.singular_values)))
    da = np.linalg.norm(model_a.scores[:, None] - model_a.scores[None, :], axis=-1)
    db = np.linalg.norm(model_b.scores[:, None] - model_b.scores[None, :], axis=-1)
    dist_err = float(np.max(np.abs(da - db)))
    invariance_ok = sv_err <= 1e-6 and dist_err <= 1e-6

    g1 = random_symmetric_graph(5, rng)
    g2 = random_symmetric_graph(5, rng)
    two_mean = karcher_mean([g1, g2], cfg)
    two = graph_pca(two_mean)
    nonzero = two.singular_values[two.singular_values > 1e-12]
    iu = np.triu_indices(5, k=1)
    r1 = (two_mean.registrations[0].graph.adjacency - two.mu.adjacency)[iu]
    r2 = (two_mean.registrations[1].graph.adjacency - two.mu.adjacency)[iu]
    d = float(np.linalg.norm(r1 - r2))
    s = two.scores[:, 0]
    two_ok = (
        len(nonzero) == 1
        and abs(abs(s[0]) - d / 2) <= 1e-9
        and abs(s[0] + s[1]) <= 1e-9
    )
    ok = recon_ok and invariance_ok and two_ok
    _report(6, ok,
            f"full-rank reconstruction worst {recon_worst:.2e}; permutation "
            f"invariance sv err {sv_err:.2e}, score-distance err {dist_err:.2e}; "
            f"2-graph scores +-d/2")


def test_c07_gaussian_model():
    rng = np.random.default_rng(107)
    corpus = [letter_like(trial_rng(1070, i), coord_noise=0.15, edge_noise=0.08,
                          node_drop=0.15) for i in range(30)]
    cfg = MatchConfig(lam=1.0, refinement=True)
    pca = graph_pca(karcher_mean(corpus, cfg), include_nodes=True)
    k = components_for_variance(pca, 0.8)
    model = fit_gaussian(pca, k, threshold=0.1)
    scores = sample_scores(model, seed=1071, count=10000)
    emp = np.atleast_2d(np.cov(scores, rowvar=False, ddof=1))
    scale = np.sqrt(np.outer(np.diag(model.score_cov), np.diag(model.score_cov)))
    cov_err = float(np.max(np.abs(emp - model.score_cov) / (scale + 1e-30)))
    cov_ok = cov_err <= 0.05

    samples = sample_graphs(model, seed=1072, count=200)
    valid_ok = True
    for g in samples:
        valid_ok = valid_ok and np.array_equal(g.adjacency, g.adjacency.T)
        valid_ok = valid_ok and np.all(np.diag(g.adjacency) == 0.0)
        valid_ok = valid_ok and g.adjacency.min() >= 0.0
        round_tripped = document_to_graph(graph_to_document(g))
        valid_ok = valid_ok and np.array_equal(round_tripped.adjacency, g.adjacency)
    ok = cov_ok and valid_ok
    _report(7, ok,
            f"sampled-score covariance err {cov_err:.3f} (k={k}, 10000 draws); "
            f"200 sampled letter graphs pass document validation")


def test_c08_geodesic_properties():
    rng = np.random.default_rng(108)
    worst = 0.0
    endpoints_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 8))
        g1 = random_symmetric_graph(n, rng)
        g2 = random_symmetric_graph(n, rng)
        m = graph_distance(g1, g2, MatchConfig(refinement=True))
        endpoints_ok = endpoints_ok and geodesic(m, 0.0) is m.g1_registered
        endpoints_ok = endpoints_ok and geodesic(m, 1.0) is m.g2_padded
        total = ambient_distance(m.g1_registered, m.g2_padded)
        for t in (0.25, 0.5, 0.75):
            d = ambient_distance(m.g1_registered, geodesic(m, t))
            worst = max(worst, abs(d - t * total) / (1.0 + total))
    ok = endpoints_ok and worst <= 1e-9
    _report(8, ok,
            f"endpoints exact on 50 pairs; linearity worst rel err {worst:.2e}")


def test_c09_classifier_sanity():
    train = [binomial(15, trial_rng(901, i), p=0.1) for i in range(10)] + [
        binomial(15, trial_rng(902, i), p=0.9) for i in range(10)
    ]
    labels = ["sparse"] * 10 + ["dense"] * 10
    test = [binomial(15, trial_rng(903, i), p=0.1) for i in range(20)] + [
        binomial(15, trial_rng(904, i), p=0.9) for i in range(20)
    ]
    truth = ["sparse"] * 20 + ["dense"] * 20
    preds, _ = knn_classify(train, labels, test, k=1, cfg=MatchConfig())
    accuracy = sum(1 for p, t in zip(preds, truth) if p == t) / len(truth)
    ok = accuracy >= 0.95
    _report(9, ok, f"1-NN accuracy {accuracy:.3f} on 40 test graphs "
                   f"(binomial p=0.1 vs p=0.9, n=15)")


def _run_cli(args, cwd):
    # The child runs in ``cwd``, so a relative PYTHONPATH would not resolve
    # there; put the directory holding the imported package first.
    package_root = str(Path(graphspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "graphspace.cli", *args],
        capture_output=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_c10_cli_determinism(tmp_path):
    runs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        stdouts = []
        stdouts.append(_run_cli(
            ["generate", "--family", "full_heavy_tailed", "--count", "4",
             "--sizes", "4", "5", "--seed", "7", "--out-dir", "corpus"], root))
        graphs = sorted(str(p.relative_to(root)) for p in (root / "corpus").glob("graph_*.json"))
        stdouts.append(_run_cli(
            ["generate", "--family", "binomial", "--count", "4", "--p", "0.3",
             "--sizes", "6", "6", "--seed", "8", "--out-dir", "binom"], root))
        binom = sorted(str(p.relative_to(root)) for p in (root / "binom").glob("graph_*.json"))
        stdouts.append(_run_cli(["match", graphs[0], graphs[1], "--seed", "1",
                                 "--restarts", "2", "--out", "match.json"], root))
        stdouts.append(_run_cli(["dist", graphs[0], graphs[1], "--seed", "1",
                                 "--out", "dist.json"], root))
        stdouts.append(_run_cli(["geodesic", graphs[0], graphs[1], "--steps", "4",
                                 "--seed", "1", "--out-dir", "geo"], root))
        stdouts.append(_run_cli(["mean", *graphs, "--refine", "--seed", "1",
                                 "--out", "mean.json", "--manifest", "mean_manifest.json"],
                                root))
        stdouts.append(_run_cli(["pca", *graphs, "--refine", "--seed", "1",
                                 "--out", "model.json"], root))
        stdouts.append(_run_cli(["sample", "--model", "model.json", "--count", "3",
                                 "--seed", "9", "--out-dir", "samples"], root))
        (root / "train.csv").write_text(
            f"{binom[0]},a\n{binom[1]},a\n{binom[2]},b\n{binom[3]},b\n")
        (root / "test.csv").write_text(f"{binom[0]},a\n{binom[3]},b\n")
        stdouts.append(_run_cli(["knn", "--train", "train.csv", "--test", "test.csv",
                                 "--k", "1", "--seed", "1", "--out", "knn.json"], root))
        stdouts.append(_run_cli(["pairwise", *graphs, "--seed", "1",
                                 "--out", "pairwise.csv"], root))
        stdouts.append(_run_cli(["bench-recovery", "--family", "binomial",
                                 "--sizes", "4", "5", "--trials", "5", "--seed", "3",
                                 "--refine", "--restarts", "3", "--out", "bench.json"],
                                root))
        runs.append((stdouts, _tree_bytes(root)))

    stdout_ok = runs[0][0] == runs[1][0]
    files_ok = runs[0][1] == runs[1][1]
    ok = stdout_ok and files_ok
    _report(10, ok,
            f"11 CLI invocations byte-identical across two runs "
            f"({len(runs[0][1])} output files compared)")
