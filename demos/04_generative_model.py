"""Sampling new graphs from a Gaussian fitted in principal-score space.

PCA turns registered graphs into Euclidean score vectors; a multivariate
normal fitted to the leading scores then generates unlimited synthetic
graphs by mapping samples back through the basis.  Weak reconstructed
edges are thresholded away and negative weights clamped, so samples from a
binary-edge corpus stay displayable.

Run:  python demos/04_generative_model.py
"""

import numpy as np

from graphspace import (
    MatchConfig,
    components_for_variance,
    document_to_graph,
    fit_gaussian,
    graph_pca,
    graph_to_document,
    karcher_mean,
    letter_like,
    sample_graphs,
    sample_scores,
    trial_rng,
)


def density(graphs):
    vals = [np.triu(g.adjacency, 1).sum() for g in graphs]
    return float(np.mean(vals)), float(np.std(vals))


def main():
    corpus = [
        letter_like(trial_rng(11, i), coord_noise=0.12, edge_noise=0.06)
        for i in range(40)
    ]
    cfg = MatchConfig(lam=1.0, refinement=True)
    pca = graph_pca(karcher_mean(corpus, cfg), cfg.lam, include_nodes=True)
    k = components_for_variance(pca, 0.8)
    model = fit_gaussian(pca, k, threshold=0.2)
    print(f"fitted a {k}-dimensional Gaussian over principal scores "
          f"({pca.n_components} available)")

    print("\n== The fitted normal reproduces the empirical score spread ==")
    draws = sample_scores(model, seed=101, count=5000)
    for j in range(min(3, k)):
        print(f"  score {j + 1}: fitted sd {np.sqrt(model.score_cov[j, j]):.4f},"
              f" sampled sd {draws[:, j].std(ddof=1):.4f}")

    print("\n== Sampled graphs ==")
    samples = sample_graphs(model, seed=102, count=100)
    mu_c, sd_c = density(corpus)
    mu_s, sd_s = density(samples)
    print(f"  corpus total edge weight: {mu_c:.2f} +- {sd_c:.2f}")
    print(f"  sample total edge weight: {mu_s:.2f} +- {sd_s:.2f}")

    ok = 0
    for g in samples:
        document_to_graph(graph_to_document(g))  # raises if malformed
        ok += 1
    print(f"  all {ok} samples serialize to valid graph documents")

    one = samples[0]
    rows, cols = np.nonzero(np.triu(one.adjacency, 1))
    print("\n  first sample:")
    for i, j in zip(rows, cols):
        print(f"    edge {i}-{j}  weight {one.adjacency[i, j]:.3f}")
    print("    node positions:",
          " ".join(f"({x:.2f},{y:.2f})" for x, y in one.node_attrs))


if __name__ == "__main__":
    main()
