"""Averaging a graph corpus and reading off its main modes of variation.

A corpus of distorted copies of one prototype is registered to a common
template and averaged; the registered residuals then admit an ordinary
PCA.  The mean recovers the prototype's structure, the energy trace
decreases monotonically, and perturbing the mean along a principal
direction by one or two standard deviations visualizes what each component
encodes.

Run:  python demos/03_mean_and_pca.py
"""

import numpy as np

from graphspace import (
    MatchConfig,
    components_for_variance,
    graph_pca,
    karcher_mean,
    letter_like,
    reconstruct,
    trial_rng,
)


def describe(g, threshold=0.5):
    strong = int((np.triu(g.adjacency, 1) >= threshold).sum())
    weak = int(((np.triu(g.adjacency, 1) > 0)
                & (np.triu(g.adjacency, 1) < threshold)).sum())
    return f"{g.n} nodes, {strong} strong edges, {weak} faint edges"


def main():
    corpus = [
        letter_like(trial_rng(3, i), coord_noise=0.12, edge_noise=0.08, node_drop=0.1)
        for i in range(50)
    ]
    sizes = sorted({g.n for g in corpus})
    print(f"corpus: 50 distorted letters, sizes {sizes}")

    cfg = MatchConfig(lam=1.0, refinement=True)
    mean = karcher_mean(corpus, cfg)
    model = graph_pca(mean, cfg.lam, include_nodes=True)

    print("\n== Mean graph ==")
    print(f"  template: {describe(mean.mu)}")
    print("  energy trace:", "  ".join(f"{e:.3f}" for e in mean.energy_trace))
    drops = [a - b for a, b in zip(mean.energy_trace, mean.energy_trace[1:])]
    assert all(d >= -1e-9 for d in drops), "energy must not increase"
    print("  (non-increasing, as the registration-keep rule guarantees)")

    print("\n== Principal components ==")
    evr = model.explained_variance_ratio
    print("  explained variance:", "  ".join(f"{v:.2%}" for v in evr[:6]))
    k80 = components_for_variance(model, 0.8)
    print(f"  {k80} components cover 80% of the corpus variance")

    print("\n== Principal variations (mean perturbed along one direction) ==")
    for j in range(min(3, model.n_components)):
        sigma = float(np.sqrt(model.component_variances[j]))
        row = []
        for c in (-2.0, -1.0, 0.0, 1.0, 2.0):
            scores = np.zeros(j + 1)
            scores[j] = c * sigma
            row.append(describe(reconstruct(model, scores, threshold=0.25)))
        print(f"  direction {j + 1} (sd {sigma:.3f}):")
        for c, txt in zip((-2, -1, 0, 1, 2), row):
            print(f"    {c:+d} sd: {txt}")

    print("\n== Low-dimensional embedding separates distortion levels ==")
    crisp = [letter_like(trial_rng(4, i), coord_noise=0.03, edge_noise=0.01)
             for i in range(15)]
    noisy = [letter_like(trial_rng(5, i), coord_noise=0.25, edge_noise=0.2)
             for i in range(15)]
    both = graph_pca(karcher_mean(crisp + noisy, cfg), cfg.lam, include_nodes=True)
    spread = np.linalg.norm(both.scores[:, :2], axis=1)
    print(f"  mean 2-pc score norm: crisp {spread[:15].mean():.3f} "
          f"vs noisy {spread[15:].mean():.3f}")


if __name__ == "__main__":
    main()
