"""Statistics in graph space: Karcher mean, PCA, and a Gaussian sampler.

The mean alternates between registering every graph to a template and
averaging the registered adjacencies.  A registration is only adopted when
it does not worsen that sample's edge discrepancy against the current
template, so the traced energy sum is non-increasing even with heuristic
matchers.  PCA takes such a mean and works in the tangent space at it: it
vectorizes the registered residuals (strict upper triangle for undirected
graphs, so each edge is counted once), centers them, and takes a thin
SVD; scores live in an ordinary Euclidean space where a low-dimensional
Gaussian can be fitted and sampled, with samples mapped back to graphs
through the PCA basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (Graph, Permutation, _check_corpus, _numbered, _squared_distance,
                     pad_to_size)
from .matching import MatchConfig, graph_distance

__all__ = [
    "Registration",
    "GraphMean",
    "GraphPcaModel",
    "GaussianGraphModel",
    "karcher_mean",
    "graph_pca",
    "reconstruct",
    "fit_gaussian",
    "sample_scores",
    "sample_graphs",
    "components_for_variance",
    "truncate_components",
]


@dataclass(frozen=True, eq=False)
class Registration:
    """One corpus graph registered to the mean template."""

    permutation: Permutation
    graph: Graph
    edge_energy: float


@dataclass(frozen=True, eq=False)
class GraphMean:
    """Karcher mean template with per-sample registrations.

    ``energy_trace`` holds sum_i ||A_i* - A_mu||^2 after every outer
    iteration's averaging step; the registration-keep rule makes it
    non-increasing.  At return, ``mu``'s adjacency is exactly the
    arithmetic mean of the registered adjacencies.  ``lam`` is the
    attribute weight of the metric the registrations minimized; PCA at
    this mean weights the attribute block by it.
    """

    mu: Graph
    registrations: tuple[Registration, ...]
    energy_trace: tuple[float, ...]
    converged: bool
    lam: float


def karcher_mean(graphs, cfg: MatchConfig | None = None,
                 max_outer: int = 30, tol: float = 1e-9) -> GraphMean:
    """Mean graph under the quotient metric.

    The template starts as the largest input graph; all graphs are one-way
    padded to its size and registered against it with the configured
    solver (``cfg.padding`` is ignored here, registration is always at the
    template size).  ``cfg.faq_init`` governs the first outer pass only:
    later ``faq`` passes start Frank-Wolfe from each sample's current
    registration (the ``identity`` start on the registered graph) and
    compose the permutations; restarts still run in every pass, and the
    keep rule holds whatever the start.  ``umeyama`` and ``brute``
    register the padded input afresh in every pass.  Node attributes,
    when every input carries them, are averaged per slot over the samples
    whose registered node is real; a slot matched only by null nodes stays
    null.  The corpus must pass the matching pipelines' corpus rule
    (``graphs._check_corpus``), and the mean keeps ``cfg.lam`` for PCA.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("karcher_mean requires at least one graph")
    if max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    cfg = cfg or MatchConfig()
    _check_corpus(graphs, cfg.lam, _numbered("graph", len(graphs)))
    directed = graphs[0].directed
    with_attrs = all(g.node_attrs is not None for g in graphs)

    sizes = [g.n for g in graphs]
    m = max(sizes)
    template_idx = sizes.index(m)
    padded = [pad_to_size(g, m) for g in graphs]
    mu = padded[template_idx]
    inner_cfg = replace(cfg, padding="none")

    # perms[i] registers padded[i] as registered[i], whose edge energy
    # against the current mu is energies[i]; the identity starts them.
    perms = [np.arange(m) for _ in padded]
    registered = list(padded)
    energies = [_squared_distance(g.adjacency, mu.adjacency) for g in padded]
    warm_cfg = replace(inner_cfg, faq_init="identity")
    trace: list[float] = []
    converged = False
    for outer in range(max_outer):
        # Register every sample to the current template, keeping the old
        # permutation whenever the new one does not strictly improve the
        # edge discrepancy (monotonicity guard for heuristic solvers).
        # A warm start registers registered[i] = permute(padded[i], perms[i]),
        # so its permutation composes with perms[i] to act on padded[i].
        warm = outer > 0 and cfg.solver == "faq"
        for i, g in enumerate(padded):
            if warm:
                result = graph_distance(registered[i], mu, warm_cfg)
                new_perm = result.p.perm[perms[i]]
            else:
                result = graph_distance(g, mu, inner_cfg)
                new_perm = result.p.perm
            # with lam = 0 the objective is the exact fsum of the same
            # squared differences, so it is the edge energy bit for bit
            new_e = (result.objective if cfg.lam == 0.0 else
                     _squared_distance(result.g1_registered.adjacency, mu.adjacency))
            if new_e < energies[i]:
                perms[i] = new_perm
                registered[i] = result.g1_registered

        # Averaging step: arithmetic mean of adjacencies minimizes the sum
        # of squared discrepancies; attributes averaged over real matches.
        adj = np.mean([r.adjacency for r in registered], axis=0)
        attrs = None
        if with_attrs:
            counts = np.sum([~r.null_mask for r in registered], axis=0)
            total = np.sum(
                [np.where(r.null_mask[:, None], 0.0, r.node_attrs) for r in registered],
                axis=0,
            )
            mask = counts == 0
            attrs = np.zeros_like(total)
            np.divide(total, counts[:, None], out=attrs, where=counts[:, None] > 0)
        else:
            mask = np.all([r.null_mask for r in registered], axis=0)
        adj[mask, :] = 0.0
        adj[:, mask] = 0.0
        # Fresh arrays, valid by construction: elementwise means of exactly
        # symmetric matrices are exactly symmetric, and the diagonal, null
        # rows and null attributes are zero.
        mu = Graph._trusted(adj, attrs, directed, mask)

        energies = [_squared_distance(r.adjacency, mu.adjacency) for r in registered]
        energy = math.fsum(energies)
        trace.append(energy)
        if len(trace) >= 2 and trace[-2] - trace[-1] <= tol * max(1.0, trace[-2]):
            converged = True
            break
        if energy == 0.0:
            converged = True
            break

    regs = tuple(
        Registration(Permutation._trusted(p), r, e)
        for p, r, e in zip(perms, registered, energies)
    )
    return GraphMean(mu=mu, registrations=regs, energy_trace=tuple(trace),
                     converged=converged, lam=cfg.lam)


@dataclass(frozen=True, eq=False)
class GraphPcaModel:
    """Principal directions of registered, centered graph residuals.

    ``mu`` is the mean graph the residuals are taken from; the template
    size, directedness and (with ``include_nodes``) the attribute
    dimension are read off it.  ``basis`` rows are orthonormal directions
    over the residual vectorization (edge block, then sqrt(lambda)-scaled
    attribute block when ``include_nodes``); ``singular_values`` are the
    singular values of the centered residual matrix, so sum(s^2) /
    (n_samples - 1) is the total residual variance and
    ``component_variances`` are the per-axis variances whose square roots
    scale the principal-variation displays.
    """

    mu: Graph
    basis: np.ndarray
    singular_values: np.ndarray
    component_variances: np.ndarray
    explained_variance_ratio: np.ndarray
    scores: np.ndarray
    center: np.ndarray
    lam: float
    include_nodes: bool
    nonnegative: bool

    @property
    def size(self) -> int:
        return self.mu.n

    @property
    def directed(self) -> bool:
        return self.mu.directed

    @property
    def attr_dim(self) -> int:
        return self.mu.attr_dim if self.include_nodes else 0

    @property
    def n_components(self) -> int:
        return self.basis.shape[0]

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]


def _edge_indices(m: int, directed: bool):
    if directed:
        mask = ~np.eye(m, dtype=bool)
        return np.where(mask)
    return np.triu_indices(m, k=1)


def _vectorize(model_like, graph: Graph) -> np.ndarray:
    """Residual-space coordinates of a registered graph (not centered)."""
    rows, cols = _edge_indices(model_like.size, model_like.directed)
    vec = graph.adjacency[rows, cols]
    if model_like.include_nodes:
        attrs = np.where(graph.null_mask[:, None], 0.0, graph.node_attrs)
        vec = np.concatenate([vec, math.sqrt(model_like.lam) * attrs.ravel()])
    return vec


def graph_pca(mean: GraphMean, include_nodes: bool = False) -> GraphPcaModel:
    """PCA in the tangent space at a Karcher mean.

    Vectorizes the registered residuals A_i* - A_mu of ``mean``'s
    registrations over the strict upper triangle (full off-diagonal when
    directed), appends sqrt(lambda)-scaled attribute residuals when
    ``include_nodes``, centers, and takes a thin SVD.  lambda is
    ``mean.lam``, the weight the registrations were computed with, so the
    attribute block is scaled as the metric scales it.  A corpus of
    identical graphs yields all-zero singular values.
    """
    regs = mean.registrations
    if len(regs) < 2:
        raise ValueError("graph_pca requires at least two graphs")
    lam = mean.lam
    if include_nodes and lam <= 0:
        raise ValueError("include_nodes requires lambda > 0 (attribute block scale)")
    mu = mean.mu
    if include_nodes and mu.node_attrs is None:
        raise ValueError("include_nodes requires node attributes on the corpus")

    rows, cols = _edge_indices(mu.n, mu.directed)
    sqrt_lam = math.sqrt(lam) if include_nodes else 0.0
    vecs = []
    for reg in regs:
        resid = (reg.graph.adjacency - mu.adjacency)[rows, cols]
        if include_nodes:
            # a null node's attribute equals whatever it faces, so its
            # residual contributes nothing
            attr_resid = reg.graph.node_attrs - mu.node_attrs
            attr_resid[reg.graph.null_mask] = 0.0
            attr_resid[mu.null_mask] = 0.0
            resid = np.concatenate([resid, sqrt_lam * attr_resid.ravel()])
        vecs.append(resid)
    z = np.vstack(vecs)
    center = z.mean(axis=0)
    zc = z - center
    u, s, vt = np.linalg.svd(zc, full_matrices=False)
    scores = u * s
    total = float((s * s).sum())
    evr = (s * s) / total if total > 0 else np.zeros_like(s)
    return GraphPcaModel(
        mu=mu,
        basis=vt,
        singular_values=s,
        component_variances=(s * s) / (len(regs) - 1),
        explained_variance_ratio=evr,
        scores=scores,
        center=center,
        lam=lam,
        include_nodes=include_nodes,
        # a registered graph is a permuted, zero-padded input
        nonnegative=bool(all(r.graph.adjacency.min(initial=0.0) >= 0.0 for r in regs)),
    )


def _unvectorize(model: GraphPcaModel, vec: np.ndarray, threshold: float) -> Graph:
    rows, cols = _edge_indices(model.size, model.directed)
    n_edges = len(rows)
    adj = np.zeros((model.size, model.size))
    adj[rows, cols] = vec[:n_edges]
    if not model.directed:
        adj = adj + adj.T
    if threshold > 0:
        adj[np.abs(adj) < threshold] = 0.0
    if model.nonnegative:
        adj = np.maximum(adj, 0.0)
    attrs = None
    if model.include_nodes:
        attrs = vec[n_edges:].reshape(model.size, model.attr_dim) / math.sqrt(model.lam)
    return Graph(adj, node_attrs=attrs, directed=model.directed)


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")


def reconstruct(model: GraphPcaModel, scores, threshold: float = 0.0) -> Graph:
    """Map principal scores back to a graph.

    ``mean + sum_j scores_j * basis_j``, un-vectorized into a symmetric
    adjacency (and attributes when the model includes them).  Edges with
    absolute weight below ``threshold`` are dropped; negative weights are
    clamped to zero when the training corpus was nonnegative.  Zero scores
    give the mean graph; a sample's stored score row gives back its
    registered graph exactly (threshold 0).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.shape[0] > model.n_components:
        raise ValueError(
            f"scores must be a vector of length <= {model.n_components}, "
            f"got shape {scores.shape}"
        )
    _check_threshold(threshold)
    vec = _vectorize(model, model.mu) + model.center
    if scores.size:
        vec = vec + scores @ model.basis[: scores.shape[0]]
    return _unvectorize(model, vec, threshold)


@dataclass(frozen=True, eq=False)
class GaussianGraphModel:
    """Multivariate normal over the leading principal scores."""

    pca: GraphPcaModel
    score_mean: np.ndarray
    score_cov: np.ndarray
    threshold: float = 0.0

    @property
    def k(self) -> int:
        return self.score_mean.shape[0]


def truncate_components(model: GraphPcaModel, k: int) -> GraphPcaModel:
    """Keep the leading ``k`` principal components of a fitted model."""
    if not 0 <= k <= model.n_components:
        raise ValueError(f"k must lie in 0..{model.n_components}, got {k}")
    return replace(
        model,
        basis=model.basis[:k],
        singular_values=model.singular_values[:k],
        component_variances=model.component_variances[:k],
        explained_variance_ratio=model.explained_variance_ratio[:k],
        scores=model.scores[:, :k],
    )


def fit_gaussian(pca: GraphPcaModel, k: int, threshold: float = 0.0) -> GaussianGraphModel:
    """Fit mean and covariance of the first ``k`` score columns."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_threshold(threshold)
    if k > pca.n_components:
        raise ValueError(f"k={k} exceeds available components {pca.n_components}")
    if pca.n_samples < 2:
        raise ValueError("covariance estimation needs at least two samples")
    scores = pca.scores[:, :k]
    mean = scores.mean(axis=0)
    cov = np.atleast_2d(np.cov(scores, rowvar=False, ddof=1))
    return GaussianGraphModel(pca=truncate_components(pca, k), score_mean=mean,
                              score_cov=cov, threshold=threshold)


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("score covariance is not PSD within jitter 1e-10")


def sample_scores(model: GaussianGraphModel, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` score vectors from the fitted normal."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    chol = _cholesky_with_jitter(model.score_cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, model.k))
    return model.score_mean + z @ chol.T


def sample_graphs(model: GaussianGraphModel, seed: int, count: int) -> list[Graph]:
    """Sample graphs: draw score vectors and reconstruct each one at the
    model's threshold."""
    return [reconstruct(model.pca, s, model.threshold)
            for s in sample_scores(model, seed, count)]


def components_for_variance(pca: GraphPcaModel, target: float = 0.8) -> int:
    """Smallest component count whose cumulative explained variance reaches target."""
    if not 0.0 < target <= 1.0:
        raise ValueError("target must lie in (0, 1]")
    if pca.n_components == 0:
        return 0
    cums = np.cumsum(pca.explained_variance_ratio)
    hit = np.flatnonzero(cums >= target - 1e-12)
    return int(hit[0]) + 1 if hit.size else pca.n_components
