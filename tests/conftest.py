import numpy as np

from graphspace import Graph, MatchConfig, graph_distance


def oracle(g1, g2, lam=0.0):
    """The exact registration of an equal-size pair: the ``brute`` solver,
    unpadded."""
    return graph_distance(g1, g2, MatchConfig(lam=lam, solver="brute", padding="none"))


def random_symmetric_graph(n, rng, scale=1.0):
    """Continuous-weight undirected graph with i.i.d. normal edge weights."""
    w = rng.normal(scale=scale, size=(n, n))
    w = np.triu(w, k=1)
    return Graph(w + w.T)


def random_nonnegative_graph(n, rng):
    """Undirected graph with uniform [0, 1) edge weights."""
    w = np.triu(rng.random((n, n)), k=1)
    return Graph(w + w.T)


def random_directed_graph(n, rng, scale=1.0):
    w = rng.normal(scale=scale, size=(n, n))
    np.fill_diagonal(w, 0.0)
    return Graph(w, directed=True)


def perturbed_corpus(base, count, rng, scale=0.1):
    """Permuted noisy copies of a base graph (same size, continuous weights)."""
    from graphspace import permute

    out = []
    n = base.n
    for _ in range(count):
        noise = rng.normal(scale=scale, size=(n, n))
        noise = np.triu(noise, k=1)
        g = Graph(base.adjacency + noise + noise.T)
        out.append(permute(g, rng.permutation(n)))
    return out
