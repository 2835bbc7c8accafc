"""Graph data model, permutation-group action, padding, and the ambient metric.

Graphs are dense weighted adjacency matrices with optional Euclidean node
attributes.  Node relabeling is the action of the permutation group,
``A -> P A P^T``, and the ambient distance ``d_a`` sums squared entrywise
differences over all ordered index pairs.  Because the sum runs over both
triangles of an undirected matrix, each undirected edge contributes twice;
distances are a factor sqrt(2) larger than upper-triangle conventions.

Null (padding) nodes are unattached nodes with zero edge weights and zero
attribute rows.  Their attribute is never materialized: it enters only
through the rows and columns that ``node_distance_matrix`` zeroes, so
matching a real node to a null node is attribute-cost-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "Permutation",
    "permute",
    "pad_pair",
    "pad_to_size",
    "ambient_distance",
    "node_distance_matrix",
    "to_laplacian",
    "from_laplacian",
]

_PADDINGS = ("two_way", "one_way", "none")


def _as_square_float(adjacency) -> np.ndarray:
    a = np.array(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """A weighted graph held as a dense adjacency matrix.

    Fields:
        adjacency: n x n real weight matrix, zero diagonal.  Symmetric
            (exactly) unless ``directed``.
        node_attrs: optional n x p matrix of node-attribute vectors.
        directed: whether edge weights are orientation-dependent.
        null_mask: boolean length-n vector marking padding nodes; null
            nodes must have zero adjacency rows/columns and zero attributes.

    Instances are immutable: arrays are copied on construction and marked
    read-only, so every operation on graphs is a pure function.
    """

    adjacency: np.ndarray
    node_attrs: np.ndarray | None = None
    directed: bool = False
    null_mask: np.ndarray | None = None

    def __post_init__(self):
        adj = _as_square_float(self.adjacency)
        n = adj.shape[0]
        if np.any(np.diag(adj) != 0.0):
            bad = int(np.flatnonzero(np.diag(adj))[0])
            raise ValueError(f"self-loop at node {bad}: diagonal entries must be zero")
        if not self.directed and not np.array_equal(adj, adj.T):
            raise ValueError("undirected graph requires an exactly symmetric adjacency matrix")

        attrs = self.node_attrs
        if attrs is not None:
            attrs = np.array(attrs, dtype=float)
            if attrs.ndim != 2 or attrs.shape[0] != n:
                raise ValueError(
                    f"node_attrs must have one row per node, got shape {attrs.shape} for n={n}"
                )
            if attrs.shape[1] < 1:
                raise ValueError("node_attrs must have at least one column when present")
            if not np.all(np.isfinite(attrs)):
                raise ValueError("node_attrs contains non-finite entries")

        mask = self.null_mask
        if mask is None:
            mask = np.zeros(n, dtype=bool)
        else:
            mask = np.array(mask, dtype=bool)
            if mask.shape != (n,):
                raise ValueError(f"null_mask must have length n={n}, got shape {mask.shape}")
        if mask.any():
            if np.any(adj[mask, :] != 0.0) or np.any(adj[:, mask] != 0.0):
                raise ValueError("null nodes must have zero adjacency rows and columns")
            if attrs is not None and np.any(attrs[mask] != 0.0):
                raise ValueError("null nodes must have zero attribute vectors")

        for arr in (adj, attrs, mask):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "node_attrs", attrs)
        object.__setattr__(self, "null_mask", mask)

    @classmethod
    def _trusted(cls, adjacency: np.ndarray, node_attrs: np.ndarray | None,
                 directed: bool, null_mask: np.ndarray) -> "Graph":
        """Wrap fresh arrays derived from valid graphs without re-validating.

        Internal to ``permute``, ``pad_to_size``, the template built in each
        step of ``stats.karcher_mean``, the interior points of
        ``matching.geodesic`` and ``documents.document_to_graph``.  Their
        outputs satisfy every invariant ``__post_init__`` checks by
        construction (the document schema rejects each violation); the
        arrays are frozen here and must not be shared with the caller.
        """
        g = object.__new__(cls)
        for arr in (adjacency, node_attrs, null_mask):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(g, "adjacency", adjacency)
        object.__setattr__(g, "node_attrs", node_attrs)
        object.__setattr__(g, "directed", directed)
        object.__setattr__(g, "null_mask", null_mask)
        return g

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def attr_dim(self) -> int:
        return 0 if self.node_attrs is None else self.node_attrs.shape[1]

    def __repr__(self):
        try:
            return (
                f"Graph(n={self.n}, directed={self.directed}, "
                f"attr_dim={self.attr_dim}, nulls={int(self.null_mask.sum())})"
            )
        except Exception:  # partially constructed instance in a traceback
            return "Graph(<invalid>)"


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of node indices; ``perm[i] = j`` sends node i to slot j.

    As a matrix, ``P[perm[i], i] = 1`` so that the group action on an
    adjacency matrix is ``P A P^T``.
    """

    perm: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.perm)
        kind = raw.dtype.kind
        # bools, strings and fractional floats would otherwise cast silently,
        # and numpy promotes a bool listed among numbers (``[True, 0]``)
        mixed_bool = raw.ndim == 1 and not isinstance(self.perm, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in self.perm)
        if kind not in "iuf" or mixed_bool or (
                kind == "f" and not (np.isfinite(raw) & (np.floor(raw) == raw)).all()):
            raise ValueError("permutation entries must be integers")
        p = raw.astype(int)
        if p.ndim != 1:
            raise ValueError("permutation must be a 1-d integer vector")
        n = p.shape[0]
        if n and (p.min() < 0 or p.max() >= n or np.unique(p).shape[0] != n):
            raise ValueError("permutation vector must be a bijection of 0..n-1")
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)

    @classmethod
    def _trusted(cls, perm: np.ndarray) -> "Permutation":
        """Wrap a fresh integer bijection without re-validating it.

        Internal to ``matching.build_match_result``, whose input is a
        solver's output and a bijection by construction (a square
        assignment, a lifted partial one, a sequence of swaps or a
        branch-and-bound leaf), to the co-optimal leaves that
        ``matching.graph_distance`` lists for the ``brute`` solver and to
        the registrations of ``stats.karcher_mean``, which compose such
        outputs; the array is frozen here and must not be shared with the
        caller.
        """
        p = object.__new__(cls)
        perm.setflags(write=False)
        object.__setattr__(p, "perm", perm)
        return p

    @property
    def n(self) -> int:
        return self.perm.shape[0]

    def __len__(self):
        return self.n

    def matrix(self) -> np.ndarray:
        p = np.zeros((self.n, self.n))
        p[self.perm, np.arange(self.n)] = 1.0
        return p

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.perm))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self∘other, the permutation applying ``other`` first."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self.perm[other.perm])

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(np.arange(n))

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "Permutation":
        return Permutation(rng.permutation(n))

    def __repr__(self):
        return f"Permutation({self.perm.tolist()})"


def as_permutation(p, n: int | None = None) -> Permutation:
    """Coerce an index vector or Permutation, optionally checking its size."""
    if not isinstance(p, Permutation):
        p = Permutation(np.asarray(p))
    if n is not None and p.n != n:
        raise ValueError(f"permutation length {p.n} does not match graph size {n}")
    return p


def permute(g: Graph, p) -> Graph:
    """Relabel nodes of ``g`` by ``p``: adjacency becomes P A P^T.

    Implemented by index scatter, so entries move without floating-point
    arithmetic and symmetry is preserved exactly.
    """
    p = as_permutation(p, g.n)
    idx = p.perm
    adj = np.zeros_like(g.adjacency)
    adj[idx[:, None], idx] = g.adjacency
    attrs = None
    if g.node_attrs is not None:
        attrs = np.zeros_like(g.node_attrs)
        attrs[idx] = g.node_attrs
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = g.null_mask
    return Graph._trusted(adj, attrs, g.directed, mask)


def pad_to_size(g: Graph, m: int) -> Graph:
    """Append ``m - n`` null nodes (zero rows/columns, zero attributes)."""
    if m < g.n:
        raise ValueError(f"cannot pad graph of size {g.n} down to {m}")
    if m == g.n:
        return g
    adj = np.zeros((m, m))
    adj[: g.n, : g.n] = g.adjacency
    attrs = None
    if g.node_attrs is not None:
        attrs = np.zeros((m, g.attr_dim))
        attrs[: g.n] = g.node_attrs
    mask = np.ones(m, dtype=bool)
    mask[: g.n] = g.null_mask
    return Graph._trusted(adj, attrs, g.directed, mask)


def _padded_size(mode: str, n1: int, n2: int) -> int:
    """Node count of a pair of sizes n1 and n2 padded as ``mode`` says."""
    if mode == "two_way":
        return n1 + n2
    if mode == "one_way":
        return max(n1, n2)
    if mode != "none":
        raise ValueError(f"unknown padding mode {mode!r}")
    if n1 != n2:
        raise ValueError(f"padding 'none' requires equal sizes, got {n1} vs {n2}")
    return n1


def pad_pair(g1: Graph, g2: Graph, mode: str = "two_way"):
    """Pad two graphs to a common size with null nodes.

    ``two_way`` brings both to size n1 + n2 (null nodes added even when the
    sizes already agree, which gives the matcher freedom to park nodes on
    null slots), ``one_way`` to max(n1, n2), and ``none`` leaves a pair of
    equal sizes as it is.
    """
    if g1.directed != g2.directed:
        raise ValueError("cannot pad a directed graph against an undirected one")
    m = _padded_size(mode, g1.n, g2.n)
    return pad_to_size(g1, m), pad_to_size(g2, m)


def _numbered(what: str, count: int) -> list[str]:
    return [f"{what} {i}" for i in range(count)]


# the most the squared edge weights of one graph, plus max(lam, 1) times its
# squared attribute norms under lam > 0, may sum to: an edge term is at most
# 2 (sum w1^2 + sum w2^2) and a node cost 2 (||x||^2 + ||y||^2), so node
# costs, lam D and J stay finite between any two accepted graphs
_MAX_SQUARED_WEIGHT = np.finfo(float).max / 4


def _check_weights(g: Graph, name: str, lam: float) -> None:
    """Refuse ``g``, by ``name``, if its squared edge weights sum past
    ``_MAX_SQUARED_WEIGHT``, or, with ``lam`` > 0, if they do with
    max(lam, 1) times its squared attribute norms added."""
    with np.errstate(over="ignore"):  # a sum past the float limit is inf
        squares = float(np.sum(g.adjacency * g.adjacency))
        if squares > _MAX_SQUARED_WEIGHT:
            raise ValueError(f"edge weights of {name} are too large: their squares must "
                             f"sum to at most {_MAX_SQUARED_WEIGHT:.4g}")
        if lam != 0.0 and g.node_attrs is not None:
            squares += max(lam, 1.0) * float(np.sum(g.node_attrs * g.node_attrs))
    if squares > _MAX_SQUARED_WEIGHT:
        raise ValueError(f"node attributes of {name} are too large at lambda = {lam:g}: the "
                         f"graph's squared edge weights plus max(lambda, 1) times its squared "
                         f"attribute norms must sum to at most {_MAX_SQUARED_WEIGHT:.4g}")


def _check_corpus(graphs, lam: float, names, like: Graph | None = None) -> None:
    """Reject, before any matching, graphs that some pair could not match.

    Every graph must share the directedness of ``like`` (default: the
    first graph), pass ``_check_weights`` at ``lam``, and with ``lam > 0``
    carry node attributes.  Graphs that carry attributes must agree on
    their dimension with ``like``'s, or, when ``like`` has none, with the
    first attributed graph's.  The error names the first graph that breaks a
    rule by its entry in ``names``.
    """
    like = like or (graphs[0] if graphs else None)
    dim = like.attr_dim if like is not None else 0
    for g, name in zip(graphs, names):
        _check_weights(g, name, lam)
        if g.directed != like.directed:
            raise ValueError(f"cannot match a directed graph against an undirected one "
                             f"({name}): a corpus must not mix them")
        if g.node_attrs is None:
            if lam != 0.0:
                raise ValueError(f"lambda = {lam} requires node attributes, but {name} has none")
            continue
        dim = dim or g.attr_dim
        if g.attr_dim != dim:
            raise ValueError(f"attribute dimension mismatch: {name} has {g.attr_dim}, "
                             f"expected {dim}")


def _squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sum_ij (a_ij - b_ij)^2 by math.fsum, so correctly rounded.

    Zero differences are skipped: they add nothing to fsum's exact sum.
    """
    diff = a - b
    diff = diff[diff != 0.0]
    return math.fsum((diff * diff).tolist())


def ambient_distance(g1: Graph, g2: Graph) -> float:
    """Entrywise distance sqrt(sum_ij (a1_ij - a2_ij)^2) between equal-size graphs.

    The sum runs over all ordered pairs, so undirected edges count twice.
    Accumulated with math.fsum, so the result depends only on the multiset
    of entry differences; relabeling both graphs by one permutation leaves
    it bit-identical.
    """
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n} (pad first)")
    if g1.directed != g2.directed:
        raise ValueError("cannot compare directed with undirected graphs")
    return math.sqrt(_squared_distance(g1.adjacency, g2.adjacency))


def _null_costs(x1: np.ndarray, null1: np.ndarray, x2: np.ndarray,
                null2: np.ndarray) -> np.ndarray:
    """||x1_i - x2_j||^2 between the rows of ``x1`` and ``x2``, zero on every
    row of a null node of ``null1`` and every column of one of ``null2``,
    per entry of any leading stack axes (each entry as computed alone).
    Attributes near the float limit give inf without a warning; a document
    that would carry one is refused when written."""
    with np.errstate(over="ignore"):
        diff = x1[..., :, None, :] - x2[..., None, :, :]
        d = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return np.where(null1[..., :, None] | null2[..., None, :], 0.0, d)


def node_distance_matrix(g1: Graph, g2: Graph) -> np.ndarray:
    """Pairwise squared attribute distances, d_ij = ||attr1_i - attr2_j||^2.

    Every row or column belonging to a null node of either graph is zero,
    realizing the convention that a null node's attribute equals whatever
    it is matched against and therefore never contributes cost.
    """
    if g1.node_attrs is None or g2.node_attrs is None:
        raise ValueError("node_distance_matrix requires node attributes on both graphs")
    if g1.attr_dim != g2.attr_dim:
        raise ValueError(
            f"attribute dimension mismatch: {g1.attr_dim} vs {g2.attr_dim}"
        )
    return _null_costs(g1.node_attrs, g1.null_mask, g2.node_attrs, g2.null_mask)


def to_laplacian(g: Graph) -> np.ndarray:
    """Laplacian L = D - A with D the diagonal of weighted degrees.

    Defined here only for undirected graphs with nonnegative weights (the
    representation's usual scope).
    """
    if g.directed:
        raise ValueError("Laplacian representation requires an undirected graph")
    if np.any(g.adjacency < 0.0):
        raise ValueError("Laplacian representation requires nonnegative edge weights")
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a


def from_laplacian(L) -> Graph:
    """Invert the Laplacian map: A = diag(L) - L.

    Requires an exactly symmetric matrix with nonpositive off-diagonal
    entries and (numerically) zero row sums; the round trip
    ``from_laplacian(to_laplacian(g))`` reproduces ``g`` exactly.
    """
    L = np.array(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {L.shape}")
    if not np.array_equal(L, L.T):
        raise ValueError("Laplacian must be symmetric")
    scale = 1.0 + float(np.abs(L).max(initial=0.0))
    if np.any(np.abs(L.sum(axis=1)) > 1e-9 * scale):
        raise ValueError("Laplacian rows must sum to zero")
    off = L - np.diag(np.diag(L))
    if np.any(off > 0.0):
        raise ValueError("Laplacian off-diagonal entries must be nonpositive")
    a = np.diag(np.diag(L)) - L
    np.fill_diagonal(a, 0.0)
    return Graph(a)
