"""JSON graph documents: a dependency-light, bit-exact on-disk format.

A document is ``{"directed": bool, "nodes": [...], "edges": [...]}`` where
nodes are ``{"id": int, "attr": [...], "null": true}`` (attr and null
optional) and edges are ``{"i": int, "j": int, "w": float}``.  Node ids
must be 0..n-1 in ascending order, undirected documents list each edge
once with i < j, weights are finite and nonzero, and duplicate edges are
rejected.  The writer is canonical (sorted edges, fixed key order), so
save-then-load-then-save reproduces files byte for byte.

Every document, and every JSON output of the CLI, is written by
``_dumps``: ``json.dumps(obj, allow_nan=False)`` and a newline, compact
JSON with the default ``", "`` and ``": "`` separators.  It refuses NaN
and infinities, which the reader rejects, so no file is written that
cannot be read back.  The reader runs every schema check per node
and per edge, in document order, so the first violation is the one
reported; it formats an error message only when a check fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .graphs import Graph

__all__ = [
    "ValidationError",
    "document_to_graph",
    "graph_to_document",
    "load_graph",
    "save_graph",
    "dumps_graph",
    "pca_model_document",
    "pca_model_from_document",
]


class ValidationError(ValueError):
    """A document violates the graph-document schema."""


_DOC_KEYS = {"directed", "nodes", "edges"}
_NODE_KEYS = {"id", "attr", "null"}
_EDGE_KEYS = {"i", "j", "w"}
# Exact type: bool, numpy scalars and other subclasses take the general path.
_FLOAT = {float}


def _fail(msg: str):
    raise ValidationError(msg)


def _check_number(x, what: str, *args) -> float:
    """``x`` as a finite float; failures name ``what.format(*args)``, which
    is formatted only then."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(f"{what.format(*args)}: expected a number, got {type(x).__name__}")
    try:
        x = float(x)
    except OverflowError:
        _fail(f"{what.format(*args)}: value is too large for a float")
    if not math.isfinite(x):
        _fail(f"{what.format(*args)}: value must be finite, got {x}")
    return x


def _check_numbers(values: list, what: str, *args) -> list:
    """``values`` as finite floats; the first failing entry names ``what``."""
    if _FLOAT.issuperset(map(type, values)) and all(map(math.isfinite, values)):
        return values
    return [_check_number(v, what, *args) for v in values]


def _check_edge_ids(pos: int, i, j, n: int) -> None:
    for name, v in (("i", i), ("j", j)):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(f"edge at position {pos}: '{name}' must be an integer")
        if not 0 <= v < n:
            _fail(f"edge at position {pos}: node id {v} out of range 0..{n - 1}")


def document_to_graph(doc) -> Graph:
    """Validate a parsed JSON document and build the Graph it describes."""
    if not isinstance(doc, dict):
        _fail(f"document must be a JSON object, got {type(doc).__name__}")
    unknown = doc.keys() - _DOC_KEYS
    if unknown:
        _fail(f"unknown document keys: {sorted(unknown)}")
    missing = _DOC_KEYS - doc.keys()
    if missing:
        _fail(f"missing document keys: {sorted(missing)}")
    directed = doc["directed"]
    if not isinstance(directed, bool):
        _fail("'directed' must be a boolean")

    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        _fail("'nodes' must be a non-empty list")
    n = len(nodes)
    attr_dim = None
    attrs = []
    nulls = set()
    for pos, node in enumerate(nodes):
        if not isinstance(node, dict):
            _fail(f"node at position {pos}: expected an object")
        unknown = node.keys() - _NODE_KEYS
        if unknown:
            _fail(f"node at position {pos}: unknown keys {sorted(unknown)}")
        nid = node.get("id")
        if type(nid) is not int or nid != pos:
            if isinstance(nid, bool) or not isinstance(nid, int):
                _fail(f"node at position {pos}: 'id' must be an integer, got {nid!r}")
            _fail(f"node at position {pos}: ids must be 0..n-1 in ascending order, got {nid!r}")
        has_attr = "attr" in node
        if has_attr and (not isinstance(node["attr"], list) or not node["attr"]):
            _fail(f"node {pos}: attr must be a non-empty list of numbers")
        if attr_dim is None:
            attr_dim = len(node["attr"]) if has_attr else 0
        if has_attr != (attr_dim > 0):
            _fail(f"node {pos}: all nodes must carry attributes, or none")
        if has_attr:
            vec = node["attr"]
            if len(vec) != attr_dim:
                _fail(f"node {pos}: attr must have {attr_dim} entries, got {len(vec)}")
            attrs.append(_check_numbers(vec, "node {} attr", pos))
        if "null" in node:
            if node["null"] is not True:
                _fail(f"node {pos}: 'null' may only be true (omit otherwise)")
            nulls.add(pos)
            if has_attr and any(v != 0.0 for v in attrs[-1]):
                _fail(f"node {pos}: null nodes must have zero attributes")

    edges = doc["edges"]
    if not isinstance(edges, list):
        _fail("'edges' must be a list")
    rows, cols, weights = [], [], []
    isfinite = math.isfinite
    seen = set()
    for pos, edge in enumerate(edges):
        if not isinstance(edge, dict) or edge.keys() != _EDGE_KEYS:
            _fail(f"edge at position {pos}: expected keys {sorted(_EDGE_KEYS)}")
        i, j, w = edge["i"], edge["j"], edge["w"]
        if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
            _check_edge_ids(pos, i, j, n)
        if i == j:
            _fail(f"edge at position {pos}: self-loop at node {i}")
        if not directed and i > j:
            _fail(f"edge at position {pos}: undirected edges must have i < j, got ({i}, {j})")
        key = i * n + j
        if key in seen:
            _fail(f"edge at position {pos}: duplicate edge ({i}, {j})")
        seen.add(key)
        if type(w) is not float or not isfinite(w):
            w = _check_number(w, "edge ({}, {}) weight", i, j)
        if w == 0.0:
            _fail(f"edge at position {pos}: zero-weight edge ({i}, {j}); omit it instead")
        if nulls and (i in nulls or j in nulls):
            _fail(f"edge at position {pos}: edge ({i}, {j}) touches a null node")
        rows.append(i)
        cols.append(j)
        weights.append(w)

    adjacency = np.zeros((n, n))
    adjacency[rows, cols] = weights
    if not directed:
        adjacency[cols, rows] = weights
    null_mask = np.zeros(n, dtype=bool)
    null_mask[list(nulls)] = True
    node_attrs = np.array(attrs) if attr_dim else None
    return Graph._trusted(adjacency, node_attrs, directed, null_mask)


def graph_to_document(g: Graph) -> dict:
    """Canonical document for a graph (sorted edges, fixed key order)."""
    attrs = None if g.node_attrs is None else g.node_attrs.tolist()
    nulls = set(np.flatnonzero(g.null_mask).tolist())
    nodes = []
    for i in range(g.n):
        node: dict = {"id": i}
        if attrs is not None:
            node["attr"] = attrs[i]
        if i in nulls:
            node["null"] = True
        nodes.append(node)
    if g.directed:
        rows, cols = np.nonzero(g.adjacency)
    else:
        rows, cols = np.nonzero(np.triu(g.adjacency, k=1))
    edges = [
        {"i": i, "j": j, "w": w}
        for i, j, w in zip(rows.tolist(), cols.tolist(), g.adjacency[rows, cols].tolist())
    ]
    return {"directed": bool(g.directed), "nodes": nodes, "edges": edges}


def _dumps(obj) -> str:
    """``json.dumps(obj, allow_nan=False) + "\\n"``: compact canonical JSON
    from the standard library's C encoder, the one writer of every document
    and CLI output.  A NaN or infinity raises ValueError, since the reader
    rejects them."""
    try:
        # without the circular-reference check, a float is json's only ValueError
        return json.dumps(obj, allow_nan=False, check_circular=False) + "\n"
    except ValueError as exc:
        raise ValueError("cannot write a non-finite number (NaN or infinity) as JSON") from exc


def dumps_graph(g: Graph) -> str:
    return _dumps(graph_to_document(g))


def save_graph(g: Graph, path) -> None:
    try:
        text = dumps_graph(g)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    Path(path).write_text(text, encoding="utf-8")


def _read_json(path):
    """Parse the JSON file at ``path``; text that is not UTF-8 and malformed
    or too deeply nested JSON raise ValidationError naming the file."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply") from exc


def load_graph(path) -> Graph:
    path = Path(path)
    doc = _read_json(path)
    try:
        return document_to_graph(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def pca_model_document(model) -> dict:
    """Serializable form of a fitted PCA model: ``lambda``, ``include_nodes``,
    ``nonnegative``, ``mean_graph``, ``center``, ``basis``, ``singular_values``,
    ``explained_variance_ratio`` and ``scores``, nothing they determine."""
    return {
        "lambda": model.lam,
        "include_nodes": model.include_nodes,
        "nonnegative": model.nonnegative,
        "mean_graph": graph_to_document(model.mu),
        "center": model.center.tolist(),
        "basis": model.basis.tolist(),
        "singular_values": model.singular_values.tolist(),
        "explained_variance_ratio": model.explained_variance_ratio.tolist(),
        "scores": model.scores.tolist(),
    }


def _float_array(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array: nested lists of finite JSON numbers,
    which, as in a graph's weights and attributes, excludes strings and
    booleans.  A JSON null is a missing number, refused as NaN is."""
    try:
        arr = np.array(doc[key], dtype=object)
    except ValueError as exc:
        raise ValidationError(f"PCA model '{key}' must hold numbers ({exc})") from exc
    leaves = arr.ravel().tolist()
    odd = [x for x in leaves if type(x) is not float and type(x) is not int and x is not None]
    if odd:
        _fail(f"PCA model '{key}' must hold numbers, got {type(odd[0]).__name__}")
    try:
        values = np.array(leaves, dtype=float).reshape(arr.shape)
    except OverflowError:
        _fail(f"PCA model '{key}': value is too large for a float")
    # NaN/Infinity literals parse as floats, and a null converts to NaN
    if not np.isfinite(values).all():
        _fail(f"PCA model '{key}' must hold finite numbers")
    return values


def pca_model_from_document(doc):
    """Rebuild a PCA model from its document, ignoring other keys (older
    writers also stored ``size``, ``directed``, ``attr_dim`` and
    ``component_variances``).  Sampling needs two score rows or more,
    finite variances s^2 / (rows - 1) and the ratios s^2 / T that pick its
    default component count."""
    from .stats import GraphPcaModel

    if not isinstance(doc, dict):
        _fail("PCA model must be a JSON object")
    required = {
        "lambda", "include_nodes", "nonnegative", "mean_graph", "center", "basis",
        "singular_values", "explained_variance_ratio", "scores",
    }
    missing = required - set(doc)
    if missing:
        _fail(f"PCA model is missing keys: {sorted(missing)}")
    for key in ("include_nodes", "nonnegative"):
        if not isinstance(doc[key], bool):
            _fail(f"PCA model '{key}' must be a boolean, got {type(doc[key]).__name__}")
    mu = document_to_graph(doc["mean_graph"])
    include_nodes = doc["include_nodes"]
    lam = _check_number(doc["lambda"], "PCA model 'lambda'")
    # the attribute block is scaled by sqrt(lambda) and unscaled by its inverse
    if lam < 0 or (include_nodes and lam == 0):
        _fail(f"PCA model 'lambda' must be nonnegative, and positive with "
              f"'include_nodes', got {lam}")
    if include_nodes and mu.attr_dim == 0:
        _fail("PCA model 'mean_graph' must carry node attributes when 'include_nodes' is set")
    n_edges = mu.n * (mu.n - 1) // (1 if mu.directed else 2)
    dim = n_edges + (mu.n * mu.attr_dim if include_nodes else 0)

    # a model without components stores its basis as []
    basis = _float_array(doc, "basis")
    if basis.shape == (0,):
        basis = basis.reshape(0, dim)
    scores = _float_array(doc, "scores")
    center = _float_array(doc, "center")
    svals = _float_array(doc, "singular_values")
    if svals.ndim != 1:
        _fail("singular_values must be a list of numbers")
    k = len(svals)
    if basis.shape != (k, dim):
        _fail(f"basis shape {basis.shape} does not match {k} x {dim}")
    if center.shape != (dim,):
        _fail(f"center length {center.shape} does not match dimension {dim}")
    if scores.ndim != 2 or scores.shape[1] != k:
        _fail("scores must have one column per component")
    if len(scores) < 2:
        _fail(f"PCA model 'scores' must hold at least two rows, got {len(scores)}")
    evr = _float_array(doc, "explained_variance_ratio")
    if evr.shape != (k,):
        _fail(f"PCA model 'explained_variance_ratio' must hold one number per component "
              f"({k}), got shape {evr.shape}")

    model = GraphPcaModel(
        mu=mu,
        basis=basis,
        singular_values=svals,
        explained_variance_ratio=evr,
        scores=scores,
        center=center,
        lam=lam,
        include_nodes=include_nodes,
        nonnegative=doc["nonnegative"],
    )
    with np.errstate(over="ignore"):
        if not np.isfinite(model.component_variances).all():
            _fail("PCA model 'singular_values' are too large: "
                  "their variances s^2 / (rows - 1) overflow")
    # ratios are s^2 / T for one T >= sum(s^2) (truncate_components keeps the
    # fitted T), all 0 without variance; c is 1 / T for s scaled by its largest
    q = (svals / (np.abs(svals).max(initial=0.0) or 1.0)) ** 2
    total = evr.sum()
    c = total / q.sum() if q.any() else 0.0
    if not ((c > 0.0) == q.any() and total <= 1.0 + 1e-12
            and np.allclose(evr, c * q, rtol=1e-12, atol=0.0)):
        _fail("PCA model 'explained_variance_ratio' must be s^2 / T for the singular "
              "values s and one total T >= sum(s^2)")
    return model
