"""JSON graph documents: a dependency-light, bit-exact on-disk format.

A document is ``{"directed": bool, "nodes": [...], "edges": [...]}`` where
nodes are ``{"id": int, "attr": [...], "null": true}`` (attr and null
optional) and edges are ``{"i": int, "j": int, "w": float}``.  Node ids
must be 0..n-1 in ascending order, undirected documents list each edge
once with i < j, weights are finite and nonzero, and duplicate edges are
rejected.  The writer is canonical (sorted edges, fixed key order, indent
2), so save-then-load-then-save reproduces files byte for byte.

Every document, and every JSON output of the CLI, is written by
``_dumps``, whose bytes are exactly those of ``json.dumps(obj, indent=2,
allow_nan=False)`` but which writes whole lists of numbers and of number
records at once instead of value by value.  Like that call it refuses NaN
and infinities, which the reader rejects, so no file is written that
cannot be read back.  The reader runs every schema check per node
and per edge, in document order, so the first violation is the one
reported; it formats an error message only when a check fails.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
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
# Exact types: bool, numpy scalars and other subclasses take the general paths.
_FLOAT = {float}
_NUMBER = {int, float}
_DICT = {dict}


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
        if node.get("id") != pos:
            _fail(
                f"node at position {pos}: ids must be 0..n-1 in ascending order, "
                f"got {node.get('id')!r}"
            )
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
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``, for the
    documents' value types; a NaN or infinity raises ValueError.

    The one writer of every document and CLI output.  ``json.dumps`` turns
    off its C encoder whenever ``indent`` is set; this one joins whole lists
    at a time instead: lists of finite numbers through ``repr``, and lists
    of same-keyed dicts of finite numbers (edges, plain nodes) through one
    ``%`` template per list.  Everything else takes the general path,
    which follows ``json.dumps`` value by value (dict keys must be strings).
    """
    return _encode(obj, "\n") + "\n"


def _encode(obj, pad: str) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it where the enclosing
    line starts with ``pad`` (a newline and the current indent)."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite number {obj!r} as JSON")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if type(obj[0]) is dict:
            body = _record_list(obj, inner)
        else:
            reprs = _finite_reprs(obj)
            body = None if reprs is None else sep.join(reprs)
        if body is None:
            body = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        ) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _finite_reprs(values) -> list | None:
    """``repr`` of each value if all are exact ints or finite floats, else None."""
    if not _NUMBER.issuperset(map(type, values)):
        return None
    reprs = list(map(repr, values))
    # Of the reprs of exact ints and floats, only "inf" and "nan" contain an n.
    return None if "n" in "".join(reprs) else reprs


def _record_list(items, pad: str) -> str | None:
    """Body of a list of dicts that share their keys (in order) and hold
    only ints and finite floats, each dict starting a line with ``pad``;
    None for any other list."""
    if not _DICT.issuperset(map(type, items)):
        return None
    key_orders = set(map(tuple, items))
    if len(key_orders) != 1:
        return None
    (keys,) = key_orders
    reprs = _finite_reprs(list(chain.from_iterable(map(dict.values, items))))
    if not keys or reprs is None:
        return None
    inner = pad + "  "
    record = "{" + inner + ("," + inner).join(
        [_quote(k).replace("%", "%%") + ": %s" for k in keys]
    ) + pad + "}"
    return ("," + pad).join([record] * len(items)) % tuple(reprs)


def dumps_graph(g: Graph) -> str:
    return _dumps(graph_to_document(g))


def save_graph(g: Graph, path) -> None:
    try:
        text = dumps_graph(g)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    Path(path).write_text(text, encoding="utf-8")


def _read_json(path):
    """Parse the JSON file at ``path``; malformed or too deeply nested JSON
    raises ValidationError naming the file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
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
    """Serializable form of a fitted PCA model: mean document plus basis,
    singular values, and per-sample scores."""
    return {
        "size": model.size,
        "directed": model.directed,
        "lambda": model.lam,
        "include_nodes": model.include_nodes,
        "attr_dim": model.attr_dim,
        "nonnegative": model.nonnegative,
        "mean_graph": graph_to_document(model.mu),
        "center": model.center.tolist(),
        "basis": model.basis.tolist(),
        "singular_values": model.singular_values.tolist(),
        "component_variances": model.component_variances.tolist(),
        "explained_variance_ratio": model.explained_variance_ratio.tolist(),
        "scores": model.scores.tolist(),
    }


def _float_array(doc: dict, key: str) -> np.ndarray:
    try:
        arr = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"PCA model '{key}' must hold numbers ({exc})") from exc
    # a JSON null converts to NaN, and NaN/Infinity literals parse as floats
    if not np.isfinite(arr).all():
        _fail(f"PCA model '{key}' must hold finite numbers")
    return arr


def pca_model_from_document(doc):
    """Rebuild a PCA model from its document."""
    from .stats import GraphPcaModel

    if not isinstance(doc, dict):
        _fail("PCA model must be a JSON object")
    required = {
        "size", "directed", "lambda", "include_nodes", "attr_dim", "nonnegative",
        "mean_graph", "center", "basis", "singular_values",
        "component_variances", "explained_variance_ratio", "scores",
    }
    missing = required - set(doc)
    if missing:
        _fail(f"PCA model is missing keys: {sorted(missing)}")
    for key in ("size", "attr_dim"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            _fail(f"PCA model '{key}' must be an integer, got {type(doc[key]).__name__}")
    for key in ("directed", "include_nodes", "nonnegative"):
        if not isinstance(doc[key], bool):
            _fail(f"PCA model '{key}' must be a boolean, got {type(doc[key]).__name__}")
    mu = document_to_graph(doc["mean_graph"])
    size = doc["size"]
    if mu.n != size:
        _fail(f"mean graph has {mu.n} nodes but model declares size {size}")
    directed = doc["directed"]
    if mu.directed != directed:
        _fail(f"PCA model 'directed' is {directed} but the mean graph's is {mu.directed}")
    include_nodes = doc["include_nodes"]
    attr_dim = doc["attr_dim"]
    lam = _check_number(doc["lambda"], "PCA model 'lambda'")
    # the attribute block is scaled by sqrt(lambda) and unscaled by its inverse
    if lam < 0 or (include_nodes and lam == 0):
        _fail(f"PCA model 'lambda' must be nonnegative, and positive with "
              f"'include_nodes', got {lam}")
    if include_nodes and (mu.attr_dim == 0 or mu.attr_dim != attr_dim):
        _fail(f"PCA model 'mean_graph' must carry node attributes with 'attr_dim' = "
              f"{attr_dim} columns when 'include_nodes' is set, got {mu.attr_dim}")
    if not include_nodes and attr_dim != 0:
        _fail(f"PCA model 'attr_dim' must be 0 without 'include_nodes', got {attr_dim}")
    n_edges = size * (size - 1) // (1 if directed else 2)
    dim = n_edges + (size * attr_dim if include_nodes else 0)

    # a model without components stores its basis and scores as []
    basis = _float_array(doc, "basis")
    if basis.shape == (0,):
        basis = basis.reshape(0, dim)
    scores = _float_array(doc, "scores")
    if scores.shape == (0,):
        scores = scores.reshape(0, 0)
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
    per_component = {key: _float_array(doc, key)
                     for key in ("component_variances", "explained_variance_ratio")}
    for key, values in per_component.items():
        if values.shape != (k,):
            _fail(f"PCA model '{key}' must hold one number per component ({k}), "
                  f"got shape {values.shape}")

    return GraphPcaModel(
        mu=mu,
        basis=basis,
        singular_values=svals,
        **per_component,
        scores=scores,
        center=center,
        lam=lam,
        include_nodes=include_nodes,
        nonnegative=doc["nonnegative"],
    )
