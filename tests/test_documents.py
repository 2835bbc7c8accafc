import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_nonnegative_graph, random_symmetric_graph
from graphspace import (
    Graph,
    MatchConfig,
    ValidationError,
    document_to_graph,
    dumps_graph,
    graph_pca,
    karcher_mean,
    load_graph,
    node_distance_matrix,
    pca_model_document,
    pca_model_from_document,
    reconstruct,
    save_graph,
    truncate_components,
)
from graphspace.documents import _dumps
from conftest import perturbed_corpus

MINIMAL = {
    "directed": False,
    "nodes": [{"id": 0}, {"id": 1}],
    "edges": [{"i": 0, "j": 1, "w": 1.0}],
}


class TestDocumentToGraph:
    def test_minimal_document(self):
        g = document_to_graph(MINIMAL)
        assert np.array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])
        assert not g.directed and g.node_attrs is None

    def test_attributes_loaded(self):
        doc = {
            "directed": False,
            "nodes": [{"id": 0, "attr": [0.0, 0.0]}, {"id": 1, "attr": [3.0, 4.0]}],
            "edges": [],
        }
        g = document_to_graph(doc)
        assert node_distance_matrix(g, g)[0, 1] == 25.0

    def test_directed_document(self):
        doc = {
            "directed": True,
            "nodes": [{"id": 0}, {"id": 1}],
            "edges": [{"i": 1, "j": 0, "w": 2.0}],
        }
        g = document_to_graph(doc)
        assert g.adjacency[1, 0] == 2.0 and g.adjacency[0, 1] == 0.0

    def test_null_nodes(self):
        doc = {
            "directed": False,
            "nodes": [{"id": 0}, {"id": 1, "null": True}],
            "edges": [],
        }
        g = document_to_graph(doc)
        assert g.null_mask.tolist() == [False, True]

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("nodes"), "missing document keys"),
            (lambda d: d.update(extra=1), "unknown document keys"),
            (lambda d: d.update(directed="no"), "boolean"),
            (lambda d: d["nodes"].__setitem__(0, {"id": 1}), "ascending"),
            (lambda d: d["edges"].append({"i": 0, "j": 0, "w": 1.0}), "self-loop"),
            (lambda d: d["edges"].append({"i": 1, "j": 0, "w": 1.0}), "i < j"),
            (lambda d: d["edges"].append({"i": 0, "j": 1, "w": 2.0}), "duplicate"),
            (lambda d: d["edges"].append({"i": 0, "j": 5, "w": 1.0}), "out of range"),
            (lambda d: d["edges"].__setitem__(0, {"i": 0, "j": 1, "w": 0.0}), "zero-weight"),
            (lambda d: d["edges"].append({"i": 0, "j": 1}), "expected keys"),
            (
                lambda d: d["edges"].__setitem__(0, {"i": 0, "j": 1, "w": float("nan")}),
                "finite",
            ),
            (lambda d: d["nodes"][0].update(attr=[1.0]), "all nodes"),
        ],
    )
    def test_validation_errors(self, mutate, message):
        doc = json.loads(json.dumps(MINIMAL))
        mutate(doc)
        with pytest.raises(ValidationError, match=message):
            document_to_graph(doc)

    def test_null_node_with_edge_rejected(self):
        doc = {
            "directed": False,
            "nodes": [{"id": 0, "null": True}, {"id": 1}],
            "edges": [{"i": 0, "j": 1, "w": 1.0}],
        }
        with pytest.raises(ValidationError, match="null"):
            document_to_graph(doc)

    def test_null_node_with_nonzero_attr_rejected(self):
        doc = {
            "directed": False,
            "nodes": [{"id": 0, "attr": [1.0], "null": True}, {"id": 1, "attr": [2.0]}],
            "edges": [],
        }
        with pytest.raises(ValidationError, match="zero attributes"):
            document_to_graph(doc)

    @pytest.mark.parametrize("pos", [0, 1])
    @pytest.mark.parametrize("kind", [bool, float])
    def test_node_ids_must_be_integers(self, pos, kind):
        # an id equal to its position as a bool or a float, as edge ids are refused
        doc = {"directed": False, "nodes": [{"id": 0}, {"id": 1}], "edges": []}
        doc["nodes"][pos]["id"] = kind(pos)
        with pytest.raises(ValidationError) as exc:
            document_to_graph(json.loads(json.dumps(doc)))
        assert str(exc.value) == (f"node at position {pos}: 'id' must be an integer, "
                                  f"got {kind(pos)!r}")

    @pytest.mark.parametrize("nodes, edges, fault", [
        (None, None, "document must be a JSON object, got list"),
        ([{"id": 0}, 1], [], "node at position 1: expected an object"),
        ([{"id": 0, "label": "a"}], [], "node at position 0: unknown keys ['label']"),
        ([{"id": 0, "attr": []}], [], "node 0: attr must be a non-empty list of numbers"),
        ([{"id": 0, "attr": 1.0}], [], "node 0: attr must be a non-empty list of numbers"),
        ([{"id": 0, "attr": [1.0]}, {"id": 1, "attr": [1.0, 2.0]}], [],
         "node 1: attr must have 1 entries, got 2"),
        ([{"id": 0}, {"id": 1, "null": False}], [],
         "node 1: 'null' may only be true (omit otherwise)"),
        ([{"id": 0}], {}, "'edges' must be a list"),
        ([{"id": 0, "attr": [1]}, {"id": 1, "attr": ["2"]}], [],
         "node 1 attr: expected a number, got str"),
    ], ids=["document", "node", "node-keys", "attr-empty", "attr-scalar", "attr-length",
            "null-false", "edges", "attr-string"])
    def test_reader_faults_name_the_file(self, tmp_path, nodes, edges, fault):
        doc = [] if nodes is None else {"directed": False, "nodes": nodes, "edges": edges}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: {fault}"

    def test_integer_attributes_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.json"
        nodes = [{"id": 0, "attr": [1, -2]}, {"id": 1, "attr": [3, 0]}]
        path.write_text(json.dumps({"directed": False, "nodes": nodes, "edges": []}))
        attrs = load_graph(path).node_attrs
        assert attrs.dtype == float and attrs.tolist() == [[1.0, -2.0], [3.0, 0.0]]


class TestRoundTrip:
    def test_graph_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_symmetric_graph(20, rng)
        path = tmp_path / "g.json"
        save_graph(g, path)
        back = load_graph(path)
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_document_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        g = random_nonnegative_graph(20, rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(g, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_attrs_and_nulls_round_trip(self, tmp_path):
        g = Graph(
            np.zeros((3, 3)),
            node_attrs=[[1.5, -2.25], [0.0, 0.0], [1e-17, 3.0]],
            null_mask=[False, True, False],
        )
        path = tmp_path / "g.json"
        save_graph(g, path)
        back = load_graph(path)
        assert np.array_equal(back.node_attrs, g.node_attrs)
        assert np.array_equal(back.null_mask, g.null_mask)

    def test_golden_bytes(self):
        g = Graph([[0.0, 0.5], [0.5, 0.0]])
        expected = ('{"directed": false, "nodes": [{"id": 0}, {"id": 1}], '
                    '"edges": [{"i": 0, "j": 1, "w": 0.5}]}\n')
        assert dumps_graph(g) == expected

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed JSON"):
            load_graph(path)

    def test_error_names_offending_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"directed": False, "nodes": [], "edges": []}))
        with pytest.raises(ValidationError, match="bad.json"):
            load_graph(path)


_RATIO_FAULT = ("PCA model 'explained_variance_ratio' must be s^2 / T for the singular "
                "values s and one total T >= sum(s^2)")


class TestPcaModelDocument:
    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(2)
        corpus = perturbed_corpus(random_symmetric_graph(5, rng), 6, rng)
        model = graph_pca(karcher_mean(corpus, MatchConfig(refinement=True)))
        doc = pca_model_document(model)
        # must survive a JSON round trip
        loaded = pca_model_from_document(json.loads(json.dumps(doc)))
        for i in range(model.n_samples):
            a = reconstruct(model, model.scores[i])
            b = reconstruct(loaded, loaded.scores[i])
            assert np.array_equal(a.adjacency, b.adjacency)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError, match="missing keys"):
            pca_model_from_document({"size": 3})

    @pytest.mark.parametrize("key,value,message", [
        ("lambda", None, "'lambda': expected a number"),
        ("lambda", 10**400, "too large for a float"),
        ("basis", [[{}]], "'basis' must hold numbers"),
        ("scores", "x", "'scores' must hold numbers"),
        ("singular_values", [[1.0]], "singular_values must be a list"),
        ("basis", [[None]], "'basis' must hold finite numbers"),
        ("center", [math.nan], "'center' must hold finite numbers"),
        # fields that parse but that sampling cannot use
        ("include_nodes", "false", "'include_nodes' must be a boolean"),
        ("nonnegative", 1, "'nonnegative' must be a boolean"),
        ("lambda", -1, "'lambda' must be nonnegative"),
        ("lambda", 0, "positive with 'include_nodes'"),
        ("mean_graph", {"directed": False, "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
                        "edges": []}, "'mean_graph' must carry node attributes"),
        # per-component fields must match the component count
        ("explained_variance_ratio", [0.1], "'explained_variance_ratio' must hold one number"),
        # a flat non-empty basis or scores names its key
        ("basis", [1.0, 2.0], "basis shape \\(2,\\) does not match 3 x 9"),
        ("scores", [1.0, 2.0], "scores must have one column per component"),
        # without 'include_nodes' the dimension holds no attribute block
        ("include_nodes", False, "basis shape \\(3, 9\\) does not match 3 x 3"),
        ("explained_variance_ratio", [], "per component \\(3\\), got shape \\(0,\\)"),
    ])
    def test_malformed_fields_rejected(self, key, value, message):
        rng = np.random.default_rng(5)
        corpus = perturbed_corpus(random_symmetric_graph(3, rng), 3, rng)
        corpus = [Graph(g.adjacency, node_attrs=rng.normal(size=(3, 2))) for g in corpus]
        doc = pca_model_document(
            graph_pca(karcher_mean(corpus, MatchConfig(lam=0.5)), include_nodes=True))
        pca_model_from_document(doc)
        doc[key] = value
        with pytest.raises(ValidationError, match=message):
            pca_model_from_document(doc)

    @pytest.mark.parametrize("change, fault", [
        (lambda doc: [doc], "PCA model must be a JSON object"),
        (lambda doc: {**doc, "center": doc["center"][:-1]},
         "center length (8,) does not match dimension 9"),
        (lambda doc: {**doc, "scores": []}, "scores must have one column per component"),
        (lambda doc: {**doc, "scores": doc["scores"][:1]},
         "PCA model 'scores' must hold at least two rows, got 1"),
        (lambda doc: {**doc, "singular_values": [1e300] * 3},
         "PCA model 'singular_values' are too large: their variances s^2 / (rows - 1) overflow"),
        # sample picks its default component count from the ratios
        (lambda doc: {**doc, "explained_variance_ratio": [1.0, 0.0, 0.0]}, _RATIO_FAULT),
        # a total T below sum(s^2)
        (lambda doc: {**doc, "explained_variance_ratio":
                      [2.0 * r for r in doc["explained_variance_ratio"]]}, _RATIO_FAULT),
        # no variance leaves nothing to explain
        (lambda doc: {**doc, "singular_values": [0.0, 0.0, 0.0]}, _RATIO_FAULT),
    ], ids=["model", "center", "scores-empty", "one-row", "variance-overflow",
            "ratios-not-s2", "ratios-above-one", "ratios-without-variance"])
    def test_model_faults_named(self, change, fault):
        rng = np.random.default_rng(5)
        corpus = perturbed_corpus(random_symmetric_graph(3, rng), 3, rng)
        corpus = [Graph(g.adjacency, node_attrs=rng.normal(size=(3, 2))) for g in corpus]
        doc = pca_model_document(
            graph_pca(karcher_mean(corpus, MatchConfig(lam=0.5)), include_nodes=True))
        with pytest.raises(ValidationError) as exc:
            pca_model_from_document(change(doc))
        assert str(exc.value) == fault

    @pytest.mark.parametrize("key", ["center", "basis", "singular_values",
                                     "explained_variance_ratio", "scores"])
    @pytest.mark.parametrize("leaf", ["string", "true"])
    def test_numbers_must_be_json_numbers(self, key, leaf):
        # a numeric string of the same value, or true, in the first entry
        rng = np.random.default_rng(5)
        corpus = perturbed_corpus(random_symmetric_graph(3, rng), 3, rng)
        doc = json.loads(json.dumps(pca_model_document(graph_pca(karcher_mean(corpus)))))
        row = doc[key][0] if isinstance(doc[key][0], list) else doc[key]
        row[0] = repr(row[0]) if leaf == "string" else True
        with pytest.raises(ValidationError) as exc:
            pca_model_from_document(doc)
        assert str(exc.value) == (f"PCA model '{key}' must hold numbers, "
                                  f"got {'str' if leaf == 'string' else 'bool'}")

    def test_derived_keys_are_not_written(self):
        rng = np.random.default_rng(6)
        corpus = perturbed_corpus(random_symmetric_graph(4, rng), 3, rng)
        doc = pca_model_document(graph_pca(karcher_mean(corpus)))
        assert list(doc) == ["lambda", "include_nodes", "nonnegative", "mean_graph", "center",
                             "basis", "singular_values", "explained_variance_ratio", "scores"]

    @pytest.mark.parametrize("include_nodes", [False, True], ids=["plain", "nodes"])
    def test_document_with_derived_keys_loads_the_same(self, include_nodes):
        # models written before the derived keys were dropped still load
        rng = np.random.default_rng(7)
        corpus = perturbed_corpus(random_symmetric_graph(4, rng), 4, rng)
        corpus = [Graph(g.adjacency, node_attrs=rng.normal(size=(4, 2))) for g in corpus]
        model = graph_pca(karcher_mean(corpus, MatchConfig(lam=0.5)), include_nodes=include_nodes)
        doc = pca_model_document(model)
        old = {**doc, "size": model.size, "directed": model.directed,
               "attr_dim": model.attr_dim,
               "component_variances": model.component_variances.tolist()}
        new, loaded = (pca_model_from_document(json.loads(json.dumps(d))) for d in (doc, old))
        for name in ("basis", "singular_values", "component_variances",
                     "explained_variance_ratio", "scores", "center"):
            assert np.array_equal(getattr(loaded, name), getattr(new, name))
        assert dumps_graph(loaded.mu) == dumps_graph(new.mu)
        assert (loaded.lam, loaded.include_nodes, loaded.nonnegative) == \
            (new.lam, new.include_nodes, new.nonnegative)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        corpus = perturbed_corpus(random_symmetric_graph(4, rng), 3, rng)
        doc = pca_model_document(graph_pca(karcher_mean(corpus)))
        doc["basis"] = [row[:-1] for row in doc["basis"]]
        with pytest.raises(ValidationError, match="basis shape"):
            pca_model_from_document(doc)


_EXTREMES = st.sampled_from([1e-300, -1e-300, 1e300, -1e300, -0.0, 0.0, 5e-324, 0.1, -2.5])
_FINITE = st.one_of(_EXTREMES, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _graphs(draw):
    """Directed or undirected graphs of 1-6 nodes with extreme and negative
    weights, optional attributes, null nodes, and possibly no edges."""
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    a = np.array(draw(st.lists(_FINITE, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        a[:] = 0.0
    if not directed:
        a = np.triu(a, k=1)
        a = a + a.T
    np.fill_diagonal(a, 0.0)
    null = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    a[null, :] = 0.0
    a[:, null] = 0.0
    attrs = None
    dim = draw(st.integers(0, 2))
    if dim:
        attrs = np.array(draw(st.lists(_FINITE, min_size=n * dim, max_size=n * dim)))
        attrs = attrs.reshape(n, dim)
        attrs[null] = 0.0
    return Graph(a, node_attrs=attrs, directed=directed, null_mask=null)


def _written(write, doc):
    """The text ``write`` makes of ``doc``, or ValueError if it refuses."""
    try:
        return write(doc)
    except ValueError:
        return ValueError


_TEXT = st.text(st.characters(), max_size=8)
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats())
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
                     st.floats().map(np.float64))
_JSON = st.recursive(
    st.one_of(_SCALARS, st.lists(_FINITE, max_size=4),
              st.lists(st.one_of(st.integers(), _FLOATS), max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20,
)


class TestCanonicalWriter:
    """What the writer writes reads back to the same value and re-writes to
    the same bytes; it refuses NaN and infinities."""

    @settings(max_examples=300, deadline=None)
    @given(_graphs())
    def test_graph_documents(self, g):
        text = dumps_graph(g)
        back = document_to_graph(json.loads(text))
        assert dumps_graph(back) == text
        # the schema-checked arrays also pass the validating constructor
        assert back.adjacency.dtype == float and back.null_mask.dtype == bool
        assert back.node_attrs is None or back.node_attrs.dtype == float
        checked = Graph(back.adjacency, node_attrs=back.node_attrs,
                        directed=back.directed, null_mask=back.null_mask)
        assert dumps_graph(checked) == text

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_json_values(self, value):
        text = _written(_dumps, value)
        if text is not ValueError:
            assert _dumps(json.loads(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 50), st.lists(_FINITE, max_size=6), st.booleans(),
        st.lists(_TEXT, max_size=4),
        st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=4),
        st.lists(st.one_of(_FINITE, st.floats()), max_size=4),
    )
    def test_mean_manifest(self, size, trace, converged, inputs, regs, energies):
        manifest = {
            "template_size": size,
            "energy_trace": trace,
            "converged": converged,
            "inputs": inputs,
            "registrations": regs,
            "edge_energies": energies,
        }
        text = _written(_dumps, manifest)
        if all(map(math.isfinite, energies)):
            assert json.loads(text) == manifest
        else:
            assert text is ValueError

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 20), st.integers(0, 5), _FINITE, st.integers(),
           st.lists(_TEXT, max_size=4))
    def test_sample_manifest(self, count, components, threshold, seed, files):
        manifest = {"count": count, "components": components, "threshold": threshold,
                    "seed": seed, "files": files}
        assert json.loads(_dumps(manifest)) == manifest

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 6))
    def test_pca_model_documents(self, seed, include_nodes, k):
        rng = np.random.default_rng(seed)
        base = random_symmetric_graph(4, rng)
        attrs = rng.normal(size=(4, 1)) if include_nodes else None
        corpus = [Graph(g.adjacency, node_attrs=attrs)
                  for g in perturbed_corpus(base, 4, rng)]
        cfg = MatchConfig(lam=0.5 if include_nodes else 0.0)
        model = graph_pca(karcher_mean(corpus, cfg), include_nodes=include_nodes)
        model = truncate_components(model, min(k, model.n_components))
        doc = pca_model_document(model)
        assert _dumps(pca_model_document(pca_model_from_document(doc))) == _dumps(doc)

    def test_zero_components(self):
        rng = np.random.default_rng(4)
        corpus = perturbed_corpus(random_symmetric_graph(3, rng), 3, rng)
        doc = pca_model_document(truncate_components(graph_pca(karcher_mean(corpus)), 0))
        assert doc["basis"] == [] and doc["scores"] == [[], [], []]
        assert json.loads(_dumps(doc)) == doc


class TestFirstFailingEdge:
    """With several invalid edges, the first one in document order is reported."""

    BAD = {
        "keys": ({"i": 0, "j": 1}, "edge at position {}: expected keys ['i', 'j', 'w']"),
        "type": ({"i": 0, "j": True, "w": 1.0}, "edge at position {}: 'j' must be an integer"),
        "range": ({"i": 3, "j": 0, "w": 1.0},
                  "edge at position {}: node id 3 out of range 0..2"),
        "loop": ({"i": 1, "j": 1, "w": 1.0}, "edge at position {}: self-loop at node 1"),
        "order": ({"i": 2, "j": 1, "w": 1.0},
                  "edge at position {}: undirected edges must have i < j, got (2, 1)"),
        "duplicate": ({"i": 0, "j": 1, "w": 3.0},
                      "edge at position {}: duplicate edge (0, 1)"),
        "weight": ({"i": 1, "j": 2, "w": "1"}, "edge (1, 2) weight: expected a number, got str"),
        "finite": ({"i": 1, "j": 2, "w": float("inf")},
                   "edge (1, 2) weight: value must be finite, got inf"),
        "overflow": ({"i": 1, "j": 2, "w": 10**400},
                     "edge (1, 2) weight: value is too large for a float"),
        "zero": ({"i": 1, "j": 2, "w": 0.0},
                 "edge at position {}: zero-weight edge (1, 2); omit it instead"),
    }

    @pytest.mark.parametrize("first", sorted(BAD))
    def test_first_failure_wins(self, first):
        edge, message = self.BAD[first]
        later = [e for kind, (e, _) in sorted(self.BAD.items()) if kind != first]
        doc = {
            "directed": False,
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "edges": [{"i": 0, "j": 1, "w": 1.0}, edge, *later, {"i": 0, "j": 2, "w": 2.0}],
        }
        with pytest.raises(ValidationError) as exc:
            document_to_graph(doc)
        assert str(exc.value) == message.format(1)

    def test_null_node_edge_reported_in_order(self):
        doc = {
            "directed": True,
            "nodes": [{"id": 0}, {"id": 1, "null": True}, {"id": 2}],
            "edges": [{"i": 0, "j": 2, "w": 1.0}, {"i": 2, "j": 1, "w": 1.0},
                      {"i": 0, "j": 0, "w": 1.0}],
        }
        with pytest.raises(ValidationError) as exc:
            document_to_graph(doc)
        assert str(exc.value) == "edge at position 1: edge (2, 1) touches a null node"
