import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphspace
from graphspace import Graph, load_graph, save_graph
from graphspace.cli import MAX_GEODESIC_STEPS, build_parser, main
from conftest import random_symmetric_graph


@pytest.fixture
def corpus_dir(tmp_path, capsys):
    rc = main([
        "generate", "--family", "full_heavy_tailed", "--count", "4",
        "--sizes", "4", "5", "--seed", "11", "--out-dir", str(tmp_path / "corpus"),
    ])
    capsys.readouterr()
    assert rc == 0
    return tmp_path / "corpus"


def graphs_in(directory):
    return sorted(str(p) for p in directory.glob("graph_*.json"))


class TestCommands:
    def test_generate_writes_valid_documents(self, corpus_dir):
        files = graphs_in(corpus_dir)
        assert len(files) == 4
        for f in files:
            g = load_graph(f)
            assert 4 <= g.n <= 5
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["count"] == 4

    def test_match_outputs_result(self, corpus_dir, capsys, tmp_path):
        a, b = graphs_in(corpus_dir)[:2]
        out = tmp_path / "match.json"
        rc = main(["match", a, b, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(stdout)
        assert doc == json.loads(out.read_text())
        assert sorted(doc["permutation"]) == list(range(doc["padded_size"]))
        assert doc["d_g"] == pytest.approx(doc["objective"] ** 0.5)

    def test_dist_symmetric_under_argument_swap(self, corpus_dir, capsys):
        a, b = graphs_in(corpus_dir)[:2]
        assert main(["dist", a, b]) == 0
        d_ab = json.loads(capsys.readouterr().out)["d_g"]
        assert main(["dist", b, a]) == 0
        d_ba = json.loads(capsys.readouterr().out)["d_g"]
        assert d_ab == d_ba

    def test_geodesic_writes_steps(self, corpus_dir, capsys, tmp_path):
        a, b = graphs_in(corpus_dir)[:2]
        geo = tmp_path / "geo"
        rc = main(["geodesic", a, b, "--steps", "5", "--out-dir", str(geo)])
        capsys.readouterr()
        assert rc == 0
        manifest = json.loads((geo / "manifest.json").read_text())
        assert manifest["times"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(manifest["files"]) == 5
        for name in manifest["files"]:
            load_graph(geo / name)

    def test_mean_and_pca_and_sample(self, corpus_dir, capsys, tmp_path):
        files = graphs_in(corpus_dir)
        mean_out = tmp_path / "mean.json"
        rc = main(["mean", *files, "--out", str(mean_out), "--refine"])
        capsys.readouterr()
        assert rc == 0
        mu = load_graph(mean_out)
        assert mu.n == max(load_graph(f).n for f in files)

        model_out = tmp_path / "model.json"
        rc = main(["pca", *files, "--out", str(model_out), "--refine"])
        capsys.readouterr()
        assert rc == 0
        model = json.loads(model_out.read_text())
        assert len(model["singular_values"]) == len(model["scores"][0])

        rc = main([
            "sample", "--model", str(model_out), "--count", "3",
            "--seed", "5", "--out-dir", str(tmp_path / "samples"),
        ])
        capsys.readouterr()
        assert rc == 0
        for i in range(3):
            load_graph(tmp_path / "samples" / f"sample_{i:03d}.json")

    def test_pca_components_flag(self, corpus_dir, capsys, tmp_path):
        files = graphs_in(corpus_dir)
        out = tmp_path / "model.json"
        rc = main(["pca", *files, "--components", "2", "--out", str(out), "--refine"])
        capsys.readouterr()
        assert rc == 0
        model = json.loads(out.read_text())
        assert len(model["singular_values"]) == 2

    def test_model_with_derived_keys_samples_the_same(self, tmp_path, capsys):
        # a model written with the size, directed, attr_dim and
        # component_variances keys samples to the same bytes
        corpus, model, old = tmp_path / "corpus", tmp_path / "model.json", tmp_path / "old.json"
        assert main(["generate", "--family", "letter_like", "--count", "6", "--seed", "4",
                     "--node-drop", "0.2", "--out-dir", str(corpus)]) == 0
        assert main(["pca", *graphs_in(corpus), "--lambda", "0.7", "--include-nodes",
                     "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        s = np.array(doc["singular_values"])
        old.write_text(json.dumps({
            "size": len(doc["mean_graph"]["nodes"]), "directed": False, **doc, "attr_dim": 2,
            "component_variances": (s * s / (len(doc["scores"]) - 1)).tolist()}))
        for name in ("model", "old"):
            assert main(["sample", "--model", str(tmp_path / f"{name}.json"), "--count", "3",
                         "--seed", "5", "--out-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        for f in ("manifest.json", "sample_000.json", "sample_001.json", "sample_002.json"):
            assert (tmp_path / "old" / f).read_bytes() == (tmp_path / "model" / f).read_bytes()

    def test_knn(self, tmp_path, capsys):
        for seed, name in ((1, "lo"), (2, "hi")):
            rc = main([
                "generate", "--family", "binomial", "--count", "3",
                "--sizes", "8", "8", "--seed", str(seed),
                "--p", "0.1" if name == "lo" else "0.9",
                "--out-dir", str(tmp_path / name),
            ])
            assert rc == 0
        capsys.readouterr()
        train_csv = tmp_path / "train.csv"
        rows = []
        for name in ("lo", "hi"):
            for i in range(2):
                rows.append(f"{name}/graph_{i:03d}.json,{name}")
        train_csv.write_text("\n".join(rows) + "\n")
        test_csv = tmp_path / "test.csv"
        test_csv.write_text("lo/graph_002.json,lo\nhi/graph_002.json,hi\n")
        rc = main(["knn", "--train", str(train_csv), "--test", str(test_csv), "--k", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["accuracy"] == 1.0

    def test_pairwise_csv(self, corpus_dir, capsys, tmp_path):
        files = graphs_in(corpus_dir)[:3]
        out = tmp_path / "d.csv"
        rc = main(["pairwise", *files, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert stdout == out.read_text()
        lines = stdout.strip().split("\n")
        assert lines[0].startswith("id,graph_000.json")
        assert len(lines) == 4

    def test_pairwise_labels_colliding_names_by_path(self, tmp_path, capsys):
        # two inputs share a base name: rows and columns use the paths as given
        files = []
        for seed, name in ((1, "a"), (2, "b")):
            assert main(["generate", "--family", "binomial", "--count", "1",
                         "--sizes", "4", "5", "--seed", str(seed),
                         "--out-dir", str(tmp_path / name)]) == 0
            files.append(str(tmp_path / name / "graph_000.json"))
        capsys.readouterr()
        assert main(["pairwise", *files]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "id," + ",".join(files)
        assert [line.split(",")[0] for line in lines[1:]] == files

    def test_bench_recovery(self, capsys):
        rc = main([
            "bench-recovery", "--family", "binomial", "--sizes", "4", "5",
            "--trials", "5", "--refine", "--restarts", "5", "--seed", "2",
        ])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["trials"] == 5
        assert "wall_time_stats" not in out


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"directed": false, "nodes": [{"id": 0}], "edges": '
                       '[{"i": 0, "j": 0, "w": 1.0}]}')
        rc = main(["match", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "self-loop" in err

    def test_missing_file_is_2(self, capsys):
        rc = main(["dist", "/nonexistent/a.json", "/nonexistent/b.json"])
        assert rc == 2

    def test_non_convergence_is_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(random_symmetric_graph(8, rng), a)
        save_graph(random_symmetric_graph(8, rng), b)
        rc = main(["match", str(a), str(b), "--max-iter", "1", "--tol", "1e-300"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert out["converged"] is False

    def test_bad_steps_is_2(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = tmp_path / "a.json"
        save_graph(random_symmetric_graph(4, rng), a)
        rc = main(["geodesic", str(a), str(a), "--steps", "1",
                   "--out-dir", str(tmp_path / "geo")])
        assert rc == 2

    def test_steps_past_the_cap_is_2(self, tmp_path, capsys, monkeypatch):
        # refused before the pair is read, the times are listed or the
        # output directory is made
        a, geo = tmp_path / "a.json", tmp_path / "geo"
        save_graph(random_symmetric_graph(4, np.random.default_rng(1)), a)
        steps = MAX_GEODESIC_STEPS + 1
        rc = main(["geodesic", str(a), str(a), "--steps", str(steps), "--out-dir", str(geo)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --steps must lie in 2..{MAX_GEODESIC_STEPS}, got {steps}"]
        assert not geo.exists()
        monkeypatch.setenv("COLUMNS", "200")  # the help on one line per option
        with pytest.raises(SystemExit):
            main(["geodesic", "--help"])
        assert f"2 to {MAX_GEODESIC_STEPS}" in capsys.readouterr().out


    def _assert_exit_2(self, argv, capsys, needle):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["match", "pairwise", "sample", "knn"])
    def test_non_utf8_input_names_the_file_2(self, command, corpus_dir, tmp_path, capsys):
        ok = graphs_in(corpus_dir)[0]
        bad = tmp_path / ("bin.csv" if command == "knn" else "bin.json")
        bad.write_bytes(b"\xff\xfe")
        (tmp_path / "train.csv").write_text("corpus/graph_000.json,a\n")
        argv = {
            "match": ["match", str(bad), ok],
            "pairwise": ["pairwise", ok, str(bad)],
            "sample": ["sample", "--model", str(bad), "--count", "1",
                       "--out-dir", str(tmp_path / "s")],
            "knn": ["knn", "--train", str(tmp_path / "train.csv"), "--test", str(bad)],
        }[command]
        rc = main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(lines) == 1
        assert lines[0].startswith(f"error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("train, needle", [
        ("a.json,x,extra\n", "row 1 must be 'path' or 'path,label'"),
        ("\n\n", "no entries"),
        ("a.json,x\nb.json\n", "every training row needs a label"),
    ], ids=["three-fields", "blank-rows", "unlabeled-row"])
    def test_bad_labels_csv_names_the_file_2(self, train, needle, tmp_path, capsys):
        # refused before any graph is read, so the listed files need not exist
        (tmp_path / "train.csv").write_text(train)
        (tmp_path / "test.csv").write_text("a.json\n")
        self._assert_exit_2(["knn", "--train", str(tmp_path / "train.csv"),
                             "--test", str(tmp_path / "test.csv")], capsys,
                            f"{tmp_path / 'train.csv'}: {needle}")

    def test_weight_too_large_for_float_is_2(self, tmp_path, capsys):
        bad = tmp_path / "big.json"
        bad.write_text('{"directed": false, "nodes": [{"id": 0}, {"id": 1}], '
                       '"edges": [{"i": 0, "j": 1, "w": 1' + "0" * 400 + '}]}')
        self._assert_exit_2(["match", str(bad), str(bad)], capsys, "too large")

    def test_deeply_nested_graph_is_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        self._assert_exit_2(["dist", str(bad), str(bad)], capsys, "nested too deeply")

    def test_deeply_nested_model_is_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"size": ' + "[" * 100_000 + "]" * 100_000 + "}")
        self._assert_exit_2(["sample", "--model", str(bad), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys, "nested too deeply")

    def test_model_lambda_null_is_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["lambda"] = None
        model.write_text(json.dumps(doc))
        self._assert_exit_2(["sample", "--model", str(model), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys,
                            f"{model}: PCA model 'lambda'")

    def test_one_row_model_names_the_file_2(self, tmp_path, capsys):
        # graph_pca writes at least two score rows; the variances s^2 / (N - 1)
        # need them
        corpus = tmp_path / "corpus"
        model = tmp_path / "model.json"
        assert main(["generate", "--family", "letter_like", "--count", "6", "--seed", "3",
                     "--out-dir", str(corpus)]) == 0
        assert main(["pca", *graphs_in(corpus), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["scores"] = doc["scores"][:1]
        model.write_text(json.dumps(doc))
        self._assert_exit_2(["sample", "--model", str(model), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys,
                            f"{model}: PCA model 'scores' must hold at least two rows, got 1")
        assert not (tmp_path / "s").exists()

    def test_model_string_center_names_the_file_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["center"][0] = "0.0"
        model.write_text(json.dumps(doc))
        rc = main(["sample", "--model", str(model), "--count", "1",
                   "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {model}: PCA model 'center' must hold numbers, got str\n")
        assert not (tmp_path / "s").exists()

    def test_model_ratios_not_from_singular_values_2(self, tmp_path, capsys):
        # sample's default component count reads the ratios: [1, 0, ...] on a
        # 6-letter model would pick 1 component in place of 2
        corpus = tmp_path / "corpus"
        model = tmp_path / "model.json"
        assert main(["generate", "--family", "letter_like", "--count", "6", "--seed", "3",
                     "--out-dir", str(corpus)]) == 0
        assert main(["pca", *graphs_in(corpus), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["explained_variance_ratio"] = [1.0] + [0.0] * (len(doc["singular_values"]) - 1)
        model.write_text(json.dumps(doc))
        rc = main(["sample", "--model", str(model), "--count", "1",
                   "--out-dir", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: {model}: PCA model 'explained_variance_ratio' must be s^2 / T "
                       f"for the singular values s and one total T >= sum(s^2)\n")
        assert not (tmp_path / "s").exists()

    def test_model_null_basis_names_the_file_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["basis"] = [[None]]
        model.write_text(json.dumps(doc))
        self._assert_exit_2(["sample", "--model", str(model), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys,
                            f"{model}: PCA model 'basis' must hold finite numbers")

    def test_model_without_variance_names_the_file_2(self, tmp_path, capsys):
        a, model = tmp_path / "a.json", tmp_path / "model.json"
        save_graph(random_symmetric_graph(4, np.random.default_rng(3)), a)
        assert main(["pca", str(a), str(a), "--out", str(model)]) == 0
        capsys.readouterr()
        self._assert_exit_2(["sample", "--model", str(model), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys,
                            f"{model}: model has no variance to sample from")

    def test_model_whose_draw_overflows_names_the_file_2(self, corpus_dir, tmp_path, capsys):
        # every entry of the model is finite, but the mean edge plus its
        # center offset reconstructs past the float limit
        model = tmp_path / "big.json"
        assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["center"][0] = 1.7e308
        edges = [e for e in doc["mean_graph"]["edges"] if {e["i"], e["j"]} != {0, 1}]
        doc["mean_graph"]["edges"] = [*edges, {"i": 0, "j": 1, "w": 1.7e308}]
        model.write_text(json.dumps(doc))
        rc = main(["sample", "--model", str(model), "--count", "1",
                   "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {model}: adjacency contains non-finite entries\n")
        assert not (tmp_path / "s").exists()

    def test_out_of_memory_is_2(self, monkeypatch, tmp_path, capsys):
        # stands in for generate --sizes 100000 100000, which would ask numpy
        # for a 74.5 GiB adjacency
        message = ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                   "and data type float64")

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("graphspace.cli.generate", too_large)
        rc = main(["generate", "--family", "binomial", "--count", "1",
                   "--out-dir", str(tmp_path / "g")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_infinite_lambda_is_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        save_graph(random_symmetric_graph(4, np.random.default_rng(2)), a)
        self._assert_exit_2(["match", str(a), str(a), "--lambda", "inf"], capsys, "lambda")

    def test_negative_generate_count_is_2(self, tmp_path, capsys):
        self._assert_exit_2(["generate", "--family", "binomial", "--count", "-3",
                             "--out-dir", str(tmp_path / "g")], capsys, "--count")
        assert not (tmp_path / "g" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["match", "pairwise", "generate", "sample",
                                         "bench-recovery"])
    def test_negative_seed_names_the_seed_2(self, command, corpus_dir, tmp_path, capsys):
        files = graphs_in(corpus_dir)
        if command == "match":
            argv = ["match", *files[:2], "--restarts", "2", "--seed", "-1"]
        elif command == "pairwise":
            argv = ["pairwise", *files, "--restarts", "1", "--seed", "-1"]
        elif command == "generate":
            argv = ["generate", "--family", "binomial", "--count", "2", "--seed", "-1",
                    "--out-dir", str(tmp_path / "out")]
        elif command == "sample":
            assert main(["pca", *files, "--out", str(tmp_path / "model.json")]) == 0
            capsys.readouterr()
            argv = ["sample", "--model", str(tmp_path / "model.json"), "--count", "2",
                    "--seed", "-1", "--out-dir", str(tmp_path / "out")]
        else:
            argv = ["bench-recovery", "--family", "binomial", "--sizes", "4", "5",
                    "--trials", "1", "--seed", "-1"]
        self._assert_exit_2(argv, capsys, "seed must be nonnegative, got -1")
        assert not (tmp_path / "out").exists()

    def test_bad_generate_sizes_leave_no_directory_2(self, tmp_path, capsys):
        # every graph is drawn before the output directory is made
        self._assert_exit_2(["generate", "--family", "binomial", "--sizes", "0", "3",
                             "--count", "2", "--out-dir", str(tmp_path / "bad")], capsys,
                            "invalid size range [0, 3]")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flags, fault", [
        (["--family", "binomial", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--family", "binomial", "--sizes", "0", "3"], "invalid size range [0, 3]"),
        (["--family", "binomial", "--p", "2"], "edge probability must lie in [0, 1], got 2.0"),
        (["--family", "letter_like", "--coord-noise", "nan"],
         "coord_noise must be finite and nonnegative, got nan"),
    ], ids=["seed", "sizes", "p", "coord-noise"])
    def test_generate_checks_flags_before_any_draw_2(self, flags, fault, tmp_path, capsys):
        # --count 0 draws nothing, and refuses what --count 1 refuses
        errors = []
        for count in ("0", "1"):
            out = tmp_path / f"out{count}"
            rc = main(["generate", *flags, "--count", count, "--out-dir", str(out)])
            errors.append(capsys.readouterr().err)
            assert rc == 2 and not out.exists()
        assert errors[0] == errors[1]
        assert len(errors[0].splitlines()) == 1
        assert errors[0].startswith("error: ") and fault in errors[0]

    def test_zero_max_outer_is_2(self, corpus_dir, tmp_path, capsys):
        self._assert_exit_2(["mean", *graphs_in(corpus_dir), "--out", str(tmp_path / "m.json"),
                             "--max-outer", "0"], capsys, "max_outer must be at least 1")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_mean_tol_is_2(self, corpus_dir, tmp_path, capsys, tol):
        self._assert_exit_2(["mean", *graphs_in(corpus_dir), "--out", str(tmp_path / "m.json"),
                             "--mean-tol", tol], capsys, "tol must be finite and nonnegative")
        assert not (tmp_path / "m.json").exists()

    def test_negative_oracle_max_n_is_2(self, capsys):
        self._assert_exit_2(["bench-recovery", "--family", "binomial", "--sizes", "4", "5",
                             "--trials", "1", "--oracle-max-n", "-3"], capsys,
                            "oracle_max_n must be between 0 and 10, got -3")

    @pytest.mark.parametrize("sizes", [("5", "6"), ("3", "7")])
    def test_brute_sizes_past_the_limit_are_2(self, sizes, capsys):
        rc = main(["bench-recovery", "--family", "binomial", "--sizes", *sizes,
                   "--trials", "2", "--solver", "brute"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: solver 'brute' cannot run size range [{sizes[0]}, {sizes[1]}]: each trial "
            f"pads two-way to 2n nodes, and 2 * {sizes[1]} > 10"]

    @pytest.mark.parametrize("command", ["pairwise", "mean", "pca"])
    def test_negative_workers_is_2(self, command, corpus_dir, tmp_path, capsys):
        out = [] if command == "pairwise" else ["--out", str(tmp_path / "out.json")]
        self._assert_exit_2([command, *graphs_in(corpus_dir), *out, "--workers", "-3"],
                            capsys, "workers must be at least 1, got -3")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("threshold", [
        pytest.param(["--threshold", "nan"], id="nan"),
        pytest.param(["--threshold", "inf"], id="inf"),
        pytest.param(["--count", "0", "--threshold", "-1"], id="negative-count-0"),
    ])
    def test_bad_sample_threshold_is_2(self, corpus_dir, tmp_path, capsys, threshold):
        model = tmp_path / "model.json"
        assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
        capsys.readouterr()
        self._assert_exit_2(["sample", "--model", str(model), "--count", "2",
                             "--out-dir", str(tmp_path / "s"), *threshold], capsys,
                            "threshold must be finite and nonnegative")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["pca", "sample"])
    @pytest.mark.parametrize("components, needle", [
        pytest.param("-1", "--components must be nonnegative, got -1", id="negative"),
        pytest.param("99", "--components 99 exceeds available rank", id="above-rank"),
    ])
    def test_bad_components_is_2(self, corpus_dir, tmp_path, capsys, command, components,
                                 needle):
        model = tmp_path / "model.json"
        if command == "pca":
            argv = ["pca", *graphs_in(corpus_dir), "--out", str(model)]
        else:
            assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
            capsys.readouterr()
            argv = ["sample", "--model", str(model), "--count", "1",
                    "--out-dir", str(tmp_path / "s")]
        self._assert_exit_2([*argv, "--components", components], capsys, needle)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["pairwise", "knn", "mean", "pca",
                                         "match", "dist", "geodesic"])
    def test_lambda_with_unattributed_graph_names_the_file_2(self, command, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["generate", "--family", "letter_like", "--count", "2", "--seed", "1",
                     "--out-dir", str(corpus)]) == 0
        capsys.readouterr()
        save_graph(random_symmetric_graph(4, np.random.default_rng(3)), tmp_path / "plain.json")
        if command == "pairwise":
            argv = ["pairwise", *graphs_in(corpus), str(tmp_path / "plain.json")]
        elif command in ("mean", "pca"):
            argv = [command, *graphs_in(corpus), str(tmp_path / "plain.json"),
                    "--out", str(tmp_path / "out.json")]
        elif command in ("match", "dist"):
            argv = [command, graphs_in(corpus)[0], str(tmp_path / "plain.json")]
        elif command == "geodesic":
            argv = [command, graphs_in(corpus)[0], str(tmp_path / "plain.json"),
                    "--out-dir", str(tmp_path / "geo")]
        else:
            (tmp_path / "train.csv").write_text(
                "corpus/graph_000.json,a\ncorpus/graph_001.json,b\n")
            (tmp_path / "test.csv").write_text("plain.json\n")
            argv = ["knn", "--train", str(tmp_path / "train.csv"),
                    "--test", str(tmp_path / "test.csv")]
        self._assert_exit_2([*argv, "--lambda", "1"], capsys,
                            f"requires node attributes, but {tmp_path / 'plain.json'} has none")

    def test_model_mean_without_attributes_is_2(self, tmp_path, capsys):
        corpus, model = tmp_path / "corpus", tmp_path / "model.json"
        assert main(["generate", "--family", "letter_like", "--count", "4", "--seed", "1",
                     "--out-dir", str(corpus)]) == 0
        assert main(["pca", *graphs_in(corpus), "--lambda", "0.5", "--include-nodes",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        for node in doc["mean_graph"]["nodes"]:
            node.pop("attr", None)
        model.write_text(json.dumps(doc))
        self._assert_exit_2(["sample", "--model", str(model), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys,
                            f"{model}: PCA model 'mean_graph'")

    @pytest.mark.parametrize("argv", [
        pytest.param(["generate", "--family", "binomial", "--count", "1", "--solver", "brute"],
                     id="generate-solver"),
        pytest.param(["match", "a.json", "b.json", "--workers", "2"], id="match-workers"),
    ])
    def test_flag_the_command_does_not_read_is_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir" if argv[0] == "generate" else "--out",
                  str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["mean", "pca"])
    def test_mixed_attribute_dimensions_name_the_file_2(self, command, tmp_path, capsys):
        # the mean averages every document's attributes, at lambda 0 too
        for name, dim in (("a.json", 1), ("b.json", 2)):
            save_graph(Graph([[0.0, 1.0], [1.0, 0.0]], node_attrs=np.ones((2, dim))),
                       tmp_path / name)
        out = tmp_path / "out.json"
        self._assert_exit_2([command, str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                             "--out", str(out)], capsys,
                            f"{tmp_path / 'b.json'} has 2, expected 1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mean", "pca"])
    def test_float_limit_attributes_average_to_themselves(self, command, tmp_path, capsys):
        # at lambda 0 the weight rule does not bound attributes; the mean
        # divides each one by its slot count before summing, so it stays finite
        big = tmp_path / "big.json"
        big.write_text('{"directed": false, "nodes": [{"id": 0, "attr": [1e308]}, '
                       '{"id": 1, "attr": [-1e308]}], "edges": []}')
        out = tmp_path / "out.json"
        assert main([command, str(big), str(big), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert (doc if command == "mean" else doc["mean_graph"]) == json.loads(big.read_text())

    @pytest.mark.parametrize("command", ["mean", "pca", "match"])
    def test_overflow_probe_writes_only_its_error(self, command, tmp_path):
        # attributes at the float limit average to themselves at lambda 0
        # and are refused at lambda 1; numpy must not warn on stderr, ahead
        # of the one error line or in place of none
        big = tmp_path / "big.json"
        big.write_text('{"directed": false, "nodes": [{"id": 0, "attr": [1e308]}, '
                       '{"id": 1, "attr": [-1e308]}], "edges": []}')
        out = tmp_path / "out.json"
        argv = [command, str(big), str(big), "--lambda", "1" if command == "match" else "0"]
        env = {**os.environ, "PYTHONPATH": str(Path(graphspace.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "graphspace.cli", *argv,
                              *(["--out", str(out)] if command != "match" else [])],
                             env=env, capture_output=True, text=True)
        if command == "match":  # the weight rule names the file
            assert run.returncode == 2
            assert run.stderr.startswith(f"error: node attributes of {big} are too large")
            assert run.stderr.count("\n") == 1
            return
        assert run.returncode == 0
        assert run.stderr == ""
        doc = json.loads(out.read_text())
        assert (doc if command == "mean" else doc["mean_graph"]) == json.loads(big.read_text())

    @pytest.mark.parametrize("fault", ["variances", "draw"])
    def test_overflowing_model_writes_only_its_error(self, fault, tmp_path, capsys):
        # scores and singular values scaled by 1e307 square past the float
        # limit, and a finite center on top of float-limit mean weights maps
        # every draw past it: one error line naming the model, no warnings
        corpus, model = tmp_path / "corpus", tmp_path / "model.json"
        assert main(["generate", "--family", "letter_like", "--count", "6", "--seed", "3",
                     "--out-dir", str(corpus)]) == 0
        assert main(["pca", *graphs_in(corpus), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        if fault == "variances":
            doc["scores"] = (1e307 * np.array(doc["scores"])).tolist()
            doc["singular_values"] = [1e307 * s for s in doc["singular_values"]]
        else:
            for edge in doc["mean_graph"]["edges"]:
                edge["w"] = 1e308
            doc["center"] = [1e308] * len(doc["center"])
        model.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(graphspace.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "graphspace.cli", "sample", "--model",
                              str(model), "--count", "2", "--out-dir", str(tmp_path / "s")],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith(f"error: {model}: ")
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("argv", [
        ["match"], ["dist"], ["pairwise"], ["knn"], ["match", "--padding", "one_way"],
        ["pairwise", "--padding", "one_way"], ["mean"]],
        ids=["match", "dist", "pairwise", "knn", "match-one_way", "pairwise-one_way", "mean"])
    def test_overflowing_node_costs_name_the_file_2(self, argv, tmp_path, capsys):
        # one-node documents at the float limit: at lambda 1 their node cost
        # would overflow (match and dist used to run 100 unconverged steps,
        # pairwise and knn to report 0, one-way padding to fail in scipy)
        node = '{"directed": false, "nodes": [{"id": 0, "attr": [%s]}], "edges": []}'
        pos, neg = tmp_path / "pos.json", tmp_path / "neg.json"
        pos.write_text(node % "1e308")
        neg.write_text(node % "-1e308")
        command, *flags = argv
        if command == "knn":
            (tmp_path / "train.csv").write_text("pos.json,a\n")
            (tmp_path / "test.csv").write_text("neg.json\n")
            files = ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")]
        else:
            files = [str(pos), str(neg)]
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, *files, *flags, "--lambda", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: node attributes of {pos} are too large")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["match", "dist", "mean", "pca", "pairwise", "knn"])
    def test_overflowing_edge_weights_name_the_file_2(self, command, tmp_path):
        # squared weights past the float limit would make objectives infinite;
        # the corpus rule refuses the graph before numpy can warn
        edge = ('{"directed": false, "nodes": [{"id": 0}, {"id": 1}], '
                '"edges": [{"i": 0, "j": 1, "w": %s}]}')
        small, big = tmp_path / "small.json", tmp_path / "big.json"
        small.write_text(edge % "1.0")
        big.write_text(edge % "1e200")
        if command == "knn":
            (tmp_path / "train.csv").write_text("small.json,a\nbig.json,b\n")
            (tmp_path / "test.csv").write_text("small.json\n")
            argv = ["knn", "--train", str(tmp_path / "train.csv"),
                    "--test", str(tmp_path / "test.csv")]
        else:
            argv = [command, str(small), str(big)]
            if command in ("mean", "pca"):
                argv += ["--out", str(tmp_path / "out.json")]
        env = {**os.environ, "PYTHONPATH": str(Path(graphspace.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "graphspace.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr == (f"error: edge weights of {big} are too large: their squares "
                              f"must sum to at most 4.494e+307\n")


def _float_flags():
    """Every (subcommand, option) pair of the parser that takes a float."""
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.option_strings[0]) for name, sub in commands.items()
            for action in sub._actions if action.type is float]


class TestNonFiniteFloatFlags:
    @pytest.fixture
    def base_argv(self, corpus_dir, tmp_path, capsys):
        """One valid argv per subcommand, without its float options."""
        files = graphs_in(corpus_dir)
        model = tmp_path / "model.json"
        assert main(["pca", *files, "--out", str(model)]) == 0
        (tmp_path / "train.csv").write_text("".join(f"{f},{i % 2}\n" for i, f in enumerate(files)))
        (tmp_path / "test.csv").write_text(f"{files[0]}\n")
        capsys.readouterr()
        return {
            "match": files[:2],
            "dist": files[:2],
            "geodesic": [*files[:2], "--out-dir", str(tmp_path / "path")],
            "mean": [*files, "--out", str(tmp_path / "mean.json")],
            "pca": [*files, "--out", str(tmp_path / "pca.json")],
            "sample": ["--model", str(model), "--count", "2", "--out-dir", str(tmp_path / "s")],
            "knn": ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")],
            "pairwise": files,
            "bench-recovery": ["--family", "binomial", "--sizes", "4", "5", "--trials", "1"],
            "generate": ["--count", "1", "--out-dir", str(tmp_path / "g")],
        }

    def test_base_argvs_run(self, base_argv, capsys):
        for command, argv in base_argv.items():
            family = ["--family", "letter_like"] if command == "generate" else []
            assert main([command, *argv, *family]) == 0, command
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", _float_flags())
    def test_non_finite_value_is_2(self, command, flag, value, base_argv, capsys):
        argv = [command, *base_argv[command], f"{flag}={value}"]
        if command == "generate":
            argv += ["--family", "binomial" if flag == "--p" else "letter_like"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert f"got {value}" in lines[0] and "Traceback" not in err


class TestOneProcess:
    def test_package_import_leaves_the_cli_out(self):
        # the command line is loaded only by the commands, not by the library
        code = "import sys, graphspace; print('graphspace.cli' in sys.modules)"
        src = str(Path(graphspace.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"

    def test_commands_share_one_parser(self, tmp_path, capsys):
        # The parser is built once per process; defaults must not leak from
        # one command's arguments into the next.
        assert main(["generate", "--family", "binomial", "--count", "1", "--sizes", "3", "3",
                     "--seed", "1", "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["generate", "--family", "binomial", "--count", "1",
                     "--seed", "1", "--out-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert load_graph(tmp_path / "a" / "graph_000.json").n == 3
        assert 5 <= load_graph(tmp_path / "b" / "graph_000.json").n <= 10

        save_graph(Graph([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "x.json")
        save_graph(Graph([[0.0, 3.0], [3.0, 0.0]]), tmp_path / "y.json")
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        assert main(["match", x, y, "--solver", "brute", "--padding", "none"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["dist", x, y]) == 0
        second = json.loads(capsys.readouterr().out)
        assert main(["match", x, y]) == 0
        third = json.loads(capsys.readouterr().out)
        assert (first["solver"], first["padded_size"]) == ("brute", 2)
        assert second == {"d_g": 2.8284271247461903, "objective": 8.0,
                          "direction": second["direction"], "converged": True}
        assert (third["solver"], third["padded_size"]) == ("faq", 4)


class TestGoldenOutput:
    def test_match_output_frozen(self, tmp_path, capsys):
        # fixed handwritten inputs: the full stdout is pinned byte for byte
        save_graph(Graph([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "a.json")
        save_graph(Graph([[0.0, 3.0], [3.0, 0.0]]), tmp_path / "b.json")
        rc = main(["match", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                   "--solver", "brute", "--padding", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == (
            '{"permutation": [0, 1], "objective": 8.0, "d_g": 2.8284271247461903, '
            '"lambda": 0.0, "padded_size": 2, "solver": "brute", "iterations": 0, '
            '"converged": true, "restart_index": 0}\n'
        )


    def test_statistics_outputs_frozen(self, tmp_path, capsys):
        # pca (plain, and with the attribute block and a component cut) and
        # sample on a small seeded corpus: every output file pinned by SHA-256
        corpus = tmp_path / "corpus"
        assert main(["generate", "--family", "letter_like", "--count", "6", "--seed", "4",
                     "--node-drop", "0.2", "--out-dir", str(corpus)]) == 0
        files = graphs_in(corpus)
        for argv in (
            ["pca", *files, "--refine", "--out", str(tmp_path / "plain.json")],
            ["pca", *files, "--refine", "--lambda", "0.7", "--include-nodes",
             "--components", "3", "--out", str(tmp_path / "nodes.json")],
            ["sample", "--model", str(tmp_path / "plain.json"), "--count", "3", "--seed", "5",
             "--threshold", "0.2", "--out-dir", str(tmp_path / "plain")],
            ["sample", "--model", str(tmp_path / "nodes.json"), "--count", "3", "--seed", "5",
             "--out-dir", str(tmp_path / "nodes")],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.rglob("*.json") if p.parent != corpus}
        assert digests == {
            "plain.json": "039c059977d08e89ef159f0a610cf48b3d4d9079732a6ed2986daffac51bda84",
            "nodes.json": "8aa7039a7bd541af8f016981a8b0e38fab4ccf7a830cdf22556b69df9f87f319",
            "plain/manifest.json":
                "f207347e95edcce5edb11566281a008fb6e6ee74f750d3eab3351455bbe1554b",
            "plain/sample_000.json":
                "a388f0f1c0b76893b283b7b7e49d5155a241223a3b122a8089b7a8445145396c",
            "plain/sample_001.json":
                "b0df741ea9cf4ef086b0d37b36723e32f7bc36c430f2b76e51b36c2fb8cc006e",
            "plain/sample_002.json":
                "f4ee01a03608810c0c79ca6eec74c231f95e1562bb425c0a013463154fde9ac5",
            "nodes/manifest.json":
                "c9d0df204925c214dad6e875ffc438b1ed8186142d906082984ca81d1810964c",
            "nodes/sample_000.json":
                "c821f7a66186f74b44a31729393653978ae2598efe7c550ffe49a9ceced77e8c",
            "nodes/sample_001.json":
                "95d12c789aabaac48d7705400c70b838c285b340bade9af3015e710a44f2a529",
            "nodes/sample_002.json":
                "eee5b2ab9414dcf9c7aefd97cc300cc7137452e4e3f1dc2ada52eafdad228dc8",
        }


class TestDeterminism:
    def _run(self, argv, capsys):
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        return out

    def test_generate_deterministic(self, tmp_path, capsys):
        outs = []
        for run in ("one", "two"):
            d = tmp_path / run
            outs.append(self._run([
                "generate", "--family", "letter_like", "--count", "3",
                "--seed", "9", "--out-dir", str(d), "--node-drop", "0.2",
            ], capsys))
            assert (d / "graph_000.json").exists()
        assert outs[0] == outs[1]
        a = (tmp_path / "one" / "graph_001.json").read_bytes()
        b = (tmp_path / "two" / "graph_001.json").read_bytes()
        assert a == b

    def test_sample_deterministic(self, corpus_dir, tmp_path, capsys):
        files = graphs_in(corpus_dir)
        model_out = tmp_path / "model.json"
        self._run(["pca", *files, "--out", str(model_out), "--refine"], capsys)
        outs = []
        for run in ("one", "two"):
            outs.append(self._run([
                "sample", "--model", str(model_out), "--count", "2",
                "--seed", "21", "--out-dir", str(tmp_path / run),
            ], capsys))
        assert outs[0] == outs[1]
        a = (tmp_path / "one" / "sample_000.json").read_bytes()
        b = (tmp_path / "two" / "sample_000.json").read_bytes()
        assert a == b
