import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphspace
from graphspace import Graph, load_graph, save_graph
from graphspace.cli import main
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


    def _assert_exit_2(self, argv, capsys, needle):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and needle in err
        assert "Traceback" not in err

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

    def test_model_size_null_is_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["pca", *graphs_in(corpus_dir), "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["size"] = None
        model.write_text(json.dumps(doc))
        self._assert_exit_2(["sample", "--model", str(model), "--count", "1",
                             "--out-dir", str(tmp_path / "s")], capsys, "'size'")

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

    def test_negative_workers_is_2(self, corpus_dir, capsys):
        self._assert_exit_2(["pairwise", *graphs_in(corpus_dir), "--workers", "-3"],
                            capsys, "workers must be at least 1")

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
                             "--out-dir", str(tmp_path / "s")], capsys, "'mean_graph'")

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["mean", "pca"])
    def test_non_finite_output_names_the_file_2(self, command, tmp_path, capsys):
        # the mean attributes overflow to infinities, which no document may hold
        big = tmp_path / "big.json"
        big.write_text('{"directed": false, "nodes": [{"id": 0, "attr": [1e308]}, '
                       '{"id": 1, "attr": [-1e308]}], "edges": []}')
        out = tmp_path / "out.json"
        self._assert_exit_2([command, str(big), str(big), "--lambda", "1", "--out", str(out)],
                            capsys, f"{out}: cannot write the non-finite number")
        assert not out.exists()


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
            '{\n'
            '  "permutation": [\n    0,\n    1\n  ],\n'
            '  "objective": 8.0,\n'
            '  "d_g": 2.8284271247461903,\n'
            '  "lambda": 0.0,\n'
            '  "padded_size": 2,\n'
            '  "solver": "brute",\n'
            '  "iterations": 0,\n'
            '  "converged": true,\n'
            '  "restart_index": 0\n'
            '}\n'
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
            "plain.json": "e74280a74d4d765d6b7e584f9f9b0861442e661e45fd24d6beb39292ba65c2bd",
            "nodes.json": "1f200c27c6fb6b7e6f99a192d693954c8c12d3b894c980d8cfcdaaa3cd634e76",
            "plain/manifest.json":
                "59557b2a667a244313cfaab401c5c7ccc83d2f23c9b089863a5900f52dbfbad9",
            "plain/sample_000.json":
                "16b856c56ef74efdb787db98b311dc110815c00a2e95c8dff9103afa0eced15a",
            "plain/sample_001.json":
                "0820635790a3e0f78caa31ff6dd46b76b09d3e3e6645d5b59ce41ed30927a790",
            "plain/sample_002.json":
                "62b0170f38bff2bc8614b5245ac708c45099c9deaa2d23a13002e638529546cf",
            "nodes/manifest.json":
                "96455ed443e6e3766823ab8780cfbc78bd195bf00e671228c14fc29827ec43b4",
            "nodes/sample_000.json":
                "51990eef8de11d1b9064f89a23e9bc4c2ed5242c3084423c59af001369a755a9",
            "nodes/sample_001.json":
                "ed91e7eb8f08548289af645517382f2d22b71073e3dd1d9a5ecc1feb05bb8e53",
            "nodes/sample_002.json":
                "2fa193f7fe1573e5acbf9303a75547bc636462ec17ea35282df88a600385dbff",
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
