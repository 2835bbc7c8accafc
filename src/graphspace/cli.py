"""Command-line interface.

Subcommands: match, dist, geodesic, mean, pca, sample, knn, pairwise,
bench-recovery, generate.  Every command is deterministic given --seed:
output files and stdout are byte-identical across runs on one BLAS kernel
at one BLAS thread count (another kernel or thread count may change the
last bits; pairwise distances between 150-250-node graphs do at 2 BLAS
threads against 1).  Exit codes:
0 success, 2 validation or usage error (or a request too large for
memory), 3 solver non-convergence (outputs are still written on a
best-effort basis).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .documents import (
    ValidationError,
    _dumps,
    _read_json,
    load_graph,
    pca_model_document,
    pca_model_from_document,
    save_graph,
)
from .generators import FAMILIES, _check_generate, _check_seed, generate, trial_rng
from .graphs import _PADDINGS, _check_corpus
from .matching import _SOLVERS, MatchConfig, geodesic, graph_distance
from .pipelines import (
    bench_recovery,
    distance_csv,
    knn_classify,
    pairwise_distances,
    symmetric_match,
)
from .stats import (
    components_for_variance,
    fit_gaussian,
    graph_pca,
    karcher_mean,
    sample_graphs,
    truncate_components,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
MAX_GEODESIC_STEPS = 1000


def _matching_options(padding: bool = True, workers: bool = True) -> argparse.ArgumentParser:
    """The matching flags as a parent parser, with ``--padding`` and
    ``--workers`` only for the commands that read them."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("matching options")
    g.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="node-attribute weight in the matching objective")
    g.add_argument("--solver", choices=_SOLVERS, default="faq")
    if padding:
        g.add_argument("--padding", choices=_PADDINGS, default="two_way")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-iter", type=int, default=100)
    g.add_argument("--tol", type=float, default=1e-8)
    g.add_argument("--restarts", type=int, default=0,
                   help="extra random-permutation starts for the faq solver")
    g.add_argument("--refine", dest="refinement", action="store_true",
                   help="greedy two-exchange refinement after the solver")
    if workers:
        g.add_argument("--workers", type=int, default=1)
    return p


def _cfg(args) -> MatchConfig:
    """The command's matching flags; MatchConfig's defaults fill the rest."""
    given = vars(args)
    if given.get("workers", 1) < 1:
        raise ValidationError(f"workers must be at least 1, got {given['workers']}")
    return MatchConfig(**{f.name: given[f.name] for f in fields(MatchConfig) if f.name in given})


def _emit(doc: dict, out: str | None = None) -> None:
    try:
        text = _dumps(doc)
    except ValueError as exc:
        raise ValueError(f"{out or '<stdout>'}: {exc}") from exc
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="utf-8")


def _match_document(res) -> dict:
    return {
        "permutation": res.p.perm.tolist(),
        "objective": res.objective,
        "d_g": res.d_g,
        "lambda": res.lam,
        "padded_size": res.g2_padded.n,
        "solver": res.solver_trace.solver,
        "iterations": res.solver_trace.iterations,
        "converged": res.solver_trace.converged,
        "restart_index": res.solver_trace.restart_index,
    }


def _corpus(args, paths, like=None):
    """The graphs at ``paths`` and the command's config, checked as a corpus
    so that an error names the input file at fault."""
    graphs, cfg = [load_graph(p) for p in paths], _cfg(args)
    _check_corpus(graphs, cfg.lam, [str(p) for p in paths], like)
    return graphs, cfg


def _pair(args):
    (g1, g2), cfg = _corpus(args, [args.graph1, args.graph2])
    return g1, g2, cfg


def _save_graphs(out_dir, prefix: str, graphs) -> list[str]:
    """Write ``graphs`` into ``out_dir`` as ``{prefix}_000.json``, ... and
    return the file names; every graph is drawn before the directory is
    made, so a failed draw leaves nothing behind."""
    graphs = list(graphs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [f"{prefix}_{i:03d}.json" for i in range(len(graphs))]
    for g, name in zip(graphs, files):
        save_graph(g, out_dir / name)
    return files


def _cmd_match(args) -> int:
    res = graph_distance(*_pair(args))
    _emit(_match_document(res), args.out)
    return EXIT_OK if res.solver_trace.converged else EXIT_NO_CONVERGENCE


def _cmd_dist(args) -> int:
    d, res, direction = symmetric_match(*_pair(args))
    _emit({"d_g": d, "objective": res.objective, "direction": direction,
           "converged": res.solver_trace.converged}, args.out)
    return EXIT_OK if res.solver_trace.converged else EXIT_NO_CONVERGENCE


def _cmd_geodesic(args) -> int:
    if not 2 <= args.steps <= MAX_GEODESIC_STEPS:
        raise ValidationError(f"--steps must lie in 2..{MAX_GEODESIC_STEPS}, got {args.steps}")
    res = graph_distance(*_pair(args))
    times = [k / (args.steps - 1) for k in range(args.steps)]
    files = _save_graphs(args.out_dir, "step", (geodesic(res, t) for t in times))
    manifest = {"times": times, "files": files, **_match_document(res)}
    _emit(manifest, Path(args.out_dir) / "manifest.json")
    return EXIT_OK if res.solver_trace.converged else EXIT_NO_CONVERGENCE


def _karcher(args):
    """The Karcher mean of the command's inputs."""
    graphs, cfg = _corpus(args, args.inputs)
    return karcher_mean(graphs, cfg, max_outer=args.max_outer, tol=args.mean_tol)


def _cmd_mean(args) -> int:
    gm = _karcher(args)
    save_graph(gm.mu, args.out)
    manifest = {
        "template_size": gm.mu.n,
        "energy_trace": list(gm.energy_trace),
        "converged": gm.converged,
        "inputs": [Path(p).name for p in args.inputs],
        "registrations": [r.permutation.perm.tolist() for r in gm.registrations],
        "edge_energies": [r.edge_energy for r in gm.registrations],
    }
    _emit(manifest, args.manifest)
    return EXIT_OK if gm.converged else EXIT_NO_CONVERGENCE


def _check_components(k: int, rank: float = math.inf) -> None:
    if k < 0:
        raise ValidationError(f"--components must be nonnegative, got {k}")
    if k > rank:
        raise ValidationError(f"--components {k} exceeds available rank {rank}")


def _cmd_pca(args) -> int:
    _check_components(args.components)  # before the mean is computed
    gm = _karcher(args)
    model = graph_pca(gm, include_nodes=args.include_nodes)
    _check_components(args.components, model.n_components)
    if args.components:
        model = truncate_components(model, args.components)
    _emit(pca_model_document(model), args.out)
    return EXIT_OK if gm.converged else EXIT_NO_CONVERGENCE


def _cmd_sample(args) -> int:
    doc = _read_json(args.model)
    try:
        pca = pca_model_from_document(doc)
        if pca.n_components == 0 or float(pca.singular_values.max(initial=0.0)) == 0.0:
            raise ValidationError("model has no variance to sample from")
    except ValidationError as exc:
        raise ValidationError(f"{args.model}: {exc}") from exc
    _check_components(args.components, pca.n_components)
    k = args.components or components_for_variance(pca, 0.8)
    gauss = fit_gaussian(pca, k, threshold=args.threshold)
    # a finite model can still map a draw past the float limit
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            graphs = sample_graphs(gauss, seed=args.seed, count=args.count)
        except ValueError as exc:
            if args.seed < 0 or args.count < 0:  # refused before any draw
                raise
            raise ValidationError(f"{args.model}: {exc}") from exc
    files = _save_graphs(args.out_dir, "sample", graphs)
    _emit({"count": args.count, "components": k, "threshold": args.threshold,
           "seed": args.seed, "files": files}, Path(args.out_dir) / "manifest.json")
    return EXIT_OK


def _read_labels_csv(path: str):
    base = Path(path).parent
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    items = []
    for row_num, row in enumerate(rows):
        if not row:
            continue
        if len(row) not in (1, 2):
            raise ValidationError(f"{path}: row {row_num + 1} must be 'path' or 'path,label'")
        rel = row[0].strip()
        label = row[1].strip() if len(row) == 2 else None
        items.append((rel, base / rel, label))
    if not items:
        raise ValidationError(f"{path}: no entries")
    return items


def _cmd_knn(args) -> int:
    train_items = _read_labels_csv(args.train)
    test_items = _read_labels_csv(args.test)
    if any(label is None for _, _, label in train_items):
        raise ValidationError(f"{args.train}: every training row needs a label")
    train, cfg = _corpus(args, [p for _, p, _ in train_items])
    test, _ = _corpus(args, [p for _, p, _ in test_items], like=train[0])
    labels = [label for _, _, label in train_items]
    preds, _ = knn_classify(train, labels, test, args.k, cfg, workers=args.workers)
    truths = [label for _, _, label in test_items]
    accuracy = None
    if all(t is not None for t in truths):
        hits = sum(1 for p, t in zip(preds, truths) if p == t)
        accuracy = hits / len(truths)
    _emit({
        "k": args.k,
        "predictions": [
            {"path": rel, "predicted": pred, "label": truth}
            for (rel, _, truth), pred in zip(test_items, preds)
        ],
        "accuracy": accuracy,
    }, args.out)
    return EXIT_OK


def _cmd_pairwise(args) -> int:
    graphs, cfg = _corpus(args, args.inputs)
    matrix = pairwise_distances(graphs, cfg, workers=args.workers)
    # rows and columns are labelled by base name unless two inputs share one
    ids = [Path(p).name for p in args.inputs]
    if len(set(ids)) < len(ids):
        ids = list(args.inputs)
    text = distance_csv(matrix, ids)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_bench_recovery(args) -> int:
    report = bench_recovery(
        args.family,
        (args.sizes[0], args.sizes[1]),
        args.trials,
        _cfg(args),
        seed=args.seed,
        p=args.p,
        workers=args.workers,
        oracle_max_n=args.oracle_max_n,
    )
    _emit(report.to_document(include_timing=args.timing), args.out)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.count < 0:
        raise ValidationError("--count must be nonnegative")
    # what a draw refuses is refused before any, so --count 0 checks every flag
    _check_seed(args.seed)
    _check_generate(args.family, args.sizes, args.p, args.coord_noise, args.edge_noise,
                    args.node_drop)
    graphs = [generate(args.family, (args.sizes[0], args.sizes[1]), trial_rng(args.seed, i),
                       p=args.p, coord_noise=args.coord_noise, edge_noise=args.edge_noise,
                       node_drop=args.node_drop)
              for i in range(args.count)]
    files = _save_graphs(args.out_dir, "graph", graphs)
    _emit({"family": args.family, "count": args.count, "seed": args.seed,
           "files": files}, Path(args.out_dir) / "manifest.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # match, dist and geodesic register one pair and take no --workers;
    # mean, pca and bench-recovery fix their own padding.  mean and pca
    # accept --workers without using it; _cfg checks it for every command.
    pair = _matching_options(workers=False)
    corpus = _matching_options(padding=False)
    batch = _matching_options()
    karcher = argparse.ArgumentParser(add_help=False)
    karcher.add_argument("inputs", nargs="+")
    karcher.add_argument("--out", required=True)
    karcher.add_argument("--max-outer", type=int, default=30)
    karcher.add_argument("--mean-tol", type=float, default=1e-9)
    parser = argparse.ArgumentParser(
        prog="graphspace",
        description="Quotient-space graph statistics: matching, distances, "
                    "geodesics, means, PCA, and generative sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", parents=[pair],
                       help="register one graph to another")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("dist", parents=[pair],
                       help="symmetrized quotient distance between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("geodesic", parents=[pair],
                       help="write the geodesic between two graphs as documents")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--steps", type=int, default=5, help=f"path points: 2 to {MAX_GEODESIC_STEPS}")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("mean", parents=[corpus, karcher],
                       help="Karcher mean of a graph corpus")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("pca", parents=[corpus, karcher],
                       help="principal component analysis of a graph corpus")
    p.add_argument("--components", type=int, default=0,
                   help="components to keep (default: all)")
    p.add_argument("--include-nodes", action="store_true")
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("sample",
                       help="sample graphs from a Gaussian fitted to a PCA model")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--components", type=int, default=0,
                   help="score dimensions (default: 80%% explained variance)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("knn", parents=[batch],
                       help="k-nearest-neighbour classification by quotient distance")
    p.add_argument("--train", required=True, help="CSV of path,label rows")
    p.add_argument("--test", required=True, help="CSV of path[,label] rows")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("pairwise", parents=[batch],
                       help="symmetric distance matrix over a corpus, as CSV")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pairwise)

    p = sub.add_parser("bench-recovery", parents=[corpus],
                       help="planted-permutation recovery benchmark")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--sizes", type=int, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5,
                   help="edge probability for the binomial family")
    p.add_argument("--oracle-max-n", type=int, default=8)
    p.add_argument("--timing", action="store_true",
                   help="include wall-time stats in the report (non-deterministic)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench_recovery)

    p = sub.add_parser("generate", help="write synthetic graph documents")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--sizes", type=int, nargs=2, default=(5, 10), metavar=("LO", "HI"))
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--coord-noise", type=float, default=0.15)
    p.add_argument("--edge-noise", type=float, default=0.05)
    p.add_argument("--node-drop", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing does not mutate the parser (no
    # ``append`` actions, no mutable defaults), so commands can share it.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
