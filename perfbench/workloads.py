"""The benchmark's four workloads.

Each workload builds a pool of requests from the seed during set-up, runs
one request per closed-loop step through graphspace's public API or its
in-process CLI, and checks every output.  A request's ``check`` raises
``CheckFailed`` on a wrong output and otherwise returns the request's share
of the workload's quality loss as ``(loss_sum, loss_count)``.

Calls into graphspace go through module attributes (``gs.graph_distance``)
so that the traced run's wrappers see them; the checks use the names bound
below at import, which tracing never rebinds.

Sizes are set so that one pass over the pool takes about 14 s on one core
of an AMD EPYC (Zen 5) with one BLAS thread; the pool is also the fixed
item set that the quality loss is computed on.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import graphspace as gs
from graphspace import cli
from graphspace.assignment import objective_value
from graphspace.documents import pca_model_from_document
from graphspace.generators import generate, letter_like, trial_rng

WORKERS = 1  # pipelines and CLI commands run single-threaded
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class LettersPairwise:
    """Symmetrized distance matrices over small distorted-letter corpora."""

    name = "letters_pairwise"
    corpus_size = 30
    requests = 90
    trace_requests = 10  # about 140k spans
    cfg = gs.MatchConfig(lam=1.0, refinement=True, solver="faq")

    def __init__(self, seed: int, workdir: Path, requests: int | None = None):
        self.seed = seed
        self.requests = requests or self.requests

    def build(self):
        m = self.corpus_size
        graphs = [letter_like(trial_rng(self.seed, k), node_drop=0.2)
                  for k in range(self.requests * m)]
        pool = [graphs[r * m:(r + 1) * m] for r in range(self.requests)]
        gs.pairwise_distances(pool[0][:4], self.cfg, workers=WORKERS)
        return pool

    def items(self, corpus) -> int:
        return len(corpus) * (len(corpus) - 1) // 2

    def run(self, corpus):
        return gs.pairwise_distances(corpus, self.cfg, workers=WORKERS)

    def check(self, corpus, d):
        m = len(corpus)
        require(d.shape == (m, m), f"distance matrix has shape {d.shape}, expected {(m, m)}")
        require(bool(np.all(np.isfinite(d))), "non-finite distance")
        require(bool(np.all(d >= 0.0)), "negative distance")
        require(np.array_equal(d, d.T), "distance matrix is not symmetric")
        require(bool(np.all(np.diag(d) == 0.0)), "nonzero diagonal")
        upper = d[np.triu_indices(m, k=1)]
        return float(np.sum(upper * upper)), upper.size


class RegisterLarge:
    """One default-config match per pair of unequal-size binomial graphs."""

    name = "register_large"
    sizes = (150, 250)
    requests = 52
    trace_requests = 26
    cfg = gs.MatchConfig()

    def __init__(self, seed: int, workdir: Path, requests: int | None = None):
        self.seed = seed
        self.requests = requests or self.requests

    def pair_sizes(self, k: int) -> tuple[int, int]:
        # Sizes follow a fixed low-discrepancy schedule over the range, so a
        # seed changes the edges but not the mix of sizes.
        lo, hi = self.sizes
        n1 = lo + round((hi - lo) * ((k * _PHI) % 1.0))
        n2 = lo + round((hi - lo) * ((k * _PHI + 0.5) % 1.0))
        return n1, n2 + (n1 == n2)

    def build(self):
        pool = []
        for k in range(self.requests):
            n1, n2 = self.pair_sizes(k)
            pool.append((gs.binomial(n1, trial_rng(self.seed, 2 * k), p=0.3),
                         gs.binomial(n2, trial_rng(self.seed, 2 * k + 1), p=0.3)))
        warm = trial_rng(self.seed, 2 * self.requests)
        gs.graph_distance(gs.binomial(20, warm, p=0.3), gs.binomial(24, warm, p=0.3), self.cfg)
        return pool

    def items(self, pair) -> int:
        return 1

    def run(self, pair):
        return gs.graph_distance(pair[0], pair[1], self.cfg)

    def check(self, pair, res):
        g1, g2 = pair
        m = g1.n + g2.n
        perm = np.asarray(res.p.perm)
        require(res.g2_padded.n == m, f"padded size {res.g2_padded.n}, expected {m}")
        require(np.array_equal(np.sort(perm), np.arange(m)), "permutation is not a bijection")
        a1 = np.zeros((m, m))
        a1[:g1.n, :g1.n] = g1.adjacency
        obj = objective_value(a1, res.g2_padded.adjacency, None, 0.0, perm)
        require(math.isclose(obj, res.objective, rel_tol=1e-9, abs_tol=1e-9),
                f"reported objective {res.objective} but the permutation gives {obj}")
        return res.objective, 1


class _Sink:
    """Stands in for stdout while the CLI runs; keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class CorpusPcaCli:
    """``graphspace mean``, ``pca`` and ``sample`` on a corpus of JSON documents.

    Every file is written once into a fresh directory and deleted soon after:
    rewriting a file in place can make the filesystem flush it to disk, which
    would put the disk's speed into the measurement.
    """

    name = "corpus_pca_cli"
    corpus_size = 20
    sizes = (30, 40)
    samples = 10
    requests = 42
    trace_requests = 21

    def __init__(self, seed: int, workdir: Path, requests: int | None = None):
        self.seed = seed
        self.requests = requests or self.requests
        self.workdir = workdir

    def build(self):
        corpus_dir = self.workdir / "corpus"
        corpus_dir.mkdir(parents=True)
        pool = []
        for r in range(self.requests):
            paths = []
            for i in range(self.corpus_size):
                k = r * self.corpus_size + i
                path = corpus_dir / f"r{r:03d}_g{i:02d}.json"
                gs.save_graph(generate("binomial", self.sizes, trial_rng(self.seed, k)), path)
                paths.append(str(path))
            pool.append(paths)
        self.check(pool[0][:3], self.run(pool[0][:3]))
        return pool

    def items(self, paths) -> int:
        return len(paths)

    def run(self, paths):
        out = Path(tempfile.mkdtemp(prefix="request-", dir=self.workdir))
        common = ["--refine", "--workers", str(WORKERS)]
        argvs = [
            ["mean", *paths, *common, "--out", str(out / "mean.json"),
             "--manifest", str(out / "mean_manifest.json")],
            ["pca", *paths, *common, "--out", str(out / "model.json")],
            ["sample", "--model", str(out / "model.json"), "--count", str(self.samples),
             "--seed", str(self.seed), "--out-dir", str(out / "samples")],
        ]
        with contextlib.redirect_stdout(_Sink()):
            return [cli.main(argv) for argv in argvs], out

    def check(self, paths, output):
        codes, out = output
        try:
            require(codes == [0, 0, 0], f"CLI exit codes {codes}, expected [0, 0, 0]")
            manifest = json.loads((out / "mean_manifest.json").read_text(encoding="utf-8"))
            trace = manifest["energy_trace"]
            require(len(trace) > 0, "empty energy trace")
            require(all(b <= a + 1e-9 * (1.0 + a) for a, b in zip(trace, trace[1:])),
                    f"energy trace increases: {trace}")
            pca_model_from_document(json.loads((out / "model.json").read_text(encoding="utf-8")))
            sampled = json.loads((out / "samples" / "manifest.json").read_text(encoding="utf-8"))
            require(len(sampled["files"]) == self.samples,
                    f"sample wrote {len(sampled['files'])} graphs, expected {self.samples}")
        finally:
            shutil.rmtree(out)
        return trace[-1], len(paths)


class RecoveryOracle:
    """Planted-permutation recovery scored against the brute-force oracle."""

    name = "recovery_oracle"
    # Sizes are stratified within every request instead of drawn per trial,
    # so the share of costly 9-node oracles is the same for every seed.
    pattern = (7, 7, 8) * 16 + (9,)
    requests = 32
    trace_requests = 16
    cfg = gs.MatchConfig(restarts=5, refinement=True)

    def __init__(self, seed: int, workdir: Path, requests: int | None = None):
        self.seed = seed
        self.requests = requests or self.requests

    def build(self):
        width = len(self.pattern)
        pool = [[(n, (self.seed * self.requests + r) * width + j)
                 for j, n in enumerate(self.pattern)] for r in range(self.requests)]
        gs.bench_recovery("binomial", (7, 7), 1, self.cfg, seed=self.seed, workers=WORKERS,
                          oracle_max_n=9)
        return pool

    def items(self, trials) -> int:
        return len(trials)

    def run(self, trials):
        return [gs.bench_recovery("binomial", (n, n), 1, self.cfg, seed=s, workers=WORKERS,
                                  oracle_max_n=9)
                for n, s in trials]

    def check(self, trials, reports):
        for (n, s), rep in zip(trials, reports):
            require(rep.n_gap_trials == 1, f"trial n={n} seed={s} has no oracle gap")
            gap = rep.max_objective_gap_vs_oracle
            require(gap >= -1e-9, f"trial n={n} seed={s} beats the oracle by {-gap}")
        return sum(1.0 - rep.fraction_exact_registration for rep in reports), len(trials)


WORKLOADS = {w.name: w for w in (LettersPairwise, RegisterLarge, CorpusPcaCli, RecoveryOracle)}
