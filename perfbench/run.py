"""Run one graphspace benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload register_large --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout.  Set-up time is
the median of three imports of the package, each in a fresh interpreter,
plus the median of three builds of the seeded input pool (one build with
``--trace 1``).  With ``--trace 0`` the closed loop runs one request at a
time, single-process, until it has spent ``--seconds`` in requests and has
made at least one pass over the pool, and prints the end-to-end metrics.
With ``--trace 1`` it runs the first requests of the pool twice, untraced
and then traced, prints the per-layer metrics and writes the spans to
``.bench_out/``.  Every output is checked.  The last line of stdout is the
result object; the line before it records the environment and the run's
counts.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing  # standard library only: numpy must not load before pin_threads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "request_s_p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "quality_loss": ("1", "lower"),
}


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads, pinned before numpy loads (default 1)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 0:
        p.error("--seconds must be nonnegative")
    return args


def pin_threads(threads: int) -> int:
    """Pin every BLAS/OpenMP pool to ``threads``; refuse more than nproc."""
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= threads <= nproc:
        fail(f"--blas-threads {threads} is outside 1..nproc ({nproc})")
    if "numpy" in sys.modules:
        fail("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(args, nproc: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": args.blas_threads,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "workers": workers,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
    }


def import_time() -> float:
    """Seconds to import graphspace (with numpy and scipy) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import graphspace; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SOURCE)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


@dataclass
class Loop:
    """Outcome of one closed-loop pass: timings, counts and quality loss."""

    durations: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    loss_sum: float = 0.0
    loss_count: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.durations)


def closed_loop(workload, pool, seconds: float, tracer=None) -> Loop:
    """One request at a time, in pool order, until ``seconds`` of request
    time are spent and every pool request ran once; later requests reuse the
    pool from its start.  The quality loss covers the first pass only."""
    loop = Loop()
    k = 0
    while k < len(pool) or loop.busy_s < seconds:
        request = pool[k % len(pool)]
        if tracer is not None:
            tracer.item = k
        start = time.perf_counter()
        try:
            output = workload.run(request)
            error = None
        except Exception:  # a failing request is counted, and the run goes on
            error = traceback.format_exc()
        loop.durations.append(time.perf_counter() - start)
        n = workload.items(request)
        loop.items += n
        if error is None:
            try:
                loss_sum, loss_count = workload.check(request, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            loop.failed += n
            print(f"perfbench: request {k} failed:\n{error}", file=sys.stderr)
        elif k < len(pool):
            loop.loss_sum += loss_sum
            loop.loss_count += loss_count
        k += 1
    if tracer is not None:
        tracer.item = None
    return loop


def measure(cls, seed: int, seconds: float, trace: int, workdir: Path,
            import_s: float = 0.0, requests: int | None = None):
    """Set up and run one workload; returns (result object, run info, spans)."""
    info: dict = {}
    spans: list = []
    builds = []
    for rep in range(SETUP_REPEATS if trace == 0 else 1):
        # Each set-up writes into its own directory (see CorpusPcaCli).
        if rep:
            shutil.rmtree(workdir / f"setup-{rep - 1}")
        (workdir / f"setup-{rep}").mkdir(parents=True)
        start = time.perf_counter()
        workload = cls(seed, workdir / f"setup-{rep}", requests)
        pool = workload.build()
        builds.append(time.perf_counter() - start)
    info.update(build_s=builds, pool_requests=len(pool))

    if trace == 0:
        before = tracing.installed_wrappers()
        loop = closed_loop(workload, pool, seconds)
        info["wrappers_during_timed_run"] = before + tracing.installed_wrappers()
        attempted, failed = loop.items, loop.failed
        metrics = {
            "setup_s": import_s + statistics.median(builds),
            "items_per_s": loop.items / loop.busy_s,
            "request_s_p50": statistics.median(loop.durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_loss": loop.loss_sum / loop.loss_count if loop.loss_count else 0.0,
        }
        units = END_TO_END
        info.update(requests=len(loop.durations), items=loop.items, busy_s=loop.busy_s,
                    quality_items=loop.loss_count)
    else:
        subset = pool[:workload.trace_requests]
        plain = closed_loop(workload, subset, 0.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = closed_loop(workload, subset, 0.0, tracer)
        finally:
            tracer.remove()
        left = tracing.installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers still installed after the traced run: {left}")
        attempted, failed = plain.items + traced.items, plain.failed + traced.failed
        metrics = tracing.layer_values(tracer.spans, tracer.counts, traced.busy_s,
                                       traced.busy_s / plain.busy_s - 1.0)
        units = tracing.PER_LAYER
        spans = tracer.spans
        info.update(requests=len(subset), untraced_busy_s=plain.busy_s,
                    traced_busy_s=traced.busy_s, spans=len(spans),
                    missing_targets=tracer.missing, hook_errors=dict(tracer.hook_errors))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return result, info, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "graphspace" / "__init__.py").is_file():
        fail(f"graphspace sources not found under {SOURCE}; run from a repository checkout")
    nproc = pin_threads(args.blas_threads)
    import_s = 0.0 if args.trace else statistics.median(
        import_time() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SOURCE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "env": environment(args, nproc, workloads.WORKERS), "import_s": import_s}
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        result, run_info, spans = measure(workloads.WORKLOADS[args.workload], args.seed,
                                          args.seconds, args.trace, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(run_info)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_file.unlink(missing_ok=True)  # a fresh file, not one rewritten in place
        tracing.write_spans(spans, spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
