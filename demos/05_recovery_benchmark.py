"""How reliably does the matcher undo a random relabeling?

Each trial hides a random permutation of a synthetic graph and asks the
Frank-Wolfe matcher to recover it after two-way null-node padding.
Continuous weights make the optimum unique, so recovery is essentially
perfect; binary graphs admit many co-optimal registrations at small sizes,
so the recovered labeling often differs from the planted one even when the
objective is driven to its exact optimum.

Run:  python demos/05_recovery_benchmark.py  (a few seconds)
"""

import time

from graphspace import MatchConfig, bench_recovery


def row(family, sizes, cfg, seed, trials=100):
    t0 = time.time()
    rep = bench_recovery(family, sizes, trials, cfg, seed=seed)
    gap = (f"{rep.max_objective_gap_vs_oracle:.1e}"
           if rep.max_objective_gap_vs_oracle is not None else "   n/a ")
    print(f"  {family:<18} {str(list(sizes)):<10} "
          f"{rep.fraction_exact_registration:9.3f}   {gap:>9}   "
          f"{time.time() - t0:6.1f}s")


def main():
    print("fraction of exactly recovered registrations "
          "(100 trials per row, max objective gap to the exact optimum, 0 for a "
          "planted copy, where n <= 8)")
    print(f"  {'family':<18} {'sizes':<10} {'recovered':>9}   {'max gap':>9}")

    plain = MatchConfig()
    polish = MatchConfig(refinement=True, restarts=30)

    row("full_heavy_tailed", (5, 10), MatchConfig(refinement=True, restarts=5), seed=1)
    row("full_heavy_tailed", (50, 60), plain, seed=2)
    row("binomial", (5, 10), polish, seed=3)
    row("binomial", (50, 60), plain, seed=4)

    print("\nbinary graphs at small sizes: the objective reaches its optimum "
          "(gap 0) yet the planted labels are often not the ones recovered; "
          "discrete weights leave many equally good registrations.")


if __name__ == "__main__":
    main()
