"""Registering graphs across the relabeling quotient.

Two graphs describe the same structure whenever one adjacency matrix is a
row/column permutation of the other.  This walk-through builds a pair of
letter-shaped graphs, registers them with each solver, and shows how the
node-attribute weight trades edge agreement against coordinate agreement.

Run:  python demos/01_matching_and_distance.py
"""

import numpy as np

from graphspace import (
    MatchConfig,
    graph_distance,
    letter_like,
    permute,
    trial_rng,
)


def show(name, res):
    trace = res.solver_trace
    print(f"  {name:<22} objective={res.objective:10.4f}  d_g={res.d_g:8.4f}  "
          f"iterations={trace.iterations}  mapping={res.p.perm.tolist()}")


def main():
    rng = trial_rng(42, 0)

    print("== 1. A graph matched against a shuffled copy of itself ==")
    g = letter_like(rng, coord_noise=0.0, edge_noise=0.0)
    shuffled = permute(g, rng.permutation(g.n))
    for solver in ("umeyama", "faq", "brute"):
        cfg = MatchConfig(solver=solver, padding="none", refinement=True)
        show(solver, graph_distance(g, shuffled, cfg))
    print("  All solvers reach objective 0: the pair lies in one orbit.\n")

    print("== 2. Two genuinely different letters ==")
    a = letter_like(trial_rng(42, 1), coord_noise=0.1, edge_noise=0.05)
    b = letter_like(trial_rng(42, 8), coord_noise=0.1, edge_noise=0.25)
    for solver in ("umeyama", "faq"):
        cfg = MatchConfig(solver=solver, padding="two_way", refinement=True, restarts=5)
        show(solver, graph_distance(a, b, cfg))
    oracle = graph_distance(a, b, MatchConfig(solver="brute", padding="two_way"))
    show("exhaustive oracle", oracle)
    print("  Heuristics sit at (or just above) the exhaustive optimum.\n")

    print("== 3. The node-attribute weight steers the registration ==")
    for lam in (0.0, 0.5, 2.0):
        cfg = MatchConfig(lam=lam, padding="two_way", refinement=True, restarts=5)
        res = graph_distance(a, b, cfg)
        print(f"  lambda={lam:4.1f}  objective={res.objective:9.4f}  "
              f"mapping={res.p.perm.tolist()}")
    print("  Larger weights pull matched nodes toward nearby coordinates,")
    print("  even at the cost of extra edge disagreement.\n")

    print("== 4. Null-node padding lets sizes differ ==")
    small = letter_like(trial_rng(42, 3), node_drop=0.4)
    big = letter_like(trial_rng(42, 4))
    print(f"  sizes: {small.n} vs {big.n}")
    res = graph_distance(small, big, MatchConfig(refinement=True))
    reg = res.g1_registered
    print(f"  padded size {reg.n}; null slots of the small side: "
          f"{np.flatnonzero(reg.null_mask).tolist()}")
    print(f"  d_g = {res.d_g:.4f}")


if __name__ == "__main__":
    main()
