"""Straight-line deformation between registered graphs.

After optimal registration, the segment (1-t) * A1 + t * A2 is the shortest
path between two graphs; edge weights fade linearly, so an edge present on
only one side appears or disappears gradually.  Registration first makes
the deformation natural; interpolating unregistered matrices smears weight
across unrelated node pairs.

Run:  python demos/02_geodesics.py
"""

import numpy as np

from graphspace import (
    MatchConfig,
    ambient_distance,
    geodesic,
    graph_distance,
    letter_like,
    objective_value,
    pad_pair,
    trial_rng,
)
from graphspace.matching import SolverTrace, build_match_result


def edge_list(g, limit=8):
    rows, cols = np.nonzero(np.triu(g.adjacency, k=1))
    parts = [f"{i}-{j}:{g.adjacency[i, j]:.2f}" for i, j in zip(rows, cols)]
    return "  ".join(parts[:limit]) + (" ..." if len(parts) > limit else "")


def main():
    a = letter_like(trial_rng(7, 0), coord_noise=0.1, edge_noise=0.05)
    b = letter_like(trial_rng(7, 1), coord_noise=0.1, edge_noise=0.3)

    print("== Geodesic in the quotient (registered) ==")
    m = graph_distance(a, b, MatchConfig(lam=1.0, refinement=True, restarts=5))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  t={t:4.2f}  {edge_list(geodesic(m, t))}")
    print(f"  d_g = {m.d_g:.4f}")

    print("\n== Interpolation without registration, for contrast ==")
    a_pad, b_pad = pad_pair(a, b, "two_way")
    identity = np.arange(a_pad.n)
    raw = build_match_result(a_pad, b_pad, identity, 0.0,
                             objective_value(a_pad.adjacency, b_pad.adjacency,
                                             None, 0.0, identity),
                             SolverTrace(solver="identity", iterations=0))
    for t in (0.0, 0.5, 1.0):
        print(f"  t={t:4.2f}  {edge_list(geodesic(raw, t))}")
    print(f"  unregistered path length = {raw.d_g:.4f} "
          f"(longer than the registered {m.d_g:.4f} whenever labels disagree)")

    print("\n== The path is metrically straight ==")
    total = ambient_distance(m.g1_registered, m.g2_padded)
    for t in (0.25, 0.5, 0.75):
        d = ambient_distance(m.g1_registered, geodesic(m, t))
        print(f"  t={t:4.2f}  d(start, point)/d(start, end) = {d / total:.6f}")


if __name__ == "__main__":
    main()
