#!/usr/bin/env python3
"""Run every approximation algorithm of the table on instances of its
profile and print exact achieved ratios against the claimed bounds.

Node-weighted cubic rows run on random_cubic_3ec(--n, seed), the bipartite
rows on K_3,3 and the Heawood graph with unit weights, and the beta rows on
random_subcubic_2ec(--n, seed) under random node weights, seed < --instances:

    PYTHONPATH=src python3 scripts/run_approx.py --instances 3 --n 12
"""
import argparse
import time
from fractions import Fraction

from unicover.approx import approximate
from unicover.families import (heawood, k33, random_cubic_3ec, random_node_weights,
                               random_subcubic_2ec)
from unicover.graph import NodeWeights
from unicover.table import TABLE, names


def instances(profile, n: int, count: int):
    """(tag, graph, node weights) for each instance of the profile; None is
    the profile of a beta row."""
    if profile == "bipartite-cubic-3ec":
        for tag, G in (("k33", k33()), ("heawood", heawood())):
            yield tag, G, NodeWeights((Fraction(1),) * G.n)
        return
    cubic = profile == "cubic-3ec"
    for seed in range(count):
        G = random_cubic_3ec(n, seed) if cubic else random_subcubic_2ec(n, seed)
        yield f"seed={seed}", G, random_node_weights(G.n, seed + (1000 if cubic else 2000))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--n", type=int, default=10)
    args = parser.parse_args()

    for name in names("approx"):
        profile = TABLE[name].profile
        print(f"== {name} on {profile or 'weighted subcubic-2ec'} ==")
        for tag, G, f in instances(profile, args.n, args.instances):
            t0 = time.perf_counter()
            _, res = approximate(name, G, f)
            elapsed = time.perf_counter() - t0
            print(f"  {tag:12s} weight={res.weight} z={res.lower_bound} "
                  f"achieved={res.weight / res.lower_bound} claimed={res.ratio} "
                  f"[{elapsed:.2f}s]")


if __name__ == "__main__":
    main()
