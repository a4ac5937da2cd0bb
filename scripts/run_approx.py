#!/usr/bin/env python3
"""Run the approximation algorithms over random node-weighted instances and
print exact achieved ratios against the claimed bounds."""
import argparse
import time
from fractions import Fraction

from unicover.approx import (approximate, tsp_7_5_node_weighted, tsp_beta,
                             twoec_13_10_node_weighted, twoec_beta)
from unicover.families import (heawood, k33, random_cubic_3ec, random_node_weights,
                               random_subcubic_2ec)
from unicover.graph import NodeWeights


def show(tag: str, res) -> None:
    achieved = res.weight / res.lower_bound
    print(f"  {tag:34s} weight={res.weight} z={res.lower_bound} "
          f"achieved={achieved} claimed={res.ratio}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--n", type=int, default=10)
    args = parser.parse_args()

    print("== node-weighted cubic 3-edge-connected ==")
    for seed in range(args.instances):
        G = random_cubic_3ec(args.n, seed)
        f = random_node_weights(G.n, seed + 1000)
        show(f"tsp75 seed={seed}", tsp_7_5_node_weighted(G, f))
        show(f"twoec1310 seed={seed}", twoec_13_10_node_weighted(G, f))

    print("== bipartite variants ==")
    ones = NodeWeights(tuple(Fraction(1) for _ in range(6)))
    show("bip43 k33", approximate("bip43", k33(), ones))
    show("bip54 heawood",
         approximate("bip54", heawood(), NodeWeights((Fraction(1),) * 14)))

    print("== weighted subcubic via connectors ==")
    for seed in range(args.instances):
        G = random_subcubic_2ec(args.n, seed)
        f = random_node_weights(G.n, seed + 2000)
        Gw = f.induced_graph(G)
        t0 = time.time()
        show(f"twoecbeta seed={seed}", twoec_beta(Gw))
        show(f"tspbeta seed={seed}", tsp_beta(Gw))
        print(f"    [{time.time() - t0:.2f}s]")


if __name__ == "__main__":
    main()
