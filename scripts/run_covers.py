#!/usr/bin/env python3
"""Run uniform-cover variants over the named instance corpus and generated
n-vertex instances, and print an exact per-variant slack table with each
certificate's time and the sha256 of its JSON (the bytes `unicover
uniform-cover` writes).  Each variant's `== variant ... ==` header gives the
alpha, r, cover_r and mixing that the table derives for it (table.Row),
so every row records the numbers it ran with; "-" marks a number the
recipe does not use.

The generated instances are random_cubic_3ec(n, 1 + i), i < --random, for
the cubic-3ec variants, and LCF [5, -5]^(n/2) for the bipartite ones unless
--random is 0.  One row of the ROADMAP's size table, for example:

    PYTHONPATH=src python3 scripts/run_covers.py --variant 18/19 --n 24 --random 1

With --counts each row also gives the run's master solves (optimize calls),
pivots, pricing rounds, full entering scans, T-join oracle builds
(tmasters: one per T-join master, so one per packed tree in wolsey_tours,
and one per one-shot min_tjoin), T-join pricing calls, largest |T| and
widest kernel lanes in bits (the Tableau's and Caratheodory's), counted by
wrappers that this script installs around the simplex kernel and the
T-join oracle; the library itself keeps no counts.
"""
import argparse
import hashlib
import time
from fractions import Fraction
from typing import Dict

from unicover import decompose, serialize
from unicover.covers import VARIANTS, uniform_cover
from unicover.families import (c8_12, heawood, k4, k5, k33, lcf_5, mobius_kantor,
                               petersen, prism, random_cubic_3ec)
from unicover.simplex import Adjugate, Tableau
from unicover.table import TABLE

CORPUS = {
    "18/19": [("k4", k4()), ("petersen", petersen()), ("prism", prism())],
    "12/13": [("k33", k33()), ("heawood", heawood()), ("mobius-kantor", mobius_kantor())],
    "15/17": [("k4", k4()), ("petersen", petersen())],
    "8/9": [("k4", k4()), ("petersen", petersen())],
    "7/8": [("k33", k33()), ("heawood", heawood()), ("mobius-kantor", mobius_kantor())],
    "3/4": [("k5", k5()), ("c8-12", c8_12())],
}


def generated(variant: str, n: int, count: int) -> list:
    profile = TABLE[variant].profile
    if profile == "cubic-3ec":
        return [(f"random_cubic_3ec({n}, {s})", random_cubic_3ec(n, s))
                for s in range(1, 1 + count)]
    if profile == "bipartite-cubic-3ec" and count > 0:
        return [(f"lcf[5,-5]^{n // 2}", lcf_5(n))]
    return []


COUNTS = ("solves", "pivots", "rounds", "scans", "tmasters", "tjoins", "max|T|", "lanes")


def install_counters() -> Dict[str, int]:
    """Wrap Tableau.optimize, _pivot, _entering and generate's pricing step,
    every T-join oracle's build and calls, master and one-shot alike, and
    the kernel's start and widening; return the counts."""
    counts = dict.fromkeys(COUNTS, 0)
    generate, tjoin_price = Tableau.generate, decompose._tjoin_price

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_generate(self, price, cost):
        return generate(self, counted(price, "rounds"), cost)

    def widest(fn):
        def wrapper(self, *args):
            fn(self, *args)
            counts["lanes"] = max(counts["lanes"], self.width)
        return wrapper

    def counted_tjoin_price(G, index, T):
        counts["tmasters"] += 1
        counts["max|T|"] = max(counts["max|T|"], len(T))
        return counted(tjoin_price(G, index, T), "tjoins")

    Tableau.optimize = counted(Tableau.optimize, "solves")
    Tableau._pivot = counted(Tableau._pivot, "pivots")
    Tableau._entering = counted(Tableau._entering, "scans")
    Tableau.generate = counted_generate
    Adjugate.__init__ = widest(Adjugate.__init__)
    Adjugate.widen = widest(Adjugate.widen)
    decompose._tjoin_price = counted_tjoin_price
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--variant", action="append", choices=VARIANTS,
                        help="run only this variant (repeatable; default: all)")
    parser.add_argument("--n", type=int, default=10, help="vertices of a generated instance")
    parser.add_argument("--random", type=int, default=3,
                        help="random instances per cubic-3ec variant; the bipartite "
                             "variants get their one LCF instance unless this is 0")
    parser.add_argument("--counts", action="store_true",
                        help="also print each run's simplex and T-join pricing counts")
    args = parser.parse_args()
    counts = install_counters() if args.counts else None

    for variant in args.variant or VARIANTS:
        row = TABLE[variant]
        mixing = ",".join(map(str, row.mixing)) or "-"
        print(f"== variant {variant} alpha={row.ratio} r={row.r} "
              f"cover_r={row.cover_r or '-'} mixing={mixing} ==")
        instances = CORPUS[variant] + generated(variant, args.n, args.random)
        for name, G in instances:
            if counts is not None:
                counts.update(dict.fromkeys(COUNTS, 0))
            t0 = time.perf_counter()
            cert = uniform_cover(G, variant)
            elapsed = time.perf_counter() - t0
            slack = min((v for _, v in cert.slack), default=Fraction(0))
            text = serialize.dumps(serialize.certificate_to_json(G, cert))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(f"  {name:28s} terms={len(cert.combination.terms):3d} "
                  f"maxmult={cert.max_multiplicity} min-slack={slack} "
                  f"[{elapsed:.2f}s] sha256 {digest}")
            if counts is not None:
                print("    " + " ".join(f"{key}={value}" for key, value in counts.items()))


if __name__ == "__main__":
    main()
