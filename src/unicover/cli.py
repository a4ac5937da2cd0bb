"""Command line interface.

Commands read a graph in the text format from a file argument or stdin and
write JSON (or a short summary) to stdout.  Exit codes: 0 success, 2 for
precondition, profile, or parse failures and internal solver failures, 1 for
verification failures.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from . import serialize
from .approx import approximate
from .connectors import even_2cut_connectors
from .covers import VARIANTS, uniform_cover
from .cyclecover import find_covering_cycle_cover
from .decompose import decompose_connectors, decompose_spanning_trees
from .families import FAMILY_NAMES, named_family
from .graph import GraphError, Multigraph, NodeWeights
from .lp import solve_subtour
from .serialize import ParseError
from .simplex import LpError
from .table import names
from .verify import verify_document

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECONDITION = 2


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: Optional[str]) -> Multigraph:
    return serialize.graph_from_text(_read_text(path))


def _node_weights(spec: Optional[str], n: int) -> Optional[NodeWeights]:
    if spec is None:
        return None
    if spec == "uniform1":
        return NodeWeights(tuple(Fraction(1) for _ in range(n)))
    return serialize.weights_from_text(_read_text(spec), n)


def _emit(args, doc: dict, summary: str) -> None:
    if args.format == "summary":
        print(summary)
    else:
        sys.stdout.write(serialize.dumps(doc))


def _cmd_gen(args) -> int:
    G = named_family(args.family, n=args.n, seed=args.seed)
    sys.stdout.write(serialize.graph_to_text(G))
    return EXIT_OK


def _cmd_solve_subtour(args) -> int:
    G = _read_graph(args.input)
    res = solve_subtour(G)
    _emit(args, serialize.lp_result_to_json(G, res),
          f"value {serialize.frac_str(res.value)} with {len(res.cuts)} cuts")
    return EXIT_OK


def _cmd_cycle_cover(args) -> int:
    G = _read_graph(args.input)
    res = find_covering_cycle_cover(G)
    _emit(args, serialize.cycle_cover_to_json(G, res),
          f"{len(res.cycles)} cycles covering {len(res.covered_cuts)} small cuts")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    G = _read_graph(args.input)
    x = solve_subtour(G).x if args.vector == "lp" else {
        e.id: serialize.parse_frac(args.vector) for e in G.edges}
    if args.what == "trees":
        comb = decompose_spanning_trees(G, x)
    elif args.what == "connectors":
        comb = decompose_connectors(G, x)
    else:
        comb = even_2cut_connectors(G, x)
    _emit(args, serialize.decomposition_to_json(G, comb, args.what),
          f"{len(comb.terms)} terms, relation {comb.relation}")
    return EXIT_OK


def _cmd_uniform_cover(args) -> int:
    G = _read_graph(args.input)
    cert = uniform_cover(G, args.variant)
    slack_min = min((v for _, v in cert.slack), default=Fraction(0))
    _emit(args, serialize.certificate_to_json(G, cert),
          f"variant {cert.variant}: {len(cert.combination.terms)} terms, "
          f"min slack {serialize.frac_str(slack_min)}")
    return EXIT_OK


def _cmd_approx(args) -> int:
    G = _read_graph(args.input)
    f = _node_weights(args.node_weights, G.n)
    res = approximate(args.alg, G, f)
    Gw = f.induced_graph(G) if f is not None else G
    _emit(args, serialize.approx_to_json(Gw, res),
          f"{res.algorithm}: weight {serialize.frac_str(res.weight)} <= "
          f"{serialize.frac_str(res.ratio)} * {serialize.frac_str(res.lower_bound)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = serialize.loads(_read_text(args.input))
    report = verify_document(doc)
    status = "valid" if report.ok else "INVALID"
    print(f"{status} {report.kind}: {report.detail}")
    return EXIT_OK if report.ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicover",
        description="Exact certificates for tours, 2-edge-connected covers, "
                    "and approximation algorithms on small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", nargs="?", default=None,
                       help="graph file in text format (default: stdin)")
        p.add_argument("--format", choices=("json", "summary"), default="json")

    p = sub.add_parser("gen", help="emit a named graph family")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve-subtour", help="exact cut-constraint LP optimum")
    add_common(p)
    p.set_defaults(func=_cmd_solve_subtour)

    p = sub.add_parser("cycle-cover", help="cycle cover crossing all 3- and 4-edge cuts")
    add_common(p)
    p.set_defaults(func=_cmd_cycle_cover)

    p = sub.add_parser("decompose", help="convex decomposition of an edge vector")
    p.add_argument("what", choices=serialize.DECOMPOSITION_KINDS)
    add_common(p)
    p.add_argument("--vector", default="lp",
                   help="'lp' for the LP optimizer or a rational for everywhere-r")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("uniform-cover", help="certified uniform cover")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    add_common(p)
    p.set_defaults(func=_cmd_uniform_cover)

    p = sub.add_parser("approx", help="approximation algorithm with exact ratio check")
    p.add_argument("--alg", required=True, choices=names("approx"))
    add_common(p)
    p.add_argument("--node-weights", default=None,
                   help="node weight file, or 'uniform1'")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("verify", help="independently re-check a JSON artifact")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    # Every library error is a GraphError, apart from the simplex's LpError.
    except (GraphError, LpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
