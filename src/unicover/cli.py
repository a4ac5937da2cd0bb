"""Command line interface.

Commands read a graph in the text format from a file argument or stdin and
write JSON (or a short summary) to stdout.  Exit codes: 0 success, 2 for
precondition, profile, or parse failures, an input that cannot be read, and
internal solver failures, 1 for verification failures.  One parser serves
every command; it is built on the first call of main in a process.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import serialize
from .approx import approximate
from .connectors import decomposition
from .covers import VARIANTS, uniform_cover
from .cyclecover import find_covering_cycle_cover
from .decompose import require_subtour
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
    """The text of the file at path, or of stdin for None or "-".  An input
    that cannot be opened or read as UTF-8 is a GraphError naming it."""
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise GraphError(f"cannot read {'stdin' if stdin else path}: {reason}") from None


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
    if args.vector == "lp":
        x = solve_subtour(G).x   # its last separation tests x
    else:
        x = {e.id: serialize.parse_frac(args.vector) for e in G.edges}
        require_subtour(G, x)
    comb = decomposition(G, x, args.what)
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
    Gw, res = approximate(args.alg, G, f)
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default=None,
                   help="graph file in text format (default: stdin)")
    p.add_argument("--format", choices=("json", "summary"), default="json")


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _decompose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("what", choices=serialize.DECOMPOSITION_KINDS)
    _add_common(p)
    p.add_argument("--vector", default="lp",
                   help="'lp' for the LP optimizer or a rational for everywhere-r")


def _uniform_cover_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", required=True, choices=VARIANTS)
    _add_common(p)


def _approx_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", required=True, choices=names("approx"))
    _add_common(p)
    p.add_argument("--node-weights", default=None,
                   help="node weight file, or 'uniform1'")


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which also takes positionals after options: a
    plain parse fills `what` and the optional `input` of `decompose trees
    --vector 2/3 g.txt` from `trees` and leaves `g.txt` over.  Only a
    command line with leftovers pays for the slower intermixed parse."""
    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if not extras or self._intermixing:   # or a pass of the intermixed parse
            return parsed, extras
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


# command -> (help, handler, the function that adds its arguments)
COMMANDS: Dict[str, Tuple[str, Callable, Callable]] = {
    "gen": ("emit a named graph family", _cmd_gen, _gen_arguments),
    "solve-subtour": ("exact cut-constraint LP optimum", _cmd_solve_subtour, _add_common),
    "cycle-cover": ("cycle cover crossing all 3- and 4-edge cuts", _cmd_cycle_cover,
                    _add_common),
    "decompose": ("convex decomposition of an edge vector", _cmd_decompose,
                  _decompose_arguments),
    "uniform-cover": ("certified uniform cover", _cmd_uniform_cover,
                      _uniform_cover_arguments),
    "approx": ("approximation algorithm with exact ratio check", _cmd_approx,
               _approx_arguments),
    "verify": ("independently re-check a JSON artifact", _cmd_verify, _add_common),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, with a subparser for each of COMMANDS, built once
    per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="unicover",
        description="Exact certificates for tours, 2-edge-connected covers, "
                    "and approximation algorithms on small graphs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, handler, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
